#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::workflows {

dag::Workflow buildEpigenomics(const EpigenomicsParams& p) {
  if (p.chunks < 1)
    throw std::invalid_argument("epigenomics: chunks must be >= 1");
  dag::WorkflowBuilder wf("epigenomics-" + std::to_string(p.chunks));

  const dag::FileId lane = wf.addFile("lane.fastq", p.laneBytes);
  const dag::TaskId split =
      wf.addTask("fastQSplit", "fastQSplit", p.splitSeconds);
  wf.addInput(split, lane);

  const dag::TaskId merge =
      wf.addTask("mapMerge", "mapMerge", p.mergeSeconds);

  for (int i = 0; i < p.chunks; ++i) {
    const std::string n = std::to_string(i);
    const dag::FileId chunk = wf.addFile("chunk_" + n + ".fastq", p.chunkBytes);
    wf.addOutput(split, chunk);

    const dag::TaskId filter =
        wf.addTask("filterContams_" + n, "filterContams", p.filterSeconds);
    wf.addInput(filter, chunk);
    const dag::FileId filtered =
        wf.addFile("filtered_" + n + ".fastq", p.chunkBytes * 0.95);
    wf.addOutput(filter, filtered);

    const dag::TaskId s2s =
        wf.addTask("sol2sanger_" + n, "sol2sanger", p.sol2sangerSeconds);
    wf.addInput(s2s, filtered);
    const dag::FileId sanger =
        wf.addFile("sanger_" + n + ".fastq", p.chunkBytes * 0.95);
    wf.addOutput(s2s, sanger);

    const dag::TaskId f2b =
        wf.addTask("fastq2bfq_" + n, "fastq2bfq", p.fastq2bfqSeconds);
    wf.addInput(f2b, sanger);
    const dag::FileId bfq =
        wf.addFile("reads_" + n + ".bfq", p.chunkBytes * 0.25);
    wf.addOutput(f2b, bfq);

    const dag::TaskId map = wf.addTask("map_" + n, "map", p.mapSeconds);
    wf.addInput(map, bfq);
    const dag::FileId mapped = wf.addFile("map_" + n + ".out", p.mappedBytes);
    wf.addOutput(map, mapped);
    wf.addInput(merge, mapped);
  }

  const dag::FileId merged = wf.addFile(
      "merged.map", p.mappedBytes * static_cast<double>(p.chunks));
  wf.addOutput(merge, merged);

  const dag::TaskId index =
      wf.addTask("maqIndex", "maqIndex", p.indexSeconds);
  wf.addInput(index, merged);
  const dag::FileId indexed = wf.addFile(
      "merged.index", p.mappedBytes * static_cast<double>(p.chunks) * 0.3);
  wf.addOutput(index, indexed);

  const dag::TaskId pileup = wf.addTask("pileup", "pileup", p.pileupSeconds);
  wf.addInput(pileup, indexed);
  const dag::FileId result = wf.addFile(
      "methylation.pileup",
      p.mappedBytes * static_cast<double>(p.chunks) * 0.6);
  wf.addOutput(pileup, result);

  return wf.build();
}

}  // namespace mcsim::workflows
