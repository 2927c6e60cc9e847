#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::workflows {

dag::Workflow buildSipht(const SiphtParams& p) {
  if (p.patserJobs < 1 || p.blastJobs < 1)
    throw std::invalid_argument("sipht: job counts must be >= 1");
  dag::WorkflowBuilder wf("sipht-" + std::to_string(p.patserJobs) + "p" +
                          std::to_string(p.blastJobs) + "b");

  // Genome under analysis, read by everything.
  const dag::FileId genome = wf.addFile("genome.ffn", Bytes::fromMB(4.5));

  // Transcription-factor binding-site scans, concatenated.
  const dag::TaskId concat =
      wf.addTask("Patser_concate", "PatserConcate", p.concatSeconds);
  for (int i = 0; i < p.patserJobs; ++i) {
    const std::string n = std::to_string(i);
    const dag::TaskId patser = wf.addTask("Patser_" + n, "Patser",
                                          p.patserSeconds);
    wf.addInput(patser, genome);
    const dag::FileId motif = wf.addFile("motif_" + n + ".txt", p.motifBytes);
    wf.addOutput(patser, motif);
    wf.addInput(concat, motif);
  }
  const dag::FileId motifs = wf.addFile(
      "motifs.txt", p.motifBytes * static_cast<double>(p.patserJobs));
  wf.addOutput(concat, motifs);

  // The SRNA prediction core.
  const dag::TaskId srna = wf.addTask("SRNA", "SRNA", p.srnaSeconds);
  wf.addInput(srna, genome);
  wf.addInput(srna, motifs);
  const dag::FileId candidates = wf.addFile("srna_candidates.fasta",
                                            Bytes::fromMB(1.2));
  wf.addOutput(srna, candidates);

  // Heterogeneous homology searches over the candidates.
  const dag::TaskId annotate =
      wf.addTask("SRNA_annotate", "SRNAAnnotate", p.annotateSeconds);
  static const char* kBlastKinds[] = {
      "Blast", "Blast_synteny", "Blast_candidate", "Blast_QRNA",
      "Blast_paralogues", "FFN_parse", "RNAMotif", "Transterm"};
  for (int i = 0; i < p.blastJobs; ++i) {
    const std::string kind = kBlastKinds[i % 8];
    const std::string name = kind + "_" + std::to_string(i);
    const dag::TaskId blast = wf.addTask(name, kind, p.blastSeconds);
    wf.addInput(blast, candidates);
    const dag::FileId out =
        wf.addFile(name + ".out", p.blastOutBytes);
    wf.addOutput(blast, out);
    wf.addInput(annotate, out);
  }
  const dag::FileId annotation = wf.addFile("srna.annotated",
                                            Bytes::fromMB(0.5));
  wf.addOutput(annotate, annotation);

  return wf.build();
}

std::vector<dag::Workflow> buildGallery() {
  std::vector<dag::Workflow> gallery;
  gallery.push_back(buildCyberShake());
  gallery.push_back(buildEpigenomics());
  gallery.push_back(buildInspiral());
  gallery.push_back(buildSipht());
  return gallery;
}

}  // namespace mcsim::workflows
