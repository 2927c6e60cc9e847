#include "mcsim/dag/random_dag.hpp"

#include <string>
#include <vector>

#include "mcsim/util/rng.hpp"

namespace mcsim::dag {

Workflow makeRandomWorkflow(std::uint64_t seed, const RandomDagOptions& opt) {
  Rng rng(seed);
  WorkflowBuilder wf("random-" + std::to_string(seed));

  const int layers = static_cast<int>(rng.uniformInt(opt.minLayers, opt.maxLayers));

  // Seed external input files for layer 1.
  std::vector<FileId> previousLayerFiles;
  const int inputCount = static_cast<int>(rng.uniformInt(opt.minWidth, opt.maxWidth));
  for (int i = 0; i < inputCount; ++i) {
    previousLayerFiles.push_back(wf.addFile(
        "input_" + std::to_string(i),
        Bytes::fromMB(rng.uniformReal(opt.minFileMB, opt.maxFileMB))));
  }

  int taskCounter = 0;
  for (int layer = 0; layer < layers; ++layer) {
    const int width = static_cast<int>(rng.uniformInt(opt.minWidth, opt.maxWidth));
    std::vector<FileId> producedHere;
    for (int i = 0; i < width; ++i) {
      const TaskId t = wf.addTask(
          "task_" + std::to_string(taskCounter),
          "layer" + std::to_string(layer),
          rng.uniformReal(opt.minRuntimeSeconds, opt.maxRuntimeSeconds));
      ++taskCounter;
      // Guaranteed input: a deterministic-but-random pick from the previous
      // layer's files; extra inputs by coin flip.
      const std::size_t pick = static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(previousLayerFiles.size()) - 1));
      wf.addInput(t, previousLayerFiles[pick]);
      for (std::size_t f = 0; f < previousLayerFiles.size(); ++f) {
        if (f == pick) continue;
        if (rng.chance(opt.extraInputProbability))
          wf.addInput(t, previousLayerFiles[f]);
      }
      const FileId out = wf.addFile(
          "f_" + std::to_string(layer) + "_" + std::to_string(i),
          Bytes::fromMB(rng.uniformReal(opt.minFileMB, opt.maxFileMB)));
      wf.addOutput(t, out);
      producedHere.push_back(out);
      if (rng.chance(opt.secondOutputProbability)) {
        const FileId out2 = wf.addFile(
            "f_" + std::to_string(layer) + "_" + std::to_string(i) + "b",
            Bytes::fromMB(rng.uniformReal(opt.minFileMB, opt.maxFileMB)));
        wf.addOutput(t, out2);
        producedHere.push_back(out2);
      }
    }
    previousLayerFiles = std::move(producedHere);
  }

  if (opt.addSink) {
    const TaskId sink = wf.addTask(
        "sink", "sink",
        rng.uniformReal(opt.minRuntimeSeconds, opt.maxRuntimeSeconds));
    for (FileId f : previousLayerFiles) wf.addInput(sink, f);
    const FileId final = wf.addFile(
        "final", Bytes::fromMB(rng.uniformReal(opt.minFileMB, opt.maxFileMB)));
    wf.addOutput(sink, final);
  }

  return wf.build();
}

}  // namespace mcsim::dag
