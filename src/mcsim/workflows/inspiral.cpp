#include <stdexcept>
#include <string>
#include <vector>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::workflows {

dag::Workflow buildInspiral(const InspiralParams& p) {
  if (p.groups < 1 || p.jobsPerGroup < 1)
    throw std::invalid_argument("inspiral: groups and jobsPerGroup must be >= 1");
  dag::WorkflowBuilder wf("inspiral-" + std::to_string(p.groups) + "x" +
                          std::to_string(p.jobsPerGroup));

  // Calibrated detector data shared by all template banks.
  const dag::FileId frames = wf.addFile("gw_frames.gwf", Bytes::fromMB(750.0));

  std::vector<dag::FileId> secondStageTriggers;
  for (int g = 0; g < p.groups; ++g) {
    const std::string gn = std::to_string(g);

    // First stage: bank -> inspiral per job, coincidence across the group.
    const dag::TaskId thinca1 =
        wf.addTask("Thinca1_" + gn, "Thinca", p.thincaSeconds);
    for (int j = 0; j < p.jobsPerGroup; ++j) {
      const std::string n = gn + "_" + std::to_string(j);
      const dag::TaskId bank =
          wf.addTask("TmpltBank_" + n, "TmpltBank", p.tmpltBankSeconds);
      wf.addInput(bank, frames);
      const dag::FileId bankFile =
          wf.addFile("bank_" + n + ".xml", p.templateBankBytes);
      wf.addOutput(bank, bankFile);

      const dag::TaskId inspiral =
          wf.addTask("Inspiral1_" + n, "Inspiral", p.inspiralSeconds);
      wf.addInput(inspiral, bankFile);
      const dag::FileId triggers =
          wf.addFile("trig1_" + n + ".xml", p.triggerBytes);
      wf.addOutput(inspiral, triggers);
      wf.addInput(thinca1, triggers);
    }
    const dag::FileId coinc1 =
        wf.addFile("coinc1_" + gn + ".xml", p.triggerBytes);
    wf.addOutput(thinca1, coinc1);

    // Second stage: re-filter the coincident candidates.
    const dag::TaskId thinca2 =
        wf.addTask("Thinca2_" + gn, "Thinca", p.thincaSeconds);
    for (int j = 0; j < p.jobsPerGroup; ++j) {
      const std::string n = gn + "_" + std::to_string(j);
      const dag::TaskId trigBank =
          wf.addTask("TrigBank_" + n, "TrigBank", p.trigBankSeconds);
      wf.addInput(trigBank, coinc1);
      const dag::FileId tb = wf.addFile("trigbank_" + n + ".xml",
                                        p.templateBankBytes);
      wf.addOutput(trigBank, tb);

      const dag::TaskId inspiral2 =
          wf.addTask("Inspiral2_" + n, "Inspiral", p.inspiralSeconds);
      wf.addInput(inspiral2, tb);
      const dag::FileId triggers2 =
          wf.addFile("trig2_" + n + ".xml", p.triggerBytes);
      wf.addOutput(inspiral2, triggers2);
      wf.addInput(thinca2, triggers2);
    }
    const dag::FileId coinc2 =
        wf.addFile("coinc2_" + gn + ".xml", p.triggerBytes);
    wf.addOutput(thinca2, coinc2);
    secondStageTriggers.push_back(coinc2);
  }

  return wf.build();
}

}  // namespace mcsim::workflows
