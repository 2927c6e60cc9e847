#include <stdexcept>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::workflows {

dag::Workflow buildCyberShake(const CyberShakeParams& p) {
  if (p.variations < 1)
    throw std::invalid_argument("cybershake: variations must be >= 1");
  dag::WorkflowBuilder wf("cybershake-" + std::to_string(p.variations));

  // Master SGT volume staged from the SCEC archive; every extraction reads it.
  const dag::FileId master =
      wf.addFile("sgt_master.bin", p.sgtBytes * 4.0);

  const dag::TaskId zipSeis =
      wf.addTask("ZipSeis", "ZipSeis", p.zipSeconds);
  const dag::TaskId zipPsa = wf.addTask("ZipPSA", "ZipPSA", p.zipSeconds);

  for (int i = 0; i < p.variations; ++i) {
    const std::string n = std::to_string(i);
    const dag::TaskId extract =
        wf.addTask("ExtractSGT_" + n, "ExtractSGT", p.extractSeconds);
    wf.addInput(extract, master);
    const dag::FileId sgt = wf.addFile("sgt_" + n + ".bin", p.sgtBytes);
    wf.addOutput(extract, sgt);

    const dag::TaskId synth = wf.addTask("SeismogramSynthesis_" + n,
                                         "SeismogramSynthesis",
                                         p.synthesisSeconds);
    wf.addInput(synth, sgt);
    const dag::FileId seis =
        wf.addFile("seis_" + n + ".grm", p.seismogramBytes);
    wf.addOutput(synth, seis);
    wf.addInput(zipSeis, seis);

    const dag::TaskId peak = wf.addTask("PeakValCalcOkaya_" + n,
                                        "PeakValCalcOkaya", p.peakValSeconds);
    wf.addInput(peak, seis);
    const dag::FileId pv = wf.addFile("peak_" + n + ".bsa", p.peakValueBytes);
    wf.addOutput(peak, pv);
    wf.addInput(zipPsa, pv);
  }

  const dag::FileId seisZip =
      wf.addFile("seismograms.zip",
                 p.seismogramBytes * static_cast<double>(p.variations));
  wf.addOutput(zipSeis, seisZip);
  const dag::FileId psaZip =
      wf.addFile("peakvals.zip",
                 p.peakValueBytes * static_cast<double>(p.variations));
  wf.addOutput(zipPsa, psaZip);

  return wf.build();
}

}  // namespace mcsim::workflows
