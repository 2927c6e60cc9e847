// A gallery of Pegasus-era scientific workflows beyond Montage.
//
// The paper closes Question 2a by noting "Montage is only one of a number
// of scientific applications that can potentially benefit from cloud
// services" and probes other regimes by scaling Montage's CCR.  This
// gallery provides the actual structures of the four other workflows that
// the contemporaneous workflow-characterization literature (Bharathi et
// al., "Characterization of Scientific Workflows", WORKS/SC 2008) made
// standard: CyberShake (earthquake hazard), Epigenomics (DNA methylation),
// LIGO Inspiral (gravitational-wave search) and SIPHT (sRNA prediction).
// Runtimes and file sizes are representative of that characterization's
// regimes (CyberShake: data-heavy with short tasks; Epigenomics: CPU-bound
// pipelines; Inspiral: CPU-heavy with moderate data; SIPHT: small fan-in),
// so the gallery spans the CCR spectrum the paper's Figure 11 sweeps
// synthetically.
//
// All generators are deterministic.
#pragma once

#include "mcsim/dag/workflow.hpp"

namespace mcsim::workflows {

/// CyberShake: for each rupture variation, ExtractSGT feeds
/// SeismogramSynthesis feeds PeakValCalcOkaya; seismograms are zipped by
/// ZipSeis and peak values by ZipPSA.  Data-intensive: the strain-green-
/// tensor files dominate (hundreds of MB each), task runtimes are short —
/// the high-CCR regime of the paper's Figure 11.
struct CyberShakeParams {
  int variations = 40;                       ///< Rupture variations.
  Bytes sgtBytes = Bytes::fromMB(200.0);     ///< Extracted SGT per variation.
  Bytes seismogramBytes = Bytes::fromMB(0.2);
  Bytes peakValueBytes = Bytes::fromKB(1.0);
  double extractSeconds = 110.0;
  double synthesisSeconds = 80.0;
  double peakValSeconds = 1.0;
  double zipSeconds = 30.0;
};
dag::Workflow buildCyberShake(const CyberShakeParams& params = {});

/// Epigenomics: a fastQSplit fans a sequencing lane into chunks; each chunk
/// runs the filterContams -> sol2sanger -> fastq2bfq -> map chain; mapMerge,
/// maqIndex and pileup reduce to the final methylation map.  CPU-bound
/// pipelines (map dominates): the low-CCR regime.
struct EpigenomicsParams {
  int chunks = 25;                            ///< Parallel chunks per lane.
  Bytes laneBytes = Bytes::fromGB(1.8);       ///< Raw sequencing lane.
  Bytes chunkBytes = Bytes::fromMB(72.0);
  Bytes mappedBytes = Bytes::fromMB(14.0);
  double splitSeconds = 35.0;
  double filterSeconds = 2.0;
  double sol2sangerSeconds = 0.5;
  double fastq2bfqSeconds = 0.5;
  double mapSeconds = 3600.0;                 ///< Alignment dominates.
  double mergeSeconds = 280.0;
  double indexSeconds = 45.0;
  double pileupSeconds = 56.0;
};
dag::Workflow buildEpigenomics(const EpigenomicsParams& params = {});

/// LIGO Inspiral: template banks feed matched-filter Inspiral jobs whose
/// triggers are coincidence-tested (Thinca) per group, then the surviving
/// candidates are re-filtered (TrigBank -> Inspiral -> Thinca).  CPU-heavy
/// with moderate data.
struct InspiralParams {
  int groups = 5;            ///< Detector-segment groups.
  int jobsPerGroup = 9;      ///< Inspiral jobs per group.
  Bytes templateBankBytes = Bytes::fromMB(1.0);
  Bytes triggerBytes = Bytes::fromMB(1.3);
  double tmpltBankSeconds = 600.0;
  double inspiralSeconds = 1200.0;
  double thincaSeconds = 6.0;
  double trigBankSeconds = 6.0;
};
dag::Workflow buildInspiral(const InspiralParams& params = {});

/// SIPHT: many independent Patser scans concatenate into one file; a band
/// of heterogeneous analysis jobs (Blast variants, RNA folding, parsing)
/// all feed the final SRNA annotation.  Small files, wide shallow fan-in.
struct SiphtParams {
  int patserJobs = 22;
  int blastJobs = 8;
  Bytes motifBytes = Bytes::fromKB(650.0);
  Bytes blastOutBytes = Bytes::fromMB(0.7);
  double patserSeconds = 1.0;
  double concatSeconds = 0.3;
  double blastSeconds = 1200.0;
  double srnaSeconds = 900.0;
  double annotateSeconds = 20.0;
};
dag::Workflow buildSipht(const SiphtParams& params = {});

/// All four gallery workflows at their default scales (plus names), for
/// sweep-style tooling.
std::vector<dag::Workflow> buildGallery();

}  // namespace mcsim::workflows
