#include "mcsim/montage/factory.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mcsim::montage {
namespace {

double baseCpuSeconds(const MontageParams& p) {
  const double n = static_cast<double>(p.imageCount());
  const double d = static_cast<double>(p.diffCount);
  return n * (baseRuntimeSeconds(TaskType::mProject) +
              baseRuntimeSeconds(TaskType::mBackground)) +
         d * baseRuntimeSeconds(TaskType::mDiffFit) +
         baseRuntimeSeconds(TaskType::mConcatFit) +
         baseRuntimeSeconds(TaskType::mBgModel) +
         baseRuntimeSeconds(TaskType::mImgtbl) +
         baseRuntimeSeconds(TaskType::mAdd) +
         baseRuntimeSeconds(TaskType::mShrink) +
         baseRuntimeSeconds(TaskType::mJPEG);
}

/// Header + raws + (d fit files + fits/corrections/cimages tables) + mosaic
/// + shrunk mosaic + preview: everything the CCR calibration does not size.
double fixedBytes(const MontageParams& p) {
  const double n = static_cast<double>(p.imageCount());
  return p.headerBytes.value() + n * p.inputImageBytes.value() +
         static_cast<double>(p.diffCount + 3) * p.textFileBytes.value() +
         p.mosaicBytes.value() * (1.0 + p.shrinkFactor) + p.jpegBytes.value();
}

}  // namespace

void emitMontage(dag::WorkflowBuilder& sink, const MontageParams& p,
                 const std::vector<std::pair<int, int>>& pairs,
                 const Calibration& calib, const EmitOptions& options) {
  using dag::FileId;
  using dag::TaskId;

  const std::size_t n = static_cast<std::size_t>(p.imageCount());
  const std::string& prefix = options.prefix;
  std::string buf;
  auto plain = [&](const char* name) -> const std::string& {
    buf.assign(prefix);
    buf.append(name);
    return buf;
  };
  auto indexed = [&](const char* stem, std::size_t i,
                     const char* suffix) -> const std::string& {
    char num[16];
    std::snprintf(num, sizeof num, "_%05d", static_cast<int>(i));
    buf.assign(prefix);
    buf.append(stem);
    buf.append(num);
    buf.append(suffix);
    return buf;
  };
  auto runtime = [&](TaskType type) {
    return baseRuntimeSeconds(type) * calib.runtimeScale;
  };

  // -- files staged in from the archive -------------------------------------
  const FileId header = sink.addFile(plain("region.hdr"), p.headerBytes);
  const std::size_t shared = options.leftRaws ? options.sharedRaws : 0;
  std::vector<FileId> raws(n);
  for (std::size_t i = 0; i < n; ++i)
    raws[i] = i < shared
                  ? (*options.leftRaws)[options.leftRaws->size() - shared + i]
                  : sink.addFile(indexed("2mass", i, ".fits"),
                                 p.inputImageBytes);

  // -- level 1: mProject ------------------------------------------------------
  // Each reprojection emits the projected image plus its area (coverage)
  // file: half of the intermediate images the CCR calibration sizes.
  std::vector<FileId> projImages(n);
  std::vector<FileId> projAreas(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = sink.addTask(indexed("mProject", i, ""),
                                  typeName(TaskType::mProject),
                                  runtime(TaskType::mProject));
    sink.addInput(t, raws[i]);
    sink.addInput(t, header);
    projImages[i] =
        sink.addFile(indexed("proj", i, ".fits"), calib.intermediateBytes);
    projAreas[i] = sink.addFile(indexed("proj", i, "_area.fits"),
                                calib.intermediateBytes);
    sink.addOutput(t, projImages[i]);
    sink.addOutput(t, projAreas[i]);
    if (options.releaseSeconds > 0.0)
      sink.setEarliestStart(t, options.releaseSeconds);
  }

  // -- level 2: mDiffFit over overlapping pairs -------------------------------
  std::vector<FileId> fitFiles(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const TaskId t = sink.addTask(indexed("mDiffFit", k, ""),
                                  typeName(TaskType::mDiffFit),
                                  runtime(TaskType::mDiffFit));
    sink.addInput(t, projImages[static_cast<std::size_t>(pairs[k].first)]);
    sink.addInput(t, projImages[static_cast<std::size_t>(pairs[k].second)]);
    fitFiles[k] = sink.addFile(indexed("fit", k, ".txt"), p.textFileBytes);
    sink.addOutput(t, fitFiles[k]);
  }

  // -- level 3/4: mConcatFit, mBgModel ---------------------------------------
  const TaskId concat =
      sink.addTask(plain("mConcatFit"), typeName(TaskType::mConcatFit),
                   runtime(TaskType::mConcatFit));
  for (FileId f : fitFiles) sink.addInput(concat, f);
  const FileId fitsTbl = sink.addFile(plain("fits.tbl"), p.textFileBytes);
  sink.addOutput(concat, fitsTbl);

  const TaskId bgModel =
      sink.addTask(plain("mBgModel"), typeName(TaskType::mBgModel),
                   runtime(TaskType::mBgModel));
  sink.addInput(bgModel, fitsTbl);
  const FileId corrections =
      sink.addFile(plain("corrections.tbl"), p.textFileBytes);
  sink.addOutput(bgModel, corrections);

  // -- level 5: mBackground ----------------------------------------------------
  std::vector<FileId> corrImages(n);
  std::vector<FileId> corrAreas(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = sink.addTask(indexed("mBackground", i, ""),
                                  typeName(TaskType::mBackground),
                                  runtime(TaskType::mBackground));
    sink.addInput(t, projImages[i]);
    sink.addInput(t, projAreas[i]);
    sink.addInput(t, corrections);
    corrImages[i] =
        sink.addFile(indexed("corr", i, ".fits"), calib.intermediateBytes);
    corrAreas[i] = sink.addFile(indexed("corr", i, "_area.fits"),
                                calib.intermediateBytes);
    sink.addOutput(t, corrImages[i]);
    sink.addOutput(t, corrAreas[i]);
  }

  // -- level 6/7: mImgtbl, mAdd ------------------------------------------------
  const TaskId imgtbl = sink.addTask(
      plain("mImgtbl"), typeName(TaskType::mImgtbl), runtime(TaskType::mImgtbl));
  for (std::size_t i = 0; i < n; ++i) sink.addInput(imgtbl, corrImages[i]);
  const FileId imagesTbl = sink.addFile(plain("cimages.tbl"), p.textFileBytes);
  sink.addOutput(imgtbl, imagesTbl);

  const TaskId add = sink.addTask(plain("mAdd"), typeName(TaskType::mAdd),
                                  runtime(TaskType::mAdd));
  for (std::size_t i = 0; i < n; ++i) {
    sink.addInput(add, corrImages[i]);
    sink.addInput(add, corrAreas[i]);
  }
  sink.addInput(add, imagesTbl);
  sink.addInput(add, header);
  const FileId mosaic = sink.addFile(plain("mosaic.fits"), p.mosaicBytes);
  sink.addOutput(add, mosaic);
  // The full-resolution mosaic is the user's product even though mShrink
  // also reads it.
  sink.markExplicitOutput(mosaic);

  // -- level 8/9: mShrink, mJPEG ----------------------------------------------
  const TaskId shrink = sink.addTask(
      plain("mShrink"), typeName(TaskType::mShrink), runtime(TaskType::mShrink));
  sink.addInput(shrink, mosaic);
  const FileId shrunk = sink.addFile(plain("mosaic_small.fits"),
                                     p.mosaicBytes * p.shrinkFactor);
  sink.addOutput(shrink, shrunk);

  const TaskId jpeg = sink.addTask(plain("mJPEG"), typeName(TaskType::mJPEG),
                                   runtime(TaskType::mJPEG));
  sink.addInput(jpeg, shrunk);
  const FileId preview = sink.addFile(plain("mosaic.jpg"), p.jpegBytes);
  sink.addOutput(jpeg, preview);

  if (options.rawsOut) *options.rawsOut = std::move(raws);
}

std::vector<std::pair<int, int>> overlapPairs(int cols, int rows, int count) {
  std::vector<std::pair<int, int>> pairs;
  auto at = [cols](int c, int r) { return r * cols + c; };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c)
      pairs.emplace_back(at(c, r), at(c + 1, r));
  for (int r = 0; r + 1 < rows; ++r)
    for (int c = 0; c < cols; ++c)
      pairs.emplace_back(at(c, r), at(c, r + 1));
  for (int r = 0; r + 1 < rows; ++r)
    for (int c = 0; c + 1 < cols; ++c)
      pairs.emplace_back(at(c, r), at(c + 1, r + 1));
  for (int r = 0; r + 1 < rows; ++r)
    for (int c = 1; c < cols; ++c)
      pairs.emplace_back(at(c, r), at(c - 1, r + 1));
  if (static_cast<int>(pairs.size()) < count)
    throw std::invalid_argument(
        "montage: grid too small for requested diffCount (" +
        std::to_string(pairs.size()) + " adjacencies < " +
        std::to_string(count) + ")");
  pairs.resize(static_cast<std::size_t>(count));
  return pairs;
}

MontageParams montage1DegreeParams() {
  MontageParams p;
  p.name = "montage-1deg";
  p.degrees = 1.0;
  p.gridCols = 9;
  p.gridRows = 5;                       // 45 images
  p.diffCount = 107;                    // 2*45 + 107 + 6 = 203 tasks
  p.mosaicBytes = Bytes::fromMB(173.46);
  p.targetCpuSeconds = 5.6 * kSecondsPerHour;   // $0.56 at $0.1/CPU-h
  p.targetCcr = 0.053;
  return p;
}

MontageParams montage2DegreeParams() {
  MontageParams p;
  p.name = "montage-2deg";
  p.degrees = 2.0;
  p.gridCols = 15;
  p.gridRows = 11;                      // 165 images
  p.diffCount = 395;                    // 2*165 + 395 + 6 = 731 tasks
  p.mosaicBytes = Bytes::fromMB(557.9);
  p.targetCpuSeconds = 20.3 * kSecondsPerHour;  // $2.03
  p.targetCcr = 0.053;
  return p;
}

MontageParams montage4DegreeParams() {
  MontageParams p;
  p.name = "montage-4deg";
  p.degrees = 4.0;
  p.gridCols = 28;
  p.gridRows = 25;                      // 700 images
  p.diffCount = 1621;                   // 2*700 + 1621 + 6 = 3027 tasks
  p.mosaicBytes = Bytes::fromGB(2.229);
  p.targetCpuSeconds = 84.0 * kSecondsPerHour;  // $8.40
  p.targetCcr = 0.045;
  return p;
}

MontageParams paramsForDegrees(double degrees) {
  if (!(degrees > 0.0) || !std::isfinite(degrees))
    throw std::invalid_argument("montage: degrees must be positive and "
                                "finite (got " + std::to_string(degrees) + ")");
  // Catalog lookup keyed on the exact user-supplied survey sizes; anything
  // else falls through to interpolation below.
  // mcsim-lint: allow(float-equality)
  if (degrees == 1.0) return montage1DegreeParams();
  if (degrees == 2.0) return montage2DegreeParams();  // mcsim-lint: allow(float-equality)
  if (degrees == 4.0) return montage4DegreeParams();  // mcsim-lint: allow(float-equality)

  MontageParams p;
  p.name = "montage-" + std::to_string(degrees) + "deg";
  p.degrees = degrees;
  // Image count grows with mosaic area (presets: ~44 images per square
  // degree); keep the grid near the presets' column/row aspect.  The count
  // is checked in double before any int cast: the largest count the grid
  // derives, the file count 5n + d + 7 with d <= 2.35n, must fit in int,
  // which it does not past about 2,477 degrees.
  const double imageCount =
      std::max(4.0, std::round(43.75 * degrees * degrees));
  if (8.0 * imageCount > static_cast<double>(std::numeric_limits<int>::max()))
    throw std::invalid_argument(
        "montage: " + std::to_string(degrees) +
        " degrees is too large: its image grid overflows the workflow's int "
        "counts");
  const int images = static_cast<int>(imageCount);
  int cols = std::max(2, static_cast<int>(std::lround(std::sqrt(images * 1.4))));
  int rows = std::max(2, (images + cols - 1) / cols);
  p.gridCols = cols;
  p.gridRows = rows;
  const int n = p.imageCount();
  // Presets average ~2.35 diffs per image; cap by the grid's adjacency
  // supply (~4 per interior image).
  const int maxDiffs = (cols - 1) * rows + cols * (rows - 1) + 2 * (cols - 1) * (rows - 1);
  p.diffCount = std::min(maxDiffs, static_cast<int>(std::lround(2.35 * n)));
  // CPU time scales with the number of images (presets: ~448 s per image).
  p.targetCpuSeconds = 448.0 * n;
  // Mosaic bytes scale with area (preset: 173.46 MB per square degree).
  p.mosaicBytes = Bytes::fromMB(173.46 * degrees * degrees);
  // CCR drifts down slightly for larger mosaics (0.053 at <=2 deg, 0.045 at
  // 4 deg); interpolate and clamp.
  const double t = std::clamp((degrees - 2.0) / 2.0, 0.0, 1.0);
  p.targetCcr = 0.053 + t * (0.045 - 0.053);
  return p;
}

Calibration calibrate(const MontageParams& p, double cpuFactor,
                      std::string* error) {
  Calibration calib;
  const double targetCpu = p.targetCpuSeconds * cpuFactor;
  calib.runtimeScale = targetCpu / baseCpuSeconds(p);
  const double targetTotalBytes =
      p.targetCcr * p.referenceBandwidthBytesPerSec * targetCpu;
  const double needed = targetTotalBytes - fixedBytes(p);
  if (!(needed > 0.0)) {
    *error =
        "CCR calibration infeasible: the target data volume does not cover "
        "the fixed files (mosaic too small or CPU target too low)";
    return calib;
  }
  calib.intermediateBytes =
      Bytes(needed / (4.0 * static_cast<double>(p.imageCount())));
  return calib;
}

dag::Workflow buildMontageWorkflow(const MontageParams& p) {
  if (p.gridCols < 2 || p.gridRows < 2)
    throw std::invalid_argument("montage: grid must be at least 2x2");
  if (p.diffCount < 1)
    throw std::invalid_argument("montage: diffCount must be >= 1");
  if (!(p.targetCpuSeconds > 0.0))
    throw std::invalid_argument("montage: targetCpuSeconds must be positive");
  if (!(p.targetCcr > 0.0))
    throw std::invalid_argument("montage: targetCcr must be positive");

  const auto pairs = overlapPairs(p.gridCols, p.gridRows, p.diffCount);
  std::string error;
  const Calibration calib = calibrate(p, 1.0, &error);
  if (!error.empty()) throw std::invalid_argument("montage: " + error);

  dag::WorkflowBuilder builder(p.name);
  builder.reserve(static_cast<std::size_t>(p.taskCount()),
                  static_cast<std::size_t>(p.fileCount()),
                  p.inputEdgeCount(), p.outputEdgeCount());
  emitMontage(builder, p, pairs, calib);
  return builder.build();
}

dag::Workflow buildMontageWorkflow(double degrees) {
  return buildMontageWorkflow(paramsForDegrees(degrees));
}

}  // namespace mcsim::montage
