#include "mcsim/workflows/survey.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "mcsim/montage/factory.hpp"

namespace mcsim::workflows {

namespace {

using dag::FileId;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A tile's seed is a pure function of (campaign seed, tile index): tile
/// content never depends on campaign size or shard boundaries.
std::uint64_t tileSeed(const SurveyConfig& config, std::uint64_t tile) {
  return splitmix64(config.seed + splitmix64(tile + 1));
}

/// Deterministic per-tile CPU multiplier in [1-j, 1+j].
double jitterFactor(const SurveyConfig& config, std::uint64_t tile) {
  // 0.0 is the exact "jitter disabled" default, never a computed value.
  // mcsim-lint: allow(float-equality)
  if (config.runtimeJitterFraction == 0.0) return 1.0;
  const double u =
      static_cast<double>(tileSeed(config, tile) >> 11) * 0x1.0p-53;
  return 1.0 + config.runtimeJitterFraction * (2.0 * u - 1.0);
}

/// Calibrate tile `tile`; throws with the tile index if infeasible.
montage::Calibration tileCalibration(const SurveyConfig& config,
                                     const montage::MontageParams& p,
                                     std::uint64_t tile) {
  std::string error;
  const montage::Calibration calib =
      montage::calibrate(p, jitterFactor(config, tile), &error);
  if (!error.empty())
    throw std::invalid_argument("survey: tile " + std::to_string(tile) + ": " +
                                error);
  return calib;
}

std::string tilePrefix(std::uint64_t tile, bool slash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "t%05llu%s",
                static_cast<unsigned long long>(tile), slash ? "/" : "");
  return buf;
}

/// Build tiles [firstTile, lastTile) of the campaign through one builder.
/// Shared-raw aliasing only engages for tiles whose left neighbour is
/// inside the range (full campaigns start at 0, so every left neighbour
/// is; shard mode requires overlap 0).
dag::Workflow buildTileRange(const SurveyConfig& config,
                             const SurveyCounts& counts, std::string name,
                             std::uint64_t firstTile, std::uint64_t lastTile) {
  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const auto pairs = montage::overlapPairs(p.gridCols, p.gridRows, p.diffCount);
  const std::uint64_t tiles = lastTile - firstTile;
  const std::size_t k = static_cast<std::size_t>(counts.sharedRawsPerEdge);

  dag::WorkflowBuilder builder(std::move(name));
  // Average name ~= 7-char tile prefix + ~17-char stem; 28 covers both
  // comfortably without measuring.
  builder.reserve(tiles * counts.tasksPerTile, tiles * counts.filesPerTile,
                  tiles * (counts.inputEdges / counts.tiles),
                  tiles * (counts.outputEdges / counts.tiles),
                  tiles * (counts.tasksPerTile + counts.filesPerTile) * 28);

  std::vector<FileId> prevRaws;
  std::vector<FileId> raws;
  for (std::uint64_t t = firstTile; t < lastTile; ++t) {
    const bool shareLeft = k > 0 && t % counts.cols != 0 && t > firstTile;
    montage::emitMontage(
        builder, p, pairs, tileCalibration(config, p, t),
        {.prefix = tilePrefix(t, true),
         .leftRaws = shareLeft ? &prevRaws : nullptr,
         .sharedRaws = shareLeft ? k : 0,
         .rawsOut = &raws,
         .releaseSeconds =
             static_cast<double>(t) * config.releaseIntervalSeconds});
    std::swap(prevRaws, raws);
  }
  return builder.build();
}

}  // namespace

std::string validateSurveyConfig(const SurveyConfig& config) {
  if (config.tiles == 0) return "tiles must be >= 1";
  if (!(config.tileDegrees > 0.0) || !(config.tileDegrees <= 16.0))
    return "tileDegrees must be in (0, 16]";
  if (!(config.overlapFraction >= 0.0 && config.overlapFraction <= 0.5))
    return "overlapFraction must be in [0, 0.5]";
  if (!(config.runtimeJitterFraction >= 0.0 &&
        config.runtimeJitterFraction <= 0.9))
    return "runtimeJitterFraction must be in [0, 0.9]";
  if (!(config.releaseIntervalSeconds >= 0.0) ||
      !std::isfinite(config.releaseIntervalSeconds))
    return "releaseIntervalSeconds must be finite and >= 0";

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const std::uint64_t tasksPerTile = static_cast<std::uint64_t>(p.taskCount());
  const std::uint64_t filesPerTile = static_cast<std::uint64_t>(p.fileCount());
  // Task/file ids are 32-bit with the max value reserved (dag::kNoTask).
  const std::uint64_t maxIds = dag::kNoTask - 1;
  if (config.tiles > maxIds / tasksPerTile)
    return "campaign exceeds the 32-bit task id space (" +
           std::to_string(config.tiles) + " tiles x " +
           std::to_string(tasksPerTile) + " tasks/tile)";
  if (config.tiles > maxIds / filesPerTile)
    return "campaign exceeds the 32-bit file id space";

  // The CCR calibration must be feasible for every tile; the binding case
  // is the lowest-CPU tile (jitter factor 1 - j).
  std::string error;
  montage::calibrate(p, 1.0 - config.runtimeJitterFraction, &error);
  return error;
}

SurveyCounts surveyCounts(const SurveyConfig& config) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) throw std::invalid_argument("survey: " + error);

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const std::uint64_t n = static_cast<std::uint64_t>(p.imageCount());
  const std::uint64_t d = static_cast<std::uint64_t>(p.diffCount);

  SurveyCounts c;
  c.tiles = config.tiles;
  c.cols = config.tileCols != 0
               ? config.tileCols
               : static_cast<std::uint32_t>(std::ceil(std::sqrt(
                     static_cast<double>(config.tiles))));
  c.rows = static_cast<std::uint32_t>((config.tiles + c.cols - 1) / c.cols);
  // Header + n raws + 2n proj + 2n corr + d fit files + fits/corrections/
  // cimages tables + mosaic + shrunk mosaic + preview.
  c.tasksPerTile = 2 * n + d + 6;
  c.filesPerTile = 5 * n + d + 7;
  c.sharedRawsPerEdge =
      static_cast<std::uint64_t>(std::llround(config.overlapFraction *
                                              static_cast<double>(n)));
  // Every tile except the first of each (possibly partial) row has a left
  // neighbour to share with.
  c.sharedFiles = c.sharedRawsPerEdge * (c.tiles - c.rows);
  c.tasks = c.tiles * c.tasksPerTile;
  c.files = c.tiles * c.filesPerTile - c.sharedFiles;
  c.inputEdges = c.tiles * p.inputEdgeCount();
  c.outputEdges = c.tiles * p.outputEdgeCount();
  return c;
}

dag::Workflow buildSurveyCampaign(const SurveyConfig& config) {
  const SurveyCounts counts = surveyCounts(config);
  dag::Workflow wf =
      buildTileRange(config, counts, config.name, 0, config.tiles);
  if (wf.taskCount() != counts.tasks || wf.fileCount() != counts.files)
    throw std::logic_error(
        "survey: built campaign does not match the closed-form counts "
        "(generator bug): built " +
        std::to_string(wf.taskCount()) + " tasks / " +
        std::to_string(wf.fileCount()) + " files, expected " +
        std::to_string(counts.tasks) + " / " + std::to_string(counts.files));
  return wf;
}

Expected<dag::Workflow> trySurveyCampaign(const SurveyConfig& config) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) return makeUnexpected("survey: " + error);
  try {
    return buildSurveyCampaign(config);
  } catch (const std::exception& e) {
    return makeUnexpected(std::string(e.what()));
  }
}

dag::Workflow buildSurveyTile(const SurveyConfig& config, std::uint64_t tile) {
  const std::string error = validateSurveyConfig(config);
  if (!error.empty()) throw std::invalid_argument("survey: " + error);
  if (tile >= config.tiles)
    throw std::invalid_argument("survey: tile " + std::to_string(tile) +
                                " out of range (tiles = " +
                                std::to_string(config.tiles) + ")");

  const montage::MontageParams p =
      montage::paramsForDegrees(config.tileDegrees);
  const auto pairs = montage::overlapPairs(p.gridCols, p.gridRows, p.diffCount);
  dag::WorkflowBuilder builder(tilePrefix(tile, false));
  builder.reserve(static_cast<std::size_t>(p.taskCount()),
                  static_cast<std::size_t>(p.fileCount()), p.inputEdgeCount(),
                  p.outputEdgeCount());
  montage::emitMontage(builder, p, pairs, tileCalibration(config, p, tile));
  return builder.build();
}

std::vector<dag::Workflow> buildSurveyShards(const SurveyConfig& config,
                                             std::uint32_t shards) {
  const SurveyCounts counts = surveyCounts(config);
  if (counts.sharedRawsPerEdge != 0)
    throw std::invalid_argument(
        "survey: shard mode requires overlapFraction = 0 (shards must not "
        "share files)");
  if (shards == 0 || shards > config.tiles)
    throw std::invalid_argument(
        "survey: shards must be in [1, tiles] (got " + std::to_string(shards) +
        " for " + std::to_string(config.tiles) + " tiles)");

  const std::uint64_t base = config.tiles / shards;
  const std::uint64_t rem = config.tiles % shards;
  std::vector<dag::Workflow> out;
  out.reserve(shards);
  std::uint64_t cursor = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t len = base + (s < rem ? 1 : 0);
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "/shard%03u", s);
    out.push_back(buildTileRange(config, counts, config.name + suffix, cursor,
                                 cursor + len));
    cursor += len;
  }
  return out;
}

}  // namespace mcsim::workflows
