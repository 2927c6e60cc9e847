// Cloud storage service (the S3 stand-in).
//
// Tracks which logical objects are resident, integrates the resident-bytes
// curve over simulation time (the paper's GB-hours metric), and records the
// peak footprint.  Capacity is infinite by default ("storage system with
// infinite capacity", §5); a finite capacity can be configured for
// storage-constrained what-ifs, in which case an over-commit throws (this
// simulator never silently drops data).
//
// The usage curve is a flat sorted event vector with incremental area
// accounting (see util/usage_curve.hpp): byteSecondsUsed(), peakBytes() and
// gbHoursUsed() are O(1) while the simulation records in time order, so
// per-sample billing integration no longer rescans the curve.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mcsim/sim/simulator.hpp"
#include "mcsim/util/units.hpp"
#include "mcsim/util/usage_curve.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::cloud {

/// Designated-initializer construction options (PR 3 config-struct style).
struct StorageConfig {
  /// Resident-byte capacity; must be > 0.  Infinite by default (§5).
  double capacityBytes = std::numeric_limits<double>::infinity();
};

class StorageService {
 public:
  /// Unlimited capacity (§5 default).
  explicit StorageService(sim::Simulator& sim)
      : StorageService(sim, StorageConfig{}) {}

  StorageService(sim::Simulator& sim, const StorageConfig& config);

  /// An object lands on storage now.  `key` must not already be resident.
  void put(std::uint64_t key, Bytes size);
  /// Remove a resident object now.  Unknown keys throw.
  void erase(std::uint64_t key);
  /// True if the object is currently resident.
  bool contains(std::uint64_t key) const;
  /// Size of a resident object; throws if absent.
  Bytes sizeOf(std::uint64_t key) const;

  Bytes residentBytes() const { return Bytes(residentBytes_); }
  std::size_t objectCount() const { return objects_.size(); }
  Bytes peakBytes() const { return curve_.peak(); }

  /// Area under the resident-bytes curve from t=0 to the current simulation
  /// time, in byte-seconds (the quantity the storage fee applies to).
  double byteSecondsUsed() const;
  /// Same, in GB-hours (the paper's reporting unit).
  double gbHoursUsed() const;

  const UsageCurve& curve() const { return curve_; }

  /// Configure unavailability windows (S3 outage injection) as sorted,
  /// non-overlapping [start, end) second intervals.  The service keeps
  /// accepting put/erase during a window — residency bookkeeping is the
  /// engine's ground truth — but exposes availability queries so callers can
  /// defer commits until the service is back.
  void setOutages(std::vector<std::pair<double, double>> windows);
  const std::vector<std::pair<double, double>>& outages() const {
    return outages_;
  }

  /// True if no outage window covers time `t`.
  bool availableAt(double t) const { return availableFrom(t) == t; }
  /// Earliest time >= `t` at which the service is available (the end of the
  /// window covering `t`, else `t` itself).  Binary search over the sorted
  /// window vector.
  double availableFrom(double t) const;

  /// Install a telemetry sink (file create / delete); nullptr disables.
  void setObserver(obs::Sink* observer) { observer_ = observer; }

 private:
  sim::Simulator& sim_;
  Bytes capacity_;
  std::vector<std::pair<double, double>> outages_;  ///< Sorted [start, end).
  std::unordered_map<std::uint64_t, double> objects_;
  double residentBytes_ = 0.0;
  UsageCurve curve_;
  obs::Sink* observer_ = nullptr;
};

}  // namespace mcsim::cloud
