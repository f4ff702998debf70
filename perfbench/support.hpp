#pragma once
// Helpers shared by the workloads that need the program's types.

#include <cstdint>

#include "checks.hpp"
#include "harness.hpp"
#include "obs/profile/profiler.hpp"
#include "tracking/network.hpp"

namespace vs::perfbench {

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// The deterministic outputs of a world: events fired, messages, hop-work
/// and a digest of every find's outcome. Profiling must leave them
/// unchanged.
struct SimCounts {
  std::uint64_t events = 0;
  std::int64_t messages = 0;
  std::int64_t work = 0;
  std::uint64_t find_digest = 0;
  friend bool operator==(const SimCounts&, const SimCounts&) = default;
};
[[nodiscard]] SimCounts sim_counts(tracking::TrackingNetwork& net);
SimCounts& operator+=(SimCounts& a, const SimCounts& b);

/// Copy the profiler's per-domain self times into the layer table, after
/// checking that its total is no more than `wall_s`, the harness's own
/// wall time around the same interval (the two are measured independently).
void fill_profile(LayerTable& t, const obs::ProfileReport& rep, double wall_s,
                  Checker& chk);

}  // namespace vs::perfbench
