#pragma once
// Correctness checks. Each one compares the program's output with the
// harness's own record (where it last sent each object) or with the
// paper's formulas (spec/bounds.hpp), never with the program's own state.

#include <cstdint>
#include <string>

#include "common/ids.hpp"
#include "hier/hierarchy.hpp"
#include "sim/time.hpp"
#include "tracking/network.hpp"

namespace vs::perfbench {

/// Collects failed checks; unless quiet, the first few are printed to
/// stderr.
class Checker {
 public:
  Checker() = default;
  explicit Checker(bool quiet) : quiet_(quiet) {}
  void fail(const std::string& what);
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] std::int64_t failures() const { return failures_; }

 private:
  std::int64_t failures_ = 0;
  bool quiet_ = false;
};

/// Theorems 4.9 and 5.2 at the bound auditor's slack, evaluated for the
/// world in use.
class PaperBounds {
 public:
  /// `slack` defaults to obs::AuditConfig's (2.0).
  PaperBounds(const hier::ClusterHierarchy& h, sim::Duration delta_plus_e,
              double slack);
  PaperBounds(const hier::ClusterHierarchy& h, sim::Duration delta_plus_e);

  [[nodiscard]] double slack() const { return slack_; }
  /// Theorem 5.2's time bound (us, no slack) for a find from distance d.
  [[nodiscard]] double find_time_bound_us(int d) const;
  [[nodiscard]] bool find_time_ok(int d, std::int64_t latency_us) const;
  /// Theorem 5.2's work sum plus the auditor's O(1) delivery term.
  [[nodiscard]] bool find_work_ok(int d, std::int64_t work) const;
  /// Theorem 4.9: total move hop-work for `hops` hops moved.
  [[nodiscard]] bool move_work_ok(std::int64_t work, std::int64_t hops) const;

 private:
  const hier::ClusterHierarchy* h_;
  sim::Duration delta_plus_e_;
  double slack_;
  double move_work_per_step_;
  double find_delivery_;
};

/// Verdict on one completed find: it must answer the region the harness
/// last sent the target to, within Theorem 5.2's time and work bounds at
/// the distance `d` the harness measured from its own record.
enum class FindVerdict : std::uint8_t {
  kOk,
  kNotDone,
  kWrongRegion,
  kOverTime,
  kOverWork,
};
[[nodiscard]] const char* to_string(FindVerdict v);
[[nodiscard]] FindVerdict judge_find(const PaperBounds& bounds,
                                     const tracking::FindResult& result,
                                     RegionId expected, int d);

/// Theorem 4.8: "" when `target`'s tracking structure is a consistent
/// state for `expected`, else the first violation.
[[nodiscard]] std::string inconsistency(const tracking::TrackingNetwork& net,
                                        TargetId target, RegionId expected);

/// One find that passed every check, kept to prove the checks can fail.
struct FindSample {
  bool valid = false;
  int d = 0;
  RegionId expected{};
  tracking::FindResult result;
};

/// The serve path's count checks: the parser saw every frame encoded, and
/// every fix offered was applied, suppressed or dropped.
void check_serve_counts(Checker& chk, std::uint64_t frames_parsed,
                        std::uint64_t frames_encoded, std::int64_t accounted,
                        std::int64_t fixes_offered);

/// Runs each check once more with one expected value altered (a
/// neighbouring answer region, a slack a million times smaller, a
/// neighbouring region for consistency) and records a failure in `chk` for
/// every check that still passes. `target`/`at` name an object the harness
/// last sent to region `at`; `move_work`/`hops` a move total that passed.
void self_test(Checker& chk, const tracking::TrackingNetwork& net,
               sim::Duration delta_plus_e, const FindSample& find,
               TargetId target, RegionId at, std::int64_t move_work,
               std::int64_t hops);

/// The same for check_serve_counts: each count one higher must fail.
void self_test_serve_counts(Checker& chk, std::uint64_t frames_parsed,
                            std::uint64_t frames_encoded,
                            std::int64_t accounted,
                            std::int64_t fixes_offered);

}  // namespace vs::perfbench
