#include "checks.hpp"

#include <iostream>
#include <string>

#include "obs/ledger/auditor.hpp"
#include "spec/bounds.hpp"
#include "spec/consistency.hpp"

namespace vs::perfbench {

void Checker::fail(const std::string& what) {
  constexpr std::int64_t kPrinted = 8;
  if (!quiet_ && failures_ < kPrinted) {
    std::cerr << "check failed: " << what << "\n";
  }
  ++failures_;
}

PaperBounds::PaperBounds(const hier::ClusterHierarchy& h,
                         sim::Duration delta_plus_e, double slack)
    : h_(&h),
      delta_plus_e_(delta_plus_e),
      slack_(slack),
      move_work_per_step_(spec::move_work_bound_per_step(h)),
      // The bound auditor's delivery allowance: the injection hop plus the
      // found broadcast to the omega(0) ring, which Theorem 5.2's sum omits.
      find_delivery_(2.0 + 2.0 * static_cast<double>(h.omega(0))) {}

PaperBounds::PaperBounds(const hier::ClusterHierarchy& h,
                         sim::Duration delta_plus_e)
    : PaperBounds(h, delta_plus_e, obs::AuditConfig{}.slack) {}

double PaperBounds::find_time_bound_us(int d) const {
  return spec::find_time_bound(*h_, d, delta_plus_e_);
}

bool PaperBounds::find_time_ok(int d, std::int64_t latency_us) const {
  return static_cast<double>(latency_us) <= slack_ * find_time_bound_us(d);
}

bool PaperBounds::find_work_ok(int d, std::int64_t work) const {
  return static_cast<double>(work) <=
         slack_ * (spec::find_work_bound(*h_, d) + find_delivery_);
}

bool PaperBounds::move_work_ok(std::int64_t work, std::int64_t hops) const {
  return static_cast<double>(work) <=
         slack_ * move_work_per_step_ * static_cast<double>(hops);
}

const char* to_string(FindVerdict v) {
  switch (v) {
    case FindVerdict::kOk: return "ok";
    case FindVerdict::kNotDone: return "not completed";
    case FindVerdict::kWrongRegion: return "answered a stale region";
    case FindVerdict::kOverTime: return "over 2x Theorem 5.2 time bound";
    case FindVerdict::kOverWork: return "over 2x Theorem 5.2 work bound";
  }
  return "?";
}

FindVerdict judge_find(const PaperBounds& bounds,
                       const tracking::FindResult& result, RegionId expected,
                       int d) {
  if (!result.done) return FindVerdict::kNotDone;
  if (result.found_region != expected) return FindVerdict::kWrongRegion;
  if (!bounds.find_time_ok(d, result.latency().count())) {
    return FindVerdict::kOverTime;
  }
  if (!bounds.find_work_ok(d, result.work)) return FindVerdict::kOverWork;
  return FindVerdict::kOk;
}

std::string inconsistency(const tracking::TrackingNetwork& net,
                          TargetId target, RegionId expected) {
  const spec::ConsistencyReport rep =
      spec::check_consistent(net.snapshot(target), expected);
  return rep.ok() ? std::string() : rep.violations.front();
}

void check_serve_counts(Checker& chk, std::uint64_t frames_parsed,
                        std::uint64_t frames_encoded, std::int64_t accounted,
                        std::int64_t fixes_offered) {
  if (frames_parsed != frames_encoded) {
    chk.fail("serve parser counted " + std::to_string(frames_parsed) +
             " frames of " + std::to_string(frames_encoded) + " encoded");
  }
  if (accounted != fixes_offered) {
    chk.fail("serve accounted " + std::to_string(accounted) + " of " +
             std::to_string(fixes_offered) + " fixes offered");
  }
}

void self_test(Checker& chk, const tracking::TrackingNetwork& net,
               sim::Duration delta_plus_e, const FindSample& find,
               TargetId target, RegionId at, std::int64_t move_work,
               std::int64_t hops) {
  const hier::ClusterHierarchy& h = net.hierarchy();
  const PaperBounds bounds(h, delta_plus_e);
  // A slack a million times smaller stands in for a wrong expected bound.
  const PaperBounds tight(h, delta_plus_e, 1e-6);
  if (!find.valid) {
    chk.fail("self-test: no find sample");
  } else if (judge_find(bounds, find.result, find.expected, find.d) !=
             FindVerdict::kOk) {
    chk.fail("self-test: the kept find no longer passes");
  } else {
    const RegionId other = h.tiling().neighbors(find.expected).front();
    if (judge_find(bounds, find.result, other, find.d) !=
        FindVerdict::kWrongRegion) {
      chk.fail("self-test: find answer check");
    }
    if (judge_find(tight, find.result, find.expected, find.d) !=
        FindVerdict::kOverTime) {
      chk.fail("self-test: Theorem 5.2 time check");
    }
    if (tight.find_work_ok(find.d, find.result.work)) {
      chk.fail("self-test: Theorem 5.2 work check");
    }
  }
  if (hops > 0 && tight.move_work_ok(move_work, hops)) {
    chk.fail("self-test: Theorem 4.9 move-work check");
  }
  const RegionId wrong = h.tiling().neighbors(at).front();
  if (inconsistency(net, target, wrong).empty()) {
    chk.fail("self-test: Theorem 4.8 consistency check");
  }
}

void self_test_serve_counts(Checker& chk, std::uint64_t frames_parsed,
                            std::uint64_t frames_encoded,
                            std::int64_t accounted,
                            std::int64_t fixes_offered) {
  Checker frames(true), fixes(true);
  check_serve_counts(frames, frames_parsed, frames_encoded + 1, accounted,
                     fixes_offered);
  check_serve_counts(fixes, frames_parsed, frames_encoded, accounted,
                     fixes_offered + 1);
  if (frames.ok()) chk.fail("self-test: serve frame count check");
  if (fixes.ok()) chk.fail("self-test: serve fix accounting check");
}

}  // namespace vs::perfbench
