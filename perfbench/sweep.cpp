// sweep — independent 243x243 base-3 worlds, one evader each, as
// `vinestalk_cli sweep` runs them at --jobs 1.
//
// Each trial builds its world, places one evader at the centre, walks it
// 200 random king steps (move_evader + run_to_quiescence, the CLI's calls)
// with a find after every 25th step, and tears the world down. Each world
// also holds the near grid's two static evaders, found once each from the
// grid's 20 fixed origins (d = 1 to 81) after the walk. Per-trial
// construction and teardown dominate; the protocol is a few percent.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/profile/profiler.hpp"
#include "support.hpp"
#include "tracking/network.hpp"

namespace vs::perfbench {
namespace {

constexpr int kWidth = 243;
constexpr int kBase = 3;
constexpr int kSteps = 200;
constexpr int kFindEvery = 25;
/// Moves, random finds and near-grid finds.
const std::int64_t kOpsPerTrial = kSteps + kSteps / kFindEvery +
                                  static_cast<std::int64_t>(near_grid().size());
/// The sim metrics cover the first kSimTrials trials (a pure function of
/// the seed); every run completes at least that many.
constexpr int kSimTrials = 100;
/// Trials in each half of a traced run.
constexpr int kTraceTrials = 24;

/// Wall time of each phase of one trial, measured around the calls.
struct TrialTimes {
  double build_hier_s = 0;
  double build_net_s = 0;
  double place_s = 0;
  double walk_s = 0;  // moves and finds
  double teardown_s = 0;
  [[nodiscard]] double total() const {
    return build_hier_s + build_net_s + place_s + walk_s + teardown_s;
  }
};

struct TrialOutcome {
  TrialTimes times;
  std::vector<double> find_us;      // wall time of each random find
  std::vector<double> near_us;      // wall time of each near-grid find
  std::int64_t near_over_time = 0;  // near-grid finds over Theorem 5.2
  std::vector<double> virtual_us;   // virtual latency of each find
  std::int64_t find_work = 0;
  std::int64_t move_work = 0;
  std::int64_t hops = 0;
  SimCounts counts;
};

/// One trial. `on_built` runs once the world stands (set-up timing and
/// profiler attachment); checks run outside every timed phase.
template <class OnBuilt>
TrialOutcome trial(std::uint64_t seed, int index, Checker& chk,
                   OnBuilt&& on_built) {
  TrialOutcome out;
  Prng rng(sub_seed(seed, index));
  const Clock::time_point t0 = Clock::now();
  auto h = std::make_unique<hier::GridHierarchy>(kWidth, kWidth, kBase);
  const Clock::time_point t1 = Clock::now();
  auto net =
      std::make_unique<tracking::TrackingNetwork>(*h,
                                                  tracking::NetworkConfig{});
  const Clock::time_point t2 = Clock::now();
  Cell at{kWidth / 2, kWidth / 2};
  const auto region = [&](Cell c) { return h->grid().region_at(c.x, c.y); };
  const TargetId t = net->add_evader(region(at));
  const std::vector<Cell> near_cells = near_targets();
  std::vector<TargetId> near;
  for (const Cell c : near_cells) near.push_back(net->add_evader(region(c)));
  net->run_to_quiescence();
  const Clock::time_point t3 = Clock::now();
  out.times.build_hier_s = seconds_between(t0, t1);
  out.times.build_net_s = seconds_between(t1, t2);
  out.times.place_s = seconds_between(t2, t3);
  on_built(*net);

  const sim::Duration dpe = net->config().cgcast.delta + net->config().cgcast.e;
  const PaperBounds bounds(*h, dpe);
  const std::int64_t base_move_work = net->counters().move_work();
  FindSample sample;
  for (int i = 0; i < kSteps; ++i) {
    at = random_step(rng, at, kWidth);
    const Clock::time_point m0 = Clock::now();
    net->move_evader(t, region(at));
    net->run_to_quiescence();
    out.times.walk_s += seconds_between(m0, Clock::now());
    ++out.hops;
    if ((i + 1) % kFindEvery != 0) continue;
    const Cell origin = far_origin(rng, at, kWidth);
    const Clock::time_point f0 = Clock::now();
    const FindId f = net->start_find(region(origin), t);
    net->run_to_quiescence();
    const double find_s = seconds_between(f0, Clock::now());
    out.times.walk_s += find_s;
    out.find_us.push_back(find_s * 1e6);
    const tracking::FindResult& r = net->find_result(f);
    const int d = chebyshev(origin, at);
    const FindVerdict v = judge_find(bounds, r, region(at), d);
    if (v != FindVerdict::kOk) {
      chk.fail("sweep trial " + std::to_string(index) + " find at d=" +
               std::to_string(d) + ": " + to_string(v));
      continue;
    }
    out.find_work += r.work;
    out.virtual_us.push_back(static_cast<double>(r.latency().count()));
    sample = FindSample{true, d, region(at), r};
  }
  for (const NearFind& nf : near_grid()) {
    const auto k = static_cast<std::size_t>(
        std::find(near_cells.begin(), near_cells.end(), nf.target) -
        near_cells.begin());
    const Clock::time_point f0 = Clock::now();
    const FindId f = net->start_find(region(nf.origin), near[k]);
    net->run_to_quiescence();
    const double find_s = seconds_between(f0, Clock::now());
    out.times.walk_s += find_s;
    out.near_us.push_back(find_s * 1e6);
    const int d = chebyshev(nf.origin, nf.target);
    const FindVerdict v =
        judge_find(bounds, net->find_result(f), region(nf.target), d);
    if (v == FindVerdict::kOverTime) {
      ++out.near_over_time;  // the fault these finds keep in view
    } else if (v != FindVerdict::kOk) {
      chk.fail("sweep near find at d=" + std::to_string(d) + ": " +
               to_string(v));
    }
  }
  out.move_work = net->counters().move_work() - base_move_work;
  out.counts = sim_counts(*net);

  if (!bounds.move_work_ok(out.move_work, out.hops)) {
    chk.fail("sweep trial " + std::to_string(index) + " move work " +
             std::to_string(out.move_work) + " exceeds 2x Theorem 4.9");
  }
  const std::string why = inconsistency(*net, t, region(at));
  if (!why.empty()) chk.fail("sweep evader inconsistent: " + why);
  for (std::size_t k = 0; k < near.size(); ++k) {
    const std::string nwhy =
        inconsistency(*net, near[k], region(near_cells[k]));
    if (!nwhy.empty()) chk.fail("sweep near evader inconsistent: " + nwhy);
  }
  if (index == 0) {
    self_test(chk, *net, dpe, sample, t, region(at), out.move_work, out.hops);
  }

  const Clock::time_point d0 = Clock::now();
  net.reset();
  h.reset();
  out.times.teardown_s = seconds_between(d0, Clock::now());
  return out;
}

Result timed_run(const Options& opt) {
  Result res;
  Checker chk;
  double setup_s = 0;
  std::vector<double> rates, find_walls, near_walls, virtual_us;
  std::int64_t move_work = 0, hops = 0, find_work = 0, finds = 0;
  double rss_mb = 0;
  const Clock::time_point start = Clock::now();
  int trials = 0;
  while (trials < kSimTrials ||
         seconds_between(start, Clock::now()) < opt.seconds) {
    const TrialOutcome o =
        trial(opt.seed, trials, chk, [&](tracking::TrackingNetwork&) {
          if (trials == 0) {
            setup_s = scaled_setup_s(opt.process_start, *opt.probe, 1.0);
          }
        });
    const double scale = opt.probe->scale();
    rates.push_back(scale / o.times.total());
    for (const double us : o.find_us) find_walls.push_back(us / scale);
    for (const double us : o.near_us) near_walls.push_back(us / scale);
    res.failed += o.near_over_time;
    if (trials < kSimTrials) {
      move_work += o.move_work;
      hops += o.hops;
      find_work += o.find_work;
      finds += static_cast<std::int64_t>(o.virtual_us.size());
      virtual_us.insert(virtual_us.end(), o.virtual_us.begin(),
                        o.virtual_us.end());
    }
    ++trials;
    if (trials == kSimTrials) rss_mb = peak_rss_mb();
  }
  res.attempted = trials * kOpsPerTrial;
  res.correct = chk.ok();
  res.add("setup_s", setup_s, "s");
  res.add("ops_per_s", quantile(rates, 0.5), "1/s");
  res.add("find_wall_p50_us", quantile(find_walls, 0.5), "us");
  res.add("near_find_wall_p50_us", quantile(near_walls, 0.5), "us");
  res.add("peak_rss_mb", rss_mb, "MB");
  res.add("move_work_per_hop",
          static_cast<double>(move_work) / static_cast<double>(hops),
          "hop-work");
  res.add("find_work_mean",
          static_cast<double>(find_work) / static_cast<double>(finds),
          "hop-work");
  res.add("find_virtual_mean_ms", mean(virtual_us) / 1000.0, "ms");
  return res;
}

Result traced_run(const Options& opt) {
  Result res;
  Checker chk;
  // Untraced half: the reference wall time and deterministic counts.
  SimCounts plain;
  const Clock::time_point p0 = Clock::now();
  for (int i = 0; i < kTraceTrials; ++i) {
    const TrialOutcome o =
        trial(opt.seed, i, chk, [](tracking::TrackingNetwork&) {});
    plain += o.counts;
    res.failed += o.near_over_time;
  }
  const double plain_wall = seconds_between(p0, Clock::now());

  // Traced half: the same trials with the profiler attached to each world.
  obs::Profiler prof;
  LayerTable lt;
  SimCounts traced;
  double timed_s = 0;
  std::int64_t moves = 0;
  const Clock::time_point w0 = Clock::now();
  prof.enable();
  for (int i = 0; i < kTraceTrials; ++i) {
    const TrialOutcome o = trial(opt.seed, i, chk,
                                 [&](tracking::TrackingNetwork& net) {
                                   net.set_profiler(&prof);
                                 });
    traced += o.counts;
    res.failed += o.near_over_time;
    moves += o.hops;
    lt.hier_build_s += o.times.build_hier_s;
    lt.tracking_build_s += o.times.build_net_s;
    lt.tracking_place_s += o.times.place_s;
    lt.tracking_teardown_s += o.times.teardown_s;
    timed_s += o.times.total();
  }
  prof.disable();
  const double traced_wall = seconds_between(w0, Clock::now());
  const obs::ProfileReport rep = prof.report();
  if (!(traced == plain)) {
    chk.fail("profiling changed the deterministic counts");
  }
  fill_profile(lt, rep, traced_wall, chk);
  lt.sim_events = static_cast<double>(traced.events);
  lt.sim_events_per_move =
      static_cast<double>(traced.events) / static_cast<double>(moves);
  lt.vsa_messages = static_cast<double>(traced.messages);
  lt.vsa_hop_work = static_cast<double>(traced.work);
  lt.obs_profile_overhead = traced_wall / plain_wall;
  lt.harness_unattributed_s = traced_wall - timed_s;
  lt.emit(res);
  res.attempted = 2 * kTraceTrials * kOpsPerTrial;
  res.correct = chk.ok();
  return res;
}

}  // namespace

Result run_sweep(const Options& opt) {
  return opt.trace ? traced_run(opt) : timed_run(opt);
}

}  // namespace vs::perfbench
