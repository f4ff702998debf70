// fleet — 729x729 base-3 worlds with 64 evaders each: the long protocol run.
//
// An episode builds one world, places the evaders at random cells and runs
// kEpisodeRounds rounds. A round moves every evader 16 random king steps
// with move_and_quiesce (round-robin, 1024 moves), issues a find from a
// random far origin for a random evader after every 16th move (64 finds),
// runs the near grid (20 finds at d = 1 to 81 of two static evaders) and
// repeats one probe find on fixed inputs. The scheduler, C-gcast
// delivery and the Tracker handlers do the work; the eagerly built world
// dominates set-up and memory. Every episode starts from a fresh world
// because the per-move cost grows with the number of finds a world has
// served (CHANGES.md), so equal work needs equal history.

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

constexpr int kWidth = 729;
constexpr int kBase = 3;
constexpr int kEvaders = 64;
constexpr int kMovesPerRound = 1024;
constexpr int kFindEvery = 16;
constexpr int kEpisodeRounds = 128;
/// Rounds of each half of a traced run.
constexpr int kTraceRounds = 48;
/// Moves, random finds, near-grid finds and the probe find.
const std::int64_t kOpsPerRound =
    kMovesPerRound + kMovesPerRound / kFindEvery +
    static_cast<std::int64_t>(near_grid().size()) + 1;

/// The 440 MB world's set-up slows by about the square root of what the
/// host probe slows (a log-log fit over 16 cold set-ups gave 0.47).
constexpr double kSetupElasticity = 0.5;

/// The probe: an evader placed at kProbeFrom and moved one step across the
/// x = 81 level-4 block boundary to kProbeAt, then found from kProbeOrigin
/// (d = 3). The find takes 103 ms of virtual time against twice Theorem
/// 5.2's 40 ms bound, on every round of every seed.
constexpr Cell kProbeFrom{80, 40};
constexpr Cell kProbeAt{81, 40};
constexpr Cell kProbeOrigin{84, 40};

/// Harness-timed wall time of the calls of a traced round.
struct Spans {
  double move_s = 0;
  double find_s = 0;
};

class Fleet {
 public:
  Fleet(std::uint64_t seed, LayerTable* layers) : rng_(seed) {
    const Clock::time_point t0 = Clock::now();
    hier_ = std::make_unique<hier::GridHierarchy>(kWidth, kWidth, kBase);
    const Clock::time_point t1 = Clock::now();
    net_ = std::make_unique<tracking::TrackingNetwork>(
        *hier_, tracking::NetworkConfig{});
    const Clock::time_point t2 = Clock::now();
    for (int i = 0; i < kEvaders; ++i) {
      const Cell c = random_cell(rng_, kWidth);
      targets_.push_back(net_->add_evader(region(c)));
      at_.push_back(c);
    }
    for (const Cell c : near_targets()) {
      near_.push_back(net_->add_evader(region(c)));
    }
    probe_ = net_->add_evader(region(kProbeFrom));
    net_->run_to_quiescence();
    net_->move_and_quiesce(probe_, region(kProbeAt));
    const Clock::time_point t3 = Clock::now();
    if (layers != nullptr) {
      layers->hier_build_s = seconds_between(t0, t1);
      layers->tracking_build_s = seconds_between(t1, t2);
      layers->tracking_place_s = seconds_between(t2, t3);
    }
    base_move_work_ = net_->counters().move_work();
    bounds_ = std::make_unique<PaperBounds>(*hier_, delta_plus_e());
  }

  /// One round. Appends each random find's wall time (us) to `find_us` and
  /// each near-grid find's to `near_us`; with `spans`, times every call.
  /// Returns the number of failed operations: finds over Theorem 5.2's
  /// time bound in the near grid, and the probe.
  std::int64_t round(Checker& chk, std::vector<double>& find_us,
                     std::vector<double>& near_us, Spans* spans) {
    for (int i = 0; i < kMovesPerRound; ++i) {
      const auto e = static_cast<std::size_t>(i % kEvaders);
      at_[e] = random_step(rng_, at_[e], kWidth);
      const Clock::time_point m0 = Clock::now();
      net_->move_and_quiesce(targets_[e], region(at_[e]));
      if (spans != nullptr) spans->move_s += seconds_between(m0, Clock::now());
      ++hops_;
      if ((i + 1) % kFindEvery != 0) continue;
      const auto f = static_cast<std::size_t>(rng_.below(kEvaders));
      const Cell origin = far_origin(rng_, at_[f], kWidth);
      const Clock::time_point f0 = Clock::now();
      const FindId id = net_->start_find(region(origin), targets_[f]);
      net_->run_to_quiescence();
      const double wall = seconds_between(f0, Clock::now());
      find_us.push_back(wall * 1e6);
      if (spans != nullptr) spans->find_s += wall;
      judge(chk, id, origin, at_[f]);
    }
    std::int64_t failed = 0;
    const std::vector<Cell> targets = near_targets();
    for (const NearFind& nf : near_grid()) {
      const auto t = static_cast<std::size_t>(
          std::find(targets.begin(), targets.end(), nf.target) -
          targets.begin());
      const Clock::time_point f0 = Clock::now();
      const FindId id = net_->start_find(region(nf.origin), near_[t]);
      net_->run_to_quiescence();
      const double wall = seconds_between(f0, Clock::now());
      near_us.push_back(wall * 1e6);
      if (spans != nullptr) spans->find_s += wall;
      failed += over_time(chk, id, nf.origin, nf.target);
    }
    const Clock::time_point p0 = Clock::now();
    const FindId id = net_->start_find(region(kProbeOrigin), probe_);
    net_->run_to_quiescence();
    if (spans != nullptr) spans->find_s += seconds_between(p0, Clock::now());
    return failed + over_time(chk, id, kProbeOrigin, kProbeAt);
  }

  /// End-of-episode checks: Theorem 4.9 over every move, Theorem 4.8 for
  /// every evader, and the self-test of each check.
  void final_checks(Checker& chk) {
    const std::int64_t work = move_work();
    if (!bounds_->move_work_ok(work, hops_)) {
      chk.fail("fleet move work " + std::to_string(work) + " over " +
               std::to_string(hops_) + " hops exceeds 2x Theorem 4.9");
    }
    for (std::size_t e = 0; e < targets_.size(); ++e) {
      const std::string why =
          inconsistency(*net_, targets_[e], region(at_[e]));
      if (!why.empty()) chk.fail("fleet evader inconsistent: " + why);
    }
    const std::vector<Cell> targets = near_targets();
    for (std::size_t i = 0; i < near_.size(); ++i) {
      const std::string why =
          inconsistency(*net_, near_[i], region(targets[i]));
      if (!why.empty()) chk.fail("fleet near evader inconsistent: " + why);
    }
    const std::string why = inconsistency(*net_, probe_, region(kProbeAt));
    if (!why.empty()) chk.fail("fleet probe evader inconsistent: " + why);
    self_test(chk, *net_, delta_plus_e(), sample_, targets_[0],
              region(at_[0]), work, hops_);
  }

  [[nodiscard]] std::int64_t move_work() {
    return net_->counters().move_work() - base_move_work_;
  }
  [[nodiscard]] std::int64_t hops() const { return hops_; }
  [[nodiscard]] double find_work_mean() const {
    return static_cast<double>(find_work_) /
           static_cast<double>(virtual_us_.size());
  }
  [[nodiscard]] const std::vector<double>& virtual_us() const {
    return virtual_us_;
  }
  [[nodiscard]] tracking::TrackingNetwork& net() { return *net_; }

  /// Destroy the world; returns the teardown wall time.
  double teardown() {
    const Clock::time_point t0 = Clock::now();
    bounds_.reset();
    net_.reset();
    hier_.reset();
    return seconds_between(t0, Clock::now());
  }

 private:
  [[nodiscard]] sim::Duration delta_plus_e() const {
    return net_->config().cgcast.delta + net_->config().cgcast.e;
  }
  [[nodiscard]] RegionId region(Cell c) const {
    return hier_->grid().region_at(c.x, c.y);
  }

  void judge(Checker& chk, FindId id, Cell origin, Cell at) {
    const tracking::FindResult& r = net_->find_result(id);
    const int d = chebyshev(origin, at);
    const FindVerdict v = judge_find(*bounds_, r, region(at), d);
    if (v != FindVerdict::kOk) {
      chk.fail("fleet find " + std::to_string(id.value()) + " at d=" +
               std::to_string(d) + ": " + to_string(v));
      return;
    }
    find_work_ += r.work;
    virtual_us_.push_back(static_cast<double>(r.latency().count()));
    sample_ = FindSample{true, d, region(at), r};
  }

  /// Judges a find on fixed inputs: 1 when it is over Theorem 5.2's time
  /// bound (the fault these finds keep in view), else 0; any other failure
  /// is a failed check.
  std::int64_t over_time(Checker& chk, FindId id, Cell origin, Cell at) {
    const int d = chebyshev(origin, at);
    const FindVerdict v =
        judge_find(*bounds_, net_->find_result(id), region(at), d);
    if (v == FindVerdict::kOverTime) return 1;
    if (v != FindVerdict::kOk) {
      chk.fail("fleet fixed find at d=" + std::to_string(d) + ": " +
               to_string(v));
    }
    return 0;
  }

  Prng rng_;
  std::unique_ptr<hier::GridHierarchy> hier_;
  std::unique_ptr<tracking::TrackingNetwork> net_;
  std::unique_ptr<PaperBounds> bounds_;
  std::vector<TargetId> targets_;
  std::vector<Cell> at_;  // where the harness last sent each evader
  std::vector<TargetId> near_;  // the near grid's static evaders
  TargetId probe_{};
  std::int64_t base_move_work_ = 0;
  std::int64_t hops_ = 0;
  std::int64_t find_work_ = 0;
  std::vector<double> virtual_us_;
  FindSample sample_;
};

Result timed_run(const Options& opt) {
  Result res;
  Checker chk;
  auto fleet = std::make_unique<Fleet>(sub_seed(opt.seed, 0), nullptr);
  res.add("setup_s",
          scaled_setup_s(opt.process_start, *opt.probe, kSetupElasticity),
          "s");

  std::vector<double> rates, find_walls, near_walls, find_us, near_us;
  double move_work_per_hop = 0, find_work_mean = 0, virtual_mean_ms = 0;
  double rss_mb = 0;
  const Clock::time_point start = Clock::now();
  for (int episode = 0;; ++episode) {
    if (episode > 0) {
      fleet = std::make_unique<Fleet>(sub_seed(opt.seed, episode),
                                      nullptr);
    }
    for (int r = 0; r < kEpisodeRounds; ++r) {
      find_us.clear();
      near_us.clear();
      const Clock::time_point r0 = Clock::now();
      res.failed += fleet->round(chk, find_us, near_us, nullptr);
      const double wall = seconds_between(r0, Clock::now());
      const double scale = opt.probe->scale();
      rates.push_back(kMovesPerRound / wall * scale);
      for (const double us : find_us) find_walls.push_back(us / scale);
      for (const double us : near_us) near_walls.push_back(us / scale);
    }
    res.attempted += kEpisodeRounds * kOpsPerRound;
    fleet->final_checks(chk);
    if (episode == 0) {
      // The sim metrics and memory come from the first episode: a
      // function of the seed alone.
      move_work_per_hop = static_cast<double>(fleet->move_work()) /
                          static_cast<double>(fleet->hops());
      find_work_mean = fleet->find_work_mean();
      virtual_mean_ms = mean(fleet->virtual_us()) / 1000.0;
      rss_mb = peak_rss_mb();
    }
    (void)fleet->teardown();
    if (seconds_between(start, Clock::now()) >= opt.seconds) break;
  }
  res.correct = chk.ok();
  res.add("ops_per_s", quantile(rates, 0.5), "1/s");
  res.add("find_wall_p50_us", quantile(find_walls, 0.5), "us");
  res.add("near_find_wall_p50_us", quantile(near_walls, 0.5), "us");
  res.add("peak_rss_mb", rss_mb, "MB");
  res.add("move_work_per_hop", move_work_per_hop, "hop-work");
  res.add("find_work_mean", find_work_mean, "hop-work");
  res.add("find_virtual_mean_ms", virtual_mean_ms, "ms");
  return res;
}

Result traced_run(const Options& opt) {
  Result res;
  Checker chk;
  std::vector<double> find_us, near_us;
  // Untraced half: the reference wall time and deterministic counts.
  SimCounts plain;
  double plain_wall = 0;
  {
    Fleet fleet(sub_seed(opt.seed, 0), nullptr);
    const Clock::time_point p0 = Clock::now();
    for (int r = 0; r < kTraceRounds; ++r) {
      res.failed += fleet.round(chk, find_us, near_us, nullptr);
    }
    plain_wall = seconds_between(p0, Clock::now());
    plain = sim_counts(fleet.net());
  }
  // Traced half: the same rounds on a fresh world with the profiler on.
  LayerTable lt;
  Fleet fleet(sub_seed(opt.seed, 0), &lt);
  obs::Profiler prof;
  fleet.net().set_profiler(&prof);
  Spans spans;
  const SimCounts before = sim_counts(fleet.net());
  const Clock::time_point w0 = Clock::now();
  prof.enable();
  for (int r = 0; r < kTraceRounds; ++r) {
    res.failed += fleet.round(chk, find_us, near_us, &spans);
  }
  prof.disable();
  const double traced_wall = seconds_between(w0, Clock::now());
  const obs::ProfileReport rep = prof.report();
  const SimCounts traced = sim_counts(fleet.net());
  if (!(traced == plain)) {
    chk.fail("profiling changed the deterministic counts");
  }
  fill_profile(lt, rep, traced_wall, chk);
  lt.sim_events = static_cast<double>(traced.events - before.events);
  lt.sim_events_per_move =
      lt.sim_events / static_cast<double>(kTraceRounds * kMovesPerRound);
  lt.vsa_messages = static_cast<double>(traced.messages - before.messages);
  lt.vsa_hop_work = static_cast<double>(traced.work - before.work);
  lt.obs_profile_overhead = traced_wall / plain_wall;
  lt.harness_unattributed_s = traced_wall - spans.move_s - spans.find_s;
  fleet.final_checks(chk);
  lt.tracking_teardown_s = fleet.teardown();
  lt.emit(res);
  res.attempted = 2 * kTraceRounds * kOpsPerRound;
  res.correct = chk.ok();
  return res;
}

}  // namespace

Result run_fleet(const Options& opt) {
  return opt.trace ? traced_run(opt) : timed_run(opt);
}

}  // namespace vs::perfbench
