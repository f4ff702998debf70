// vs_perfbench — the VINESTALK benchmark harness.
//
//   vs_perfbench --workload fleet|sweep|serve --seed N --seconds S
//                --trace 0|1
//
// Runs one workload single-threaded and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
// with profiling off; with --trace 1 they are the per-layer table of a
// traced run. Exit code 2 on bad arguments, 1 on an exception.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace vs::perfbench {

int chebyshev(Cell a, Cell b) {
  return std::max(std::abs(a.x - b.x), std::abs(a.y - b.y));
}

Cell random_cell(Prng& rng, int width) {
  const int x = rng.below(width);
  return Cell{x, rng.below(width)};
}

Cell random_step(Prng& rng, Cell c, int width) {
  static constexpr int kDx[8] = {-1, -1, -1, 0, 0, 1, 1, 1};
  static constexpr int kDy[8] = {-1, 0, 1, -1, 1, -1, 0, 1};
  for (;;) {
    const auto k = static_cast<std::size_t>(rng.below(8));
    const Cell n{c.x + kDx[k], c.y + kDy[k]};
    if (n.x >= 0 && n.x < width && n.y >= 0 && n.y < width) return n;
  }
}

Cell far_origin(Prng& rng, Cell target, int width) {
  for (;;) {
    const Cell c = random_cell(rng, width);
    if (chebyshev(c, target) > kMinFindDistance) return c;
  }
}

const std::vector<NearFind>& near_grid() {
  static const std::vector<NearFind> grid = [] {
    // Two targets inside the 243 x 243 corner that every grid world of at
    // least that width shares; for each distance the first king direction
    // (cycling with the distance's index) that stays on that corner.
    static constexpr Cell kTargets[2] = {{60, 100}, {130, 170}};
    static constexpr int kDistances[10] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 81};
    static constexpr int kDx[8] = {1, 1, 0, -1, -1, -1, 0, 1};
    static constexpr int kDy[8] = {0, 1, 1, 1, 0, -1, -1, -1};
    constexpr int kCorner = 243;
    std::vector<NearFind> out;
    for (const Cell t : kTargets) {
      for (int i = 0; i < 10; ++i) {
        const int d = kDistances[i];
        for (int k = 0; k < 8; ++k) {
          const auto dir = static_cast<std::size_t>((i + k) % 8);
          const Cell o{t.x + kDx[dir] * d, t.y + kDy[dir] * d};
          if (o.x >= 0 && o.x < kCorner && o.y >= 0 && o.y < kCorner) {
            out.push_back(NearFind{t, o});
            break;
          }
        }
      }
    }
    return out;
  }();
  return grid;
}

std::vector<Cell> near_targets() {
  std::vector<Cell> out;
  for (const NearFind& f : near_grid()) {
    if (std::find(out.begin(), out.end(), f.target) == out.end()) {
      out.push_back(f.target);
    }
  }
  return out;
}

// The arena is left uninitialised: only the pages the probe uses (about
// 1.5 MB) become resident, which is all the probe adds to peak_rss_mb.
HostProbe::HostProbe()
    : arena_(new std::byte[kArenaBytes]),
      upstream_(arena_.get(), kArenaBytes, std::pmr::null_memory_resource()),
      pool_(&upstream_),
      churn_(&pool_) {
  blocks_.reserve(kOps);
}

std::pair<double, double> HostProbe::pass() {
  // Small-map churn: inserts, lookups and erases on a map of about 2048
  // nodes, the pointer chasing the program's per-cluster and per-find maps
  // make.
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    key_ = key_ * 6364136223846793005ULL + 1442695040888963407ULL;
    churn_[key_ >> 52] += key_;
    if (churn_.size() > 2048) churn_.erase(churn_.begin());
  }
  // Small-object allocation: 48-byte blocks allocated, written and freed,
  // as world construction and teardown do.
  const Clock::time_point t1 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    auto* b = static_cast<std::uint64_t*>(pool_.allocate(48));
    b[0] = static_cast<std::uint64_t>(i);
    blocks_.push_back(b);
  }
  for (void* b : blocks_) pool_.deallocate(b, 48);
  blocks_.clear();
  const Clock::time_point t2 = Clock::now();
  return {seconds_between(t0, t1), seconds_between(t1, t2)};
}

double HostProbe::scale() {
  (void)pass();
  const auto [map_s, alloc_s] = pass();
  return 0.5 *
         (map_s / kMapReferenceSeconds + alloc_s / kAllocReferenceSeconds);
}

double scaled_setup_s(const Clock::time_point& process_start,
                      HostProbe& probe, double elasticity) {
  const double raw = seconds_between(process_start, Clock::now());
  std::vector<double> scales;
  for (int i = 0; i < 3; ++i) scales.push_back(probe.scale());
  return raw / std::pow(quantile(scales, 0.5), elasticity);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void LayerTable::emit(Result& r) const {
  r.add("hier.build_s", hier_build_s, "s");
  r.add("tracking.build_s", tracking_build_s, "s");
  r.add("tracking.teardown_s", tracking_teardown_s, "s");
  r.add("tracking.place_s", tracking_place_s, "s");
  r.add("tracking.grow_s", tracking_grow_s, "s");
  r.add("tracking.shrink_s", tracking_shrink_s, "s");
  r.add("tracking.timer_s", tracking_timer_s, "s");
  r.add("tracking.find_s", tracking_find_s, "s");
  r.add("vsa.deliver_s", vsa_deliver_s, "s");
  r.add("sim.queue_s", sim_queue_s, "s");
  r.add("sim.fire_s", sim_fire_s, "s");
  r.add("sim.events", sim_events, "count");
  r.add("sim.events_per_move", sim_events_per_move, "events/move");
  r.add("vsa.messages", vsa_messages, "count");
  r.add("vsa.hop_work", vsa_hop_work, "hop-work");
  r.add("serve.parse_s", serve_parse_s, "s");
  r.add("serve.offer_s", serve_offer_s, "s");
  r.add("serve.round_s", serve_round_s, "s");
  r.add("serve.rpc_s", serve_rpc_s, "s");
  r.add("serve.rpc_attempts_per_find", serve_rpc_attempts_per_find,
        "attempts/find");
  r.add("serve.applied", serve_applied, "count");
  r.add("serve.suppressed", serve_suppressed, "count");
  r.add("serve.dropped", serve_dropped, "count");
  r.add("serve.block_virtual_ms", serve_block_virtual_ms, "ms");
  r.add("serve.rpc_virtual_ms", serve_rpc_virtual_ms, "ms");
  r.add("serve.dwell_in_flight_ms", serve_dwell_in_flight_ms, "ms");
  r.add("serve.dwell_mean_ms", serve_dwell_mean_ms, "ms");
  r.add("obs.profile_overhead", obs_profile_overhead, "ratio");
  r.add("harness.unattributed_s", harness_unattributed_s, "s");
}

namespace {

int usage(const std::string& why) {
  std::cerr << "vs_perfbench: " << why
            << "\nusage: vs_perfbench --workload fleet|sweep|serve --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace vs::perfbench

int main(int argc, char** argv) {
  using namespace vs::perfbench;
  // The probe's memory is the harness's, not the program's: it is allocated
  // before the set-up clock starts.
  HostProbe probe;
  Options opt;
  opt.process_start = Clock::now();
  opt.probe = &probe;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
        have_seconds = opt.seconds > 0;
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
        have_trace = true;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + val);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are all "
                 "required");
  }
  try {
    Result r;
    if (opt.workload == "fleet") {
      r = run_fleet(opt);
    } else if (opt.workload == "sweep") {
      r = run_sweep(opt);
    } else if (opt.workload == "serve") {
      r = run_serve(opt);
    } else {
      return usage("unknown workload " + opt.workload);
    }
    print_result(r);
  } catch (const std::exception& e) {
    std::cerr << "vs_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
