// serve — the daemon path: VSINGEST1 bytes in, find replies out.
//
// One 81x81 base-3 world with VSA failures modelled and the daemon's
// t_restart, behind an IngestServer at its default configuration. 1024
// objects random-walk in 16 cohorts of 64: cohort k sends one king-step fix
// per object on every round r with r mod 16 == k. So each 1 ms drain round
// carries 64 fixes (below the tier-1 watermark: nothing is shed), and
// within a block each object dwells 16 ms = 8 (delta + e) between fixes,
// the speed restriction under which concurrent moves converge (paper
// section VI; tests/test_concurrent.cpp). A block is 64 such rounds with
// a find RPC, for a random object from a random origin, after every 32nd
// round. An RPC runs the world until its find completes, in slices of a
// sixteenth of its deadline (about 0.2 s of virtual time), so a block
// spans 64 ms of drain rounds plus the virtual time of its RPCs: the
// traced run reports both (README.md). The harness encodes each block in
// memory before timing it, then feeds the bytes in 4096-byte chunks
// through IngestParser and dispatches every frame as `vinestalk_served
// --stdin` does: updates to offer(), round ticks to run_round(), finds to
// find(). Moves are concurrent (updates are not quiesced): each object is
// sent two fixes 16 ms apart between one RPC and the next, and each RPC
// reads while the last rounds' fixes are still in flight.
//
// Each block also carries one probe on fixed inputs: a probe object at
// kProbeHome is sent kProbeA then kProbeB within one round and a find RPC
// for it follows; half a block later it is sent home. The server keys its
// rings by the fix's region and drains them ring by ring, so the two fixes
// are applied in the wrong order and the RPC answers kProbeA, every block.

#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "hier/grid_hierarchy.hpp"
#include "obs/profile/profiler.hpp"
#include "serve/ingest_io.hpp"
#include "serve/server.hpp"
#include "support.hpp"
#include "tracking/network.hpp"

namespace vs::perfbench {
namespace {

constexpr int kWidth = 81;
constexpr int kBase = 3;
constexpr int kCohorts = 16;
constexpr int kCohortSize = 64;
constexpr int kObjects = kCohorts * kCohortSize;
constexpr int kBlockRounds = 64;
/// A random RPC follows every kRpcEvery-th round of a block.
constexpr int kRpcEvery = kBlockRounds / 2;
/// Region ids are y * 81 + x and the default server has 4 rings keyed by
/// region id mod 4: kProbeB (id 4, ring 0) drains before kProbeA (id 3,
/// ring 3).
constexpr Cell kProbeHome{2, 0};
constexpr Cell kProbeA{3, 0};
constexpr Cell kProbeB{4, 0};
constexpr Cell kProbeOrigin{0, 0};
constexpr int kBlockFixes = kBlockRounds * kCohortSize + 3;
constexpr int kBlockRpcs = kBlockRounds / kRpcEvery + 1;
constexpr std::int64_t kOpsPerBlock = kBlockFixes + kBlockRpcs;
/// Every episode starts from a fresh world and server: the cost of a block
/// grows with the finds a world has served (CHANGES.md), so equal work
/// needs equal history.
constexpr int kEpisodeBlocks = 8;
/// The sim metrics cover the first kSimEpisodes episodes (a function of
/// the seed alone); every run completes at least that many.
constexpr int kSimEpisodes = 10;
/// Blocks of each half of a traced run.
constexpr int kTraceBlocks = kEpisodeBlocks;

/// Harness-timed wall time of each call class of a traced block, and the
/// virtual time the calls advance.
struct Spans {
  double parse_s = 0;
  double offer_s = 0;
  double round_s = 0;
  double rpc_s = 0;
  std::int64_t rpc_attempts = 0;
  std::int64_t rpc_virtual_us = 0;
};

/// One RPC the harness encoded, with the answer it expects.
struct ExpectedFind {
  Cell answer;
  bool probe = false;
};

class Serve {
 public:
  Serve(std::uint64_t seed, LayerTable* layers) : rng_(seed) {
    const Clock::time_point t0 = Clock::now();
    hier_ = std::make_unique<hier::GridHierarchy>(kWidth, kWidth, kBase);
    const Clock::time_point t1 = Clock::now();
    // vinestalk_served's world configuration.
    tracking::NetworkConfig cfg;
    cfg.model_vsa_failures = true;
    cfg.t_restart = sim::Duration::millis(5);
    net_ = std::make_unique<tracking::TrackingNetwork>(*hier_, cfg);
    srv_ = std::make_unique<serve::IngestServer>(*net_, *hier_,
                                                 serve::ServeConfig{});
    const Clock::time_point t2 = Clock::now();
    for (int i = 0; i < kObjects; ++i) {
      at_.push_back(random_cell(rng_, kWidth));
      (void)srv_->add_object(region(at_.back()));
    }
    at_.push_back(kProbeHome);
    probe_ = srv_->add_object(region(kProbeHome));
    const Clock::time_point t3 = Clock::now();
    if (layers != nullptr) {
      layers->hier_build_s = seconds_between(t0, t1);
      layers->tracking_build_s = seconds_between(t1, t2);
      layers->tracking_place_s = seconds_between(t2, t3);
    }
    bounds_ = std::make_unique<PaperBounds>(*hier_, delta_plus_e());
    // Theorem 5.2 is stated for a quiescent structure; these finds run
    // while moves are in flight, so each RPC is held to the bound at the
    // world's diameter (any d), which is also its deadline: no RPC misses
    // its deadline while it is within the checked bound.
    diameter_ = hier_->tiling().diameter();
    last_fix_.resize(at_.size());
    deadline_us_ = static_cast<std::int64_t>(
        std::ceil(bounds_->slack() * bounds_->find_time_bound_us(diameter_)));
    base_move_work_ = net_->counters().move_work();
    serve::encode_ingest_header(bytes_);
  }

  /// Encode the next block (untimed) into the pending bytes.
  void encode_block() {
    for (int r = 0; r < kBlockRounds; ++r) {
      const int cohort = r % kCohorts;
      for (int i = 0; i < kCohortSize; ++i) {
        const auto o = static_cast<std::size_t>(cohort * kCohortSize + i);
        send_fix(o, random_step(rng_, at_[o], kWidth));
      }
      if (r == 0) {
        send_fix(probe_, kProbeA);
        send_fix(probe_, kProbeB);
      } else if (r == kBlockRounds / 2) {
        send_fix(probe_, kProbeHome);
      }
      serve::IngestFrame tick;
      tick.type = serve::IngestFrame::Type::kRound;
      encode(tick);
      if (r == 0) send_find(probe_, kProbeOrigin, true);
      if ((r + 1) % kRpcEvery == 0) {
        const auto o = static_cast<std::size_t>(rng_.below(kObjects));
        send_find(o, random_cell(rng_, kWidth), false);
      }
    }
  }

  /// Parse and dispatch the pending bytes. Appends each random RPC's wall
  /// time (us) to `rpc_us`; with `spans`, times every call. Returns the
  /// number of failed operations (the probe RPCs).
  std::int64_t dispatch(Checker& chk, std::vector<double>& rpc_us,
                        Spans* spans) {
    using Status = serve::IngestParser::Status;
    std::int64_t failed = 0;
    std::size_t off = 0;
    for (;;) {
      serve::IngestFrame frame;
      const Clock::time_point p0 = Clock::now();
      const Status st = parser_.next(frame);
      const bool more = st == Status::kNeedMore && off < bytes_.size();
      if (more) {
        // The daemon's reader feeds 4096-byte chunks.
        const std::size_t n = std::min<std::size_t>(4096, bytes_.size() - off);
        parser_.feed(bytes_.data() + off, n);
        off += n;
      }
      const Clock::time_point c0 = Clock::now();
      if (spans != nullptr) spans->parse_s += seconds_between(p0, c0);
      if (more) continue;
      if (st == Status::kNeedMore) break;
      if (st == Status::kEnd) {
        ended_ = true;
        break;
      }
      if (st == Status::kError) {
        chk.fail("serve parser: " + parser_.error());
        break;
      }
      switch (frame.type) {
        case serve::IngestFrame::Type::kUpdate:
          (void)srv_->offer(frame.update);
          if (spans != nullptr) {
            spans->offer_s += seconds_between(c0, Clock::now());
          }
          note_dwell(frame.update.object);
          break;
        case serve::IngestFrame::Type::kRound:
          (void)srv_->run_round();
          if (spans != nullptr) {
            spans->round_s += seconds_between(c0, Clock::now());
          }
          break;
        case serve::IngestFrame::Type::kFind: {
          const sim::TimePoint v0 = net_->now();
          const serve::FindOutcome o =
              srv_->find(hier_->grid().region_at(frame.find.x, frame.find.y),
                         frame.find.object,
                         sim::Duration(frame.find.deadline_us));
          const double wall = seconds_between(c0, Clock::now());
          if (spans != nullptr) {
            spans->rpc_s += wall;
            spans->rpc_attempts += o.attempts;
            spans->rpc_virtual_us += (net_->now() - v0).count();
          }
          ++rpcs_;
          failed += judge(chk, o, wall, rpc_us);
          break;
        }
      }
    }
    bytes_.clear();
    return failed;
  }

  /// Close the stream and run the end-of-run checks: the parser saw every
  /// frame, every offered fix is accounted for, Theorem 4.9 over every hop
  /// sent, Theorem 4.8 for every object, and the self-test of each check.
  void finish(Checker& chk) {
    serve::encode_ingest_trailer(bytes_, frames_);
    std::vector<double> ignored;
    (void)dispatch(chk, ignored, nullptr);
    if (!ended_) chk.fail("serve parser never reached the trailer");
    srv_->finish();
    net_->run_to_quiescence();
    const stats::IngestCounters& ing = net_->counters().ingest();
    const std::int64_t accounted = ing.applied + ing.suppressed + ing.dropped;
    check_serve_counts(chk, parser_.frames_parsed(), frames_, accounted,
                       fixes_);
    self_test_serve_counts(chk, parser_.frames_parsed(), frames_, accounted,
                           fixes_);
    const std::int64_t work = move_work();
    if (!bounds_->move_work_ok(work, hops_)) {
      chk.fail("serve move work " + std::to_string(work) + " over " +
               std::to_string(hops_) + " hops exceeds 2x Theorem 4.9");
    }
    for (std::size_t o = 0; o < at_.size(); ++o) {
      const std::string why = inconsistency(*net_, target(o), region(at_[o]));
      if (!why.empty()) chk.fail("serve object inconsistent: " + why);
    }
    self_test(chk, *net_, delta_plus_e(), sample_, target(0), region(at_[0]),
              work, hops_);
  }

  [[nodiscard]] std::int64_t move_work() {
    return net_->counters().move_work() - base_move_work_;
  }
  [[nodiscard]] std::int64_t hops() const { return hops_; }
  /// Hop-work and virtual latencies of the random RPCs that passed.
  [[nodiscard]] std::int64_t find_work() const { return find_work_; }
  [[nodiscard]] const std::vector<double>& virtual_us() const {
    return virtual_us_;
  }
  [[nodiscard]] tracking::TrackingNetwork& net() { return *net_; }
  /// Virtual times between two fixes of one object (us): all of them, and
  /// those no RPC separates (the moves an RPC finds still in flight).
  [[nodiscard]] const std::vector<double>& dwells_us() const {
    return dwells_us_;
  }
  [[nodiscard]] const std::vector<double>& in_flight_dwells_us() const {
    return in_flight_dwells_us_;
  }

  /// Destroy server and world; returns the teardown wall time.
  double teardown() {
    const Clock::time_point t0 = Clock::now();
    srv_.reset();
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
  /// Objects are the world's only evaders, registered in index order.
  [[nodiscard]] static TargetId target(std::size_t o) {
    return TargetId{static_cast<TargetId::rep_type>(o)};
  }

  void encode(const serve::IngestFrame& f) {
    serve::encode_frame(bytes_, f);
    ++frames_;
  }
  void send_fix(std::size_t o, Cell c) {
    hops_ += chebyshev(at_[o], c);
    at_[o] = c;
    ++fixes_;
    serve::IngestFrame f;
    f.type = serve::IngestFrame::Type::kUpdate;
    f.update = serve::UpdateFrame{o, c.x, c.y};
    encode(f);
  }
  void send_find(std::size_t o, Cell origin, bool probe) {
    expected_.push_back(ExpectedFind{at_[o], probe});
    serve::IngestFrame f;
    f.type = serve::IngestFrame::Type::kFind;
    f.find = serve::FindFrame{o, origin.x, origin.y, deadline_us_};
    encode(f);
  }

  /// Virtual time since the object's previous fix was offered.
  void note_dwell(std::uint64_t o) {
    const std::int64_t now = net_->now().count();
    LastFix& last = last_fix_[o];
    if (last.at_us >= 0) {
      const auto dwell = static_cast<double>(now - last.at_us);
      dwells_us_.push_back(dwell);
      if (last.rpcs == rpcs_) in_flight_dwells_us_.push_back(dwell);
    }
    last = LastFix{now, rpcs_};
  }

  std::int64_t judge(Checker& chk, const serve::FindOutcome& o, double wall,
                     std::vector<double>& rpc_us) {
    const ExpectedFind want = expected_.front();
    expected_.pop_front();
    const tracking::FindResult& r = net_->find_result(o.id);
    FindVerdict v = judge_find(*bounds_, r, region(want.answer), diameter_);
    if (o.attempts > 1) v = FindVerdict::kOverTime;  // missed a deadline
    if (want.probe) return v == FindVerdict::kOk ? 0 : 1;
    rpc_us.push_back(wall * 1e6);
    if (v != FindVerdict::kOk) {
      chk.fail("serve RPC: " + std::string(to_string(v)) + " after " +
               std::to_string(o.attempts) + " attempt(s)");
      return 0;
    }
    find_work_ += r.work;
    virtual_us_.push_back(static_cast<double>(r.latency().count()));
    sample_ = FindSample{true, diameter_, region(want.answer), r};
    return 0;
  }

  Prng rng_;
  std::unique_ptr<hier::GridHierarchy> hier_;
  std::unique_ptr<tracking::TrackingNetwork> net_;
  std::unique_ptr<serve::IngestServer> srv_;
  std::unique_ptr<PaperBounds> bounds_;
  std::vector<Cell> at_;  // where the harness last sent each object
  std::uint64_t probe_ = 0;
  int diameter_ = 0;
  std::int64_t deadline_us_ = 0;
  serve::IngestParser parser_;
  std::string bytes_;  // encoded, not yet dispatched
  std::uint64_t frames_ = 0;
  std::int64_t fixes_ = 0;
  bool ended_ = false;
  std::deque<ExpectedFind> expected_;
  std::int64_t base_move_work_ = 0;
  std::int64_t hops_ = 0;
  std::int64_t find_work_ = 0;
  std::vector<double> virtual_us_;
  FindSample sample_;
  struct LastFix {
    std::int64_t at_us = -1;  // -1: no fix offered yet
    std::int64_t rpcs = 0;    // RPCs dispatched before it
  };
  std::vector<LastFix> last_fix_;
  std::int64_t rpcs_ = 0;
  std::vector<double> dwells_us_;
  std::vector<double> in_flight_dwells_us_;
};

Result timed_run(const Options& opt) {
  Result res;
  Checker chk;
  auto s = std::make_unique<Serve>(sub_seed(opt.seed, 0), nullptr);
  s->encode_block();
  res.add("setup_s", scaled_setup_s(opt.process_start, *opt.probe, 1.0),
          "s");

  std::vector<double> rpc_walls, rpc_us, virtual_us;
  std::int64_t move_work = 0, hops = 0, find_work = 0;
  double rss_mb = 0;
  // A block's time depends on how far its RPC searches, so the rate is
  // total fixes over total scaled time rather than a median of blocks.
  double scaled_s = 0;
  int blocks = 0;
  const Clock::time_point start = Clock::now();
  for (int episode = 0; episode < kSimEpisodes ||
                        seconds_between(start, Clock::now()) < opt.seconds;
       ++episode) {
    if (episode > 0) {
      s = std::make_unique<Serve>(sub_seed(opt.seed, episode), nullptr);
      s->encode_block();
    }
    for (int b = 0; b < kEpisodeBlocks; ++b) {
      if (b > 0) s->encode_block();
      rpc_us.clear();
      const Clock::time_point b0 = Clock::now();
      res.failed += s->dispatch(chk, rpc_us, nullptr);
      const double wall = seconds_between(b0, Clock::now());
      const double scale = opt.probe->scale();
      scaled_s += wall / scale;
      for (const double us : rpc_us) rpc_walls.push_back(us / scale);
    }
    blocks += kEpisodeBlocks;
    s->finish(chk);
    if (episode < kSimEpisodes) {
      move_work += s->move_work();
      hops += s->hops();
      find_work += s->find_work();
      virtual_us.insert(virtual_us.end(), s->virtual_us().begin(),
                        s->virtual_us().end());
    }
    if (episode == 0) rss_mb = peak_rss_mb();
    (void)s->teardown();
  }
  res.attempted = blocks * kOpsPerBlock;
  res.correct = chk.ok();
  res.add("ops_per_s", blocks * kBlockFixes / scaled_s, "1/s");
  res.add("find_wall_p50_us", quantile(rpc_walls, 0.5), "us");
  // Near finds are those within the near grid's d <= 81: on this 81-wide
  // world, every RPC.
  res.add("near_find_wall_p50_us", quantile(rpc_walls, 0.5), "us");
  res.add("peak_rss_mb", rss_mb, "MB");
  res.add("move_work_per_hop",
          static_cast<double>(move_work) / static_cast<double>(hops),
          "hop-work");
  res.add("find_work_mean",
          static_cast<double>(find_work) /
              static_cast<double>(virtual_us.size()),
          "hop-work");
  res.add("find_virtual_mean_ms", mean(virtual_us) / 1000.0, "ms");
  return res;
}

Result traced_run(const Options& opt) {
  Result res;
  Checker chk;
  std::vector<double> rpc_us;
  // Untraced half: the reference wall time and deterministic counts.
  SimCounts plain;
  stats::IngestCounters plain_ing;
  double plain_wall = 0;
  {
    Serve s(sub_seed(opt.seed, 0), nullptr);
    for (int b = 0; b < kTraceBlocks; ++b) {
      s.encode_block();
      const Clock::time_point b0 = Clock::now();
      res.failed += s.dispatch(chk, rpc_us, nullptr);
      plain_wall += seconds_between(b0, Clock::now());
    }
    plain = sim_counts(s.net());
    s.finish(chk);
    plain_ing = s.net().counters().ingest();
  }
  // Traced half: the same blocks on a fresh world with the profiler on.
  LayerTable lt;
  Serve s(sub_seed(opt.seed, 0), &lt);
  obs::Profiler prof;
  s.net().set_profiler(&prof);
  Spans spans;
  const SimCounts before = sim_counts(s.net());
  const sim::TimePoint v0 = s.net().now();
  double traced_wall = 0;
  const Clock::time_point w0 = Clock::now();
  prof.enable();
  for (int b = 0; b < kTraceBlocks; ++b) {
    s.encode_block();
    const Clock::time_point b0 = Clock::now();
    res.failed += s.dispatch(chk, rpc_us, &spans);
    traced_wall += seconds_between(b0, Clock::now());
  }
  prof.disable();
  const double profiled_wall = seconds_between(w0, Clock::now());
  const obs::ProfileReport rep = prof.report();
  const SimCounts traced = sim_counts(s.net());
  const auto blocks_virtual_us =
      static_cast<double>((s.net().now() - v0).count());
  s.finish(chk);
  const stats::IngestCounters& ing = s.net().counters().ingest();
  if (!(traced == plain) || ing.applied != plain_ing.applied ||
      ing.suppressed != plain_ing.suppressed ||
      ing.dropped != plain_ing.dropped) {
    chk.fail("profiling changed the deterministic counts");
  }
  fill_profile(lt, rep, profiled_wall, chk);
  lt.sim_events = static_cast<double>(traced.events - before.events);
  lt.sim_events_per_move = lt.sim_events / static_cast<double>(s.hops());
  lt.vsa_messages = static_cast<double>(traced.messages - before.messages);
  lt.vsa_hop_work = static_cast<double>(traced.work - before.work);
  lt.serve_parse_s = spans.parse_s;
  lt.serve_offer_s = spans.offer_s;
  lt.serve_round_s = spans.round_s;
  lt.serve_rpc_s = spans.rpc_s;
  lt.serve_rpc_attempts_per_find =
      static_cast<double>(spans.rpc_attempts) /
      static_cast<double>(kTraceBlocks * kBlockRpcs);
  lt.serve_applied = static_cast<double>(ing.applied);
  lt.serve_suppressed = static_cast<double>(ing.suppressed);
  lt.serve_dropped = static_cast<double>(ing.dropped);
  lt.serve_block_virtual_ms = blocks_virtual_us / kTraceBlocks / 1000.0;
  lt.serve_rpc_virtual_ms = static_cast<double>(spans.rpc_virtual_us) /
                            (kTraceBlocks * kBlockRpcs) / 1000.0;
  lt.serve_dwell_in_flight_ms = mean(s.in_flight_dwells_us()) / 1000.0;
  lt.serve_dwell_mean_ms = mean(s.dwells_us()) / 1000.0;
  lt.obs_profile_overhead = traced_wall / plain_wall;
  lt.harness_unattributed_s = traced_wall - spans.parse_s - spans.offer_s -
                              spans.round_s - spans.rpc_s;
  lt.tracking_teardown_s = s.teardown();
  lt.emit(res);
  res.attempted = 2 * kTraceBlocks * kOpsPerBlock;
  res.correct = chk.ok();
  return res;
}

}  // namespace

Result run_serve(const Options& opt) {
  return opt.trace ? traced_run(opt) : timed_run(opt);
}

}  // namespace vs::perfbench
