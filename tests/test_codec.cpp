// The shared artifact codec (src/common/codec.hpp) and a seeded mutation
// study of every reader built on it. For a fixed, seeded set of single-bit
// flips and truncations of a valid artifact: every strict binary reader
// (VSTRACE1, VSINCID1, VSTELEM1, VSPROF1, VSSLO1, VSINGEST1) throws
// vs::Error; the incremental IngestParser never completes a mutant and
// never yields an altered frame; the VSTELEM1 tail reader yields only a
// prefix of the samples written, never an altered one; and the
// `faultplan v1` and `slo v1` text parsers either parse a mutant or throw
// vs::Error. Plus CRC32C's known answer, varint extremes, and the
// count-against-bytes check that stops a corrupt count before it
// allocates.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "obs/monitor/incident.hpp"
#include "obs/op.hpp"
#include "obs/profile/profile_io.hpp"
#include "obs/slo/slo.hpp"
#include "obs/slo/slo_io.hpp"
#include "obs/telemetry/telemetry_io.hpp"
#include "obs/trace_io.hpp"
#include "serve/ingest_io.hpp"

namespace vstest {
namespace {

using namespace vs;

constexpr int kFlips = 300;
constexpr int kCuts = 64;

struct Mutant {
  std::string bytes;
  std::string what;
};

/// The fixed mutant set of `good`: kFlips single-bit flips, then kCuts
/// truncations, drawn from `seed`.
std::vector<Mutant> mutants(const std::string& good, std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<std::int64_t>(good.size());
  std::vector<Mutant> out;
  for (int i = 0; i < kFlips; ++i) {
    const auto bit = static_cast<std::size_t>(rng.uniform_int(0, n * 8 - 1));
    std::string m = good;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    out.push_back({std::move(m), "flip of bit " + std::to_string(bit)});
  }
  for (int i = 0; i < kCuts; ++i) {
    const auto keep = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    out.push_back({good.substr(0, keep), "cut to " + std::to_string(keep)});
  }
  return out;
}

std::string temp_file(const std::string& stem, const std::string& bytes) {
  const std::string path = testing::TempDir() + stem;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// `read` must accept `good` and throw vs::Error on every mutant of it.
template <class Read>
void expect_every_mutant_rejected(const std::string& good, std::uint64_t seed,
                                  Read read) {
  ASSERT_NO_THROW(read(good));
  for (const Mutant& m : mutants(good, seed)) {
    EXPECT_THROW(read(m.bytes), Error) << m.what;
  }
}

obs::TraceEvent event(std::int64_t t, std::uint64_t seq) {
  obs::TraceEvent e{};
  e.time_us = t;
  e.seq = seq;
  e.find = -1;
  e.a = static_cast<std::int32_t>(seq);
  e.b = -1;
  e.target = 0;
  e.level = 1;
  e.kind = static_cast<std::uint8_t>(obs::TraceKind::kSend);
  e.msg = 0;
  return e;
}

// ------------------------------------------------------------- codec

TEST(Codec, Crc32cMatchesTheCastagnoliCheckValue) {
  EXPECT_EQ(codec::crc32c("123456789", 9), 0xE3069283u);
}

TEST(Codec, VarintsRoundTripTheExtremesAndRefuseOverlongInput) {
  const std::int64_t values[] = {0,  1,  -1, 63, -64, 64, -65,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  std::string buf;
  for (const std::int64_t v : values) codec::put_varint(buf, v);
  codec::Reader r(buf, "test");
  for (const std::int64_t v : values) EXPECT_EQ(r.get_varint(), v);
  r.expect_end();
  const std::string overlong(11, '\x80');
  codec::Reader bad(overlong, "test");
  EXPECT_THROW((void)bad.get_varint(), Error);
}

TEST(Codec, TraceFrameClaimingTwoBillionEventsThrowsBeforeAllocating) {
  // A hand-built VSTRACE1 stream whose frames all carry valid CRCs: a
  // world frame, then an events frame (type 2) that claims 2^31 events
  // but holds none — 128 GiB if the reader trusted it.
  std::string bytes = "VSTRACE1";
  codec::put(bytes, obs::kTraceFormatVersion);
  std::size_t at = codec::begin_frame(bytes, 1);
  codec::put<std::uint32_t>(bytes, 0);
  codec::end_frame(bytes, at);
  at = codec::begin_frame(bytes, 2);
  codec::put<std::uint32_t>(bytes, std::uint32_t{1} << 31);
  codec::end_frame(bytes, at);
  codec::put_trailer(bytes, 2);
  std::istringstream is(bytes);
  try {
    (void)obs::read_trace(is);
    FAIL() << "a count past the frame's bytes must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2147483648"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------- strict binary readers

TEST(CodecMutation, TraceReaderRejectsEveryMutant) {
  std::vector<obs::WorldTrace> worlds(2);
  for (std::uint32_t w = 0; w < 2; ++w) {
    worlds[w].world = w;
    for (std::uint64_t i = 0; i < 4; ++i) {
      worlds[w].events.push_back(event(static_cast<std::int64_t>(10 * i), i));
    }
  }
  std::ostringstream os;
  obs::write_trace(os, worlds);
  expect_every_mutant_rejected(os.str(), 1, [](const std::string& b) {
    std::istringstream is(b);
    (void)obs::read_trace(is);
  });
}

TEST(CodecMutation, IncidentReaderRejectsEveryMutant) {
  obs::IncidentBundle b;
  b.source = "watchdog";
  b.violation = {"lemma-4.1", "pointer cycle", 1234, 7, 1};
  b.scenario.side = 9;
  b.scenario.start_region = 4;
  b.scenario.corruptions.push_back({3, 1, 2, -1, -1});
  b.scenario.fault_plan = "faultplan v1\nend\n";
  b.slo_exemplars.push_back(
      {1, obs::make_op(obs::OpClass::kFindSearch, 2), 1000, 55'555, 4});
  b.config_json = "{\"side\": 9}";
  b.metrics_json = "{}";
  b.ring = {event(1, 1), event(2, 2), event(3, 3)};
  b.ring_capacity = 8;
  std::ostringstream os;
  obs::write_incident(os, b);
  expect_every_mutant_rejected(os.str(), 2, [](const std::string& bytes) {
    std::istringstream is(bytes);
    (void)obs::read_incident(is);
  });
}

TEST(CodecMutation, ProfileReaderRejectsEveryMutant) {
  obs::ProfileReport r;
  r.total_ns = 100'000;
  r.wall_ns = 250'000;
  r.scopes = 12;
  r.domain_self_ns[0] = 60'000;
  r.domain_self_ns[2] = 40'000;
  r.paths.push_back({obs::prof_path_push(0, 0, obs::ProfDomain::kFire),
                     60'000, 10});
  r.ops.push_back({obs::make_op(obs::OpClass::kFindSearch, 1), 500, 2, 9, 3});
  r.snapshots.push_back(obs::ProfileSnapshotRow{123, r.domain_self_ns});
  const std::string path = testing::TempDir() + "codec_mut.vsprof";
  obs::write_profile_file(path, r);
  expect_every_mutant_rejected(file_bytes(path), 3,
                               [](const std::string& bytes) {
                                 (void)obs::read_profile_file(
                                     temp_file("codec_mut_in.vsprof", bytes));
                               });
}

TEST(CodecMutation, SloReaderRejectsEveryMutant) {
  obs::SloMonitor mon(obs::SloSpec::parse("slo v1\n"
                                          "objective find p99 <= 2000000ns\n"
                                          "availability >= 99.900\n"
                                          "end\n"));
  mon.close_update(obs::SloMonitor::now_ns(), 100);
  mon.close_find(obs::SloMonitor::now_ns(), 200,
                 obs::make_op(obs::OpClass::kFindSearch, 1), 3, false);
  const std::string path = testing::TempDir() + "codec_mut.vsslo";
  obs::write_slo_file(path, mon.report());
  expect_every_mutant_rejected(file_bytes(path), 4,
                               [](const std::string& bytes) {
                                 (void)obs::read_slo_file(
                                     temp_file("codec_mut_in.vsslo", bytes));
                               });
}

/// A finished six-sample stream; returns its bytes and samples.
std::string telemetry_stream(std::vector<obs::TelemetrySample>& samples) {
  obs::TelemetryHeader h;
  h.cadence_us = 1000;
  h.max_level = 1;
  h.series = h.expected_series();
  const std::string path = testing::TempDir() + "codec_mut.vstelem";
  {
    obs::TelemetryWriter writer(path, h);
    obs::TelemetrySample s;
    s.values.assign(h.series, 0);
    for (std::int64_t k = 1; k <= 6; ++k) {
      s.t_us = 1000 * k;
      s.values[obs::kTsEventsFired] = 7 * k * k;
      s.values[obs::kTsFindLatencyP50] = 300 - 20 * k;
      s.values[h.series - 1] = k;
      writer.append(s);
      samples.push_back(s);
    }
  }
  return file_bytes(path);
}

TEST(CodecMutation, TelemetryStrictReaderRejectsEveryMutant) {
  std::vector<obs::TelemetrySample> samples;
  expect_every_mutant_rejected(
      telemetry_stream(samples), 5, [](const std::string& bytes) {
        (void)obs::read_telemetry_file(
            temp_file("codec_mut_in.vstelem", bytes), /*strict=*/true);
      });
}

TEST(CodecMutation, TelemetryTailReaderYieldsOnlyAPrefix) {
  std::vector<obs::TelemetrySample> samples;
  const std::string good = telemetry_stream(samples);
  for (const Mutant& m : mutants(good, 6)) {
    obs::TelemetryFile f;
    try {
      f = obs::read_telemetry_file(temp_file("codec_tail.vstelem", m.bytes),
                                   /*strict=*/false);
    } catch (const Error&) {
      continue;
    }
    EXPECT_FALSE(f.complete) << m.what;
    ASSERT_LE(f.samples.size(), samples.size()) << m.what;
    for (std::size_t i = 0; i < f.samples.size(); ++i) {
      EXPECT_EQ(f.samples[i].t_us, samples[i].t_us) << m.what;
      EXPECT_EQ(f.samples[i].values, samples[i].values) << m.what;
    }
  }
}

std::vector<serve::IngestFrame> ingest_frames() {
  std::vector<serve::IngestFrame> frames(5);
  frames[0].type = serve::IngestFrame::Type::kUpdate;
  frames[0].update = {3, 4, 5};
  frames[1].type = serve::IngestFrame::Type::kRound;
  frames[1].round.upto_us = 16'000;
  frames[2].type = serve::IngestFrame::Type::kFind;
  frames[2].find = {3, 0, 0, 90'000};
  frames[3].type = serve::IngestFrame::Type::kUpdate;
  frames[3].update = {1, -2, 7};
  frames[4].type = serve::IngestFrame::Type::kRound;
  frames[4].round.upto_us = 32'000;
  return frames;
}

std::string ingest_stream(const std::vector<serve::IngestFrame>& frames) {
  std::string bytes;
  serve::encode_ingest_header(bytes);
  for (const serve::IngestFrame& f : frames) serve::encode_frame(bytes, f);
  serve::encode_ingest_trailer(bytes, frames.size());
  return bytes;
}

TEST(CodecMutation, IngestFileReaderRejectsEveryMutant) {
  expect_every_mutant_rejected(
      ingest_stream(ingest_frames()), 7, [](const std::string& bytes) {
        (void)serve::read_ingest_file(
            temp_file("codec_mut_in.vsingest", bytes));
      });
}

TEST(CodecMutation, IncrementalIngestParserNeverCompletesAMutant) {
  using Status = serve::IngestParser::Status;
  const std::vector<serve::IngestFrame> frames = ingest_frames();
  for (const Mutant& m : mutants(ingest_stream(frames), 8)) {
    serve::IngestParser p;
    std::size_t fed = 0;
    std::size_t yielded = 0;
    Status st = Status::kNeedMore;
    // Seven-byte chunks: frames straddle every feed() boundary.
    while (st != Status::kError && st != Status::kEnd) {
      serve::IngestFrame f;
      st = p.next(f);
      if (st == Status::kFrame) {
        ASSERT_LT(yielded, frames.size()) << m.what;
        EXPECT_EQ(f, frames[yielded]) << m.what << ", frame " << yielded;
        ++yielded;
      } else if (st == Status::kNeedMore) {
        if (fed == m.bytes.size()) break;
        const std::size_t n = std::min<std::size_t>(7, m.bytes.size() - fed);
        p.feed(m.bytes.data() + fed, n);
        fed += n;
      }
    }
    EXPECT_NE(st, Status::kEnd) << m.what;
  }
}

// ------------------------------------------------------ text parsers

/// Every mutant of `good` either parses or throws vs::Error — never any
/// other exception.
template <class Parse>
void expect_parse_or_error(const std::string& good, std::uint64_t seed,
                           Parse parse) {
  ASSERT_NO_THROW(parse(good));
  for (const Mutant& m : mutants(good, seed)) {
    try {
      parse(m.bytes);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << m.what << " threw a non-vs::Error: " << e.what();
    }
  }
}

TEST(CodecMutation, FaultPlanParserParsesOrThrowsVsError) {
  fault::FaultPlan p;
  p.seed = 0xFEED;
  p.crashes.push_back({12, 1'000'000});
  p.outages.push_back({7, 2, 3'000'000});
  p.depopulations.push_back({3, 4'000'000, 6'000'000});
  p.loss_bursts.push_back({0, 5'000'000, 0.25, 0});
  p.duplications.push_back({1'000'000, 2'000'000, 0.5, 0});
  p.jitters.push_back({500'000, 4'500'000, 0.1, 300});
  p.recovery = fault::FaultPlan::Recovery{1'000'000, 50'000};
  expect_parse_or_error(p.to_string(), 9, [](const std::string& text) {
    (void)fault::FaultPlan::parse(text);
  });
}

TEST(CodecMutation, SloSpecParserParsesOrThrowsVsError) {
  expect_parse_or_error(
      "slo v1\n"
      "objective find p99 <= 2000000ns\n"
      "objective find ns_per_d p99 <= 1500\n"
      "availability >= 99.900\n"
      "window short 1000us long 10000us\n"
      "burn fast 14.40 slow 6.00\n"
      "clock virtual\n"
      "end\n",
      10, [](const std::string& text) { (void)obs::SloSpec::parse(text); });
}

}  // namespace
}  // namespace vstest
