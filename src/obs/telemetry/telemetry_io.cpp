#include "obs/telemetry/telemetry_io.hpp"

#include <iterator>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "obs/op.hpp"

namespace vs::obs {

namespace {

constexpr std::uint8_t kHeaderTag = 1;
constexpr std::uint8_t kSampleTag = 2;
// A sample never legitimately has more series than this (series are
// capped by the level depth, which is small).
constexpr std::uint32_t kMaxSeries = 1u << 16;
constexpr std::uint32_t kMaxVarintBytes = 10;
/// Most bytes a sample of `series` values can take.
constexpr std::uint32_t max_sample_bytes(std::uint32_t series) {
  return kMaxVarintBytes * (series + 1);
}

constexpr codec::TagRule kTags[] = {
    {kHeaderTag, 16, 16},
    {kSampleTag, 1, max_sample_bytes(kMaxSeries)},
};
constexpr codec::Format kFormat{"VSTELEM1", kTelemetryFormatVersion,
                                "VSTELEM1", kTags};

}  // namespace

std::vector<std::string> telemetry_series_names(
    const TelemetryHeader& header) {
  std::vector<std::string> names = {
      "events_fired",    "msgs_total",      "work_total",
      "move_msgs",       "move_work",       "find_msgs",
      "find_work",       "heartbeats",      "duplicated",
      "jittered",        "finds_issued",    "finds_completed",
      "find_latency_p50_us", "find_latency_p90_us", "find_latency_p99_us",
      "trace_events",
  };
  for (std::uint32_t c = 0; c < 6; ++c) {
    const char* cls = op_class_name(static_cast<OpClass>(c));
    std::string base = cls;
    for (char& ch : base) {
      if (ch == '/') ch = '_';
    }
    names.push_back("ledger_" + base + "_msgs");
    names.push_back("ledger_" + base + "_work");
  }
  names.push_back("audit_move_work_ratio_milli");
  names.push_back("audit_move_time_ratio_milli");
  names.push_back("audit_find_work_ratio_milli");
  names.push_back("audit_find_time_ratio_milli");
  for (const char* name :
       {"ingest_ingested", "ingest_applied", "ingest_suppressed",
        "ingest_dropped", "ingest_shed_tier1_entries",
        "ingest_shed_tier2_entries", "ingest_shed_tier3_entries",
        "ingest_queue_depth_peak", "ingest_wire_errors",
        "ingest_retry_after_us", "ingest_rpc_finds_issued",
        "ingest_rpc_finds_done", "ingest_rpc_deadline_misses",
        "ingest_rpc_find_attempts"}) {
    names.emplace_back(name);
  }
  for (std::uint32_t l = 0; l <= header.max_level; ++l) {
    const std::string lvl = "level" + std::to_string(l);
    names.push_back(lvl + "_move_msgs");
    names.push_back(lvl + "_move_work");
    names.push_back(lvl + "_find_msgs");
    names.push_back(lvl + "_find_work");
  }
  VS_REQUIRE(names.size() == header.expected_series(),
             "telemetry series name table out of sync with layout");
  return names;
}

TelemetryWriter::TelemetryWriter(const std::string& path,
                                 const TelemetryHeader& header)
    : path_(path), header_(header) {
  VS_REQUIRE(header_.series == header_.expected_series(),
             "telemetry header series count " << header_.series
                                              << " does not match layout "
                                              << header_.expected_series());
  out_.open(path_, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(out_.good(), "cannot open telemetry stream " << path_);
  std::string buf;
  codec::put_header(buf, kFormat);
  const std::size_t at = codec::begin_frame(buf, kHeaderTag);
  codec::put(buf, header_.cadence_us);
  codec::put(buf, header_.max_level);
  codec::put(buf, header_.series);
  codec::end_frame(buf, at);
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  prev_.assign(header_.series, 0);
}

TelemetryWriter::~TelemetryWriter() { finish(); }

void TelemetryWriter::append(const TelemetrySample& sample) {
  VS_REQUIRE(!finished_, "telemetry stream already finished");
  VS_REQUIRE(sample.values.size() == prev_.size(),
             "telemetry sample has " << sample.values.size()
                                     << " values, layout wants "
                                     << prev_.size());
  buf_.clear();
  const std::size_t at = codec::begin_frame(buf_, kSampleTag);
  codec::put_varint(buf_, sample.t_us - prev_t_);
  for (std::size_t i = 0; i < prev_.size(); ++i) {
    codec::put_varint(buf_, sample.values[i] - prev_[i]);
  }
  codec::end_frame(buf_, at);
  prev_t_ = sample.t_us;
  prev_ = sample.values;
  ++count_;
  // Records always enter the stream whole, so any flushed prefix is a
  // valid tailable file; flushing is the caller's per-boundary decision.
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void TelemetryWriter::flush() { out_.flush(); }

void TelemetryWriter::finish() {
  if (finished_) return;
  finished_ = true;
  std::string buf;
  codec::put_trailer(buf, count_ + 1);  // the header frame, then samples
  out_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out_.flush();
  out_.close();
}

TelemetryFile read_telemetry_file(const std::string& path, bool strict) {
  std::ifstream in(path, std::ios::binary);
  VS_REQUIRE(in.good(), "cannot open telemetry file " << path);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  codec::FrameParser parser(kFormat);
  parser.feed(data.data(), data.size());

  TelemetryFile f;
  TelemetryHeader& h = f.header;
  std::vector<std::int64_t> prev;
  std::int64_t prev_t = 0;
  for (;;) {
    codec::FrameParser::Frame frame;
    const codec::FrameParser::Status st = parser.next(frame);
    if (st == codec::FrameParser::Status::kEnd) {
      f.complete = true;
      break;
    }
    VS_REQUIRE(st != codec::FrameParser::Status::kError,
               "corrupt telemetry file " << path << ": " << parser.error());
    if (st == codec::FrameParser::Status::kNeedMore) {
      // A truncated final record is fine while the producer is
      // mid-append; a stream without its header frame is not a stream.
      VS_REQUIRE(!strict && parser.frames() > 0,
                 "truncated telemetry file " << path
                                             << " (no trailer; stream not "
                                                "finished?)");
      break;
    }
    codec::Reader r(frame.payload, kFormat.name);
    const bool first = parser.frames() == 1;
    VS_REQUIRE((frame.tag == kHeaderTag) == first,
               "corrupt telemetry file " << path
                                         << ": the header frame must come "
                                            "first and only once");
    if (first) {
      h.cadence_us = r.get<std::int64_t>();
      h.max_level = r.get<std::uint32_t>();
      h.series = r.get<std::uint32_t>();
      VS_REQUIRE(h.max_level < kMaxSeries && h.series <= kMaxSeries &&
                     h.series == h.expected_series(),
                 "telemetry header series count "
                     << h.series << " inconsistent with layout");
      parser.set_max_len(kSampleTag, max_sample_bytes(h.series));
      prev.assign(h.series, 0);
    } else {
      TelemetrySample s;
      s.t_us = prev_t + r.get_varint();
      s.values.resize(h.series);
      for (std::uint32_t i = 0; i < h.series; ++i) {
        s.values[i] = prev[i] + r.get_varint();
      }
      prev_t = s.t_us;
      prev = s.values;
      f.samples.push_back(std::move(s));
    }
    r.expect_end();
  }
  return f;
}

void telemetry_to_csv(std::ostream& os, const TelemetryFile& file) {
  const std::vector<std::string> names =
      telemetry_series_names(file.header);
  os << "t_us";
  for (const std::string& n : names) os << "," << n;
  os << "\n";
  for (const TelemetrySample& s : file.samples) {
    os << s.t_us;
    for (const std::int64_t v : s.values) os << "," << v;
    os << "\n";
  }
}

}  // namespace vs::obs
