#include "obs/trace_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace vs::obs {

namespace {

constexpr std::uint8_t kWorldTag = 1;
constexpr std::uint8_t kEventsTag = 2;
/// Events per kEventsTag frame: one recorder segment (512 KiB).
constexpr std::size_t kFrameEvents = TraceRecorder::kSegmentEvents;

constexpr codec::TagRule kTags[] = {
    {kWorldTag, 4, 4},
    {kEventsTag, 4, 4 + kFrameEvents * sizeof(TraceEvent)},
};
constexpr codec::Format kFormat{"VSTRACE1", kTraceFormatVersion, "VSTRACE1",
                                kTags};

}  // namespace

void write_trace(std::ostream& os, const std::vector<WorldTrace>& worlds) {
  std::string buf;
  codec::put_header(buf, kFormat);
  std::uint64_t frames = 0;
  for (const WorldTrace& w : worlds) {
    std::size_t at = codec::begin_frame(buf, kWorldTag);
    codec::put(buf, w.world);
    codec::end_frame(buf, at);
    ++frames;
    for (std::size_t i = 0; i < w.events.size(); i += kFrameEvents) {
      const std::size_t n = std::min(kFrameEvents, w.events.size() - i);
      at = codec::begin_frame(buf, kEventsTag);
      codec::put(buf, static_cast<std::uint32_t>(n));
      buf.append(reinterpret_cast<const char*>(w.events.data() + i),
                 n * sizeof(TraceEvent));
      codec::end_frame(buf, at);
      ++frames;
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  codec::put_trailer(buf, frames);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_trace_file(const std::string& path,
                      const std::vector<WorldTrace>& worlds) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(os.good(), "cannot open trace file for writing: " << path);
  write_trace(os, worlds);
  VS_REQUIRE(os.good(), "write failed for trace file: " << path);
}

void write_trace_file(const std::string& path, const TraceRecorder& recorder) {
  write_trace_file(path, {WorldTrace{0, recorder.events()}});
}

std::vector<WorldTrace> read_trace(std::istream& is) {
  std::vector<WorldTrace> worlds;
  codec::read_frames(is, kFormat, [&](std::uint8_t tag, codec::Reader& r) {
    if (tag == kWorldTag) {
      worlds.push_back(WorldTrace{r.get<std::uint32_t>(), {}});
      return;
    }
    VS_REQUIRE(!worlds.empty(),
               "corrupt VSTRACE1 stream: events before any world frame");
    std::vector<TraceEvent>& events = worlds.back().events;
    const std::size_t n = r.get_count(sizeof(TraceEvent));
    events.resize(events.size() + n);
    r.get_array(events.data() + events.size() - n, n);
  });
  return worlds;
}

std::vector<WorldTrace> read_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  VS_REQUIRE(is.good(), "cannot open trace file: " << path);
  return read_trace(is);
}

}  // namespace vs::obs
