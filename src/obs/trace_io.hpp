#pragma once
// Trace file format: the bench/CLI artifact the vinestalk_trace tool reads.
//
// Layout: the shared frame layout of common/codec.hpp (magic "VSTRACE1",
// CRC32C-checked frames, a counted trailer) with two frame types:
//
//   type 1 world:   u32 world index — starts the next world's section
//   type 2 events:  u32 count, count × TraceEvent (raw 64-byte records),
//                   at most one recorder segment (8192 events) per frame;
//                   appended to the current world
//
// A short or bit-flipped file fails loudly instead of yielding a silently
// short or altered trace; vinestalk_trace surfaces these as diagnostics
// with exit 1.
//
// A multi-trial sweep writes one world section per trial, in trial-index
// order; because every TraceEvent derives from world-local state only, the
// file is byte-identical for every --jobs value (pinned by tests).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace vs::obs {

inline constexpr std::uint32_t kTraceFormatVersion = 4;

/// One world's (trial's) events, tagged with its trial index.
struct WorldTrace {
  std::uint32_t world = 0;
  std::vector<TraceEvent> events;
};

void write_trace(std::ostream& os, const std::vector<WorldTrace>& worlds);
void write_trace_file(const std::string& path,
                      const std::vector<WorldTrace>& worlds);
/// Single-world convenience (quickstart, the CLI's `trace` command).
void write_trace_file(const std::string& path, const TraceRecorder& recorder);

/// Throws vs::Error on any malformation: bad magic or version, a checksum
/// mismatch, truncation.
[[nodiscard]] std::vector<WorldTrace> read_trace(std::istream& is);
[[nodiscard]] std::vector<WorldTrace> read_trace_file(const std::string& path);

}  // namespace vs::obs
