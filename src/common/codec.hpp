#pragma once
// The one binary codec behind every vinestalk artifact: VSTRACE1 traces,
// VSINCID1 incident bundles, VSTELEM1 telemetry streams, VSPROF1 profile
// and VSSLO1 SLO sidecars, and the VSINGEST1 wire/capture format.
//
// Every artifact is a header, a run of frames, and a counted trailer frame:
//
//   magic[8] | u32 version                 header (one version per format)
//   u8 tag | u32 len | payload[len] | u32 crc32c(tag, len, payload)
//   ...                                    one frame per record
//   u8 0xFF | u32 8 | u64 frames | u32 crc trailer: data frames before it
//
// The CRC32C covers every byte of its frame, so a flipped bit anywhere
// after the header, a dropped frame, or a cut-short file is an error, never
// a silently different artifact. Each format declares the payload lengths
// every tag may carry, so a corrupt tag or length is refused from the five
// header bytes alone, before any payload is buffered or allocated.
// Integers are native-endian: these are same-machine run artifacts, like
// BENCH_*.json, not an interchange format.

#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace vs::codec {

/// CRC-32C (Castagnoli), table-driven.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t n);

// ------------------------------------------------------------- writing

template <class T>
void put(std::string& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
/// u32 length + bytes.
void put_str(std::string& out, std::string_view s);
/// ZigZag + LEB128: a small delta of either sign costs one byte.
void put_varint(std::string& out, std::int64_t v);

/// A payload length range one frame tag may carry.
struct TagRule {
  std::uint8_t tag = 0;
  std::uint32_t min_len = 0;
  std::uint32_t max_len = 0;
};

/// One artifact format: its header and the frames it may contain.
struct Format {
  std::string_view magic;  // exactly 8 bytes
  std::uint32_t version = 0;
  std::string_view name;   // diagnostics ("VSTRACE1")
  std::span<const TagRule> tags;
};

inline constexpr std::uint8_t kTrailerTag = 0xFF;

void put_header(std::string& out, const Format& format);
/// Open a frame: appends the tag and a length placeholder, returns the
/// frame's offset for end_frame(). The payload is appended in between.
[[nodiscard]] std::size_t begin_frame(std::string& out, std::uint8_t tag);
/// Close the frame opened at `at`: patch its length, append its CRC.
void end_frame(std::string& out, std::size_t at);
void put_trailer(std::string& out, std::uint64_t frames);

/// Write `bytes` to `path` (truncating); throws vs::Error on failure.
void write_file(const std::string& path, std::string_view bytes);

// ------------------------------------------------------------- reading

/// Bounded reader over one frame's payload. Every get throws vs::Error
/// naming the format when it would run past the payload's end.
class Reader {
 public:
  Reader(std::string_view bytes, std::string_view name)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()), name_(name) {}

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  std::string get_str();
  std::int64_t get_varint();
  /// Read a u32 element count and check that count × elem_size bytes are
  /// left in the frame, so a corrupt count fails before any allocation.
  std::uint32_t get_count(std::size_t elem_size);
  /// Copy n raw trivially-copyable records.
  template <class T>
  void get_array(T* out, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > 0) std::memcpy(out, take(n * sizeof(T)), n * sizeof(T));
  }
  /// Throws unless the whole payload was consumed.
  void expect_end() const;

 private:
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }
  const char* take(std::size_t n);

  const char* p_;
  const char* end_;
  std::string_view name_;
};

/// Incremental strict parser: feed() raw bytes as they arrive, next()
/// yields at most one whole, CRC-checked frame per call. The first
/// malformation is terminal: next() returns kError from then on and
/// error() says why. kEnd means the trailer was seen and its count
/// matched; bytes after it are an error.
class FrameParser {
 public:
  enum class Status : std::uint8_t { kNeedMore, kFrame, kEnd, kError };
  struct Frame {
    std::uint8_t tag = 0;
    std::string_view payload;  // valid until the next feed()
  };

  explicit FrameParser(const Format& format);

  void feed(const char* data, std::size_t n);
  Status next(Frame& out);
  /// Tighten a tag's length bound once a header frame fixes the layout.
  void set_max_len(std::uint8_t tag, std::uint32_t max_len);

  [[nodiscard]] const std::string& error() const { return error_; }
  /// Data frames parsed so far (the trailer excluded).
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] bool done() const { return state_ == State::kDone; }

 private:
  enum class State : std::uint8_t { kHeader, kFrames, kDone, kError };
  Status fail(std::string why);
  Status fail_frame(std::uint8_t tag, const std::string& why);

  Format format_;
  std::vector<TagRule> rules_;
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  State state_ = State::kHeader;
  std::string error_;
  std::uint64_t frames_ = 0;
};

using FrameFn = std::function<void(std::uint8_t tag, Reader& payload)>;

/// Strict whole-artifact read through FrameParser: `on_frame` sees every
/// data frame in order; any malformation, including a missing trailer,
/// throws vs::Error.
void read_frames(std::istream& is, const Format& format,
                 const FrameFn& on_frame);
/// read_frames over the file at `path`.
void read_file(const std::string& path, const Format& format,
               const FrameFn& on_frame);

}  // namespace vs::codec
