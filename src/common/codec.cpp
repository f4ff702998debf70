#include "common/codec.hpp"

#include <array>
#include <fstream>
#include <istream>

#include "common/error.hpp"

namespace vs::codec {

namespace {

constexpr std::size_t kHeaderBytes = 8 + sizeof(std::uint32_t);
constexpr std::size_t kFrameHead = 1 + sizeof(std::uint32_t);  // tag + len
constexpr std::size_t kCrcBytes = sizeof(std::uint32_t);
constexpr TagRule kTrailerRule{kTrailerTag, sizeof(std::uint64_t),
                               sizeof(std::uint64_t)};

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

template <class T>
T load(const char* p) {
  T v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~0u;
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

void put_str(std::string& out, std::string_view s) {
  VS_REQUIRE(s.size() <= UINT32_MAX, "string field too long to encode");
  put(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_varint(std::string& out, std::int64_t v) {
  auto u = (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  while (u >= 0x80) {
    out.push_back(static_cast<char>((u & 0x7F) | 0x80));
    u >>= 7;
  }
  out.push_back(static_cast<char>(u));
}

void put_header(std::string& out, const Format& format) {
  out.append(format.magic);
  put(out, format.version);
}

std::size_t begin_frame(std::string& out, std::uint8_t tag) {
  const std::size_t at = out.size();
  out.push_back(static_cast<char>(tag));
  put<std::uint32_t>(out, 0);
  return at;
}

void end_frame(std::string& out, std::size_t at) {
  const std::size_t len = out.size() - at - kFrameHead;
  VS_REQUIRE(len <= UINT32_MAX, "frame payload of " << len
                                    << " bytes is too long to encode");
  const auto len32 = static_cast<std::uint32_t>(len);
  std::memcpy(out.data() + at + 1, &len32, sizeof len32);
  put(out, crc32c(out.data() + at, out.size() - at));
}

void put_trailer(std::string& out, std::uint64_t frames) {
  const std::size_t at = begin_frame(out, kTrailerTag);
  put(out, frames);
  end_frame(out, at);
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(os.good(), "cannot open " << path << " for writing");
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  VS_REQUIRE(os.good(), "write failed for " << path);
}

// ------------------------------------------------------------- Reader

const char* Reader::take(std::size_t n) {
  VS_REQUIRE(n <= remaining(), "corrupt " << name_ << " frame: a field of "
                                          << n << " bytes runs past the "
                                          << remaining() << " left");
  const char* p = p_;
  p_ += n;
  return p;
}

std::string Reader::get_str() {
  const auto len = get<std::uint32_t>();
  const char* p = take(len);
  return {p, len};
}

std::int64_t Reader::get_varint() {
  std::uint64_t u = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto byte = get<std::uint8_t>();
    u |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
    }
  }
  VS_REQUIRE(false, "corrupt " << name_ << " frame: overlong varint");
  return 0;
}

std::uint32_t Reader::get_count(std::size_t elem_size) {
  const auto count = get<std::uint32_t>();
  VS_REQUIRE(static_cast<std::uint64_t>(count) * elem_size <= remaining(),
             "corrupt " << name_ << " frame: count " << count << " × "
                        << elem_size << " bytes exceeds the " << remaining()
                        << " bytes left");
  return count;
}

void Reader::expect_end() const {
  VS_REQUIRE(remaining() == 0, "corrupt " << name_ << " frame: "
                                          << remaining()
                                          << " undecoded trailing bytes");
}

// -------------------------------------------------------- FrameParser

FrameParser::FrameParser(const Format& format)
    : format_(format), rules_(format.tags.begin(), format.tags.end()) {}

void FrameParser::set_max_len(std::uint8_t tag, std::uint32_t max_len) {
  for (TagRule& r : rules_) {
    if (r.tag == tag) r.max_len = max_len;
  }
}

void FrameParser::feed(const char* data, std::size_t n) {
  // Drop the consumed prefix first: a live buffer stays bounded by one
  // feed() chunk plus one partial frame.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameParser::Status FrameParser::fail(std::string why) {
  state_ = State::kError;
  error_ = std::move(why);
  return Status::kError;
}

FrameParser::Status FrameParser::fail_frame(std::uint8_t tag,
                                            const std::string& why) {
  return fail(std::string(format_.name) + " frame " +
              std::to_string(frames_) + " (type " + std::to_string(tag) +
              "): " + why);
}

FrameParser::Status FrameParser::next(Frame& out) {
  std::string_view avail = std::string_view(buf_).substr(pos_);
  switch (state_) {
    case State::kError:
      return Status::kError;
    case State::kDone:
      return avail.empty() ? Status::kEnd
                           : fail("bytes after the " +
                                  std::string(format_.name) + " trailer");
    case State::kHeader: {
      if (avail.size() < kHeaderBytes) return Status::kNeedMore;
      if (avail.substr(0, 8) != format_.magic) {
        return fail("not a " + std::string(format_.name) +
                    " stream (bad magic)");
      }
      const auto version = load<std::uint32_t>(avail.data() + 8);
      if (version != format_.version) {
        return fail("unsupported " + std::string(format_.name) +
                    " version " + std::to_string(version) +
                    " (this build reads v" +
                    std::to_string(format_.version) + ")");
      }
      pos_ += kHeaderBytes;
      avail.remove_prefix(kHeaderBytes);
      state_ = State::kFrames;
      break;
    }
    case State::kFrames:
      break;
  }
  if (avail.size() < kFrameHead) return Status::kNeedMore;
  const auto tag = static_cast<std::uint8_t>(avail[0]);
  const auto len = load<std::uint32_t>(avail.data() + 1);
  const TagRule* rule = tag == kTrailerTag ? &kTrailerRule : nullptr;
  for (const TagRule& r : rules_) {
    if (r.tag == tag) rule = &r;
  }
  if (rule == nullptr) return fail_frame(tag, "unknown frame type");
  if (len < rule->min_len || len > rule->max_len) {
    return fail_frame(tag, "length " + std::to_string(len) + " outside [" +
                               std::to_string(rule->min_len) + ", " +
                               std::to_string(rule->max_len) + "]");
  }
  const std::size_t whole = kFrameHead + len + kCrcBytes;
  if (avail.size() < whole) return Status::kNeedMore;
  if (load<std::uint32_t>(avail.data() + kFrameHead + len) !=
      crc32c(avail.data(), kFrameHead + len)) {
    return fail_frame(tag, "checksum mismatch");
  }
  pos_ += whole;
  const std::string_view payload = avail.substr(kFrameHead, len);
  if (tag == kTrailerTag) {
    const auto count = load<std::uint64_t>(payload.data());
    if (count != frames_) {
      return fail(std::string(format_.name) + " trailer count " +
                  std::to_string(count) + " != " + std::to_string(frames_) +
                  " frames parsed");
    }
    state_ = State::kDone;
    return next(out);
  }
  ++frames_;
  out = Frame{tag, payload};
  return Status::kFrame;
}

void read_frames(std::istream& is, const Format& format,
                 const FrameFn& on_frame) {
  FrameParser parser(format);
  std::string chunk(std::size_t{1} << 20, '\0');
  for (;;) {
    FrameParser::Frame frame;
    switch (parser.next(frame)) {
      case FrameParser::Status::kFrame: {
        Reader r(frame.payload, format.name);
        on_frame(frame.tag, r);
        r.expect_end();
        break;
      }
      case FrameParser::Status::kEnd:
        VS_REQUIRE(is.peek() == std::istream::traits_type::eof(),
                   "bytes after the " << format.name << " trailer");
        return;
      case FrameParser::Status::kError:
        VS_REQUIRE(false, "corrupt " << format.name
                                     << " stream: " << parser.error());
        break;
      case FrameParser::Status::kNeedMore: {
        is.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const auto got = static_cast<std::size_t>(is.gcount());
        VS_REQUIRE(got > 0, "truncated " << format.name
                                         << " stream: it ends before the "
                                            "trailer (cut short or not "
                                            "fully written)");
        parser.feed(chunk.data(), got);
        break;
      }
    }
  }
}

void read_file(const std::string& path, const Format& format,
               const FrameFn& on_frame) {
  std::ifstream is(path, std::ios::binary);
  VS_REQUIRE(is.good(), "cannot open " << format.name << " file " << path);
  read_frames(is, format, on_frame);
}

}  // namespace vs::codec
