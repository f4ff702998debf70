#include "serve/ingest_io.hpp"

#include "common/error.hpp"

namespace vs::serve {

namespace {

using Type = IngestFrame::Type;

constexpr codec::TagRule kTags[] = {
    {static_cast<std::uint8_t>(Type::kUpdate), 16, 16},
    {static_cast<std::uint8_t>(Type::kRound), 8, 8},
    {static_cast<std::uint8_t>(Type::kFind), 24, 24},
};
constexpr codec::Format kFormat{"VSINGEST", kIngestFormatVersion, "VSINGEST1",
                                kTags};

/// The format's length rules admit only these three types, each at its
/// exact payload size, so decoding cannot run short.
IngestFrame decode(std::uint8_t tag, codec::Reader& r) {
  IngestFrame f;
  f.type = static_cast<Type>(tag);
  switch (f.type) {
    case Type::kUpdate:
      f.update.object = r.get<std::uint64_t>();
      f.update.x = r.get<std::int32_t>();
      f.update.y = r.get<std::int32_t>();
      break;
    case Type::kRound:
      f.round.upto_us = r.get<std::int64_t>();
      break;
    case Type::kFind:
      f.find.object = r.get<std::uint64_t>();
      f.find.x = r.get<std::int32_t>();
      f.find.y = r.get<std::int32_t>();
      f.find.deadline_us = r.get<std::int64_t>();
      break;
  }
  return f;
}

}  // namespace

void encode_ingest_header(std::string& out) {
  codec::put_header(out, kFormat);
}

void encode_frame(std::string& out, const IngestFrame& frame) {
  const std::size_t at =
      codec::begin_frame(out, static_cast<std::uint8_t>(frame.type));
  switch (frame.type) {
    case Type::kUpdate:
      codec::put(out, frame.update.object);
      codec::put(out, frame.update.x);
      codec::put(out, frame.update.y);
      break;
    case Type::kRound:
      codec::put(out, frame.round.upto_us);
      break;
    case Type::kFind:
      codec::put(out, frame.find.object);
      codec::put(out, frame.find.x);
      codec::put(out, frame.find.y);
      codec::put(out, frame.find.deadline_us);
      break;
  }
  codec::end_frame(out, at);
}

void encode_ingest_trailer(std::string& out, std::uint64_t frames) {
  codec::put_trailer(out, frames);
}

IngestParser::IngestParser() : frames_(kFormat) {}

IngestParser::Status IngestParser::next(IngestFrame& out) {
  codec::FrameParser::Frame frame;
  const Status st = frames_.next(frame);
  if (st == Status::kFrame) {
    codec::Reader r(frame.payload, kFormat.name);
    out = decode(frame.tag, r);
  }
  return st;
}

IngestWriter::IngestWriter(const std::string& path) : path_(path) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  VS_REQUIRE(out_.good(), "cannot open ingest capture " << path_);
  buf_.clear();
  encode_ingest_header(buf_);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

IngestWriter::~IngestWriter() { finish(); }

void IngestWriter::append(const IngestFrame& frame) {
  VS_REQUIRE(!finished_, "ingest capture already finished");
  buf_.clear();
  encode_frame(buf_, frame);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  ++count_;
}

void IngestWriter::finish() {
  if (finished_) return;
  finished_ = true;
  buf_.clear();
  encode_ingest_trailer(buf_, count_);
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  out_.flush();
  out_.close();
}

IngestFile read_ingest_file(const std::string& path) {
  IngestFile f;
  codec::read_file(path, kFormat, [&f](std::uint8_t tag, codec::Reader& r) {
    f.frames.push_back(decode(tag, r));
  });
  return f;
}

}  // namespace vs::serve
