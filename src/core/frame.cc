#include "core/frame.h"

#include "common/check.h"
#include "common/crc32.h"
#include "common/serde.h"
#include "core/wire.h"

namespace fabec::core {

namespace {
constexpr std::size_t kHeaderBytes = 1 + 4;  // magic + count
constexpr std::size_t kCrcBytes = 4;
}  // namespace

FrameBuilder::FrameBuilder(Bytes& out) : out_(out), base_(out.size()) {
  ByteWriter w(out_);
  w.put_u8(kFrameMagic);
  w.put_u32(0);  // count, patched by finish()
}

void FrameBuilder::add(const Message& msg) {
  FABEC_CHECK(!finished_);
  FABEC_CHECK(count_ < kMaxFrameMessages);
  ByteWriter w(out_);
  w.put_u32(0);  // length, patched below
  const std::size_t body_start = out_.size();
  encode_message_body(msg, out_);
  const std::uint32_t len =
      static_cast<std::uint32_t>(out_.size() - body_start);
  for (int i = 0; i < 4; ++i)
    out_[body_start - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  ++count_;
}

void FrameBuilder::rewind(std::size_t mark) {
  FABEC_CHECK(!finished_ && count_ > 0);
  FABEC_CHECK(mark >= base_ + kHeaderBytes && mark <= out_.size());
  out_.resize(mark);
  --count_;
}

void FrameBuilder::finish() {
  FABEC_CHECK(!finished_);
  FABEC_CHECK(count_ > 0);
  finished_ = true;
  for (int i = 0; i < 4; ++i)
    out_[base_ + 1 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(count_ >> (8 * i));
  ByteWriter(out_).put_u32(crc32(out_.data() + base_, out_.size() - base_));
}

Bytes encode_frame(const std::vector<Message>& msgs) {
  Bytes out;
  FrameBuilder builder(out);
  for (const Message& m : msgs) builder.add(m);
  builder.finish();
  return out;
}

std::optional<std::vector<Message>> decode_frame(const std::uint8_t* data,
                                                 std::size_t size) {
  if (size < kHeaderBytes + kCrcBytes) return std::nullopt;
  if (data[0] != kFrameMagic) return std::nullopt;
  const std::size_t body_size = size - kCrcBytes;
  {
    // Verify the frame checksum before parsing anything, mirroring
    // decode_message: one CRC covers every carried body.
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i)
      stored |= static_cast<std::uint32_t>(data[body_size + i]) << (8 * i);
    if (stored != crc32(data, body_size)) return std::nullopt;
  }
  std::uint32_t count = 0;
  for (int i = 0; i < 4; ++i)
    count |= static_cast<std::uint32_t>(data[1 + i]) << (8 * i);
  if (count == 0 || count > kMaxFrameMessages) return std::nullopt;
  std::vector<Message> out;
  out.reserve(count);
  std::size_t pos = kHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (body_size - pos < 4) return std::nullopt;
    std::uint32_t len = 0;
    for (int b = 0; b < 4; ++b)
      len |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(b)])
             << (8 * b);
    pos += 4;
    if (len > body_size - pos) return std::nullopt;
    std::optional<Message> msg = decode_message_body(data + pos, len);
    if (!msg.has_value()) return std::nullopt;
    out.push_back(std::move(*msg));
    pos += len;
  }
  if (pos != body_size) return std::nullopt;  // trailing garbage
  return out;
}

std::optional<std::vector<Message>> decode_frame(const Bytes& wire) {
  return decode_frame(wire.data(), wire.size());
}

}  // namespace fabec::core
