// Batch frame codec: many protocol messages behind one CRC and one send.
//
// The request engine batches outgoing messages per destination brick per
// tick (paper footnote 2's spirit applied to the transport): instead of N
// datagrams each carrying [tag|body|crc32], one frame carries
//
//   [0xF8][u32 count][count x (u32 len | tag+body)][u32 crc32]
//
// with the CRC computed over everything before it. The leading magic byte
// 0xF8 can never collide with a singleton encoding, whose first byte is a
// message tag in 0..13, so a receiver dispatches on the first byte: frame
// or singleton. Decoding rejects truncation, corruption, trailing garbage,
// empty frames, and absurd counts — the same total-rejection discipline as
// decode_message — and a frame of k messages decodes exactly as k
// singletons would (the differential property frame_test.cc pins down).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "core/messages.h"

namespace fabec::core {

/// First byte of every frame; disjoint from message tags 0..13.
inline constexpr std::uint8_t kFrameMagic = 0xF8;

/// Upper bound on messages per frame; rejects absurd counts before
/// allocating (a batching sender flushes far below this).
inline constexpr std::uint32_t kMaxFrameMessages = 4096;

/// True if `wire` can only be a frame (vs a singleton message encoding).
inline bool looks_like_frame(const std::uint8_t* data, std::size_t size) {
  return size > 0 && data[0] == kFrameMagic;
}

/// Incremental frame writer over a caller-owned (typically pooled) buffer.
/// Usage: construct, add() each message, finish() exactly once.
class FrameBuilder {
 public:
  /// Appends the frame header at the current end of `out` — existing
  /// content (e.g. a transport's routing envelope) is left in place, so a
  /// datagram assembles in one buffer with no splice. `out` must outlive
  /// the builder.
  explicit FrameBuilder(Bytes& out);

  void add(const Message& msg);
  std::uint32_t count() const { return count_; }
  /// Frame bytes written so far (header + bodies, excluding any prefix
  /// that preceded the builder and the CRC finish() will append).
  std::size_t bytes() const { return out_.size() - base_; }

  /// Buffer length right now; capture before an add() to enable rewind().
  std::size_t mark() const { return out_.size(); }
  /// Undoes the most recent add() (whose pre-add mark is given) — lets a
  /// transport evict the message that would overflow a datagram.
  void rewind(std::size_t mark);

  /// Patches the message count and appends the CRC (computed over the
  /// frame bytes only, not any prefix). No add() after this.
  void finish();

 private:
  Bytes& out_;
  std::size_t base_;  // frame start within out_
  std::uint32_t count_ = 0;
  bool finished_ = false;
};

/// One-shot convenience over FrameBuilder. `msgs` must be non-empty.
Bytes encode_frame(const std::vector<Message>& msgs);

/// Parses a frame; nullopt on any malformed input (bad magic, bad CRC,
/// truncation, zero/absurd count, per-message decode failure, trailing
/// garbage).
std::optional<std::vector<Message>> decode_frame(const std::uint8_t* data,
                                                 std::size_t size);
std::optional<std::vector<Message>> decode_frame(const Bytes& wire);

}  // namespace fabec::core
