#include "storage/replica_store.h"

#include <algorithm>

#include "common/check.h"
#include "common/crc32.h"
#include "common/fnv.h"
#include "common/rng.h"

namespace fabec::storage {

bool LogEntry::crc_ok() const {
  if (!block.has_value()) return true;
  return crc32(block->data(), block->size()) == crc;
}

ReplicaStore::ReplicaStore(std::size_t block_size) : block_size_(block_size) {
  FABEC_CHECK(block_size > 0);
  Block nil = zero_block(block_size);
  const std::uint32_t crc = crc32(nil.data(), nil.size());
  log_.push_back(LogEntry{kLowTS, std::move(nil), crc});
}

ReplicaStore::ReplicaStore(std::size_t block_size, Timestamp ord_ts,
                           std::vector<LogEntry> log)
    : block_size_(block_size), ord_ts_(ord_ts), log_(std::move(log)) {
  FABEC_CHECK(block_size > 0);
  FABEC_CHECK(!log_.empty());
}

void ReplicaStore::store_ord_ts(const Timestamp& ts, DiskStats& io) {
  ord_ts_ = ts;
  ++io.nvram_writes;
}

Timestamp ReplicaStore::max_ts() const {
  FABEC_CHECK(!log_.empty());
  return log_.back().ts;
}

Timestamp ReplicaStore::max_block_ts() const {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it)
    if (it->block.has_value()) return it->ts;
  FABEC_CHECK_MSG(false, "log lost all block entries");
  return kLowTS;
}

Block ReplicaStore::max_block(DiskStats& io) const {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->block.has_value()) {
      ++io.disk_reads;
      return *it->block;
    }
  }
  FABEC_CHECK_MSG(false, "log lost all block entries");
  return {};
}

std::optional<Block> ReplicaStore::max_block_checked(DiskStats& io) const {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->block.has_value()) {
      ++io.disk_reads;
      if (!it->crc_ok()) {
        ++io.crc_failures;
        return std::nullopt;
      }
      return *it->block;
    }
  }
  FABEC_CHECK_MSG(false, "log lost all block entries");
  return std::nullopt;
}

std::pair<const LogEntry*, Timestamp> ReplicaStore::block_below(
    const Timestamp& bound) const {
  std::optional<Timestamp> version_ts;
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->ts >= bound) continue;
    if (!version_ts.has_value()) version_ts = it->ts;
    if (it->block.has_value()) return {&*it, *version_ts};
  }
  return {nullptr, kLowTS};
}

std::optional<Version> ReplicaStore::max_below(const Timestamp& bound,
                                               DiskStats& io) const {
  const auto [entry, version_ts] = block_below(bound);
  if (entry == nullptr) return std::nullopt;
  ++io.disk_reads;
  if (!entry->crc_ok()) {
    // A rotted block certifies nothing: vouching for version_ts with
    // garbage (or an even older block) would let recovery read back a
    // value this replica never durably held (rotted_below names the
    // version without the block).
    ++io.crc_failures;
    return std::nullopt;
  }
  return Version{version_ts, *entry->block};
}

std::optional<Timestamp> ReplicaStore::rotted_below(
    const Timestamp& bound) const {
  const auto [entry, version_ts] = block_below(bound);
  if (entry == nullptr || entry->crc_ok()) return std::nullopt;
  return version_ts;
}

void ReplicaStore::append(const Timestamp& ts, std::optional<Block> block,
                          DiskStats& io) {
  FABEC_CHECK_MSG(ts > max_ts(),
                  "append must use a timestamp above max-ts(log)");
  std::uint32_t crc = 0;
  if (block.has_value()) {
    FABEC_CHECK(block->size() == block_size_);
    crc = crc32(block->data(), block->size());
    ++io.disk_writes;
  } else {
    ++io.nvram_writes;
  }
  log_.push_back(LogEntry{ts, std::move(block), crc});
}

bool ReplicaStore::newest_is_corrupt_at(const Timestamp& ts) const {
  FABEC_CHECK(!log_.empty());
  const LogEntry& newest = log_.back();
  return newest.ts == ts && newest.block.has_value() && !newest.crc_ok();
}

void ReplicaStore::heal_newest(const Timestamp& ts, Block block,
                               DiskStats& io) {
  FABEC_CHECK_MSG(newest_is_corrupt_at(ts),
                  "heal may only replace a CRC-failed newest entry in place");
  FABEC_CHECK(block.size() == block_size_);
  LogEntry& newest = log_.back();
  newest.crc = crc32(block.data(), block.size());
  newest.block = std::move(block);
  ++io.disk_writes;
}

void ReplicaStore::gc_below(const Timestamp& complete_ts) {
  // Locate the newest entry overall and the newest non-⊥ entry that are
  // older than complete_ts; both survive collection.
  const LogEntry* keep_newest = nullptr;
  const LogEntry* keep_newest_block = nullptr;
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->ts >= complete_ts) continue;
    if (!keep_newest) keep_newest = &*it;
    if (!keep_newest_block && it->block.has_value()) {
      keep_newest_block = &*it;
      break;  // entries are sorted; nothing older can matter
    }
  }
  std::vector<LogEntry> kept;
  kept.reserve(log_.size());
  for (const LogEntry& e : log_) {
    if (e.ts >= complete_ts || &e == keep_newest || &e == keep_newest_block)
      kept.push_back(e);
  }
  log_ = std::move(kept);
  FABEC_CHECK(!log_.empty());
}

void ReplicaStore::corrupt_newest_block(Block garbage) {
  FABEC_CHECK(garbage.size() == block_size_);
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->block.has_value()) {
      // CRC recomputed: this models corruption below the checksum layer
      // (e.g. a firmware bug writing the wrong — but well-formed — data),
      // invisible to local integrity checks by construction.
      it->crc = crc32(garbage.data(), garbage.size());
      it->block = std::move(garbage);
      return;
    }
  }
  FABEC_CHECK_MSG(false, "log lost all block entries");
}

void ReplicaStore::rot_newest_block(std::uint64_t seed) {
  for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
    if (it->block.has_value()) {
      Rng rng(seed);
      Block& b = *it->block;
      const auto byte = static_cast<std::size_t>(rng.next_below(b.size()));
      b[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      // The stored CRC is deliberately left stale — that mismatch IS the
      // rot signal the scrubber looks for.
      return;
    }
  }
  FABEC_CHECK_MSG(false, "log lost all block entries");
}

std::size_t ReplicaStore::count_crc_failures() const {
  return static_cast<std::size_t>(
      std::count_if(log_.begin(), log_.end(),
                    [](const LogEntry& e) { return !e.crc_ok(); }));
}

std::uint64_t ReplicaStore::fingerprint() const {
  Fnv1a h;
  h.update_value(ord_ts_.time);
  h.update_value(ord_ts_.proc);
  for (const LogEntry& e : log_) {
    h.update_value(e.ts.time);
    h.update_value(e.ts.proc);
    h.update_value(e.block.has_value());
    if (e.block.has_value()) h.update(e.block->data(), e.block->size());
  }
  return h.digest();
}

std::size_t ReplicaStore::log_blocks() const {
  return static_cast<std::size_t>(
      std::count_if(log_.begin(), log_.end(),
                    [](const LogEntry& e) { return e.block.has_value(); }));
}

}  // namespace fabec::storage
