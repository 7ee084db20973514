#include "fab/virtual_disk.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"

namespace fabec::fab {

VirtualDisk::VirtualDisk(core::Cluster* cluster, VirtualDiskConfig config)
    : cluster_(cluster),
      layout_(config.num_blocks, cluster->config().m, config.layout),
      stripe_base_(config.stripe_base),
      retry_(config.retry),
      rng_(cluster->simulator().rng().fork()) {
  FABEC_CHECK(cluster != nullptr);
  FABEC_CHECK(retry_.max_attempts >= 1);
}

ProcessId VirtualDisk::pick_coordinator(ProcessId requested) {
  if (requested != kNoProcess) return requested;
  const std::uint32_t n = cluster_->brick_count();
  for (std::uint32_t tries = 0; tries < n; ++tries) {
    const ProcessId candidate = next_coord_;
    next_coord_ = (next_coord_ + 1) % n;
    if (cluster_->processes().alive(candidate)) return candidate;
  }
  return kNoProcess;  // every brick is down: the op is misrouted, not sent
}

sim::Duration VirtualDisk::jittered(sim::Duration backoff) {
  const double j = std::clamp(retry_.jitter, 0.0, 1.0);
  if (j == 0.0) return std::max<sim::Duration>(backoff, 1);
  const auto lo = static_cast<sim::Duration>((1.0 - j) *
                                             static_cast<double>(backoff));
  const auto span =
      static_cast<std::uint64_t>(2.0 * j * static_cast<double>(backoff));
  return std::max<sim::Duration>(
      lo + static_cast<sim::Duration>(rng_.next_below(span + 1)), 1);
}

sim::Duration VirtualDisk::grown(sim::Duration backoff) const {
  const double f = std::max(1.0, retry_.backoff_factor);
  const auto next =
      static_cast<sim::Duration>(static_cast<double>(backoff) * f);
  return std::min(retry_.max_backoff, std::max<sim::Duration>(next, 1));
}

void VirtualDisk::read(Lba lba, BlockOutcomeCb done, ProcessId coord) {
  const StripeId stripe = global_stripe(layout_.stripe_of(lba));
  const BlockIndex j = layout_.index_of(lba);
  attempt<BlockOutcome>(
      [stripe, j](core::Coordinator& c, BlockOutcomeCb cb) {
        c.read_block(stripe, j, std::move(cb));
      },
      1, retry_.initial_backoff, std::move(done), coord);
}

void VirtualDisk::write(Lba lba, Block data, WriteOutcomeCb done,
                        ProcessId coord) {
  FABEC_CHECK(data.size() == block_size());
  const StripeId stripe = global_stripe(layout_.stripe_of(lba));
  const BlockIndex j = layout_.index_of(lba);
  auto block = std::make_shared<const Block>(std::move(data));
  attempt<WriteOutcome>(
      [stripe, j, block](core::Coordinator& c, WriteOutcomeCb cb) {
        c.write_blocks(stripe, {j}, {*block}, std::move(cb));
      },
      1, retry_.initial_backoff, std::move(done), coord);
}

template <typename T>
void VirtualDisk::attempt(Starter<T> start, std::uint32_t attempt,
                          sim::Duration backoff, std::function<void(T)> done,
                          ProcessId requested) {
  const ProcessId coord = pick_coordinator(requested);
  if (coord == kNoProcess) {
    ++stats_.misrouted;
    done(core::OpError::kMisrouted);
    return;
  }
  start(cluster_->coordinator(coord),
        [this, start, attempt, backoff, done = std::move(done),
         requested](T r) mutable {
          if (r.ok()) {
            ++stats_.ok;
            done(std::move(r));
            return;
          }
          if (r.error() == core::OpError::kTimeout) {
            ++stats_.timed_out;
            done(std::move(r));
            return;
          }
          if (attempt >= retry_.max_attempts) {
            ++stats_.aborted;
            done(std::move(r));
            return;
          }
          ++stats_.aborted_retried;
          ++stats_.retries;
          cluster_->simulator().schedule_after(
              jittered(backoff),
              [this, start = std::move(start), attempt, backoff,
               done = std::move(done), requested]() mutable {
                this->attempt<T>(std::move(start), attempt + 1,
                                 grown(backoff), std::move(done), requested);
              });
        });
}

std::optional<Block> VirtualDisk::read_sync(Lba lba, ProcessId coord) {
  std::optional<BlockOutcome> result;
  read(lba,
       BlockOutcomeCb([&result](BlockOutcome r) { result = std::move(r); }),
       coord);
  cluster_->simulator().run_until_pred(
      [&result] { return result.has_value(); });
  if (!result.has_value() || !result->ok()) return std::nullopt;
  return std::move(**result);
}

bool VirtualDisk::write_sync(Lba lba, Block data, ProcessId coord) {
  FABEC_CHECK(data.size() == block_size());
  std::optional<WriteOutcome> result;
  write(lba, std::move(data),
        WriteOutcomeCb([&result](WriteOutcome r) { result = std::move(r); }),
        coord);
  cluster_->simulator().run_until_pred(
      [&result] { return result.has_value(); });
  return result.has_value() && result->ok();
}

std::optional<std::vector<Block>> VirtualDisk::read_range_sync(
    Lba lba, std::uint64_t count, ProcessId coord) {
  FABEC_CHECK(count > 0 && lba + count <= capacity_blocks());
  const std::uint32_t m = layout_.m();

  // Group the span by stripe so whole-stripe reads go through read-stripe.
  std::map<StripeId, std::vector<std::uint64_t>> by_stripe;  // -> span offset
  for (std::uint64_t i = 0; i < count; ++i)
    by_stripe[layout_.stripe_of(lba + i)].push_back(i);

  std::vector<Block> out(count);
  for (const auto& [stripe, offsets] : by_stripe) {
    if (offsets.size() == m) {
      const ProcessId c = pick_coordinator(coord);
      if (c == kNoProcess) return std::nullopt;
      auto data = cluster_->read_stripe(c, global_stripe(stripe));
      if (!data.has_value()) return std::nullopt;
      for (std::uint64_t off : offsets)
        out[off] = (*data)[layout_.index_of(lba + off)];
    } else if (offsets.size() > 1) {
      // Partial span over several blocks: one multi-block read.
      std::vector<BlockIndex> js;
      js.reserve(offsets.size());
      for (std::uint64_t off : offsets) js.push_back(layout_.index_of(lba + off));
      const ProcessId c = pick_coordinator(coord);
      if (c == kNoProcess) return std::nullopt;
      auto blocks = cluster_->read_blocks(c, global_stripe(stripe), js);
      if (!blocks.has_value()) return std::nullopt;
      for (std::size_t i = 0; i < offsets.size(); ++i)
        out[offsets[i]] = std::move((*blocks)[i]);
    } else {
      auto block = read_sync(lba + offsets[0], coord);
      if (!block.has_value()) return std::nullopt;
      out[offsets[0]] = std::move(*block);
    }
  }
  return out;
}

bool VirtualDisk::write_range_sync(Lba lba, const std::vector<Block>& data,
                                   ProcessId coord) {
  FABEC_CHECK(!data.empty() && lba + data.size() <= capacity_blocks());
  for (const Block& b : data) FABEC_CHECK(b.size() == block_size());
  const std::uint32_t m = layout_.m();

  std::map<StripeId, std::vector<std::uint64_t>> by_stripe;
  for (std::uint64_t i = 0; i < data.size(); ++i)
    by_stripe[layout_.stripe_of(lba + i)].push_back(i);

  for (const auto& [stripe, offsets] : by_stripe) {
    if (offsets.size() == m) {
      std::vector<Block> stripe_data(m);
      for (std::uint64_t off : offsets)
        stripe_data[layout_.index_of(lba + off)] = data[off];
      const ProcessId c = pick_coordinator(coord);
      if (c == kNoProcess) return false;
      if (!cluster_->write_stripe(c, global_stripe(stripe),
                                  std::move(stripe_data)))
        return false;
    } else if (offsets.size() > 1) {
      // Partial span over several blocks: one atomic multi-block write.
      std::vector<BlockIndex> js;
      std::vector<Block> blocks;
      js.reserve(offsets.size());
      blocks.reserve(offsets.size());
      for (std::uint64_t off : offsets) {
        js.push_back(layout_.index_of(lba + off));
        blocks.push_back(data[off]);
      }
      const ProcessId c = pick_coordinator(coord);
      if (c == kNoProcess) return false;
      if (!cluster_->write_blocks(c, global_stripe(stripe), std::move(js),
                                  std::move(blocks)))
        return false;
    } else {
      if (!write_sync(lba + offsets[0], data[offsets[0]], coord))
        return false;
    }
  }
  return true;
}

}  // namespace fabec::fab
