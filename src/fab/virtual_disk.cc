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

void VirtualDisk::read(Lba lba, BlockOutcomeCb done, ProcessId coord) {
  read_blocks(global_stripe(layout_.stripe_of(lba)), {layout_.index_of(lba)},
              false,
              [done = std::move(done)](core::Coordinator::StripeOutcome r) {
                if (r.ok())
                  done(std::move(r->front()));
                else
                  done(r.error());
              },
              coord);
}

void VirtualDisk::write(Lba lba, Block data, WriteOutcomeCb done,
                        ProcessId coord) {
  FABEC_CHECK(data.size() == block_size());
  write_blocks(global_stripe(layout_.stripe_of(lba)), {layout_.index_of(lba)},
               {std::move(data)}, false, std::move(done), coord);
}

template <typename T>
void VirtualDisk::with_retries(Starter<T> start, std::function<void(T)> done,
                               ProcessId requested, Starter<T> resolve) {
  // Each attempt runs at a freshly picked coordinator.
  auto at_coordinator = [this, requested](Starter<T> f) {
    return [this, requested, f](std::function<void(T)> cb) {
      const ProcessId coord = pick_coordinator(requested);
      if (coord == kNoProcess)
        cb(core::OpError::kMisrouted);
      else
        f(cluster_->coordinator(coord), std::move(cb));
    };
  };
  run_with_retries<T>(
      cluster_->executor(), retry_, rng_, at_coordinator(std::move(start)),
      [this, done = std::move(done)](T outcome, std::uint32_t attempts) {
        stats_.count(outcome, attempts);
        done(std::move(outcome));
      },
      resolve ? at_coordinator(std::move(resolve))
              : std::function<void(std::function<void(T)>)>());
}

void VirtualDisk::read_blocks(StripeId stripe, std::vector<BlockIndex> js,
                              bool whole, StripeOutcomeCb done,
                              ProcessId coord) {
  with_retries<core::Coordinator::StripeOutcome>(
      [stripe, whole, js](core::Coordinator& c, StripeOutcomeCb cb) {
        if (whole)
          c.read_stripe(stripe, std::move(cb));
        else
          c.read_blocks(stripe, js, std::move(cb));
      },
      std::move(done), coord);
}

void VirtualDisk::write_blocks(StripeId stripe, std::vector<BlockIndex> js,
                               std::vector<Block> blocks, bool whole,
                               WriteOutcomeCb done, ProcessId coord) {
  auto shared_js =
      std::make_shared<const std::vector<BlockIndex>>(std::move(js));
  auto data = std::make_shared<const std::vector<Block>>(std::move(blocks));
  with_retries<WriteOutcome>(
      [stripe, whole, shared_js, data](core::Coordinator& c,
                                       WriteOutcomeCb cb) {
        if (whole)
          c.write_stripe(stripe, *data, std::move(cb));
        else
          c.write_blocks(stripe, *shared_js, *data, std::move(cb));
      },
      std::move(done), coord,
      [stripe, shared_js, data](core::Coordinator& c, WriteOutcomeCb cb) {
        c.read_blocks(stripe, *shared_js, [data, cb](auto read) {
          cb(settle(read, *data));
        });
      });
}

std::map<StripeId, std::vector<std::uint64_t>> VirtualDisk::by_stripe(
    Lba lba, std::uint64_t count) const {
  std::map<StripeId, std::vector<std::uint64_t>> out;
  for (std::uint64_t i = 0; i < count; ++i)
    out[layout_.stripe_of(lba + i)].push_back(i);
  // In block-index order: a whole stripe's span is then indices 0..m-1.
  for (auto& [stripe, offsets] : out)
    std::sort(offsets.begin(), offsets.end(),
              [this, lba](std::uint64_t a, std::uint64_t b) {
                return layout_.index_of(lba + a) < layout_.index_of(lba + b);
              });
  return out;
}

std::optional<Block> VirtualDisk::read_sync(Lba lba, ProcessId coord) {
  auto block = cluster_->run_sync<Block>(
      [&](auto done) { read(lba, std::move(done), coord); });
  if (!block.ok()) return std::nullopt;
  return std::move(*block);
}

bool VirtualDisk::write_sync(Lba lba, Block data, ProcessId coord) {
  return cluster_
      ->run_sync<core::Ack>([&](auto done) {
        write(lba, std::move(data), std::move(done), coord);
      })
      .ok();
}

std::optional<std::vector<Block>> VirtualDisk::read_range_sync(
    Lba lba, std::uint64_t count, ProcessId coord) {
  FABEC_CHECK(count > 0 && lba + count <= capacity_blocks());
  std::vector<Block> out(count);
  for (const auto& [stripe, offsets] : by_stripe(lba, count)) {
    std::vector<BlockIndex> js;
    for (std::uint64_t off : offsets) js.push_back(layout_.index_of(lba + off));
    auto read = cluster_->run_sync<std::vector<Block>>([&](auto done) {
      read_blocks(global_stripe(stripe), js, js.size() == layout_.m(),
                  std::move(done), coord);
    });
    if (!read.ok()) return std::nullopt;
    for (std::size_t i = 0; i < offsets.size(); ++i)
      out[offsets[i]] = std::move((*read)[i]);
  }
  return out;
}

bool VirtualDisk::write_range_sync(Lba lba, const std::vector<Block>& data,
                                   ProcessId coord) {
  FABEC_CHECK(!data.empty() && lba + data.size() <= capacity_blocks());
  for (const Block& b : data) FABEC_CHECK(b.size() == block_size());
  for (const auto& [stripe, offsets] : by_stripe(lba, data.size())) {
    std::vector<BlockIndex> js;
    std::vector<Block> blocks;
    for (std::uint64_t off : offsets) {
      js.push_back(layout_.index_of(lba + off));
      blocks.push_back(data[off]);
    }
    const bool whole = js.size() == layout_.m();
    const auto wrote = cluster_->run_sync<core::Ack>([&](auto done) {
      write_blocks(global_stripe(stripe), std::move(js), std::move(blocks),
                   whole, std::move(done), coord);
    });
    if (!wrote.ok()) return false;
  }
  return true;
}

}  // namespace fabec::fab
