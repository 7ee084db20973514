#include "fab/volume_client.h"

#include <chrono>
#include <future>

#include "common/check.h"

namespace fabec::fab {

VolumeClientConfig VolumeClientConfig::from_brick_config(
    const runtime::BrickConfig& brick) {
  VolumeClientConfig config;
  config.n = brick.n;
  config.m = brick.m;
  config.code = brick.code;
  config.total_bricks = brick.total_bricks;
  config.block_size = brick.block_size;
  config.bricks = brick.peers;
  return config;
}

VolumeClient::VolumeClient(VolumeClientConfig config, std::uint64_t seed)
    : config_([&config] {
        if (config.total_bricks == 0) config.total_bricks = config.n;
        return config;
      }()),
      group_layout_(config_.total_bricks, config_.n),
      codec_(erasure::make_code_family(config_.code, config_.m, config_.n)),
      layout_(config_.num_blocks, config_.m, config_.layout),
      loop_(seed),
      rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
  FABEC_CHECK_MSG(config_.client_id >= config_.total_bricks,
                  "client_id must not collide with a brick id");
  FABEC_CHECK_MSG(config_.bricks.size() == config_.total_bricks,
                  "config must name every brick in the pool");

  mux_ = std::make_unique<runtime::DatagramMux>(
      &loop_, config_.client_id, runtime::Endpoint{"0.0.0.0", 0},
      [this](ProcessId from, std::vector<core::Message> msgs) {
        for (core::Message& msg : msgs) {
          // A client serves no stripes: only replies are meaningful.
          if (!core::is_request(msg)) coordinator_->on_reply(from, msg);
        }
      });
  mux_->set_peers(config_.bricks);

  // Wall-clock timestamps (epoch ns): different client processes'
  // timestamp clocks must be comparable or a behind-the-clock client would
  // keep losing the ord-ts race until its first observe() (§2.3 needs only
  // PROGRESS, but a shared epoch keeps abort rates flat from the start).
  ts_source_ = std::make_unique<TimestampSource>(config_.client_id, [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  });
  coordinator_ = std::make_unique<core::Coordinator>(
      config_.client_id,
      quorum::Config{config_.n, config_.m, codec_->max_erasures_any()},
      &group_layout_, codec_.get(), &loop_, ts_source_.get(),
      [this](ProcessId dest, core::Message msg) {
        mux_->send(dest, std::move(msg));
      },
      config_.coordinator);

  loop_.start();
}

VolumeClient::~VolumeClient() {
  close();
  // Loop is stopped; members tear down in reverse declaration order, so
  // the coordinator dies before the mux and loop it references.
}

void VolumeClient::close() {
  std::map<std::uint64_t, std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_.exchange(true)) return;
    hooks = std::move(aborts_);
    aborts_.clear();
  }
  // Forget in-flight protocol state on the loop thread, then stop the
  // loop; only then fail the waiting application threads.
  loop_.run_sync([this] { coordinator_->drop_all_pending(); });
  loop_.stop();
  for (auto& [id, fire] : hooks) fire();
}

template <typename T, typename Start>
T VolumeClient::blocking_op(T closed_value, Start&& start) {
  struct Shared {
    std::promise<T> promise;
    std::atomic_flag completed = ATOMIC_FLAG_INIT;
    void complete(T value) {
      if (!completed.test_and_set()) promise.set_value(std::move(value));
    }
  };
  auto shared = std::make_shared<Shared>();
  auto future = shared->promise.get_future();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return closed_value;
    id = next_abort_id_++;
    aborts_.emplace(id,
                    [shared, closed_value] { shared->complete(closed_value); });
  }
  // If close() wins the race from here on, the hook above (already
  // registered) completes the future; a post dropped by a stopped loop
  // can no longer strand us.
  loop_.post([this, id, shared, start = std::forward<Start>(start)]() mutable {
    start(*coordinator_, [this, id, shared](T result) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        aborts_.erase(id);
      }
      shared->complete(std::move(result));
    });
  });
  T result = future.get();
  std::lock_guard<std::mutex> lock(mutex_);
  aborts_.erase(id);  // no-op when the completion callback got there first
  return result;
}

template <typename T, typename A, typename R>
T VolumeClient::with_retries(A attempt, R resolve) {
  // Written on the loop before it completes the op; close() fails the op
  // only after joining the loop, so either way the read below is ordered.
  std::uint32_t attempts = 1;
  T outcome = T(core::OpError::kMisrouted);
  if (config_.retry.max_attempts <= 1) {
    // Nothing to resend: the attempt goes straight to the coordinator.
    outcome = blocking_op<T>(
        T(core::OpError::kMisrouted),
        [attempt = std::move(attempt)](core::Coordinator&, auto complete) {
          attempt(std::function<void(T)>(std::move(complete)));
        });
  } else {
    outcome = blocking_op<T>(
        T(core::OpError::kMisrouted),
        [this, &attempts, attempt = Attempt<T>(std::move(attempt)),
         resolve = Attempt<T>(std::move(resolve))](core::Coordinator&,
                                                   auto complete) {
          run_with_retries<T>(
              loop_, config_.retry, rng_, attempt,
              [&attempts, complete](T result, std::uint32_t k) {
                attempts = k;
                complete(std::move(result));
              },
              resolve);
        });
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.count(outcome, attempts);
  return outcome;
}

VolumeClient::BlockOutcome VolumeClient::read(Lba lba) {
  const StripeId stripe = config_.stripe_base + layout_.stripe_of(lba);
  const BlockIndex j = layout_.index_of(lba);
  return with_retries<BlockOutcome>([this, stripe, j](BlockOutcomeCb done) {
    coordinator_->read_block(stripe, j, std::move(done));
  });
}

VolumeClient::WriteOutcome VolumeClient::write(Lba lba, Block data) {
  const StripeId stripe = config_.stripe_base + layout_.stripe_of(lba);
  const BlockIndex j = layout_.index_of(lba);
  auto block = std::make_shared<const Block>(std::move(data));
  return with_retries<WriteOutcome>(
      [this, stripe, j, block](WriteOutcomeCb done) {
        coordinator_->write_blocks(stripe, {j}, {*block}, std::move(done));
      },
      [this, stripe, j, block](WriteOutcomeCb done) {
        coordinator_->read_blocks(stripe, {j}, [block, done](auto read) {
          done(settle(read, {*block}));
        });
      });
}

std::optional<std::vector<Block>> VolumeClient::read_stripe(StripeId stripe) {
  const StripeId global = config_.stripe_base + stripe;
  auto outcome = blocking_op<core::Coordinator::StripeOutcome>(
      core::OpError::kMisrouted,
      [global](core::Coordinator& c, core::Coordinator::StripeOutcomeCb done) {
        c.read_stripe(global, std::move(done));
      });
  if (!outcome.ok()) return std::nullopt;
  return std::move(*outcome);
}

bool VolumeClient::write_stripe(StripeId stripe, std::vector<Block> data) {
  const StripeId global = config_.stripe_base + stripe;
  return blocking_op<WriteOutcome>(
             core::OpError::kMisrouted,
             [global, d = std::move(data)](core::Coordinator& c,
                                           WriteOutcomeCb done) mutable {
               c.write_stripe(global, std::move(d), std::move(done));
             })
      .ok();
}

core::Coordinator::ScrubResult VolumeClient::scrub_stripe(StripeId stripe) {
  const StripeId global = config_.stripe_base + stripe;
  return blocking_op<core::Coordinator::ScrubResult>(
      core::Coordinator::ScrubResult::kInconclusive,
      [global](core::Coordinator& c, auto complete) {
        c.scrub_stripe(global, std::move(complete));
      });
}

bool VolumeClient::repair_stripe(StripeId stripe) {
  const StripeId global = config_.stripe_base + stripe;
  return blocking_op<WriteOutcome>(
             core::OpError::kMisrouted,
             [global](core::Coordinator& c, WriteOutcomeCb done) {
               c.repair_stripe(global, std::move(done));
             })
      .ok();
}

core::CoordinatorStats VolumeClient::coordinator_stats() {
  core::CoordinatorStats stats;
  loop_.run_sync([this, &stats] { stats = coordinator_->stats(); });
  return stats;
}

VolumeClient::CachedReadStats VolumeClient::cached_read_stats() {
  const core::CoordinatorStats s = coordinator_stats();
  CachedReadStats out;
  out.hits = s.cached_read_hits;
  out.misses = s.cached_read_misses;
  out.fallbacks = s.cached_read_fallbacks;
  out.invalidations = s.cache_invalidations;
  out.evictions = s.cache_evictions;
  return out;
}

}  // namespace fabec::fab
