#include "runtime/brick_server.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/check.h"

namespace fabec::runtime {
namespace {

/// The status=false reply matching a mutating request — what a degraded
/// (WAL-unwritable) brick sends instead of executing the mutation. The
/// client's quorum logic turns it into a typed kAborted and retries; no
/// wire-format change needed.
std::optional<core::Message> refusal_reply(const core::Message& msg) {
  using namespace core;
  if (const auto* r = std::get_if<OrderReq>(&msg))
    return OrderRep{r->op, false};
  if (const auto* r = std::get_if<OrderReadReq>(&msg))
    return OrderReadRep{r->op, false, kLowTS, std::nullopt};
  if (const auto* r = std::get_if<MultiOrderReadReq>(&msg))
    return OrderReadRep{r->op, false, kLowTS, std::nullopt};
  if (const auto* r = std::get_if<WriteReq>(&msg))
    return WriteRep{r->op, false};
  if (const auto* r = std::get_if<ModifyReq>(&msg))
    return ModifyRep{r->op, false};
  if (const auto* r = std::get_if<ModifyDeltaReq>(&msg))
    return ModifyRep{r->op, false};
  if (const auto* r = std::get_if<MultiModifyReq>(&msg))
    return ModifyRep{r->op, false};
  return std::nullopt;
}

}  // namespace

BrickServer::BrickServer(BrickConfig config, std::uint64_t seed,
                         storage::Env* env)
    : config_(std::move(config)),
      layout_(config_.total_bricks, config_.n),
      codec_(erasure::make_code_family(config_.code, config_.m, config_.n)),
      loop_(seed),
      env_(env != nullptr ? *env : storage::Env::real()) {}

BrickServer::~BrickServer() {
  stop();
  // Mux teardown needs the loop stopped (its fd callback must not run
  // while members die); destruction order below handles the rest.
  mux_.reset();
}

bool BrickServer::init(std::string* error) {
  FABEC_CHECK_MSG(mux_ == nullptr, "init() called twice");
  if (env_.make_dirs(config_.store_path) != storage::IoStatus::kOk) {
    *error = "cannot create store_path " + config_.store_path;
    return false;
  }

  // Recover: newest valid snapshot, then replay every journaled mutation of
  // its generation onwards through a fresh replica. The handlers are
  // deterministic state transitions, so the store after replay equals the
  // store at the moment of the crash (minus any torn tail the brick never
  // acknowledged).
  core::PersistentState::Options popts;
  popts.dir = config_.store_path;
  popts.fsync_each = config_.journal_fsync;
  popts.compact_threshold_bytes = config_.compact_threshold_bytes;
  persist_ = std::make_unique<core::PersistentState>(env_, popts);
  if (!persist_->recover_store(config_.block_size, &store_, error))
    return false;
  replica_ = std::make_unique<core::RegisterReplica>(
      config_.brick_id,
      quorum::Config{config_.n, config_.m, codec_->max_erasures_any()},
      &layout_, codec_.get(), store_.get());
  if (!persist_->replay_journals(
          [this](const core::Message& msg) {
            replica_->handle(msg);  // replies (to nobody) discarded
          },
          error)) {
    return false;
  }
  if (!persist_->start_appending(error)) return false;
  stats_.journal_replayed = persist_->stats().journal_entries_replayed;
  stats_.journal_tail_dropped = persist_->stats().journal_tail_dropped_bytes;

  mux_ = std::make_unique<DatagramMux>(
      &loop_, config_.brick_id, config_.listen,
      [this](ProcessId from, std::vector<core::Message> msgs) {
        on_messages(from, std::move(msgs));
      });

  if (!config_.port_file.empty()) {
    // Write-then-rename: the launcher polls for the file's existence and
    // must never read a half-written port.
    const std::string tmp = config_.port_file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) {
        *error = "cannot write port file " + config_.port_file;
        return false;
      }
      out << mux_->local_port() << "\n";
    }
    if (::rename(tmp.c_str(), config_.port_file.c_str()) != 0) {
      *error = "cannot publish port file " + config_.port_file;
      return false;
    }
  }

  if (config_.scrub_interval_ms > 0) schedule_scrub();
  return true;
}

void BrickServer::run() {
  FABEC_CHECK_MSG(mux_ != nullptr, "init() before run()");
  loop_.run();
}

void BrickServer::start() {
  FABEC_CHECK_MSG(mux_ != nullptr, "init() before start()");
  loop_.start();
}

void BrickServer::stop() { loop_.stop(); }

std::uint16_t BrickServer::port() const {
  FABEC_CHECK_MSG(mux_ != nullptr, "init() before port()");
  return mux_->local_port();
}

void BrickServer::on_messages(ProcessId from,
                              std::vector<core::Message> msgs) {
  for (core::Message& msg : msgs) {
    if (!core::is_request(msg)) {
      // A reply can only reach a brick via misrouting or a stale envelope:
      // this server coordinates nothing.
      ++stats_.dropped;
      continue;
    }
    handle_request(from, std::move(msg));
  }
}

void BrickServer::handle_request(ProcessId from, core::Message msg) {
  ++stats_.requests_handled;

  if (std::holds_alternative<core::GcReq>(msg)) {
    // Fire-and-forget, no reply, no dedup needed (gc_below is idempotent).
    // An unjournaled GC must not execute (replay would resurrect the
    // trimmed entries) — but it is also fine to just drop: the coordinator
    // re-issues GC after later writes.
    if (!persist_->append(msg)) {
      ++stats_.journal_append_errors;
      read_only_ = true;
      return;
    }
    read_only_ = false;
    ++stats_.journal_appends;
    replica_->handle(msg);
    maybe_compact();
    return;
  }

  const core::OpId op = std::visit(
      [](const auto& m) -> core::OpId {
        if constexpr (requires { m.op; })
          return m.op;
        else
          return 0;
      },
      msg);
  const auto key = std::make_pair(from, op);
  if (const auto cached = reply_cache_.find(key);
      cached != reply_cache_.end()) {
    ++stats_.replies_from_cache;
    mux_->send(from, cached->second);
    return;
  }

  // Journal BEFORE handling: once the reply leaves, the mutation is
  // acknowledged and must survive a kill (write-ahead discipline). If the
  // append fails (ENOSPC, EIO) the op is refused instead — status=false,
  // never cached, so the identical retransmit retries the append and the
  // brick leaves degraded mode by itself once the disk recovers.
  if (core::is_mutating_request(msg)) {
    if (!persist_->append(msg)) {
      ++stats_.journal_append_errors;
      ++stats_.refused_read_only;
      read_only_ = true;
      if (const auto refusal = refusal_reply(msg)) mux_->send(from, *refusal);
      return;
    }
    read_only_ = false;
    ++stats_.journal_appends;
  }

  std::optional<core::Message> reply = replica_->handle(msg);
  FABEC_CHECK(reply.has_value());  // every non-Gc request has a reply

  mux_->send(from, *reply);

  // Cached by move: a read reply's block is not copied a second time.
  if (reply_cache_.size() >= kReplyCacheCap) {
    reply_cache_.erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
  reply_cache_.emplace(key, std::move(*reply));
  reply_cache_order_.push_back(key);
  maybe_compact();
}

void BrickServer::maybe_compact() {
  // Inline on the loop thread: a snapshot of an in-memory store is
  // milliseconds at brick scale, and doing it between requests means no
  // mutation can slip between the image and the WAL roll.
  if (persist_->should_compact()) persist_->compact(*store_);
}

bool BrickServer::compact_now() {
  FABEC_CHECK_MSG(persist_ != nullptr, "init() before compact_now()");
  return persist_->compact(*store_);
}

std::size_t BrickServer::scrub_once() {
  std::size_t corrupt = 0;
  std::set<StripeId> bad;
  store_->for_each_replica(
      [&](StripeId stripe, const storage::ReplicaStore& replica) {
        const std::size_t failures = replica.count_crc_failures();
        if (failures > 0) {
          bad.insert(stripe);
          corrupt += failures;
        }
      });
  quarantined_ = std::move(bad);
  persist_->scrub_files();
  ++stats_.scrub_passes;
  stats_.scrub_corrupt_entries = corrupt;
  if (corrupt > 0) {
    std::fprintf(stderr,
                 "brickd[%u]: scrub found %zu corrupt log entries across %zu "
                 "stripes (quarantined; awaiting repair)\n",
                 config_.brick_id, corrupt, quarantined_.size());
  }
  return corrupt;
}

void BrickServer::schedule_scrub() {
  loop_.schedule_event(
      static_cast<sim::Duration>(config_.scrub_interval_ms) * 1'000'000,
      [this] {
        scrub_once();
        schedule_scrub();
      });
}

}  // namespace fabec::runtime
