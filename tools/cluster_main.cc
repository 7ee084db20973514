// cluster — boots a local FAB cluster of real brickd processes, replays a
// trace workload through client-side coordinators, SIGKILLs and restarts
// bricks mid-run, and feeds every recorded per-block history to the
// strict-linearizability oracle.
//
//   cluster --bricks 8 --m 5 --clients 4 --ops 4000 --kills 3
//
// This is the acceptance harness for the multi-process deployment. With
// --inproc the bricks are runtime::BrickServers hosted in this process
// (runtime::LocalCluster) instead of brickd children; everything else —
// clients, chaos, fsck, oracle — is the same run. Exit 0 = every history
// strictly linearizable; exit 1 = violation, fsck damage or a brick failed
// to boot; exit 2 = usage.
//
// Process choreography:
//   1. mkdtemp a run directory; write per-brick configs with listen port 0
//      and a port_file; fork/exec brickd per brick (logs to <dir>/brickN.log).
//   2. Poll the port files (tmp+rename on the daemon side makes a visible
//      file trustworthy); rewrite each config pinning the learned port, so
//      a restarted brick re-binds the same address (SO_REUSEADDR) and the
//      clients' static peer maps stay valid across kills.
//   3. Client threads each own a fab::VolumeClient (ids total_bricks+i) and
//      replay their round-robin share of one generated workload, recording
//      each logical call (every retry included) into a hist::Recorder.
//   4. A chaos thread SIGKILLs a brick, reaps it, lets the cluster run
//      degraded for a moment, and re-execs the same pinned config —
//      `--kills` times. The journal makes the restart state-faithful.
//      In-process, a kill is BrickServer stop + destroy and the restart a
//      fresh BrickServer on the same port and store.
//   5. SIGTERM everything (escalating to SIGKILL), then run the oracle.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/persistence.h"
#include "erasure/code_family.h"
#include "core/snapshot.h"
#include "fab/layout.h"
#include "fab/volume_client.h"
#include "fab/workload.h"
#include "hist/history.h"
#include "runtime/brick_config.h"
#include "runtime/local_cluster.h"

namespace {

using fabec::Block;
using fabec::Lba;
using fabec::ProcessId;
using fabec::Rng;

struct Flags {
  std::uint32_t bricks = 8;
  std::uint32_t m = 5;
  fabec::erasure::CodeSpec code;  // rs | lrc:<l>,<g>
  std::uint32_t clients = 4;
  std::uint64_t ops = 4000;
  std::uint64_t lbas = 120;
  std::size_t block_size = 4096;
  std::uint32_t kills = 3;
  std::uint64_t kill_interval_ms = 600;
  /// SIGKILL timing: wait (bounded) for a snapshot.*.tmp to appear in the
  /// victim's store before killing, so the kill lands mid-compaction.
  bool kill_during_compaction = false;
  std::uint64_t compact_threshold = 0;  ///< bytes; 0 = brickd default
  std::uint64_t scrub_interval_ms = 0;  ///< 0 = scrubbing off
  std::uint64_t seed = 1;
  std::uint64_t deadline_ms = 2000;
  std::uint32_t retries = 8;
  double write_fraction = 0.5;
  /// Client-coordinator per-stripe timestamp cache (DESIGN.md §13). Off by
  /// default so the smoke script can run the same trace both ways.
  bool read_cache = false;
  std::string brickd;  // default: <dir of argv[0]>/brickd
  std::string dir;     // default: mkdtemp under TMPDIR
  bool keep = false;
  bool inproc = false;
  bool json = false;
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --bricks N            pool size = group size n (default 8)\n"
      "  --m M                 data blocks per stripe (default 5)\n"
      "  --code SPEC           erasure family: rs | lrc:<l>,<g>\n"
      "  --clients C           concurrent client processes' worth of load "
      "(default 4)\n"
      "  --ops N               total operations across clients (default "
      "4000)\n"
      "  --lbas N              logical blocks in the volume (default 120)\n"
      "  --block-size B        bytes per block (default 4096)\n"
      "  --kills K             SIGKILL/restart injections (default 3)\n"
      "  --kill-interval-ms T  gap between injections (default 600)\n"
      "  --kill-during-compaction  time kills to land while the victim is\n"
      "                        installing a snapshot (waits for its .tmp)\n"
      "  --compact-threshold B WAL bytes triggering brick compaction; also\n"
      "                        enables the post-run WAL-bound check\n"
      "  --scrub-interval-ms T background scrub cadence on the bricks\n"
      "  --write-fraction F    write mix (default 0.5)\n"
      "  --read-cache          enable the clients' single-round cached reads\n"
      "  --deadline-ms T       per-phase op deadline (default 2000)\n"
      "  --retries N           client attempts per op on abort (default 8)\n"
      "  --seed S              RNG seed (default 1)\n"
      "  --brickd PATH         brickd binary (default: next to this one)\n"
      "  --dir PATH            run directory (default: mkdtemp)\n"
      "  --keep                keep the run directory\n"
      "  --inproc              host the bricks in this process instead of "
      "brickd processes\n"
      "  --json                machine-readable summary on stdout\n"
      "  --quiet               suppress progress logging\n",
      argv0);
}

bool parse_flags(int argc, char** argv, Flags* flags) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--bricks" && (v = need(i))) flags->bricks = std::atoi(v);
    else if (a == "--m" && (v = need(i))) flags->m = std::atoi(v);
    else if (a == "--code" && (v = need(i))) {
      const auto spec = fabec::erasure::parse_code_spec(v);
      if (!spec.has_value()) {
        std::fprintf(stderr, "bad --code '%s' (want rs or lrc:<l>,<g>)\n", v);
        return false;
      }
      flags->code = *spec;
    }
    else if (a == "--clients" && (v = need(i))) flags->clients = std::atoi(v);
    else if (a == "--ops" && (v = need(i))) flags->ops = std::atoll(v);
    else if (a == "--lbas" && (v = need(i))) flags->lbas = std::atoll(v);
    else if (a == "--block-size" && (v = need(i)))
      flags->block_size = std::atoll(v);
    else if (a == "--kills" && (v = need(i))) flags->kills = std::atoi(v);
    else if (a == "--kill-interval-ms" && (v = need(i)))
      flags->kill_interval_ms = std::atoll(v);
    else if (a == "--kill-during-compaction")
      flags->kill_during_compaction = true;
    else if (a == "--compact-threshold" && (v = need(i)))
      flags->compact_threshold = std::atoll(v);
    else if (a == "--scrub-interval-ms" && (v = need(i)))
      flags->scrub_interval_ms = std::atoll(v);
    else if (a == "--write-fraction" && (v = need(i)))
      flags->write_fraction = std::atof(v);
    else if (a == "--deadline-ms" && (v = need(i)))
      flags->deadline_ms = std::atoll(v);
    else if (a == "--read-cache") flags->read_cache = true;
    else if (a == "--retries" && (v = need(i))) flags->retries = std::atoi(v);
    else if (a == "--seed" && (v = need(i))) flags->seed = std::atoll(v);
    else if (a == "--brickd" && (v = need(i))) flags->brickd = v;
    else if (a == "--dir" && (v = need(i))) flags->dir = v;
    else if (a == "--keep") flags->keep = true;
    else if (a == "--inproc") flags->inproc = true;
    else if (a == "--json") flags->json = true;
    else if (a == "--quiet") flags->quiet = true;
    else {
      std::fprintf(stderr, "cluster: unknown or incomplete flag %s\n",
                   a.c_str());
      return false;
    }
  }
  if (flags->bricks == 0 || flags->m == 0 || flags->m > flags->bricks ||
      flags->clients == 0 || flags->ops == 0 || flags->lbas == 0) {
    std::fprintf(stderr, "cluster: invalid geometry\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Latency samples shared by the client threads. The histories go to one
// hist::Recorder: kills surface as aborts/timeouts (the coordinators live
// in the clients and survive every injection), so histories carry
// kReturned/kAborted events and never kCrashed.
// ---------------------------------------------------------------------------

struct Latencies {
  std::mutex mutex;
  fabec::fab::LatencyRecorder read;
  fabec::fab::LatencyRecorder write;

  void record(bool is_write, std::int64_t ns) {
    std::lock_guard<std::mutex> lock(mutex);
    (is_write ? write : read).record(ns);
  }
};

/// Unique, never-all-zero write payload: client id + per-client counter in
/// the first bytes (Appendix B's unique-value assumption), a tag byte fill
/// after.
Block make_value(std::size_t block_size, ProcessId client,
                 std::uint64_t counter) {
  Block b(block_size, static_cast<std::uint8_t>(0xA0 + client % 0x5F));
  for (int i = 0; i < 8 && static_cast<std::size_t>(i) < block_size; ++i)
    b[i] = static_cast<std::uint8_t>(counter >> (8 * i));
  for (int i = 8; i < 12 && static_cast<std::size_t>(i) < block_size; ++i)
    b[i] = static_cast<std::uint8_t>(client >> (8 * (i - 8)));
  return b;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// brickd process management.
// ---------------------------------------------------------------------------

struct BrickProc {
  ProcessId id = 0;
  pid_t pid = -1;
  std::string config_path;
  std::string log_path;
  std::string port_file;
  std::uint16_t port = 0;
};

pid_t spawn_brickd(const std::string& brickd, const BrickProc& brick) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: logs to the brick's file, then exec.
  const int log = ::open(brick.log_path.c_str(),
                         O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log >= 0) {
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::close(log);
  }
  ::execl(brickd.c_str(), brickd.c_str(), brick.config_path.c_str(),
          static_cast<char*>(nullptr));
  std::fprintf(stderr, "exec %s failed: %s\n", brickd.c_str(),
               std::strerror(errno));
  ::_exit(127);
}

std::optional<std::uint16_t> read_port_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  unsigned port = 0;
  in >> port;
  if (!in || port == 0 || port > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

void reap_all(std::vector<BrickProc>& bricks, bool quiet) {
  for (auto& brick : bricks) {
    if (brick.pid <= 0) continue;
    ::kill(brick.pid, SIGTERM);
  }
  const std::int64_t deadline = now_ns() + 5'000'000'000LL;
  for (auto& brick : bricks) {
    if (brick.pid <= 0) continue;
    while (true) {
      int status = 0;
      const pid_t r = ::waitpid(brick.pid, &status, WNOHANG);
      if (r == brick.pid || (r < 0 && errno == ECHILD)) break;
      if (now_ns() > deadline) {
        if (!quiet)
          std::fprintf(stderr, "cluster: brick %u ignored SIGTERM, killing\n",
                       brick.id);
        ::kill(brick.pid, SIGKILL);
        ::waitpid(brick.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    brick.pid = -1;
  }
}

/// Every brick's config except identity, address and store — what both
/// brick hosts share.
fabec::runtime::BrickConfig base_config(const Flags& flags) {
  fabec::runtime::BrickConfig config;
  config.n = flags.bricks;
  config.m = flags.m;
  config.code = flags.code;
  config.total_bricks = flags.bricks;
  config.block_size = flags.block_size;
  if (flags.compact_threshold != 0)
    config.compact_threshold_bytes = flags.compact_threshold;
  config.scrub_interval_ms = flags.scrub_interval_ms;
  return config;
}

/// Spawns one brickd per brick, waits for every port file, and pins each
/// learned port into its config so restarts re-bind the same address.
/// False (with every started brick reaped) if a brick fails to boot.
bool boot_processes(const Flags& flags, const std::string& dir,
                    const std::string& brickd, std::vector<BrickProc>* procs,
                    std::map<ProcessId, fabec::runtime::Endpoint>* peer_map) {
  std::vector<BrickProc>& bricks = *procs;
  bricks.resize(flags.bricks);
  auto config_for = [&](const BrickProc& brick,
                        std::uint16_t port) -> std::string {
    fabec::runtime::BrickConfig config = base_config(flags);
    config.brick_id = brick.id;
    config.listen = {"127.0.0.1", port};
    config.port_file = brick.port_file;
    config.store_path = dir + "/brick" + std::to_string(brick.id);
    return config.to_text();
  };
  for (std::uint32_t i = 0; i < flags.bricks; ++i) {
    BrickProc& brick = bricks[i];
    brick.id = i;
    brick.config_path = dir + "/brick" + std::to_string(i) + ".conf";
    brick.log_path = dir + "/brick" + std::to_string(i) + ".log";
    brick.port_file = dir + "/brick" + std::to_string(i) + ".port";
    if (!write_file(brick.config_path, config_for(brick, 0))) {
      std::fprintf(stderr, "cluster: cannot write %s\n",
                   brick.config_path.c_str());
      reap_all(bricks, flags.quiet);
      return false;
    }
    brick.pid = spawn_brickd(brickd, brick);
  }

  // Readiness: every port file appears, or a brick died during boot.
  const std::int64_t boot_deadline = now_ns() + 10'000'000'000LL;
  for (auto& brick : bricks) {
    while (brick.port == 0) {
      if (const auto port = read_port_file(brick.port_file)) {
        brick.port = *port;
        break;
      }
      int status = 0;
      if (::waitpid(brick.pid, &status, WNOHANG) == brick.pid) {
        std::fprintf(stderr,
                     "cluster: brick %u exited during boot (see %s)\n",
                     brick.id, brick.log_path.c_str());
        brick.pid = -1;
        reap_all(bricks, flags.quiet);
        return false;
      }
      if (now_ns() > boot_deadline) {
        std::fprintf(stderr, "cluster: brick %u never published its port\n",
                     brick.id);
        reap_all(bricks, flags.quiet);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!write_file(brick.config_path, config_for(brick, brick.port))) {
      std::fprintf(stderr, "cluster: cannot rewrite %s\n",
                   brick.config_path.c_str());
      reap_all(bricks, flags.quiet);
      return false;
    }
    (*peer_map)[brick.id] = {"127.0.0.1", brick.port};
  }
  return true;
}

// ---------------------------------------------------------------------------
// Post-run disk verification.
// ---------------------------------------------------------------------------

/// After the bricks are down: every store directory must hold a recoverable
/// chain (the same offline check tools/fsck runs), and with compaction
/// enabled the active WAL segment must have stayed bounded near the
/// threshold — the witness that compaction actually reclaimed the journal
/// across all those kills and restarts.
bool check_disks(const Flags& flags, const std::string& dir) {
  auto& env = fabec::storage::Env::real();
  bool ok = true;
  std::uint64_t snapshots = 0;
  std::uint64_t max_wal = 0;
  for (std::uint32_t i = 0; i < flags.bricks; ++i) {
    const std::string store = dir + "/brick" + std::to_string(i);
    const auto report = fabec::core::PersistentState::fsck(env, store);
    if (!report.ok) {
      ok = false;
      std::fprintf(stderr, "cluster: fsck DAMAGED %s\n", store.c_str());
      for (const auto& file : report.files)
        if (!file.ok)
          std::fprintf(stderr, "cluster:   %s: %s\n", file.name.c_str(),
                       file.detail.c_str());
    }
    std::optional<std::uint64_t> tail_seq;
    for (const auto& file : report.files) {
      if (fabec::core::snapshot::parse_seq(file.name, "snapshot")) {
        ++snapshots;
      } else if (const auto seq =
                     fabec::core::snapshot::parse_seq(file.name, "journal")) {
        if (!tail_seq || *seq > *tail_seq) tail_seq = *seq;
      }
    }
    if (tail_seq) {
      const std::string tail =
          store + "/journal." + std::to_string(*tail_seq);
      max_wal = std::max(max_wal, env.file_size(tail).value_or(0));
    }
  }
  if (flags.compact_threshold != 0) {
    // Slack: the brick checks the threshold after each request, so the WAL
    // may overshoot by the in-flight records of one batch window.
    const std::uint64_t bound =
        flags.compact_threshold * 2 + 16 * flags.block_size;
    if (max_wal > bound) {
      ok = false;
      std::fprintf(stderr,
                   "cluster: WAL unbounded: active journal %llu bytes "
                   "exceeds %llu (threshold %llu)\n",
                   static_cast<unsigned long long>(max_wal),
                   static_cast<unsigned long long>(bound),
                   static_cast<unsigned long long>(flags.compact_threshold));
    }
  }
  if (!flags.quiet)
    std::fprintf(stderr,
                 "cluster: disk check %s  (%llu snapshot generations, "
                 "max WAL %llu bytes)\n",
                 ok ? "OK" : "FAILED",
                 static_cast<unsigned long long>(snapshots),
                 static_cast<unsigned long long>(max_wal));
  return ok;
}

// ---------------------------------------------------------------------------
// Summary output.
// ---------------------------------------------------------------------------

/// `cache` is summed over every client coordinator; zeros (and no output
/// line) when --read-cache was off.
void print_summary(const Flags& flags, const Latencies& latencies,
                   const fabec::fab::ClientStats& outcomes,
                   std::uint32_t kills_done,
                   double seconds, std::size_t violations,
                   const fabec::fab::VolumeClient::CachedReadStats& cache) {
  const auto& r = latencies.read;
  const auto& w = latencies.write;
  const double us = 1e3;  // ns -> us divisor
  const double throughput =
      seconds > 0 ? static_cast<double>(outcomes.ok) / seconds : 0;
  const std::uint64_t failed =
      outcomes.aborted + outcomes.timed_out + outcomes.misrouted;
  if (flags.json) {
    std::printf(
        "{\"mode\":\"%s\",\"bricks\":%u,\"m\":%u,\"clients\":%u,"
        "\"ops\":%llu,\"ok\":%llu,\"failed\":%llu,\"kills\":%u,"
        "\"seconds\":%.3f,\"throughput_ops_per_sec\":%.1f,"
        "\"read_p50_us\":%.1f,\"read_p99_us\":%.1f,"
        "\"write_p50_us\":%.1f,\"write_p99_us\":%.1f,"
        "\"read_cache\":%s,\"cached_read_hits\":%llu,"
        "\"cached_read_misses\":%llu,\"cached_read_fallbacks\":%llu,"
        "\"cache_invalidations\":%llu,"
        "\"violations\":%zu}\n",
        flags.inproc ? "inproc" : "processes", flags.bricks, flags.m,
        flags.clients, static_cast<unsigned long long>(flags.ops),
        static_cast<unsigned long long>(outcomes.ok),
        static_cast<unsigned long long>(failed), kills_done,
        seconds, throughput, r.count() ? r.percentile(50.0) / us : 0.0,
        r.count() ? r.percentile(99.0) / us : 0.0,
        w.count() ? w.percentile(50.0) / us : 0.0,
        w.count() ? w.percentile(99.0) / us : 0.0,
        flags.read_cache ? "true" : "false",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.fallbacks),
        static_cast<unsigned long long>(cache.invalidations), violations);
  } else {
    std::printf(
        "cluster %s: n=%u m=%u, %u clients, %llu ops "
        "(%llu ok, %llu failed), %u kills, %.2fs, %.0f ops/s\n"
        "  read  p50 %.0f us  p99 %.0f us  (n=%zu)\n"
        "  write p50 %.0f us  p99 %.0f us  (n=%zu)\n"
        "  strict linearizability: %s\n",
        flags.inproc ? "(in-process bricks)" : "(real processes)",
        flags.bricks, flags.m, flags.clients,
        static_cast<unsigned long long>(flags.ops),
        static_cast<unsigned long long>(outcomes.ok),
        static_cast<unsigned long long>(failed), kills_done,
        seconds, throughput, r.count() ? r.percentile(50.0) / us : 0.0,
        r.count() ? r.percentile(99.0) / us : 0.0, r.count(),
        w.count() ? w.percentile(50.0) / us : 0.0,
        w.count() ? w.percentile(99.0) / us : 0.0, w.count(),
        violations == 0 ? "OK" : "VIOLATED");
    if (flags.read_cache)
      std::printf(
          "  read cache: %llu hits, %llu misses, %llu fallbacks, "
          "%llu invalidations\n",
          static_cast<unsigned long long>(cache.hits),
          static_cast<unsigned long long>(cache.misses),
          static_cast<unsigned long long>(cache.fallbacks),
          static_cast<unsigned long long>(cache.invalidations));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, &flags)) {
    usage(argv[0]);
    return 2;
  }
  // SIGKILLed bricks close their sockets; late retransmits to them come
  // back as ICMP-driven send errors at worst — never let a stray SIGPIPE
  // kill the harness.
  ::signal(SIGPIPE, SIG_IGN);

  // Volume geometry: capacity must be a positive multiple of m.
  const std::uint64_t num_blocks =
      (flags.lbas + flags.m - 1) / flags.m * flags.m;
  Rng rng(flags.seed);
  fabec::fab::WorkloadConfig workload_config;
  workload_config.num_ops = flags.ops;
  workload_config.write_fraction = flags.write_fraction;
  workload_config.pattern = fabec::fab::AccessPattern::kUniform;
  const auto workload =
      fabec::fab::generate_workload(workload_config, num_blocks, rng);

  // --- run directory and brickd path ---------------------------------------
  std::string dir = flags.dir;
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp ? tmp : "/tmp") + "/fab-cluster-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "cluster: mkdtemp: %s\n", std::strerror(errno));
      return 1;
    }
    dir = buf.data();
  } else {
    ::mkdir(dir.c_str(), 0755);
  }

  std::string brickd = flags.brickd;
  if (brickd.empty()) {
    const std::string self = argv[0];
    const auto slash = self.find_last_of('/');
    brickd = (slash == std::string::npos ? std::string(".")
                                         : self.substr(0, slash)) +
             "/brickd";
  }
  if (!flags.inproc && ::access(brickd.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "cluster: brickd binary not executable: %s\n",
                 brickd.c_str());
    return 1;
  }
  if (!flags.quiet)
    std::fprintf(stderr, "cluster: run directory %s, bricks %s\n", dir.c_str(),
                 flags.inproc ? "in this process" : brickd.c_str());

  // --- boot the bricks ------------------------------------------------------
  std::vector<BrickProc> procs;                         // process mode
  std::unique_ptr<fabec::runtime::LocalCluster> local;  // --inproc
  std::map<ProcessId, fabec::runtime::Endpoint> peer_map;
  if (flags.inproc) {
    local = std::make_unique<fabec::runtime::LocalCluster>(base_config(flags),
                                                           dir);
    std::string error;
    if (!local->boot(&error)) {
      std::fprintf(stderr, "cluster: brick boot failed: %s\n", error.c_str());
      return 1;
    }
    peer_map = local->endpoints();
  } else if (!boot_processes(flags, dir, brickd, &procs, &peer_map)) {
    return 1;
  }
  if (!flags.quiet) {
    std::ostringstream ports;
    for (const auto& [id, ep] : peer_map) ports << " " << ep.port;
    std::fprintf(stderr, "cluster: %u bricks up, ports%s\n", flags.bricks,
                 ports.str().c_str());
  }

  // --- clients --------------------------------------------------------------
  fabec::hist::Recorder recorder;
  Latencies latencies;
  std::vector<std::unique_ptr<fabec::fab::VolumeClient>> clients;
  for (std::uint32_t c = 0; c < flags.clients; ++c) {
    fabec::fab::VolumeClientConfig config;
    config.client_id = flags.bricks + c;
    config.n = flags.bricks;
    config.m = flags.m;
    config.code = flags.code;
    config.total_bricks = flags.bricks;
    config.block_size = flags.block_size;
    config.num_blocks = num_blocks;
    config.bricks = peer_map;
    config.coordinator.op_deadline =
        fabec::sim::milliseconds(flags.deadline_ms);
    config.coordinator.read_cache = flags.read_cache;
    config.retry.max_attempts = flags.retries;
    config.retry.initial_backoff = fabec::sim::milliseconds(2);
    config.retry.max_backoff = fabec::sim::milliseconds(50);
    clients.push_back(std::make_unique<fabec::fab::VolumeClient>(
        std::move(config), flags.seed + 1000 + c));
  }

  const std::int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < flags.clients; ++c) {
    threads.emplace_back([&, c] {
      auto& client = *clients[c];
      std::uint64_t counter = 0;
      for (std::size_t i = c; i < workload.size(); i += flags.clients) {
        const auto& op = workload[i];
        const std::int64_t start = now_ns();
        if (op.is_write) {
          Block value = make_value(flags.block_size, client.client_id(),
                                   ++counter << 8 | c);
          const auto pending = recorder.begin_write({op.lba}, {value});
          const auto outcome = client.write(op.lba, std::move(value));
          recorder.end_write(pending, outcome.ok());
        } else {
          const auto pending = recorder.begin_read({op.lba});
          auto outcome = client.read(op.lba);
          recorder.end_read(pending, outcome.ok()
                                         ? std::vector<Block>{*outcome}
                                         : std::vector<Block>{});
        }
        latencies.record(op.is_write, now_ns() - start);
      }
    });
  }

  // --- chaos: SIGKILL / restart injections ---------------------------------
  std::atomic<bool> workload_done{false};
  std::atomic<std::uint32_t> kills_done{0};
  std::atomic<bool> restart_failed{false};
  std::thread chaos([&] {
    Rng chaos_rng(flags.seed ^ 0xC4A05ULL);
    for (std::uint32_t k = 0; k < flags.kills; ++k) {
      // Sleep in small steps so a finished workload ends chaos promptly.
      for (std::uint64_t slept = 0;
           slept < flags.kill_interval_ms && !workload_done; slept += 20)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (workload_done && k > 0) return;  // at least one kill always lands
      const auto victim =
          static_cast<ProcessId>(chaos_rng.next_u64() % flags.bricks);
      if (flags.kill_during_compaction) {
        // A compaction's only externally visible window is its snapshot
        // temp file (written, synced, then renamed away). Poll the victim's
        // store for one so the SIGKILL lands mid-install; the bounded wait
        // falls back to an untimed kill — the schedule stays opportunistic,
        // never blocks the run.
        const std::string store = dir + "/brick" + std::to_string(victim);
        const std::int64_t give_up = now_ns() + 1'000'000'000LL;
        bool tmp_seen = false;
        while (!tmp_seen && now_ns() < give_up && !workload_done) {
          for (const auto& name :
               fabec::storage::Env::real().list_dir(store)) {
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".tmp") == 0) {
              tmp_seen = true;
              break;
            }
          }
          if (!tmp_seen)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!flags.quiet && tmp_seen)
          std::fprintf(stderr,
                       "cluster: caught brick %u mid-compaction\n", victim);
      }
      if (!flags.quiet) std::fprintf(stderr, "cluster: kill brick %u\n", victim);
      if (local) {
        local->stop(victim);
      } else {
        ::kill(procs[victim].pid, SIGKILL);
        int status = 0;
        ::waitpid(procs[victim].pid, &status, 0);
        procs[victim].pid = -1;
      }
      // Let the survivors carry the load degraded for a moment — this is
      // the window where fast paths fail over to recovery reads.
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      if (local) {
        std::string error;
        if (!local->restart(victim, &error)) {
          std::fprintf(stderr, "cluster: brick %u restart failed: %s\n",
                       victim, error.c_str());
          restart_failed = true;
          return;
        }
      } else {
        procs[victim].pid = spawn_brickd(brickd, procs[victim]);
      }
      ++kills_done;
      if (!flags.quiet)
        std::fprintf(stderr, "cluster: restarted brick %u\n", victim);
    }
  });

  for (auto& t : threads) t.join();
  workload_done = true;
  chaos.join();
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;

  // Cache counters must be read before close() stops the client loops.
  fabec::fab::VolumeClient::CachedReadStats cache;
  fabec::fab::ClientStats outcomes;
  for (auto& client : clients) {
    const fabec::fab::ClientStats c = client->stats();
    outcomes.ok += c.ok;
    outcomes.aborted += c.aborted;
    outcomes.timed_out += c.timed_out;
    outcomes.misrouted += c.misrouted;
    const auto s = client->cached_read_stats();
    cache.hits += s.hits;
    cache.misses += s.misses;
    cache.fallbacks += s.fallbacks;
    cache.invalidations += s.invalidations;
  }
  for (auto& client : clients) client->close();
  local.reset();
  reap_all(procs, flags.quiet);

  // --- disk verification, oracle and summary --------------------------------
  const bool disks_ok = check_disks(flags, dir);
  const auto bad = recorder.check();
  for (const auto& v : bad)
    std::fprintf(stderr, "cluster: VIOLATION lba %llu: %s\n%s",
                 static_cast<unsigned long long>(v.key), v.message.c_str(),
                 fabec::hist::format_history(v.ops).c_str());
  const std::size_t violations = bad.size();
  print_summary(flags, latencies, outcomes, kills_done.load(), seconds,
                violations, cache);
  const bool passed = violations == 0 && disks_ok && !restart_failed;
  if (!flags.keep && passed) {
    // Best-effort cleanup of the run directory.
    const std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0 && !flags.quiet)
      std::fprintf(stderr, "cluster: could not remove %s\n", dir.c_str());
  } else if (!flags.quiet) {
    std::fprintf(stderr, "cluster: run directory kept at %s\n", dir.c_str());
  }
  return passed ? 0 : 1;
}
