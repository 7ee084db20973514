// The same protocol, off the simulator: an 8-brick 5-of-8 pool of
// BrickServers on loopback UDP in this process, with four client threads —
// each coordinating through its own fab::VolumeClient — doing real blocking
// I/O while a brick is killed and restarted underneath them.
//
// Every BrickServer here is exactly what one `brickd` process runs; put
// each on its own machine and this is the deployed layout.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fab/volume_client.h"
#include "runtime/local_cluster.h"

int main() {
  using namespace fabec;

  std::string dir =
      (std::filesystem::temp_directory_path() / "fab-realtime-XXXXXX").string();
  if (::mkdtemp(dir.data()) == nullptr) return 1;
  runtime::BrickConfig bricks;
  bricks.n = 8;
  bricks.m = 5;
  runtime::LocalCluster cluster(bricks, dir);
  std::string error;
  if (!cluster.boot(&error)) {
    std::fprintf(stderr, "boot failed: %s\n", error.c_str());
    return 1;
  }

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 40;
  constexpr std::uint64_t kBlocksPerThread = 10;
  std::atomic<int> writes_ok{0}, reads_ok{0}, mismatches{0};
  std::atomic<std::uint64_t> block_reads{0}, fast_reads{0}, recoveries{0},
      aborts{0};

  const auto endpoints = cluster.endpoints();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto config = fab::VolumeClientConfig::from_brick_config(bricks);
      config.client_id = 8 + t;
      config.num_blocks = kThreads * kBlocksPerThread;
      config.bricks = endpoints;
      fab::VolumeClient client(config, /*seed=*/1000 + t);
      Rng rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Disjoint blocks per thread: every read must see this thread's
        // last acknowledged write.
        const Lba lba = t * kBlocksPerThread + rng.next_below(kBlocksPerThread);
        const Block data = random_block(rng, bricks.block_size);
        if (!client.write(lba, data).ok()) continue;
        ++writes_ok;
        const auto seen = client.read(lba);
        if (!seen.ok()) continue;
        ++reads_ok;
        if (seen.value() != data) ++mismatches;
      }
      const core::CoordinatorStats s = client.coordinator_stats();
      block_reads += s.block_reads;
      fast_reads += s.fast_read_hits;
      recoveries += s.recoveries_started;
      aborts += s.aborts;
    });
  }

  // Meanwhile: kill brick 6, bring it back. Clients never notice.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::printf("killing brick 6 under load...\n");
  cluster.stop(6);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::printf("restarting brick 6 from its journal...\n");
  if (!cluster.restart(6, &error))
    std::fprintf(stderr, "restart failed: %s\n", error.c_str());

  for (auto& t : threads) t.join();
  const auto wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  std::printf("\n%d client threads x %d ops in %lld ms of real time\n",
              kThreads, kOpsPerThread, static_cast<long long>(wall_ms));
  std::printf("writes ok: %d   reads ok: %d   read/write mismatches: %d\n",
              writes_ok.load(), reads_ok.load(), mismatches.load());
  std::printf("fast-path reads: %llu/%llu   recoveries: %llu   aborts: %llu\n",
              static_cast<unsigned long long>(fast_reads.load()),
              static_cast<unsigned long long>(block_reads.load()),
              static_cast<unsigned long long>(recoveries.load()),
              static_cast<unsigned long long>(aborts.load()));
  std::filesystem::remove_all(dir);
  return mismatches.load() == 0 ? 0 : 1;
}
