// A web-server-style read-heavy workload on an erasure-coded virtual disk,
// with a brick failing and recovering mid-run — the FAB deployment story
// from the paper's introduction (read-intensive workloads are where
// erasure-coded FABs shine, §1.2).
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "core/cluster.h"
#include "fab/virtual_disk.h"
#include "fab/workload.h"

int main() {
  using namespace fabec;

  core::ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = 4096;
  config.net.jitter = sim::microseconds(20);
  core::Cluster cluster(config, /*seed=*/2026);
  fab::VirtualDisk disk(&cluster, fab::VirtualDiskConfig{5000});
  Rng rng(2026);

  // 2000 ops, 90% reads, hot-spot access (popular objects), Poisson
  // arrivals averaging one op per 5δ.
  fab::WorkloadConfig wl;
  wl.num_ops = 2000;
  wl.write_fraction = 0.1;
  wl.pattern = fab::AccessPattern::kHotspot;
  wl.hotspot_fraction = 0.8;
  wl.hotspot_blocks = 200;
  wl.mean_interarrival = 5 * sim::kDefaultDelta;
  const auto ops = fab::generate_workload(wl, disk.capacity_blocks(), rng);

  fab::LatencyRecorder read_lat, write_lat;
  std::uint64_t failures = 0;
  auto& sim = cluster.simulator();
  for (const auto& op : ops) {
    sim.schedule_at(op.at, [&, op] {
      const sim::Time start = sim.now();
      if (op.is_write) {
        disk.write(op.lba, random_block(rng, config.block_size),
                   [&, start](fab::VirtualDisk::WriteOutcome r) {
                     write_lat.record(sim.now() - start);
                     failures += r.ok() ? 0 : 1;
                   });
      } else {
        disk.read(op.lba, [&, start](fab::VirtualDisk::BlockOutcome r) {
          read_lat.record(sim.now() - start);
          failures += r.ok() ? 0 : 1;
        });
      }
    });
  }

  // Mid-run: brick 6 dies for a while, then rejoins. No operator action,
  // no failure detector — quorums simply route around it.
  const sim::Time mid = ops[ops.size() / 2].at;
  sim.schedule_at(mid, [&] {
    std::printf("t=%6lldδ  brick 6 crashes\n",
                static_cast<long long>(sim.now() / sim::kDefaultDelta));
    cluster.crash(6);
  });
  sim.schedule_at(mid + 400 * sim::kDefaultDelta, [&] {
    std::printf("t=%6lldδ  brick 6 recovers and rejoins\n",
                static_cast<long long>(sim.now() / sim::kDefaultDelta));
    cluster.recover_brick(6);
  });

  sim.run_until_idle();

  const double d = static_cast<double>(sim::kDefaultDelta);
  const auto stats = cluster.total_coordinator_stats();
  std::printf("\nworkload: %zu reads, %zu writes over %lld δ of virtual time\n",
              read_lat.count(), write_lat.count(),
              static_cast<long long>(sim.now() / sim::kDefaultDelta));
  std::printf("read  latency: mean %.1fδ  p50 %.1fδ  p99 %.1fδ  max %.1fδ\n",
              read_lat.mean() / d, read_lat.percentile(50) / d,
              read_lat.percentile(99) / d, read_lat.max() / d);
  std::printf("write latency: mean %.1fδ  p50 %.1fδ  p99 %.1fδ  max %.1fδ\n",
              write_lat.mean() / d, write_lat.percentile(50) / d,
              write_lat.percentile(99) / d, write_lat.max() / d);
  std::printf("fast-path reads: %llu/%llu   fast block writes: %llu/%llu\n",
              static_cast<unsigned long long>(stats.fast_read_hits),
              static_cast<unsigned long long>(stats.block_reads +
                                              stats.stripe_reads),
              static_cast<unsigned long long>(stats.fast_block_write_hits),
              static_cast<unsigned long long>(stats.block_writes));
  std::printf("recoveries: %llu   aborts: %llu   retransmit rounds: %llu\n",
              static_cast<unsigned long long>(stats.recoveries_started),
              static_cast<unsigned long long>(stats.aborts),
              static_cast<unsigned long long>(stats.retransmit_rounds));
  std::printf("network: %llu messages, %.1f MB payload\n",
              static_cast<unsigned long long>(
                  cluster.network().stats().messages_sent),
              static_cast<double>(cluster.network().stats().bytes_sent) /
                  (1024.0 * 1024.0));
  std::printf("disk: %llu reads, %llu writes across 8 bricks\n",
              static_cast<unsigned long long>(cluster.total_io().disk_reads),
              static_cast<unsigned long long>(cluster.total_io().disk_writes));
  std::printf("aborted client ops: %llu (retried by real clients)\n",
              static_cast<unsigned long long>(failures));
  return 0;
}
