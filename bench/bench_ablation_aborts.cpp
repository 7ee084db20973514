// Ablation: abort rate (§3's claims).
//
// The paper argues aborts are rare because (a) applications rarely issue
// concurrent conflicting operations on the same data, (b) data layout can
// spread consecutive blocks over different stripes, and (c) clock
// synchronization keeps timestamp-order conflicts rare — and stresses that
// none of these affect safety, only the abort rate. This bench quantifies
// all three knobs on a contended workload.
#include <cstdio>

#include "common/rng.h"
#include "core/cluster.h"
#include "fab/virtual_disk.h"
#include "fab/workload.h"

namespace {

using namespace fabec;

constexpr std::size_t kB = 1024;

struct Outcome {
  std::uint64_t ops = 0;
  std::uint64_t aborts = 0;
  double rate() const {
    return ops ? static_cast<double>(aborts) / static_cast<double>(ops) : 0;
  }
};

Outcome run(double mean_gap_deltas, fab::Layout layout,
            sim::Duration clock_skew, std::uint64_t seed) {
  core::ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  if (clock_skew > 0) {
    // Alternate bricks run fast/slow by +-skew: a write coordinated by a
    // slow-clock brick right after a fast-clock write proposes a timestamp
    // that is too old and aborts in the Order phase.
    config.clock_offsets.assign(8, 0);
    for (ProcessId p = 0; p < 8; ++p)
      config.clock_offsets[p] = (p % 2 == 0) ? clock_skew : -clock_skew;
  }
  core::Cluster cluster(config, seed);
  fab::VirtualDisk disk(&cluster, fab::VirtualDiskConfig{40, layout});
  Rng rng(seed);

  fab::WorkloadConfig wl;
  wl.num_ops = 300;
  wl.write_fraction = 0.5;
  wl.pattern = fab::AccessPattern::kHotspot;  // contended: 90% on 8 blocks
  wl.hotspot_blocks = 8;
  wl.mean_interarrival = static_cast<sim::Duration>(
      mean_gap_deltas * static_cast<double>(sim::kDefaultDelta));

  Outcome outcome;
  auto& sim = cluster.simulator();
  for (const auto& op : fab::generate_workload(wl, 40, rng)) {
    ++outcome.ops;
    sim.schedule_at(op.at, [&, op] {
      if (op.is_write)
        disk.write(op.lba, random_block(rng, kB), [](auto) {});
      else
        disk.read(op.lba, [](auto) {});
    });
  }
  sim.run_until_idle();
  outcome.aborts = cluster.total_coordinator_stats().aborts;
  return outcome;
}

}  // namespace

int main() {
  std::printf("Ablation: abort rate on a contended hot-spot workload\n"
              "(300 ops, 50%% writes, 90%% of ops on 8 blocks, n=8 m=5)\n\n");

  std::printf("1) Concurrency (mean inter-arrival gap, in δ):\n");
  std::printf("   %10s  %10s\n", "gap (δ)", "abort rate");
  for (double gap : {0.5, 1.0, 2.0, 5.0, 20.0}) {
    const auto o = run(gap, fab::Layout::kRotating, 0, 1);
    std::printf("   %10.1f  %9.1f%%\n", gap, 100 * o.rate());
  }

  std::printf("\n2) Layout at gap 1δ (rotating spreads consecutive blocks\n"
              "   over stripes — §3's conflict-avoidance recommendation):\n");
  for (auto [name, layout] :
       {std::pair{"linear", fab::Layout::kLinear},
        std::pair{"rotating", fab::Layout::kRotating}}) {
    const auto o = run(1.0, layout, 0, 2);
    std::printf("   %-10s  %9.1f%%\n", name, 100 * o.rate());
  }

  std::printf("\n3) Clock skew at gap 5δ (skewed newTS clocks propose stale\n"
              "   timestamps; safety is unaffected, only the abort rate):\n");
  std::printf("   %12s  %10s\n", "skew", "abort rate");
  for (sim::Duration skew :
       {sim::Duration{0}, 2 * sim::kDefaultDelta, 10 * sim::kDefaultDelta,
        50 * sim::kDefaultDelta}) {
    const auto o = run(5.0, fab::Layout::kRotating, skew, 3);
    std::printf("   %10lldδ  %9.1f%%\n",
                static_cast<long long>(skew / sim::kDefaultDelta),
                100 * o.rate());
  }

  std::printf("\nExpected shape: aborts vanish as the gap grows (claim a),\n"
              "rotating layout reduces stripe conflicts at equal load\n"
              "(claim b), and clock skew raises aborts smoothly without\n"
              "ever violating consistency (claim c).\n");
  return 0;
}
