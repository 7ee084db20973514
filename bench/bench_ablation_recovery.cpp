// Ablation: what failures cost, and what garbage collection buys.
//
// Part 1 — graceful degradation (§1: "efficient in the common case and
// degrades gracefully under failure"): read cost as the number of crashed
// bricks grows from 0 to f, and across the partial-write recovery path.
//
// Part 2 — log growth with and without §5.1's garbage collection, the
// design choice that makes the versioned-log approach practical.
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "core/cluster.h"

namespace {

using namespace fabec;

constexpr std::size_t kB = 4096;

core::ClusterConfig base_config(bool auto_gc = true) {
  core::ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = kB;
  config.coordinator.auto_gc = auto_gc;
  return config;
}

std::vector<Block> random_stripe(Rng& rng) {
  std::vector<Block> stripe;
  for (int i = 0; i < 5; ++i) stripe.push_back(random_block(rng, kB));
  return stripe;
}

void degradation() {
  std::printf("Part 1a: stripe-read cost vs crashed bricks (n=8, m=5, f=1;\n"
              "beyond f the guarantee ends, but reads often still succeed\n"
              "while a quorum happens to answer)\n\n");
  std::printf("  %14s  %12s  %12s  %12s\n", "crashed bricks", "latency/δ",
              "messages", "recoveries");
  for (std::uint32_t crashed = 0; crashed <= 1; ++crashed) {
    core::Cluster cluster(base_config(), 1 + crashed);
    Rng rng(1);
    cluster.write_stripe(0, 0, random_stripe(rng));
    for (std::uint32_t i = 0; i < crashed; ++i) cluster.crash(7 - i);
    cluster.network().reset_stats();
    const sim::Time start = cluster.simulator().now();
    const bool ok = cluster.read_stripe(0, 0).has_value();
    const double latency =
        static_cast<double>(cluster.simulator().now() - start) /
        static_cast<double>(sim::kDefaultDelta);
    std::printf("  %14u  %12.0f  %12llu  %12llu%s\n", crashed, latency,
                static_cast<unsigned long long>(
                    cluster.network().stats().messages_sent),
                static_cast<unsigned long long>(
                    cluster.total_coordinator_stats().recoveries_started),
                ok ? "" : "  (aborted)");
  }

  std::printf("\nPart 1b: read cost, clean vs after a partial write\n\n");
  for (bool partial : {false, true}) {
    core::Cluster cluster(base_config(), 7);
    Rng rng(2);
    cluster.write_stripe(0, 0, random_stripe(rng));
    if (partial) {
      cluster.coordinator(1).write_stripe(0, random_stripe(rng), [](auto) {});
      cluster.simulator().run_for(sim::kDefaultDelta + 1);
      cluster.crash(1);
      cluster.simulator().run_until_idle();
      cluster.recover_brick(1);
    }
    cluster.network().reset_stats();
    const sim::Time start = cluster.simulator().now();
    cluster.read_stripe(2, 0);
    const double latency =
        static_cast<double>(cluster.simulator().now() - start) /
        static_cast<double>(sim::kDefaultDelta);
    std::printf("  %-24s latency %2.0fδ, messages %llu\n",
                partial ? "after partial write:" : "clean:", latency,
                static_cast<unsigned long long>(
                    cluster.network().stats().messages_sent));
  }
}

void gc_ablation() {
  std::printf("\nPart 2: per-brick log blocks after N full-stripe writes\n"
              "(with GC the log holds the last complete version + retained\n"
              "fallbacks; without it every version accumulates)\n\n");
  std::printf("  %8s  %14s  %14s\n", "writes", "log blocks/GC",
              "log blocks/noGC");
  for (int writes : {1, 10, 50, 200}) {
    std::size_t with_gc = 0, without_gc = 0;
    for (bool gc : {true, false}) {
      core::Cluster cluster(base_config(gc), 11);
      Rng rng(3);
      for (int i = 0; i < writes; ++i)
        cluster.write_stripe(0, 0, random_stripe(rng));
      cluster.simulator().run_until_idle();
      (gc ? with_gc : without_gc) = cluster.total_log_blocks() / 8;
    }
    std::printf("  %8d  %14zu  %14zu\n", writes, with_gc, without_gc);
  }
}

}  // namespace

int main() {
  std::printf("Ablation: failure cost and garbage collection\n\n");
  degradation();
  gc_ablation();
  return 0;
}
