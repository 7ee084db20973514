// Walk-through of the paper's hardest scenario: a write coordinator
// crashes mid-operation, leaving a partial write, and the next read decides
// the write's fate — roll it forward if enough blocks survived, roll it
// back otherwise — so that the answer never changes afterwards (strict
// linearizability, Figure 5).
#include <cstdio>

#include "common/rng.h"
#include "core/cluster.h"

int main() {
  using namespace fabec;

  core::ClusterConfig config;
  config.n = 8;
  config.m = 5;
  config.block_size = 512;
  core::Cluster cluster(config, /*seed=*/7);
  Rng rng(7);

  auto make_stripe = [&](std::uint8_t fill) {
    std::vector<Block> stripe(5, Block(512, fill));
    return stripe;
  };

  std::printf("== setup: write stripe 'A' normally\n");
  const auto stripe_a = make_stripe('A');
  cluster.write_stripe(0, 0, stripe_a);
  std::printf("   stripe 0 now holds 'A' on all 8 bricks\n\n");

  // --- scenario 1: crash before the value reaches anyone --------------
  std::printf("== scenario 1: coordinator crashes after Order, before Write\n");
  const auto stripe_b = make_stripe('B');
  cluster.coordinator(1).write_stripe(0, stripe_b, [](auto) {});
  cluster.simulator().run_for(sim::kDefaultDelta + 1);  // Order delivered
  cluster.crash(1);
  cluster.simulator().run_until_idle();
  std::printf("   brick 1 crashed; every replica has ord-ts > max-ts: a\n"
              "   dangling intention with no data\n");
  auto seen = cluster.read_stripe(2, 0);
  std::printf("   next read returns '%c' (recovery rolled the write %s)\n\n",
              (*seen)[0][0],
              (*seen)[0][0] == 'A' ? "BACK" : "FORWARD");

  cluster.recover_brick(1);

  // --- scenario 2: crash after the value reached a full quorum --------
  std::printf("== scenario 2: coordinator crashes after Write delivery,\n"
              "   before acknowledging the client\n");
  const auto stripe_c = make_stripe('C');
  cluster.coordinator(3).write_stripe(0, stripe_c, [](auto) {});
  cluster.simulator().run_for(3 * sim::kDefaultDelta + 1);  // Writes landed
  cluster.crash(3);
  cluster.simulator().run_until_idle();
  seen = cluster.read_stripe(4, 0);
  std::printf("   next read returns '%c' (recovery rolled the write %s)\n",
              (*seen)[0][0],
              (*seen)[0][0] == 'C' ? "FORWARD" : "BACK");
  std::printf("   the client never got an ack, but the write is in force —\n"
              "   exactly the non-deterministic-but-fixed outcome the model\n"
              "   allows for partial operations\n\n");

  cluster.recover_brick(3);

  // --- the strictness guarantee ---------------------------------------
  std::printf("== strictness: once decided, the answer never changes\n");
  const char decided = (*seen)[0][0];
  bool stable = true;
  for (ProcessId coord = 0; coord < 8; ++coord) {
    const auto again = cluster.read_stripe(coord, 0);
    stable = stable && again.has_value() && (*again)[0][0] == decided;
  }
  std::printf("   8 further reads via 8 different coordinators all return "
              "'%c': %s\n",
              decided, stable ? "yes" : "NO (bug!)");

  std::printf("\n== total simulated crashes: %llu, recoveries: %llu\n",
              static_cast<unsigned long long>(
                  cluster.processes().total_crashes()),
              static_cast<unsigned long long>(
                  cluster.processes().total_recoveries()));
  return stable ? 0 : 1;
}
