// Table 1 reproduction: per-operation cost of the erasure-coded storage
// register versus the LS97 replicated register, measured on the
// instrumented simulator with a fixed one-way delay δ and no failures
// (failure-free "/F" rows) or a forced single-iteration recovery ("/S"
// rows).
//
// Measured columns: latency (multiples of δ), messages, disk reads, disk
// writes, network payload (multiples of the block size B). Paper columns
// are the closed-form entries of Table 1 with n = 8, m = 5, k = 3.
//
// Known deviations (discussed in EXPERIMENTS.md):
//  * read/S disk reads: paper charges n+m, counting m block reads for the
//    failed fast attempt; in the executable partial-write scenario the
//    replicas detect the pending write before reading, so we observe n.
//    Same for the fast attempt's mB of payload.
//  * block write/S: the paper's 8δ row assumes the fast attempt's Modify
//    round executes and fails cleanly everywhere; in executable schedules
//    the attempt short-circuits when p_j cannot answer (6δ), which is the
//    scenario measured here (with p_j crashed, hence 2n-1 messages per
//    round).
#include <cstdio>
#include <memory>
#include <string>

#include "baseline/ls97.h"
#include "common/rng.h"
#include "core/cluster.h"

namespace {

using namespace fabec;

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kM = 5;
constexpr std::uint32_t kK = kN - kM;
constexpr std::size_t kB = 1024;

struct Row {
  std::string op;
  double latency = 0, messages = 0, reads = 0, writes = 0, payload = 0;
  std::string paper;  // the paper's formula entries, rendered
};

struct Harness {
  Harness() : rng(7) {
    core::ClusterConfig config;
    config.n = kN;
    config.m = kM;
    config.block_size = kB;
    config.coordinator.auto_gc = false;  // Table 1 does not count GC traffic
    cluster = std::make_unique<core::Cluster>(config, 1);
  }

  std::vector<Block> random_stripe() {
    std::vector<Block> stripe;
    for (std::uint32_t i = 0; i < kM; ++i)
      stripe.push_back(random_block(rng, kB));
    return stripe;
  }

  void reset() {
    cluster->network().reset_stats();
    cluster->reset_io_stats();
    start = cluster->simulator().now();
  }

  Row measure(const std::string& op, const std::string& paper) {
    Row row;
    row.op = op;
    row.paper = paper;
    row.latency = static_cast<double>(cluster->simulator().now() - start) /
                  static_cast<double>(sim::kDefaultDelta);
    row.messages = static_cast<double>(cluster->network().stats().messages_sent);
    row.reads = static_cast<double>(cluster->total_io().disk_reads);
    row.writes = static_cast<double>(cluster->total_io().disk_writes);
    row.payload =
        static_cast<double>(cluster->network().stats().bytes_sent) / kB;
    return row;
  }

  /// Leaves a partial write behind: ordered on every replica, no data.
  void make_partial_write() {
    cluster->coordinator(1).write_stripe(0, random_stripe(), [](auto) {});
    cluster->simulator().run_for(sim::kDefaultDelta + 1);
    cluster->crash(1);
    cluster->simulator().run_until_idle();
    cluster->recover_brick(1);
  }

  Rng rng;
  std::unique_ptr<core::Cluster> cluster;
  sim::Time start = 0;
};

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-22s %9s %9s %11s %12s %12s   %s\n", "operation",
              "latency/δ", "messages", "disk reads", "disk writes",
              "payload/B", "paper (δ, msgs, rd, wr, B)");
  for (const Row& row : rows)
    std::printf("%-22s %9.0f %9.0f %11.0f %12.0f %12.0f   %s\n",
                row.op.c_str(), row.latency, row.messages, row.reads,
                row.writes, row.payload, row.paper.c_str());
}

}  // namespace

int main() {
  std::vector<Row> rows;
  std::printf("Table 1: operation costs, n = %u, m = %u, k = %u, B = %zu\n\n",
              kN, kM, kK, kB);

  {  // stripe read, fast
    Harness h;
    h.cluster->write_stripe(0, 0, h.random_stripe());
    h.reset();
    h.cluster->read_stripe(0, 0);
    rows.push_back(h.measure("stripe read/F", "2δ, 2n, m, 0, mB"));
  }
  {  // stripe write
    Harness h;
    h.reset();
    h.cluster->write_stripe(0, 0, h.random_stripe());
    rows.push_back(h.measure("stripe write", "4δ, 4n, 0, n, nB"));
  }
  {  // stripe read with recovery
    Harness h;
    h.cluster->write_stripe(0, 0, h.random_stripe());
    h.make_partial_write();
    h.reset();
    h.cluster->read_stripe(2, 0);
    rows.push_back(h.measure("stripe read/S", "6δ, 6n, n+m, n, (2n+m)B"));
  }
  {  // block read, fast
    Harness h;
    h.cluster->write_stripe(0, 0, h.random_stripe());
    h.reset();
    h.cluster->read_block(0, 0, 2);
    rows.push_back(h.measure("block read/F", "2δ, 2n, 1, 0, B"));
  }
  {  // block write, fast
    Harness h;
    h.cluster->write_stripe(0, 0, h.random_stripe());
    h.reset();
    h.cluster->write_block(0, 0, 2, random_block(h.rng, kB));
    rows.push_back(h.measure("block write/F", "4δ, 4n, k+1, k+1, (2n+1)B"));
  }
  {  // block read with recovery
    Harness h;
    h.cluster->write_stripe(0, 0, h.random_stripe());
    h.make_partial_write();
    h.reset();
    h.cluster->read_block(2, 0, 1);
    rows.push_back(h.measure("block read/S", "6δ, 6n, n+1, n, (2n+1)B"));
  }
  {  // block write, slow (p_j down -> fast attempt short-circuits)
    Harness h;
    h.cluster->write_stripe(0, 0, h.random_stripe());
    h.cluster->crash(1);
    h.reset();
    h.cluster->write_block(2, 0, 1, random_block(h.rng, kB));
    rows.push_back(
        h.measure("block write/S", "8δ, 8n, k+n+1, k+n+1, (4n+1)B"));
  }

  print_rows(rows);

  // LS97 baseline on the same fabric parameters.
  std::printf("\nLS97 baseline (replication, n = %u)\n\n", kN);
  std::vector<Row> baseline_rows;
  {
    baseline::Ls97Config config;
    config.n = kN;
    config.block_size = kB;
    baseline::Ls97Cluster cluster(config, 1);
    Rng rng(9);
    cluster.write_sync(0, 0, random_block(rng, kB));

    cluster.network().reset_stats();
    cluster.reset_io_stats();
    sim::Time start = cluster.simulator().now();
    cluster.read_sync(0, 0);
    Row read_row;
    read_row.op = "LS97 read";
    read_row.paper = "4δ, 4n, n, n, 2nB";
    read_row.latency =
        static_cast<double>(cluster.simulator().now() - start) /
        static_cast<double>(sim::kDefaultDelta);
    read_row.messages =
        static_cast<double>(cluster.network().stats().messages_sent);
    read_row.reads = static_cast<double>(cluster.total_io().disk_reads);
    read_row.writes = static_cast<double>(cluster.total_io().disk_writes);
    read_row.payload =
        static_cast<double>(cluster.network().stats().bytes_sent) / kB;
    baseline_rows.push_back(read_row);

    cluster.network().reset_stats();
    cluster.reset_io_stats();
    start = cluster.simulator().now();
    cluster.write_sync(0, 0, random_block(rng, kB));
    Row write_row;
    write_row.op = "LS97 write";
    write_row.paper = "4δ, 4n, 0, n, nB";
    write_row.latency =
        static_cast<double>(cluster.simulator().now() - start) /
        static_cast<double>(sim::kDefaultDelta);
    write_row.messages =
        static_cast<double>(cluster.network().stats().messages_sent);
    write_row.reads = static_cast<double>(cluster.total_io().disk_reads);
    write_row.writes = static_cast<double>(cluster.total_io().disk_writes);
    write_row.payload =
        static_cast<double>(cluster.network().stats().bytes_sent) / kB;
    baseline_rows.push_back(write_row);
  }
  print_rows(baseline_rows);

  std::printf(
      "\nHeadline: failure-free reads cost 2δ here vs 4δ in LS97 — the\n"
      "single-round optimistic read is the paper's first improvement; the\n"
      "second is m-of-n erasure coding (payload mB/nB instead of full\n"
      "copies) at equal fault tolerance.\n");
  return 0;
}
