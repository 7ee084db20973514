#include "fab/rebuild.h"

#include <optional>

#include "common/check.h"

namespace fabec::fab {
namespace {

bool repair_once(core::Cluster& cluster, ProcessId coordinator,
                 StripeId stripe) {
  std::optional<bool> result;
  cluster.coordinator(coordinator)
      .repair_stripe(stripe, [&result](core::Coordinator::WriteOutcome r) {
        result = r.ok();
      });
  cluster.simulator().run_until_pred([&result] { return result.has_value(); });
  return result.value_or(false);
}

bool rebuild_once(core::Cluster& cluster, ProcessId coordinator,
                  StripeId stripe, BlockIndex lost) {
  std::optional<bool> result;
  cluster.coordinator(coordinator)
      .rebuild_block(stripe, lost,
                     [&result](core::Coordinator::WriteOutcome r) {
                       result = r.ok();
                     });
  cluster.simulator().run_until_pred([&result] { return result.has_value(); });
  return result.value_or(false);
}

}  // namespace

RebuildReport rebuild_brick(core::Cluster& cluster, ProcessId replaced,
                            std::uint64_t num_stripes,
                            ProcessId coordinator) {
  const ProcessId coord = coordinator == kNoProcess ? replaced : coordinator;
  FABEC_CHECK_MSG(cluster.processes().alive(coord),
                  "rebuild coordinator must be up");
  RebuildReport report;
  const core::CoordinatorStats before = cluster.coordinator(coord).stats();
  const core::GroupLayout& layout = cluster.group_layout();
  for (StripeId stripe = 0; stripe < num_stripes; ++stripe) {
    ++report.stripes_scanned;
    const auto pos = layout.position(stripe, replaced);
    if (!pos.has_value()) continue;
    ++report.stripes_served;
    // Plan-driven single-block repair: fetch only the repair plan's sources
    // (for LRC, the lost block's local group) and write the replaced brick
    // alone. rebuild_block falls back to the full recovery write-back by
    // itself when the plan path cannot prove a clean version. One retry: a
    // repair can abort if it races a concurrent client write, in which case
    // that write already re-established the stripe on a full quorum — but
    // retrying keeps the accounting simple and is what a real rebuild
    // scanner would do.
    if (rebuild_once(cluster, coord, stripe, *pos) ||
        repair_once(cluster, coord, stripe)) {
      ++report.stripes_repaired;
    } else {
      ++report.stripes_failed;
    }
  }
  const core::CoordinatorStats after = cluster.coordinator(coord).stats();
  report.blocks_rebuilt = after.block_rebuilds - before.block_rebuilds;
  report.rebuild_fallbacks =
      after.block_rebuild_fallbacks - before.block_rebuild_fallbacks;
  report.source_blocks_fetched =
      after.rebuild_source_blocks - before.rebuild_source_blocks;
  return report;
}

ScrubReport scrub_stripes(core::Cluster& cluster, std::uint64_t num_stripes,
                          ProcessId coordinator, bool repair_corrupt) {
  FABEC_CHECK_MSG(cluster.processes().alive(coordinator),
                  "scrub coordinator must be up");
  ScrubReport report;
  for (StripeId stripe = 0; stripe < num_stripes; ++stripe) {
    ++report.scanned;
    std::optional<core::Coordinator::ScrubResult> result;
    std::optional<BlockIndex> corrupt_pos;
    cluster.coordinator(coordinator)
        .scrub_stripe(stripe,
                      core::Coordinator::ScrubExCb(
                          [&result, &corrupt_pos](
                              core::Coordinator::ScrubResult r,
                              std::optional<BlockIndex> pos) {
                            result = r;
                            corrupt_pos = pos;
                          }));
    cluster.simulator().run_until_pred(
        [&result] { return result.has_value(); });
    switch (result.value_or(core::Coordinator::ScrubResult::kInconclusive)) {
      case core::Coordinator::ScrubResult::kClean:
        ++report.clean;
        break;
      case core::Coordinator::ScrubResult::kInconclusive:
        ++report.inconclusive;
        break;
      case core::Coordinator::ScrubResult::kCorrupt: {
        ++report.corrupt;
        report.corrupt_stripes.push_back(stripe);
        if (!repair_corrupt) break;
        // When the scrub attributed the corruption to one position, heal
        // just that block through the repair plan; rebuild_block falls back
        // to the full write-back if the quarantined replica rejects the
        // catch-up write (e.g. the corrupt entry is its newest version, so
        // the version-ts write is not newer than its max-ts).
        if (corrupt_pos.has_value()) {
          const core::CoordinatorStats before =
              cluster.coordinator(coordinator).stats();
          if (rebuild_once(cluster, coordinator, stripe, *corrupt_pos)) {
            ++report.repaired;
            const core::CoordinatorStats& after =
                cluster.coordinator(coordinator).stats();
            if (after.block_rebuilds > before.block_rebuilds)
              ++report.locally_repaired;
            break;
          }
        }
        if (repair_once(cluster, coordinator, stripe)) ++report.repaired;
        break;
      }
    }
  }
  return report;
}

}  // namespace fabec::fab
