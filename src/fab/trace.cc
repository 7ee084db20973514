#include "fab/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/check.h"

namespace fabec::fab {

std::string trace_to_text(const std::vector<TraceRecord>& trace) {
  std::string out = "# fabec block I/O trace: <time_ns> <R|W> <lba>\n";
  char line[64];
  for (const TraceRecord& r : trace) {
    std::snprintf(line, sizeof line, "%" PRId64 " %c %" PRIu64 "\n", r.at,
                  r.is_write ? 'W' : 'R', r.lba);
    out += line;
  }
  return out;
}

std::optional<std::vector<TraceRecord>> trace_from_text(
    const std::string& text) {
  std::vector<TraceRecord> out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Skip blank lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::istringstream fields(line);
    TraceRecord r;
    std::string op;
    if (!(fields >> r.at >> op >> r.lba)) return std::nullopt;
    if (op == "W" || op == "w")
      r.is_write = true;
    else if (op == "R" || op == "r")
      r.is_write = false;
    else
      return std::nullopt;
    std::string extra;
    if (fields >> extra) return std::nullopt;  // trailing garbage
    out.push_back(r);
  }
  return out;
}

std::vector<TraceRecord> to_trace(const std::vector<WorkloadOp>& ops) {
  std::vector<TraceRecord> out;
  out.reserve(ops.size());
  for (const WorkloadOp& op : ops)
    out.push_back(TraceRecord{op.at, op.lba, op.is_write});
  return out;
}

namespace {

/// Generic conflict scan: `unit(record)` maps each operation to the unit it
/// contends on. Sorts by time and slides a window of operations whose
/// service interval is still open.
template <typename UnitFn>
ConcurrencyReport analyze(std::vector<TraceRecord> trace,
                          sim::Duration service_time, UnitFn&& unit) {
  FABEC_CHECK(service_time > 0);
  std::sort(trace.begin(), trace.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.at < b.at;
            });
  ConcurrencyReport report;
  report.ops = trace.size();
  std::set<std::size_t> conflicted;
  std::size_t window_begin = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    while (window_begin < i &&
           trace[window_begin].at + service_time <= trace[i].at)
      ++window_begin;
    for (std::size_t j = window_begin; j < i; ++j) {
      if (!trace[i].is_write && !trace[j].is_write) continue;
      if (unit(trace[i]) != unit(trace[j])) continue;
      ++report.conflicting_pairs;
      conflicted.insert(i);
      conflicted.insert(j);
    }
  }
  report.conflicting_ops = conflicted.size();
  return report;
}

}  // namespace

ConcurrencyReport analyze_block_conflicts(std::vector<TraceRecord> trace,
                                          sim::Duration service_time) {
  return analyze(std::move(trace), service_time,
                 [](const TraceRecord& r) { return r.lba; });
}

ConcurrencyReport analyze_stripe_conflicts(std::vector<TraceRecord> trace,
                                           sim::Duration service_time,
                                           const VolumeLayout& layout) {
  return analyze(std::move(trace), service_time,
                 [&layout](const TraceRecord& r) {
                   return layout.stripe_of(r.lba);
                 });
}

ReplayStats replay_trace(VirtualDisk& disk,
                         const std::vector<TraceRecord>& trace) {
  ReplayStats s;
  auto& sim = disk.cluster().simulator();
  Rng rng(12345);
  std::vector<TraceRecord> sorted = trace;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.at < b.at;
            });
  const sim::Time base = sim.now();
  const ClientStats before = disk.client_stats();
  for (const TraceRecord& r : sorted) {
    sim.schedule_at(base + r.at, [&disk, &s, &sim, &rng, r] {
      const sim::Time start = sim.now();
      if (r.is_write) {
        ++s.writes;
        disk.write(r.lba, random_block(rng, disk.block_size()),
                   [&s, &sim, start](VirtualDisk::WriteOutcome) {
                     s.write_latency.record(sim.now() - start);
                   });
      } else {
        ++s.reads;
        disk.read(r.lba, [&s, &sim, start](VirtualDisk::BlockOutcome) {
          s.read_latency.record(sim.now() - start);
        });
      }
    });
  }
  sim.run_until_idle();
  // Outcomes are the disk's own tallies over the replay.
  const ClientStats& after = disk.client_stats();
  s.ok = after.ok - before.ok;
  s.aborted = after.aborted - before.aborted + after.misrouted -
              before.misrouted;
  s.timed_out = after.timed_out - before.timed_out;
  s.aborted_retried = after.aborted_retried - before.aborted_retried;
  s.retries = after.retries - before.retries;
  return s;
}

}  // namespace fabec::fab
