// torture — standalone nemesis campaign driver.
//
// ctest runs a short, seed-pinned campaign sweep (tests/chaos); this tool
// runs the long ones: overnight sweeps over thousands of seeds, or the
// replay of one failing seed with a printed fault schedule. Every flag maps
// onto chaos::CampaignConfig; the defaults match it, so the replay command a
// failing campaign prints reproduces that campaign exactly.
//
// Examples:
//   torture --seeds 1000                      # sweep seeds 1..1000
//   torture --seeds 200 --bricks 16 --ops 300 # pool shape, heavier load
//   torture --replay 1337 --verbose           # re-run one seed, show faults
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/campaign.h"
#include "chaos/disk_campaign.h"

namespace {

using fabec::chaos::CampaignConfig;
using fabec::chaos::CampaignResult;
using fabec::chaos::DiskCampaignConfig;
using fabec::chaos::DiskCampaignResult;
using fabec::chaos::DiskProfile;

struct Options {
  CampaignConfig config;
  DiskCampaignConfig disk;
  bool disk_mode = false;          ///< --disk: persistence campaigns instead
  std::uint64_t seeds = 100;       ///< sweep size
  std::uint64_t start_seed = 1;
  std::uint64_t replay = 0;        ///< nonzero: run exactly this seed
  bool verbose = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --seeds K        sweep K seeds (default 100)\n"
               "  --start-seed S   first seed of the sweep (default 1)\n"
               "  --replay SEED    run one seed and print its fault schedule\n"
               "  --n N --m M      stripe group shape (default 8, 5)\n"
               "  --code SPEC      erasure family: rs | lrc:<l>,<g>\n"
               "  --bricks B       brick pool size (default: n)\n"
               "  --stripes S      stripes in the volume (default 4)\n"
               "  --ops K          workload operations (default 100)\n"
               "  --write-frac F   write fraction (default 0.5)\n"
               "  --wide-frac F    stripe/multi-block op fraction (default 0.3);\n"
               "                   1 in m multi-block writes names one block,\n"
               "                   the 5.2 delta block write\n"
               "  --window-us U    campaign window in microseconds\n"
               "  --skew-us U      max per-brick clock skew in microseconds\n"
               "  --crashes K --partitions K --isolations K\n"
               "  --drop-ramps K --jitter-ramps K --midphase K\n"
               "  --blackouts K --dup-ramps K\n"
               "                   fault counts per campaign\n"
               "  --batch-frames   per-destination frame batching: the\n"
               "                   network faults whole multi-op frames\n"
               "  --deadline-us U  per-phase op deadline (0 = wait forever)\n"
               "  --retries K      client resends of an op whose attempt had\n"
               "                   no effect (max attempts K + 1)\n"
               "  --read-cache     cached single-round reads (default on)\n"
               "  --no-read-cache  force every read down the quorum path\n"
               "  --verbose        per-campaign stats + fault schedules\n"
               "\n"
               "disk-fault campaigns (single-brick persistence torture):\n"
               "  --disk PROFILE   bitflip | torn | enospc\n"
               "  --rounds K       crash/recover cycles (default 8)\n"
               "  --writes-per-round K   journaled writes per round\n"
               "  --block-size B --stripes S\n"
               "  --compact-threshold BYTES  WAL size triggering compaction\n"
               "  --gc-every K     GcReq cadence in acked writes (0 = off)\n",
               argv0);
}

bool parse(int argc, char** argv, Options* opt) {
  auto& cfg = opt->config;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_u64 = [&](std::uint64_t* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    auto next_u32 = [&](std::uint32_t* out) {
      std::uint64_t v;
      if (!next_u64(&v)) return false;
      *out = static_cast<std::uint32_t>(v);
      return true;
    };
    auto next_double = [&](double* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtod(argv[++i], nullptr);
      return true;
    };
    bool ok = true;
    if (a == "--seeds") ok = next_u64(&opt->seeds);
    else if (a == "--start-seed") ok = next_u64(&opt->start_seed);
    else if (a == "--replay") ok = next_u64(&opt->replay);
    else if (a == "--n") ok = next_u32(&cfg.n);
    else if (a == "--code") {
      if (i + 1 >= argc) { ok = false; }
      else {
        const auto spec = fabec::erasure::parse_code_spec(argv[++i]);
        if (spec.has_value()) cfg.code = *spec;
        else {
          std::fprintf(stderr, "bad --code '%s' (want rs or lrc:<l>,<g>)\n",
                       argv[i]);
          return false;
        }
      }
    }
    else if (a == "--m") ok = next_u32(&cfg.m);
    else if (a == "--bricks") ok = next_u32(&cfg.total_bricks);
    else if (a == "--stripes") {
      ok = next_u32(&cfg.num_stripes);
      opt->disk.num_stripes = cfg.num_stripes;
    }
    else if (a == "--ops") ok = next_u64(&cfg.num_ops);
    else if (a == "--disk") {
      if (i + 1 >= argc) { ok = false; }
      else {
        const std::string p = argv[++i];
        opt->disk_mode = true;
        if (p == "bitflip") opt->disk.profile = DiskProfile::kBitFlip;
        else if (p == "torn") opt->disk.profile = DiskProfile::kTornWrite;
        else if (p == "enospc") opt->disk.profile = DiskProfile::kEnospc;
        else {
          std::fprintf(stderr, "unknown disk profile: %s\n", p.c_str());
          return false;
        }
      }
    }
    else if (a == "--rounds") ok = next_u32(&opt->disk.rounds);
    else if (a == "--writes-per-round")
      ok = next_u64(&opt->disk.writes_per_round);
    else if (a == "--block-size") {
      std::uint64_t bs;
      ok = next_u64(&bs);
      opt->disk.block_size = static_cast<std::size_t>(bs);
    }
    else if (a == "--compact-threshold")
      ok = next_u64(&opt->disk.compact_threshold_bytes);
    else if (a == "--gc-every") ok = next_u64(&opt->disk.gc_every);
    else if (a == "--write-frac") ok = next_double(&cfg.write_fraction);
    else if (a == "--wide-frac") ok = next_double(&cfg.wide_op_fraction);
    else if (a == "--window-us") {
      std::uint64_t us;
      ok = next_u64(&us);
      cfg.window = fabec::sim::microseconds(static_cast<std::int64_t>(us));
    } else if (a == "--skew-us") {
      std::uint64_t us;
      ok = next_u64(&us);
      cfg.max_clock_skew =
          fabec::sim::microseconds(static_cast<std::int64_t>(us));
    }
    else if (a == "--crashes") ok = next_u32(&cfg.nemesis.crashes);
    else if (a == "--partitions") ok = next_u32(&cfg.nemesis.partitions);
    else if (a == "--isolations") ok = next_u32(&cfg.nemesis.isolations);
    else if (a == "--drop-ramps") ok = next_u32(&cfg.nemesis.drop_ramps);
    else if (a == "--jitter-ramps") ok = next_u32(&cfg.nemesis.jitter_ramps);
    else if (a == "--midphase") ok = next_u32(&cfg.nemesis.mid_phase_crashes);
    else if (a == "--blackouts") ok = next_u32(&cfg.nemesis.quorum_blackouts);
    else if (a == "--dup-ramps") ok = next_u32(&cfg.nemesis.dup_ramps);
    else if (a == "--bit-rots") ok = next_u32(&cfg.nemesis.bit_rots);
    else if (a == "--batch-frames") cfg.batch_frames = true;
    else if (a == "--deadline-us") {
      std::uint64_t us;
      ok = next_u64(&us);
      cfg.op_deadline = fabec::sim::microseconds(static_cast<std::int64_t>(us));
    }
    else if (a == "--retries") {
      std::uint32_t retries = 0;
      ok = next_u32(&retries);
      cfg.retry.max_attempts = retries + 1;
    }
    else if (a == "--read-cache") cfg.read_cache = true;
    else if (a == "--no-read-cache") cfg.read_cache = false;
    else if (a == "--verbose") opt->verbose = true;
    else if (a == "--help" || a == "-h") { usage(argv[0]); std::exit(0); }
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "flag %s needs a value\n", a.c_str());
      return false;
    }
  }
  return true;
}

void print_result(const CampaignResult& r, bool verbose) {
  if (verbose) {
    std::printf(
        "seed %llu: %s  hash=%016llx  ops=%llu ok=%llu abort=%llu "
        "(after-send %llu) timeout=%llu retried=%llu crashed=%llu "
        "skipped=%llu  "
        "max-latency-us=%lld  crashes=%llu midphase=%llu partitions=%llu "
        "isolations=%llu blackouts=%llu ramps=%llu  events=%llu\n",
        static_cast<unsigned long long>(r.seed), r.ok ? "PASS" : "FAIL",
        static_cast<unsigned long long>(r.history_hash),
        static_cast<unsigned long long>(r.ops_issued),
        static_cast<unsigned long long>(r.ops_ok),
        static_cast<unsigned long long>(r.ops_aborted),
        static_cast<unsigned long long>(r.ops_aborted_after_send),
        static_cast<unsigned long long>(r.ops_timed_out),
        static_cast<unsigned long long>(r.ops_retried),
        static_cast<unsigned long long>(r.ops_crashed),
        static_cast<unsigned long long>(r.ops_skipped),
        static_cast<long long>(r.max_attempt_latency / 1000),
        static_cast<unsigned long long>(r.faults.crashes_injected),
        static_cast<unsigned long long>(r.faults.mid_phase_crashes),
        static_cast<unsigned long long>(r.faults.partitions),
        static_cast<unsigned long long>(r.faults.isolations),
        static_cast<unsigned long long>(r.faults.quorum_blackouts),
        static_cast<unsigned long long>(r.faults.net_ramps),
        static_cast<unsigned long long>(r.events_run));
    for (const std::string& line : r.fault_schedule)
      std::printf("  fault: %s\n", line.c_str());
  }
}

void print_disk_result(const DiskCampaignResult& r, bool verbose) {
  if (!verbose) return;
  std::printf(
      "seed %llu: %s  hash=%016llx  rounds=%llu recoveries=%llu "
      "acked=%llu refused=%llu crashes=%llu flips=%llu  compactions=%llu "
      "(failed %llu) rolls=%llu tail-dropped=%lluB snap-rejected=%llu "
      "replayed=%llu corrupt-detected=%llu max-wal=%lluB\n",
      static_cast<unsigned long long>(r.seed), r.ok ? "PASS" : "FAIL",
      static_cast<unsigned long long>(r.state_hash),
      static_cast<unsigned long long>(r.rounds_run),
      static_cast<unsigned long long>(r.recoveries),
      static_cast<unsigned long long>(r.writes_acked),
      static_cast<unsigned long long>(r.appends_refused),
      static_cast<unsigned long long>(r.crashes_injected),
      static_cast<unsigned long long>(r.bit_flips_injected),
      static_cast<unsigned long long>(r.compactions),
      static_cast<unsigned long long>(r.compaction_failures),
      static_cast<unsigned long long>(r.journal_rolls),
      static_cast<unsigned long long>(r.journal_tail_dropped_bytes),
      static_cast<unsigned long long>(r.snapshots_rejected),
      static_cast<unsigned long long>(r.journal_entries_replayed),
      static_cast<unsigned long long>(r.detected_corruptions),
      static_cast<unsigned long long>(r.max_journal_bytes));
}

/// Sweeps seeds through the single-brick disk-fault campaign.
int run_disk_sweep(const Options& opt, std::uint64_t first,
                   std::uint64_t count) {
  std::uint64_t failures = 0;
  for (std::uint64_t s = first; s < first + count; ++s) {
    const DiskCampaignResult r =
        fabec::chaos::run_disk_campaign(opt.disk, s);
    print_disk_result(r, opt.verbose);
    if (!r.ok) {
      ++failures;
      std::printf("seed %llu FAILED: %s\n",
                  static_cast<unsigned long long>(s), r.violation.c_str());
      std::printf("replay: %s\n",
                  fabec::chaos::disk_replay_command(opt.disk, s).c_str());
    }
    if ((s - first + 1) % 50 == 0 && !opt.verbose)
      std::printf("... %llu/%llu campaigns, %llu failures\n",
                  static_cast<unsigned long long>(s - first + 1),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(failures));
  }
  std::printf("%llu disk campaigns (%s), %llu failures\n",
              static_cast<unsigned long long>(count),
              fabec::chaos::to_string(opt.disk.profile),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    usage(argv[0]);
    return 2;
  }

  std::uint64_t first = opt.start_seed;
  std::uint64_t count = opt.seeds;
  if (opt.replay != 0) {
    first = opt.replay;
    count = 1;
    opt.verbose = true;
  }

  if (opt.disk_mode) return run_disk_sweep(opt, first, count);

  std::uint64_t failures = 0;
  for (std::uint64_t s = first; s < first + count; ++s) {
    const CampaignResult r = fabec::chaos::run_campaign(opt.config, s);
    print_result(r, opt.verbose);
    if (!r.ok) {
      ++failures;
      std::printf("seed %llu FAILED: %s\n",
                  static_cast<unsigned long long>(s), r.violation.c_str());
      std::printf("replay: %s\n",
                  fabec::chaos::replay_command(opt.config, s).c_str());
    }
    if ((s - first + 1) % 50 == 0 && !opt.verbose)
      std::printf("... %llu/%llu campaigns, %llu failures\n",
                  static_cast<unsigned long long>(s - first + 1),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(failures));
  }
  std::printf("%llu campaigns, %llu failures\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
