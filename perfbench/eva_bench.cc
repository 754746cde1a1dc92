// The repository benchmark's measuring program.
//
//   eva_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Untraced (--trace 0): replays the workload repeatedly for --seconds with
// only the per-round timer on and prints the end-to-end metrics, timings in
// wall time as the best of the replays. Traced (--trace 1): alternates
// untraced and traced replays, prints the per-layer metrics of the median
// traced replay, the per-round latency of the untraced ones, the tracing
// overhead and the cold decision-path costs, and writes that replay's spans
// to <dir>/spans-<workload>-seed<n>.json.
//
// Every run first replays the same inputs through the program's plain entry
// point (RunSimulation; for the federation, a one-thread RunFederation) and
// requires every measured replay to match it bit-exactly. On a mismatch the
// run prints no metrics and exits 1. The last line of standard output is
// the JSON result {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.h"
#include "src/common/stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using eva::Median;
using eva::Quantile;

// Set-up-only passes per replay, spread over the run so that setup_s (a
// median) sees the same machine state as the replays.
constexpr int kSetupsPerReplay = 25;

struct Args {
  Workload workload = Workload::kOpen10k;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (args->seconds <= 0.0) {
        errno = EINVAL;
      }
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        errno = EINVAL;
      }
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
    if (errno != 0 || (end != nullptr && *end != '\0')) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(), flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload) {
    std::fprintf(stderr,
                 "usage: eva_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

// Metrics in print order; the JSON result carries them all.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit,
           const std::string& note = std::string()) {
    entries_.push_back({name, value, unit, note});
  }

  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-26s %16.6f %-8s %s\n", e.name.c_str(), e.value, e.unit, e.note.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buffer[256];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buffer;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string mismatch;  // Non-empty: the correctness gate failed.

  void Count(const eva::SimulationMetrics& m) {
    attempted += m.jobs_submitted;
    failed += m.jobs_submitted - m.jobs_completed;
  }
};

void PrintResultLine(bool correct, const Outcome& outcome, const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed),
              correct ? report.Json().c_str() : "{}");
}

// Simulated outcome metrics, identical on every replay of one seed.
void AddOutcomeMetrics(Report& report, double cost, double jct_hours, std::int64_t submitted,
                       std::int64_t completed) {
  report.Add("cost_usd", cost, "usd", "simulated provisioning cost (deterministic)");
  report.Add("jct_h", jct_hours, "h", "simulated mean JCT, job-weighted (deterministic)");
  const double done = Ratio(static_cast<double>(completed), static_cast<double>(submitted));
  report.Add("jobs_done_frac", done, "ratio",
             "completed/submitted; jobs_lost_frac = " + std::to_string(1.0 - done));
}

std::string CountNote(std::size_t samples, double q) {
  const auto beyond = static_cast<std::size_t>(static_cast<double>(samples) * (1.0 - q));
  return std::to_string(samples) + " samples, " + std::to_string(beyond) + " beyond";
}

// Best of a run's replays, as the repository's bench drivers report them:
// replays of one input do identical work, so the fastest is the one the
// machine disturbed least, and noise on a shared host only ever slows a
// replay. Round samples line up across replays (the i-th round of a
// deterministic run), so each keeps its own best before the quantiles are
// taken. Every gated time is wall time.
struct BestOf {
  std::size_t replays = 0;
  double jobs_per_s = 0.0;      // Per wall second.
  double cpu_jobs_per_s = 0.0;  // Per process CPU second (all threads); printed, not gated.
  double decision_ms = 0.0;     // Program-measured scheduler wall per scheduling round.
  std::vector<double> round_ms;

  // False when the replay's round samples do not line up with the earlier
  // replays' — a nondeterministic run.
  bool Add(double jobs, double wall_s, double cpu_s, double scheduler_wall_s,
           std::int64_t rounds, const std::vector<double>& replay_round_ms) {
    const double replay_decision_ms = Ratio(scheduler_wall_s * 1e3, static_cast<double>(rounds));
    if (replays == 0) {
      round_ms = replay_round_ms;
      decision_ms = replay_decision_ms;
    } else if (replay_round_ms.size() != round_ms.size()) {
      return false;
    } else {
      for (std::size_t i = 0; i < round_ms.size(); ++i) {
        round_ms[i] = std::min(round_ms[i], replay_round_ms[i]);
      }
      decision_ms = std::min(decision_ms, replay_decision_ms);
    }
    jobs_per_s = std::max(jobs_per_s, jobs / wall_s);
    cpu_jobs_per_s = std::max(cpu_jobs_per_s, jobs / cpu_s);
    ++replays;
    return true;
  }

  void AddTo(Report& report, const std::string& replay_note) const {
    char cpu[64];
    std::snprintf(cpu, sizeof(cpu), "; per CPU second %.1f", cpu_jobs_per_s);
    report.Add("jobs_per_s", jobs_per_s, "jobs/s",
               "per wall second of " + replay_note + ", best of " + std::to_string(replays) +
                   " replays" + cpu);
    report.Add("decision_ms_per_round", decision_ms, "ms",
               "program-measured scheduler wall (observe + decide) / scheduling rounds");
  }

  // The per-round latency a live master pays: wall time of each
  // ProcessEventsThrough at a round time.
  void AddRoundQuantiles(Report& report) const {
    report.Add("sim.round_ms_p50", Quantile(round_ms, 0.5), "ms",
               "wall per ProcessEventsThrough, untraced replays");
    report.Add("sim.round_ms_p99", Quantile(round_ms, 0.99), "ms",
               CountNote(round_ms.size(), 0.99));
  }
};

void PrintLayerShares(const std::vector<std::pair<std::string, double>>& shares,
                      double wall) {
  std::printf("layer self time as a share of the traced replay wall (%.4f s):\n", wall);
  const std::pair<std::string, double>* top = nullptr;
  for (const auto& share : shares) {
    std::printf("  %-34s %10.4f s  %5.1f%%\n", share.first.c_str(), share.second,
                100.0 * Ratio(share.second, wall));
    if (top == nullptr || share.second > top->second) {
      top = &share;
    }
  }
  if (top != nullptr) {
    std::printf("dominant layer: %s (%.1f%% of replay wall)\n", top->first.c_str(),
                100.0 * Ratio(top->second, wall));
  }
}

bool WriteFile(const std::string& path, const std::string& content) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(content.data(), 1, content.size(), file) == content.size();
  return std::fclose(file) == 0 && ok;
}

std::string SpansPath(const Args& args) {
  return args.out_dir + "/spans-" + WorkloadName(args.workload) + "-seed" +
         std::to_string(args.seed) + ".json";
}

// ---- Single-simulator workloads ------------------------------------------

void AddSingleLayerMetrics(Report& report, const SingleReplay& r, const BestOf& untraced,
                           double overhead_frac) {
  const std::map<std::string, SpanRecorder::Totals> totals = r.spans.Summarize();
  const auto total = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second.total_s : 0.0;
  };
  const auto self = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it != totals.end() ? it->second.self_s : 0.0;
  };
  const eva::SimulationMetrics& m = r.metrics;
  const eva::SchedulerCounters& c = m.scheduler_counters;
  std::vector<double> decide_ms = r.spans.Durations("decide");
  for (double& d : decide_ms) {
    d *= 1e3;
  }
  const double events = static_cast<double>(m.events_processed);

  report.Add("sim.advance_s", total("advance"), "s", "engine: AdvanceUntil spans");
  report.Add("sim.events", events, "count");
  report.Add("sim.advance_ns_per_event", Ratio(total("advance") * 1e9, events), "ns/event");
  report.Add("sim.rounds", static_cast<double>(m.scheduling_rounds), "count",
             "scheduling rounds, coalesced included");
  report.Add("sim.round_s", total("round"), "s", "ProcessEventsThrough spans");
  report.Add("sim.round_self_s", self("round"), "s",
             "round minus observe/decide/coalesce: context, validation, diff, apply");
  untraced.AddRoundQuantiles(report);
  report.Add("sched.observe_s", total("observe"), "s");
  report.Add("core.decide_s", total("decide"), "s", "ScheduleInto spans");
  report.Add("core.decide_calls", static_cast<double>(r.decide_calls), "count");
  report.Add("core.decide_ms_p50", Quantile(decide_ms, 0.5), "ms");
  report.Add("core.decide_ms_p99", Quantile(decide_ms, 0.99), "ms",
             CountNote(decide_ms.size(), 0.99));
  report.Add("core.tasks_per_decide",
             Ratio(static_cast<double>(r.decide_tasks), static_cast<double>(r.decide_calls)),
             "tasks");
  report.Add("core.coalesce_s", total("coalesce"), "s");
  report.Add("core.rounds_coalesced", static_cast<double>(m.rounds_coalesced), "count");
  report.Add("core.rounds_reused", r.eva_stats.rounds_reused, "count");
  report.Add("core.packs_full", c.packs_full, "count");
  report.Add("core.packs_incremental", c.packs_incremental, "count");
  report.Add("core.reconciliations", c.reconciliations, "count");

  const double granted = static_cast<double>(m.instances_launched);
  const double denied = static_cast<double>(m.acquisitions_denied);
  report.Add("cloud.granted", granted, "count", "instances launched");
  report.Add("cloud.denied", denied, "count");
  report.Add("cloud.admit_ratio", Ratio(granted, granted + denied), "ratio");
  report.Add("cloud.spot_preemptions", static_cast<double>(m.spot_preemptions), "count");

  for (const char* name : {"federation.setup_s", "federation.advance_s", "federation.round_s"}) {
    report.Add(name, 0.0, "s", "n/a: no federation driver on this workload");
  }
  report.Add("federation.barriers", 0.0, "count", "n/a");
  report.Add("federation.serial_share", 0.0, "ratio", "n/a");
  report.Add("workload.trace_gen_s", r.trace_gen_s, "s");

  report.Add("sched.tnrp_us_per_ctx", r.cold.tnrp_us, "us",
             "cold public-call cost, " + std::to_string(r.cold.contexts) + " contexts");
  report.Add("core.full_us_per_ctx", r.cold.full_us, "us", "cold FullReconfigurationInto");
  report.Add("core.partial_us_per_ctx", r.cold.partial_us, "us",
             "cold PartialReconfigurationInto");
  report.Add("sched.diff_us_per_ctx", r.cold.diff_us, "us", "cold DiffConfigInto");

  report.Add("trace.replay_s", r.replay_s, "s", "traced replay wall");
  report.Add("trace.unattributed_s", self("replay"), "s",
             "replay self time: stepping loop, Finish");
  report.Add("trace.overhead_frac", overhead_frac, "ratio",
             "1 - traced/untraced best jobs_per_s");

  PrintLayerShares({{"sim engine (advance)", self("advance")},
                    {"sim round orchestration (self)", self("round")},
                    {"sched observation", self("observe")},
                    {"core decision", self("decide")},
                    {"core coalesce", self("coalesce")},
                    {"unattributed", self("replay")}},
                   r.replay_s);
}

int RunSingle(const Args& args) {
  const eva::SimulationMetrics reference = ReferenceSingle(args.workload, args.seed);
  std::printf("reference: RunSimulation, %lld events, %lld rounds, %lld/%lld jobs\n",
              static_cast<long long>(reference.events_processed),
              static_cast<long long>(reference.scheduling_rounds),
              static_cast<long long>(reference.jobs_completed),
              static_cast<long long>(reference.jobs_submitted));

  Outcome outcome;
  std::vector<double> setup_s;
  std::vector<SingleReplay> traced;
  BestOf untraced_best;
  BestOf traced_best;
  const auto check = [&](const SingleReplay& r) {
    if (outcome.mismatch.empty()) {
      outcome.mismatch = CompareSingle(reference, r.metrics);
    }
    outcome.Count(r.metrics);
    for (int i = 0; i < kSetupsPerReplay; ++i) {
      setup_s.push_back(SetupSingle(args.workload, args.seed));
    }
    return static_cast<double>(r.metrics.jobs_completed);
  };

  const auto start = Clock::now();
  do {
    SingleReplay plain;
    ReplaySingle(args.workload, args.seed, ReplayOptions{}, &plain);
    if (!untraced_best.Add(check(plain), plain.replay_s, plain.replay_cpu_s,
                           plain.metrics.scheduler_wall_seconds,
                           plain.metrics.scheduling_rounds, plain.round_ms) &&
        outcome.mismatch.empty()) {
      outcome.mismatch = "round count differs between replays";
    }
    if (args.trace) {
      ReplayOptions options;
      options.traced = true;
      if (traced.empty()) {
        // Sample ~kCaptureLimit decision contexts across the first traced replay.
        const auto calls = static_cast<std::size_t>(plain.metrics.scheduling_rounds -
                                                    plain.metrics.rounds_coalesced);
        options.capture_every =
            static_cast<int>(std::max<std::size_t>(1, calls / kCaptureLimit));
      }
      traced.emplace_back();
      SingleReplay& r = traced.back();
      ReplaySingle(args.workload, args.seed, options, &r);
      if (!traced_best.Add(check(r), r.replay_s, r.replay_cpu_s, r.metrics.scheduler_wall_seconds,
                           r.metrics.scheduling_rounds, r.round_ms) &&
          outcome.mismatch.empty()) {
        outcome.mismatch = "round count differs between replays";
      }
      r.cold = traced.front().cold;
    }
  } while (outcome.mismatch.empty() && SecondsSince(start) < args.seconds);

  Report report;
  if (outcome.mismatch.empty()) {
    if (!args.trace) {
      untraced_best.AddTo(report, "Start to Finish");
      report.Add("setup_s", Median(setup_s), "s",
                 "wall, median of " + std::to_string(setup_s.size()) + " set-ups");
      report.Add("peak_rss_mb", PeakRssMb(), "MiB");
      AddOutcomeMetrics(report, reference.total_cost, reference.avg_jct_hours,
                        reference.jobs_submitted, reference.jobs_completed);
    } else {
      // Per-layer figures come from the traced replay of median wall time.
      std::vector<std::size_t> order(traced.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      std::sort(order.begin(), order.end(), [&traced](std::size_t a, std::size_t b) {
        return traced[a].replay_s < traced[b].replay_s;
      });
      const SingleReplay& median = traced[order[order.size() / 2]];
      const double overhead = 1.0 - Ratio(traced_best.jobs_per_s, untraced_best.jobs_per_s);
      AddSingleLayerMetrics(report, median, untraced_best, overhead);
      if (!WriteFile(SpansPath(args), median.spans.ToJson())) {
        return 1;
      }
      std::printf("spans: %s (%zu spans)\n", SpansPath(args).c_str(),
                  median.spans.spans().size());
    }
  }
  std::printf("gate: stepped, decorated replay vs RunSimulation (cost, JCT, events, rounds, "
              "jobs completed): %s\n",
              outcome.mismatch.empty() ? "bit-exact" : ("MISMATCH " + outcome.mismatch).c_str());
  report.Print();
  PrintResultLine(outcome.mismatch.empty(), outcome, report);
  return outcome.mismatch.empty() ? 0 : 1;
}

// ---- Federation workload ---------------------------------------------------

struct FedTotals {
  double cost = 0.0;
  double jct_weighted = 0.0;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t events = 0;
  std::int64_t rounds = 0;
  std::int64_t coalesced = 0;
  double scheduler_wall_s = 0.0;
  eva::SchedulerCounters counters;
};

FedTotals Totals(const eva::FederationResult& result) {
  FedTotals t;
  for (const eva::FederationResult::Tenant& tenant : result.tenants) {
    const eva::SimulationMetrics& m = tenant.metrics;
    t.cost += m.total_cost;
    t.jct_weighted += m.avg_jct_hours * static_cast<double>(m.jobs_completed);
    t.submitted += m.jobs_submitted;
    t.completed += m.jobs_completed;
    t.events += m.events_processed;
    t.rounds += m.scheduling_rounds;
    t.coalesced += m.rounds_coalesced;
    t.scheduler_wall_s += m.scheduler_wall_seconds;
    t.counters.packs_full += m.scheduler_counters.packs_full;
    t.counters.packs_incremental += m.scheduler_counters.packs_incremental;
    t.counters.reconciliations += m.scheduler_counters.reconciliations;
  }
  return t;
}

void AddFedLayerMetrics(Report& report, const FedReplay& r) {
  const FedTotals t = Totals(r.result);
  const eva::FederationStats& stats = r.result.stats;
  const eva::CloudProviderMetrics& provider = r.result.provider;
  const char* kNa = "n/a: inside RunFederation, not reachable from outside";

  report.Add("sim.advance_s", 0.0, "s", kNa);
  report.Add("sim.events", static_cast<double>(t.events), "count", "all tenants");
  report.Add("sim.advance_ns_per_event", 0.0, "ns/event", kNa);
  report.Add("sim.rounds", static_cast<double>(t.rounds), "count", "all tenants");
  report.Add("sim.round_s", 0.0, "s", kNa);
  report.Add("sim.round_self_s", 0.0, "s", kNa);
  report.Add("sim.round_ms_p50", 0.0, "ms", kNa);
  report.Add("sim.round_ms_p99", 0.0, "ms", kNa);
  report.Add("sched.observe_s", 0.0, "s", kNa);
  report.Add("core.decide_s", t.scheduler_wall_s, "s",
             "program-measured scheduler wall (observe+decide), summed over tenants");
  report.Add("core.decide_calls", static_cast<double>(t.rounds - t.coalesced), "count");
  report.Add("core.decide_ms_p50", 0.0, "ms", kNa);
  report.Add("core.decide_ms_p99", 0.0, "ms", kNa);
  report.Add("core.tasks_per_decide", 0.0, "tasks", kNa);
  report.Add("core.coalesce_s", 0.0, "s", kNa);
  report.Add("core.rounds_coalesced", static_cast<double>(t.coalesced), "count");
  report.Add("core.rounds_reused", 0.0, "count", kNa);
  report.Add("core.packs_full", t.counters.packs_full, "count");
  report.Add("core.packs_incremental", t.counters.packs_incremental, "count");
  report.Add("core.reconciliations", t.counters.reconciliations, "count");

  const double granted = static_cast<double>(provider.TotalGranted());
  const double denied = static_cast<double>(provider.TotalDenied());
  report.Add("cloud.granted", granted, "count", "CloudProviderMetrics");
  report.Add("cloud.denied", denied, "count");
  report.Add("cloud.admit_ratio", Ratio(granted, granted + denied), "ratio");
  report.Add("cloud.spot_preemptions", static_cast<double>(provider.TotalPreempted()),
             "count");

  report.Add("federation.setup_s", stats.setup_wall_s, "s", "program-measured FederationStats");
  report.Add("federation.advance_s", stats.advance_wall_s, "s",
             "program-measured FederationStats");
  report.Add("federation.round_s", stats.round_wall_s, "s", "program-measured FederationStats");
  report.Add("federation.barriers", static_cast<double>(stats.barriers), "count");
  report.Add("federation.serial_share", stats.SerialShare(), "ratio");
  report.Add("workload.trace_gen_s", r.trace_gen_s, "s", "base trace + 100 shards");

  for (const char* name : {"sched.tnrp_us_per_ctx", "core.full_us_per_ctx",
                           "core.partial_us_per_ctx", "sched.diff_us_per_ctx"}) {
    report.Add(name, 0.0, "us", "n/a: contexts are not reachable inside RunFederation");
  }

  const double attributed = stats.setup_wall_s + stats.advance_wall_s + stats.round_wall_s;
  report.Add("trace.replay_s", r.replay_s, "s", "RunFederation wall");
  report.Add("trace.unattributed_s", r.replay_s - attributed, "s",
             "RunFederation wall minus its setup/advance/round walls (Finish, report)");
  report.Add("trace.overhead_frac", 0.0, "ratio",
             "n/a: the traced run adds no spans inside RunFederation");

  PrintLayerShares({{"federation setup (program-measured)", stats.setup_wall_s},
                    {"federation advance (program-measured)", stats.advance_wall_s},
                    {"federation round (program-measured)", stats.round_wall_s},
                    {"unattributed", r.replay_s - attributed}},
                   r.replay_s);
}

int RunFed(const Args& args) {
  FedReplay reference;
  ReplayFed(args.seed, /*num_threads=*/1, &reference);
  const FedTotals ref = Totals(reference.result);
  std::printf("reference: RunFederation on 1 thread, %lld events, %lld/%lld jobs\n",
              static_cast<long long>(ref.events), static_cast<long long>(ref.completed),
              static_cast<long long>(ref.submitted));

  Outcome outcome;
  // setup_s adds two wall-time medians: trace and shard generation (also
  // sampled in set-up-only passes) and the program-measured RunFederation
  // set-up.
  std::vector<double> shard_setup_s;
  std::vector<double> federation_setup_s;
  BestOf best;
  std::vector<FedReplay> replays;
  const auto start = Clock::now();
  do {
    replays.emplace_back();
    FedReplay& r = replays.back();
    ReplayFed(args.seed, /*num_threads=*/0, &r);
    if (outcome.mismatch.empty()) {
      outcome.mismatch = CompareFed(reference.result, r.result);
    }
    const FedTotals t = Totals(r.result);
    outcome.attempted += t.submitted;
    outcome.failed += t.submitted - t.completed;
    shard_setup_s.push_back(r.trace_gen_s);
    federation_setup_s.push_back(r.result.stats.setup_wall_s);
    for (int i = 0; i < kSetupsPerReplay; ++i) {
      shard_setup_s.push_back(ShardSetupFed(args.seed));
    }
    best.Add(static_cast<double>(t.completed), r.replay_s, r.replay_cpu_s, t.scheduler_wall_s,
             t.rounds, {});
  } while (outcome.mismatch.empty() && SecondsSince(start) < args.seconds);

  Report report;
  if (outcome.mismatch.empty()) {
    if (!args.trace) {
      best.AddTo(report, "RunFederation");
      report.Add("setup_s", Median(shard_setup_s) + Median(federation_setup_s), "s",
                 "wall, median of " + std::to_string(shard_setup_s.size()) +
                     " trace+shard set-ups + median RunFederation set-up");
      report.Add("peak_rss_mb", PeakRssMb(), "MiB");
      const double jct_hours = Ratio(ref.jct_weighted, static_cast<double>(ref.completed));
      AddOutcomeMetrics(report, ref.cost, jct_hours, ref.submitted, ref.completed);
    } else {
      // Every layer figure here is program-measured; the traced run only
      // picks the RunFederation call of median wall time.
      std::sort(replays.begin(), replays.end(),
                [](const FedReplay& a, const FedReplay& b) { return a.replay_s < b.replay_s; });
      AddFedLayerMetrics(report, replays[replays.size() / 2]);
    }
  }
  std::printf("gate: RunFederation on the default pool vs 1 thread (per-tenant cost, JCT, "
              "events, rounds, jobs completed; provider tallies): %s\n",
              outcome.mismatch.empty() ? "bit-identical"
                                       : ("MISMATCH " + outcome.mismatch).c_str());
  report.Print();
  PrintResultLine(outcome.mismatch.empty(), outcome, report);
  return outcome.mismatch.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  std::printf("workload %s, seed %llu%s, %s, %.0f s\n", perfbench::WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed),
              args.seed == perfbench::kDefaultSeed ? " (default: historical bench inputs)"
              : args.workload == perfbench::Workload::kCapped2k
                  ? " (this workload's input does not depend on the seed)"
              : args.seed == perfbench::kHeldOutSeed ? " (held-out)"
                                                     : "",
              args.trace ? "traced" : "untraced", args.seconds);
  std::printf("build: %s, compiler %s\n", EVA_BENCH_BUILD_TYPE, EVA_BENCH_COMPILER);
  return args.workload == perfbench::Workload::kFed100 ? perfbench::RunFed(args)
                                                       : perfbench::RunSingle(args);
}
