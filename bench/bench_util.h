// Shared helpers for the table/figure reproduction harnesses.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "src/common/format.h"
#include "src/common/rng.h"
#include "src/obs/json_util.h"
#include "src/obs/publish.h"
#include "src/obs/registry.h"
#include "src/sched/types.h"
#include "src/sim/metrics.h"
#include "src/workload/workload.h"

namespace eva {

// --- Process resource accounting for the perf harnesses -----------------

// Peak resident set size of this process so far, in MiB (0 when the
// platform offers no getrusage).
inline double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // Bytes.
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
#endif
#else
  return 0.0;
#endif
}

// Number of operator-new allocations since process start. Defined in
// bench_alloc_hooks.cc — the counting replacement operator new/delete —
// which bench/CMakeLists.txt links into every bench binary (and nothing
// else links, so library/test builds stay on the stock allocator).
std::uint64_t AllocationCount();

// A static packing problem: `num_tasks` single-task jobs sampled uniformly
// from the Table 7 workloads (the Table 4/5 micro-benchmark setup).
// `catalog` must outlive the returned context.
inline SchedulingContext MakeRandomTaskContext(int num_tasks, std::uint64_t seed,
                                               const InstanceCatalog& catalog) {
  Rng rng(seed);
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < num_tasks; ++i) {
    const WorkloadId workload =
        static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
    const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
    TaskInfo task;
    task.id = i;
    task.job = i;
    task.workload = workload;
    task.demand_p3 = spec.demand_p3;
    task.demand_cpu = spec.demand_cpu;
    context.tasks.push_back(task);
  }
  context.Finalize();
  return context;
}

inline void PrintBenchHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s)\n", title, paper_ref);
  std::printf("================================================================\n");
}

// Renders a run's end-of-run telemetry (counters/gauges/series from the
// registry protocol every engine publishes through) as a JSON object
// fragment, for embedding in a bench row under "telemetry".
inline std::string TelemetryJson(const SimulationMetrics& metrics) {
  TelemetryRegistry registry;
  PublishSimulationMetrics(metrics, &registry);
  return registry.ToJson();
}

// The machine a bench artifact was measured on, as a JSON object: nproc,
// CPU model, compiler and build type. Wall-time rows are only comparable
// between matching fingerprints; check_bench_regression.py warns when the
// baseline's differs from the current run's.
inline std::string MachineFingerprintJson() {
  std::string cpu_model = "unknown";
  if (std::FILE* cpuinfo = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), cpuinfo) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        if (const char* colon = std::strchr(line, ':')) {
          cpu_model = colon + 1;
          cpu_model.erase(0, cpu_model.find_first_not_of(" \t"));
          cpu_model.erase(cpu_model.find_last_not_of(" \t\n") + 1);
        }
        break;
      }
    }
    std::fclose(cpuinfo);
  }
#if defined(EVA_BENCH_BUILD_TYPE) && defined(EVA_BENCH_COMPILER)
  const std::string build_type = EVA_BENCH_BUILD_TYPE;
  const std::string compiler = EVA_BENCH_COMPILER;
#else
  const std::string build_type = "unknown";
  const std::string compiler = "unknown";
#endif
  std::string json = "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"cpu_model\": ";
  obs_internal::AppendJsonString(&json, cpu_model);
  json += ", \"compiler\": ";
  obs_internal::AppendJsonString(&json, compiler);
  json += ", \"build_type\": ";
  obs_internal::AppendJsonString(&json, build_type.empty() ? "none" : build_type);
  json += "}";
  return json;
}

// Machine-readable results, opted into with EVA_BENCH_JSON=<path>: each
// harness that supports it writes {"bench": ..., "machine": ...,
// "cases": [...]} with wall-time and throughput per case, so the repo's
// perf trajectory can be recorded across commits (see
// BENCH_scheduler_perf.json). "machine" is MachineFingerprintJson(). Every
// row carries "schema_version" (kBenchSchemaVersion); bump it when a row's
// layout changes incompatibly — check_bench_regression.py validates it.
class BenchJsonWriter {
 public:
  static constexpr int kSchemaVersion = 2;

  // The EVA_BENCH_JSON destination, or nullptr when JSON output is off.
  static const char* OutputPath() { return std::getenv("EVA_BENCH_JSON"); }

  void AddCase(const std::string& name, int jobs, double wall_seconds,
               std::int64_t events, double events_per_sec) {
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"schema_version\": %d, \"jobs\": %d, "
                  "\"wall_seconds\": %.6f, \"events\": " EVA_PRId64
                  ", \"events_per_sec\": %.1f}",
                  name.c_str(), kSchemaVersion, jobs, wall_seconds, events,
                  events_per_sec);
    cases_.emplace_back(buffer);
  }

  // Engine case plus the scheduler decision-path breakdown: rounds (split
  // into invoked vs. coalesced), total wall time inside the scheduler, the
  // per-round decision latency, process peak RSS / allocation count at the
  // end of the case (the scale sweep's memory-behavior tracking), and the
  // incremental fast path's pack/fallback/reconciliation counters (all zero
  // on exact-mode cases).
  // `telemetry`, when non-empty, is a ready-made JSON object (typically
  // TelemetryJson(metrics)) embedded under a "telemetry" key, giving the
  // row the full registry view alongside the flat gate columns.
  void AddCaseWithScheduler(const std::string& name, int jobs, double wall_seconds,
                            std::int64_t events, double events_per_sec,
                            std::int64_t rounds, std::int64_t rounds_coalesced,
                            double sched_wall_seconds, double sched_us_per_round,
                            double peak_rss_mb, std::uint64_t allocs,
                            const SchedulerCounters& counters,
                            const std::string& telemetry = std::string()) {
    char buffer[1024];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"schema_version\": %d, \"jobs\": %d, "
                  "\"wall_seconds\": %.6f, "
                  "\"events\": " EVA_PRId64 ", \"events_per_sec\": %.1f, "
                  "\"rounds\": " EVA_PRId64 ", "
                  "\"rounds_coalesced\": " EVA_PRId64 ", "
                  "\"sched_wall_seconds\": %.6f, \"sched_us_per_round\": %.2f, "
                  "\"peak_rss_mb\": %.1f, \"allocs\": " EVA_PRIu64 ", "
                  "\"packs_full\": %d, \"packs_incremental\": %d, "
                  "\"packs_escalated\": %d, \"reconciliations\": %d, "
                  "\"escalations\": %d, \"fallback_incomplete_delta\": %d, "
                  "\"fallback_oversized_delta\": %d, \"fallback_no_previous\": %d, "
                  "\"max_divergence_cost\": %.6f, \"max_divergence_edits\": %d, "
                  "\"max_kept_staleness\": %d",
                  name.c_str(), kSchemaVersion, jobs, wall_seconds, events,
                  events_per_sec, rounds, rounds_coalesced, sched_wall_seconds,
                  sched_us_per_round, peak_rss_mb, allocs, counters.packs_full,
                  counters.packs_incremental, counters.packs_escalated,
                  counters.reconciliations, counters.escalations,
                  counters.fallback_incomplete_delta, counters.fallback_oversized_delta,
                  counters.fallback_no_previous, counters.max_divergence_cost,
                  counters.max_divergence_edits, counters.max_kept_staleness);
    std::string line(buffer);
    if (!telemetry.empty()) {
      line += ", \"telemetry\": " + telemetry;
    }
    line += "}";
    cases_.push_back(std::move(line));
  }

  // Approximation-quality row: the same trace replayed in exact and
  // incremental mode, with the relative cost/JCT deltas the CI quality gate
  // checks (cost_delta may be negative when the approximation is cheaper).
  void AddQualityCase(const std::string& name, int jobs, double cost_exact,
                      double cost_incremental, double cost_delta, double jct_exact_hours,
                      double jct_incremental_hours, double jct_delta,
                      std::int64_t jobs_completed_exact,
                      std::int64_t jobs_completed_incremental) {
    char buffer[640];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"schema_version\": %d, \"jobs\": %d, "
                  "\"cost_exact\": %.4f, "
                  "\"cost_incremental\": %.4f, \"cost_delta\": %.6f, "
                  "\"jct_exact_hours\": %.6f, \"jct_incremental_hours\": %.6f, "
                  "\"jct_delta\": %.6f, \"jobs_completed_exact\": " EVA_PRId64
                  ", \"jobs_completed_incremental\": " EVA_PRId64 "}",
                  name.c_str(), kSchemaVersion, jobs, cost_exact, cost_incremental,
                  cost_delta, jct_exact_hours, jct_incremental_hours, jct_delta,
                  jobs_completed_exact, jobs_completed_incremental);
    cases_.emplace_back(buffer);
  }

  // Free-form case: `fields` is a ready-made JSON fragment appended after
  // the name (e.g. "\"cost\": 12.5, \"denied\": 3") — the escape hatch for
  // harnesses whose metrics do not fit the fixed schemas above
  // (bench_federation's per-tenant and provider-level rows).
  void AddCaseFields(const std::string& name, const std::string& fields) {
    std::string line = "    {\"name\": \"" + name + "\", \"schema_version\": " +
                       std::to_string(kSchemaVersion);
    if (!fields.empty()) {
      line += ", " + fields;
    }
    line += "}";
    cases_.push_back(std::move(line));
  }

  // Writes the collected cases; returns false (with a message) on I/O error.
  bool WriteTo(const char* path, const char* bench_name) const {
    FILE* file = std::fopen(path, "w");
    if (file == nullptr) {
      std::fprintf(stderr, "EVA_BENCH_JSON: cannot write %s\n", path);
      return false;
    }
    std::fprintf(file, "{\n  \"bench\": \"%s\",\n  \"machine\": %s,\n  \"cases\": [\n",
                 bench_name, MachineFingerprintJson().c_str());
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      std::fprintf(file, "%s%s\n", cases_[i].c_str(), i + 1 < cases_.size() ? "," : "");
    }
    std::fprintf(file, "  ]\n}\n");
    std::fclose(file);
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  std::vector<std::string> cases_;
};

}  // namespace eva

#endif  // BENCH_BENCH_UTIL_H_
