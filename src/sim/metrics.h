// Simulation output metrics — everything the paper's tables report.

#ifndef SRC_SIM_METRICS_H_
#define SRC_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sched/types.h"
#include "src/sim/event_queue.h"

namespace eva {

// Fault-injection accounting (src/cloud/fault_injector.h). All zero when
// faults are disabled, the default — a fault-free run's metrics are
// bit-identical to a build without the subsystem.
struct FaultStats {
  // Faults injected, by kind.
  std::int64_t zone_outages = 0;
  std::int64_t correlated_failures = 0;  // Bursts, not individual victims.
  std::int64_t maintenance_drains = 0;   // Zone drains started.

  // Instances destroyed abruptly (outage / burst / expired drain notice)
  // and instances put into a graceful drain.
  std::int64_t instances_killed = 0;
  std::int64_t instances_drained = 0;

  // Tasks evicted gracefully (checkpoint-then-pend) and containers
  // destroyed with work in flight (the abrupt paths).
  std::int64_t tasks_evicted = 0;
  std::int64_t tasks_lost = 0;

  // Executing time destroyed with lost containers: progress since the
  // container's launch that no checkpoint preserved.
  double lost_work_seconds = 0.0;

  // Re-placement latency: first fault disruption of a task to its next
  // successful container launch. Tasks still unplaced at the end of the
  // run are not sampled.
  std::int64_t replacements_completed = 0;
  double replacement_latency_min_s = 0.0;
  double replacement_latency_median_s = 0.0;
  double replacement_latency_p95_s = 0.0;

  // Executed work / (executed + lost): 1.0 in a fault-free run, degrading
  // as outages destroy in-flight progress.
  double goodput_ratio = 1.0;
};

struct SimulationMetrics {
  std::string scheduler_name;
  std::string trace_name;

  // Total provisioning cost: sum over instances of uptime x hourly price.
  Money total_cost = 0.0;

  // Tally widths: every count that scales with the trace (or with fault
  // bursts) is 64-bit — the million-job tier and long federation horizons
  // can plausibly overflow 32-bit counters.
  std::int64_t jobs_submitted = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t tasks_total = 0;

  std::int64_t instances_launched = 0;
  std::int64_t task_migrations = 0;  // Moves of already-placed tasks.
  double migrations_per_task = 0.0;

  // Time-weighted average number of tasks per live instance.
  double avg_tasks_per_instance = 0.0;

  // Time-weighted allocation fraction per resource (allocated / provisioned).
  double avg_alloc_gpu = 0.0;
  double avg_alloc_cpu = 0.0;
  double avg_alloc_ram = 0.0;

  // Mean over completed jobs of standalone-work / time-spent-executing
  // (1.0 = no interference ever).
  double avg_norm_job_throughput = 0.0;

  double avg_jct_hours = 0.0;
  double avg_job_idle_hours = 0.0;  // JCT minus executing time.

  SimTime makespan_s = 0.0;

  // Scheduling decision points, *including* coalesced ones: the quiescence-
  // aware round trigger counts a skipped round here too, so the cadence
  // accounting (and the golden-pinned values) are independent of batching.
  std::int64_t scheduling_rounds = 0;

  // Rounds absorbed by Scheduler::CoalesceQuiescentRounds — decision points
  // at which the scheduler was never invoked because the engine certified
  // the round quiescent. scheduling_rounds - rounds_coalesced is the number
  // of actual Schedule calls.
  std::int64_t rounds_coalesced = 0;

  // Discrete events processed by the engine, in total and per SimEventType
  // (indexed by the enum value).
  std::int64_t events_processed = 0;
  std::array<std::int64_t, kNumSimEventTypes> events_by_type{};

  // Completion checks that did no work: superseded checks that popped
  // without running the handler, and armed checks that found no job done.
  std::int64_t events_noop = 0;

  // --- Cloud provider interactions (all 0 when the provider is disabled,
  // the default: infinite capacity, on-demand only) ---
  std::int64_t acquisitions_denied = 0;     // Launches refused by an exhausted pool.
  std::int64_t spot_instances_launched = 0; // Instances acquired on the spot tier.
  std::int64_t spot_preemptions = 0;        // Two-minute preemption warnings received.
  Money spot_cost = 0.0;                    // Portion of total_cost paid at spot rates.

  // Fault-injection accounting (all defaults when SimulatorOptions.faults
  // is off, the default).
  FaultStats faults;

  // Wall time spent inside the scheduler per run (ObserveThroughput +
  // Schedule, summed over rounds) — divided by scheduling_rounds this is
  // the per-round decision latency the perf benchmarks report. Measurement
  // only; never feeds back into the simulation.
  double scheduler_wall_seconds = 0.0;

  // Scheduler decision-path counters (Scheduler::ExportCounters), collected
  // at Finish. All zero for schedulers that don't export any; Eva populates
  // the incremental fast path's pack/fallback/reconciliation accounting.
  SchedulerCounters scheduler_counters;

  // Raw distributions for CDFs / percentile reporting (Figure 3).
  std::vector<double> instance_uptime_hours;
  std::vector<double> jct_hours;
};

}  // namespace eva

#endif  // SRC_SIM_METRICS_H_
