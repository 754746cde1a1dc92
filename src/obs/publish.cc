#include "src/obs/publish.h"

#include <string>

#include "src/sched/types.h"
#include "src/sim/event_queue.h"
#include "src/sim/federation.h"
#include "src/sim/metrics.h"

namespace eva {

void PublishSchedulerCounters(const SchedulerCounters& counters,
                              TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  registry->SetCounter("scheduler.packs_full", counters.packs_full);
  registry->SetCounter("scheduler.packs_incremental",
                       counters.packs_incremental);
  registry->SetCounter("scheduler.packs_escalated", counters.packs_escalated);
  registry->SetCounter("scheduler.reconciliations", counters.reconciliations);
  registry->SetCounter("scheduler.escalations", counters.escalations);
  registry->SetCounter("scheduler.fallback_incomplete_delta",
                       counters.fallback_incomplete_delta);
  registry->SetCounter("scheduler.fallback_oversized_delta",
                       counters.fallback_oversized_delta);
  registry->SetCounter("scheduler.fallback_no_previous",
                       counters.fallback_no_previous);
  registry->SetCounter("scheduler.last_divergence_edits",
                       counters.last_divergence_edits);
  registry->SetCounter("scheduler.max_divergence_edits",
                       counters.max_divergence_edits);
  registry->SetCounter("scheduler.max_kept_staleness",
                       counters.max_kept_staleness);
  registry->SetGauge("scheduler.last_divergence_cost",
                     counters.last_divergence_cost);
  registry->SetGauge("scheduler.max_divergence_cost",
                     counters.max_divergence_cost);
}

void PublishFaultStats(const FaultStats& faults, TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  registry->SetCounter("faults.zone_outages", faults.zone_outages);
  registry->SetCounter("faults.correlated_failures",
                       faults.correlated_failures);
  registry->SetCounter("faults.maintenance_drains", faults.maintenance_drains);
  registry->SetCounter("faults.instances_killed", faults.instances_killed);
  registry->SetCounter("faults.instances_drained", faults.instances_drained);
  registry->SetCounter("faults.tasks_evicted", faults.tasks_evicted);
  registry->SetCounter("faults.tasks_lost", faults.tasks_lost);
  registry->SetCounter("faults.replacements_completed",
                       faults.replacements_completed);
  registry->SetGauge("faults.lost_work_seconds", faults.lost_work_seconds);
  registry->SetGauge("faults.replacement_latency_min_s",
                     faults.replacement_latency_min_s);
  registry->SetGauge("faults.replacement_latency_median_s",
                     faults.replacement_latency_median_s);
  registry->SetGauge("faults.replacement_latency_p95_s",
                     faults.replacement_latency_p95_s);
  registry->SetGauge("faults.goodput_ratio", faults.goodput_ratio);
}

void PublishFederationStats(const FederationStats& stats,
                            TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  registry->SetCounter("federation.barriers", stats.barriers);
  registry->SetCounter("federation.round_participants",
                       stats.round_participants);
  // Deliberately no wall-clock gauges: registry output must be a
  // deterministic function of the run (bench rows already carry the wall
  // times as flat fields). SerialShare is a pure function of the counters.
  registry->SetGauge("federation.serial_share", stats.SerialShare());
}

void PublishSimulationMetrics(const SimulationMetrics& metrics,
                              TelemetryRegistry* registry) {
  if (registry == nullptr) return;
  registry->SetCounter("sim.jobs_submitted", metrics.jobs_submitted);
  registry->SetCounter("sim.jobs_completed", metrics.jobs_completed);
  registry->SetCounter("sim.tasks_total", metrics.tasks_total);
  registry->SetCounter("sim.instances_launched", metrics.instances_launched);
  registry->SetCounter("sim.task_migrations", metrics.task_migrations);
  registry->SetCounter("sim.scheduling_rounds", metrics.scheduling_rounds);
  registry->SetCounter("sim.rounds_coalesced", metrics.rounds_coalesced);
  registry->SetCounter("sim.events_processed", metrics.events_processed);
  for (int type = 0; type < kNumSimEventTypes; ++type) {
    registry->SetCounter(
        std::string("sim.events.") + SimEventTypeName(static_cast<SimEventType>(type)),
        metrics.events_by_type[static_cast<std::size_t>(type)]);
  }
  registry->SetCounter("sim.events_noop", metrics.events_noop);
  registry->SetCounter("sim.acquisitions_denied", metrics.acquisitions_denied);
  registry->SetCounter("sim.spot_instances_launched",
                       metrics.spot_instances_launched);
  registry->SetCounter("sim.spot_preemptions", metrics.spot_preemptions);
  registry->SetGauge("sim.total_cost", metrics.total_cost);
  registry->SetGauge("sim.spot_cost", metrics.spot_cost);
  registry->SetGauge("sim.avg_jct_hours", metrics.avg_jct_hours);
  registry->SetGauge("sim.avg_job_idle_hours", metrics.avg_job_idle_hours);
  registry->SetGauge("sim.avg_tasks_per_instance",
                     metrics.avg_tasks_per_instance);
  registry->SetGauge("sim.avg_norm_job_throughput",
                     metrics.avg_norm_job_throughput);
  registry->SetGauge("sim.makespan_s", metrics.makespan_s);
  // scheduler_wall_seconds is deliberately omitted: wall-clock values would
  // break the registry's run-to-run byte determinism. Bench rows report it
  // as a flat field instead.
  PublishSchedulerCounters(metrics.scheduler_counters, registry);
  PublishFaultStats(metrics.faults, registry);
}

}  // namespace eva
