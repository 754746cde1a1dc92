// Bridges from the legacy stat structs to the telemetry registry.
//
// SchedulerCounters, FaultStats, FederationStats and SimulationMetrics each
// predate the registry and are still the in-memory working form; these
// publishers project them onto dot-namespaced registry names so every bench
// driver emits them under one uniform, sorted schema instead of hand-rolled
// JSON fragments. Publishing is idempotent (SetCounter/SetGauge, not Inc).

#ifndef SRC_OBS_PUBLISH_H_
#define SRC_OBS_PUBLISH_H_

#include "src/obs/registry.h"

namespace eva {

struct SchedulerCounters;
struct FaultStats;
struct FederationStats;
struct SimulationMetrics;

// "scheduler.*": pack mix, fallbacks, reconciliation divergence.
void PublishSchedulerCounters(const SchedulerCounters& counters,
                              TelemetryRegistry* registry);

// "faults.*": injected faults, kills/drains, lost work, goodput.
void PublishFaultStats(const FaultStats& faults, TelemetryRegistry* registry);

// "federation.*": barriers, round participants, serial share.
void PublishFederationStats(const FederationStats& stats,
                            TelemetryRegistry* registry);

// "sim.*" plus the nested scheduler.* and faults.* groups — the full
// per-run projection the simulator publishes at Finish.
void PublishSimulationMetrics(const SimulationMetrics& metrics,
                              TelemetryRegistry* registry);

}  // namespace eva

#endif  // SRC_OBS_PUBLISH_H_
