// Multi-tenant federation harness, two parts:
//
// 1. Market regimes — three Eva tenants (ScaleTrace shards of the 2,000-job
//    Alibaba-like trace) provisioning from one shared cloud provider:
//
//      * open        — unlimited capacity, on-demand only (the idealized
//                      cloud every earlier experiment assumed);
//      * capped      — finite per-family pools, on-demand only: acquisition
//                      denials throttle the tenants;
//      * capped-spot — finite pools plus the spot tier: tenants mix
//                      preemptible discounted capacity and eat two-minute
//                      preemptions.
//
// 2. Tenant-scaling sweep — 10/100/500 tenants (1000 at full
//    EVA_BENCH_SCALE) through the serial lockstep driver, each point run
//    once. Reports wall time, events/sec and the shard-derivation setup
//    wall.
//
// Reports per-tenant cost / spot share / JCT / denial / preemption counts
// (capped; large fleets aggregate to min/median/p95/max rows) and the
// provider-level utilization table. EVA_BENCH_JSON writes the same rows
// machine-readably; EVA_BENCH_SCALE scales the per-tenant job counts.
// Not a paper table: this is the scenario platform the provider-market
// subsystem opens up.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/format.h"
#include "src/common/stats.h"
#include "src/obs/publish.h"
#include "src/obs/registry.h"
#include "src/sim/federation.h"
#include "src/workload/trace_gen.h"

namespace {

using namespace eva;

// Per-tenant JSON rows beyond this fold into the `_agg` aggregate row; a
// 500-tenant sweep point must not emit 500 rows of noise.
constexpr std::size_t kMaxTenantJsonRows = 8;

Trace MakeBaseTrace() {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(base_options);
}

double WallSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::int64_t TotalEvents(const FederationResult& result) {
  std::int64_t events = 0;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    events += tenant.metrics.events_processed;
  }
  return events;
}

// Cross-tenant distribution row: the per-tenant table compressed to
// min/median/p95/max, which is all a 100+-tenant fleet's story needs.
void EmitTenantAggregates(BenchJsonWriter& json, const std::string& name,
                          const FederationResult& result) {
  std::vector<double> cost;
  std::vector<double> jct;
  std::int64_t denied = 0;
  std::int64_t preempted = 0;
  std::int64_t completed = 0;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    cost.push_back(tenant.metrics.total_cost);
    jct.push_back(tenant.metrics.avg_jct_hours);
    denied += tenant.metrics.acquisitions_denied;
    preempted += tenant.metrics.spot_preemptions;
    completed += tenant.metrics.jobs_completed;
  }
  char fields[640];
  std::snprintf(
      fields, sizeof(fields),
      "\"tenants\": %zu, \"cost_min\": %.4f, \"cost_median\": %.4f, "
      "\"cost_p95\": %.4f, \"cost_max\": %.4f, \"jct_min_hours\": %.6f, "
      "\"jct_median_hours\": %.6f, \"jct_p95_hours\": %.6f, "
      "\"jct_max_hours\": %.6f, \"denied\": " EVA_PRId64 ", \"preempted\": " EVA_PRId64
      ", \"jobs_completed\": " EVA_PRId64,
      result.tenants.size(), *std::min_element(cost.begin(), cost.end()),
      Quantile(cost, 0.5), Quantile(cost, 0.95),
      *std::max_element(cost.begin(), cost.end()),
      *std::min_element(jct.begin(), jct.end()), Quantile(jct, 0.5),
      Quantile(jct, 0.95), *std::max_element(jct.begin(), jct.end()),
      denied, preempted, completed);
  json.AddCaseFields(name + "_agg", fields);
}

// Fault-ledger row, emitted only when a scenario injected anything: kill /
// drain / loss tallies summed across tenants, the goodput distribution, and
// the provider-side clamp denials.
void EmitFaultRow(BenchJsonWriter& json, const std::string& name,
                  const FederationResult& result) {
  FaultStats sum;
  std::vector<double> goodput;
  std::vector<double> p95;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    const FaultStats& f = tenant.metrics.faults;
    sum.zone_outages += f.zone_outages;
    sum.correlated_failures += f.correlated_failures;
    sum.maintenance_drains += f.maintenance_drains;
    sum.instances_killed += f.instances_killed;
    sum.instances_drained += f.instances_drained;
    sum.tasks_evicted += f.tasks_evicted;
    sum.tasks_lost += f.tasks_lost;
    sum.lost_work_seconds += f.lost_work_seconds;
    sum.replacements_completed += f.replacements_completed;
    goodput.push_back(f.goodput_ratio);
    if (f.replacements_completed > 0) {
      p95.push_back(f.replacement_latency_p95_s);
    }
  }
  if (sum.zone_outages + sum.correlated_failures + sum.maintenance_drains == 0) {
    return;
  }
  std::int64_t fault_denied = 0;
  for (const CloudProviderMetrics::Family& family : result.provider.families) {
    fault_denied += family.fault_denied;
  }
  char fields[640];
  std::snprintf(
      fields, sizeof(fields),
      "\"zone_outages\": " EVA_PRId64 ", \"correlated_failures\": " EVA_PRId64 ", "
      "\"maintenance_drains\": " EVA_PRId64 ", \"instances_killed\": " EVA_PRId64 ", "
      "\"instances_drained\": " EVA_PRId64 ", \"tasks_evicted\": " EVA_PRId64 ", "
      "\"tasks_lost\": " EVA_PRId64 ", \"lost_work_hours\": %.4f, "
      "\"replacements\": " EVA_PRId64 ", \"replace_p95_s_median\": %.2f, "
      "\"goodput_min\": %.6f, \"goodput_median\": %.6f, \"fault_denied\": " EVA_PRId64,
      sum.zone_outages, sum.correlated_failures, sum.maintenance_drains,
      sum.instances_killed, sum.instances_drained, sum.tasks_evicted,
      sum.tasks_lost, SecondsToHours(sum.lost_work_seconds),
      sum.replacements_completed, p95.empty() ? 0.0 : Quantile(p95, 0.5),
      *std::min_element(goodput.begin(), goodput.end()), Quantile(goodput, 0.5),
      fault_denied);
  json.AddCaseFields(name + "_faults", fields);
}

void EmitProviderRow(BenchJsonWriter& json, const std::string& name,
                     const FederationResult& result, double wall) {
  const std::int64_t events = TotalEvents(result);
  char fields[640];
  std::snprintf(
      fields, sizeof(fields),
      "\"wall_seconds\": %.6f, \"events\": " EVA_PRId64 ", \"events_per_sec\": %.1f, "
      "\"granted\": " EVA_PRId64 ", \"denied\": " EVA_PRId64
      ", \"preempted\": " EVA_PRId64 ", "
      "\"barriers\": " EVA_PRId64 ", \"serial_share\": %.4f, "
      "\"setup_wall_s\": %.6f, \"advance_wall_s\": %.6f, "
      "\"round_wall_s\": %.6f",
      wall, events, wall > 0.0 ? static_cast<double>(events) / wall : 0.0,
      result.provider.TotalGranted(), result.provider.TotalDenied(),
      result.provider.TotalPreempted(), result.stats.barriers,
      result.stats.SerialShare(),
      result.stats.setup_wall_s, result.stats.advance_wall_s,
      result.stats.round_wall_s);
  // Driver-level stats again through the shared registry protocol, so the
  // row's "telemetry" object matches what any registry consumer would see.
  TelemetryRegistry registry;
  PublishFederationStats(result.stats, &registry);
  json.AddCaseFields(name + "_provider",
                     std::string(fields) + ", \"telemetry\": " + registry.ToJson());
}

void RunScenario(BenchJsonWriter& json, const std::string& name,
                 const std::vector<FederationTenant>& tenants,
                 const FederationOptions& options) {
  std::printf("\n--- scenario: %s ---\n", name.c_str());
  const auto start = std::chrono::steady_clock::now();
  const FederationResult result = RunFederation(tenants, options);
  const double wall = WallSince(start);
  PrintFederationReport(result);

  const std::int64_t events = TotalEvents(result);
  std::printf("wall %.3fs, " EVA_PRId64 " events (%.0f events/sec, all tenants)\n",
              wall, events, wall > 0.0 ? static_cast<double>(events) / wall : 0.0);

  char fields[512];
  for (std::size_t i = 0;
       i < result.tenants.size() && i < kMaxTenantJsonRows; ++i) {
    const FederationResult::Tenant& tenant = result.tenants[i];
    const SimulationMetrics& m = tenant.metrics;
    std::snprintf(fields, sizeof(fields),
                  "\"jobs\": " EVA_PRId64 ", \"cost\": %.4f, \"spot_cost\": %.4f, "
                  "\"avg_jct_hours\": %.6f, \"denied\": " EVA_PRId64
                  ", \"preemptions\": " EVA_PRId64 ", "
                  "\"spot_instances\": " EVA_PRId64 ", \"makespan_s\": %.1f",
                  m.jobs_submitted, m.total_cost, m.spot_cost, m.avg_jct_hours,
                  m.acquisitions_denied, m.spot_preemptions,
                  m.spot_instances_launched, m.makespan_s);
    json.AddCaseFields(name + "_" + tenant.name, fields);
  }
  EmitTenantAggregates(json, name, result);
  EmitFaultRow(json, name, result);
  EmitProviderRow(json, name, result, wall);
}

// One tenant-scaling point: derive the shards (timed — the setup wall),
// then run the federation once.
void RunSweepPoint(BenchJsonWriter& json, const Trace& base, int num_tenants,
                   int jobs_per_tenant) {
  const std::string name = "fed" + std::to_string(num_tenants);
  std::printf("\n--- sweep: %d tenants x %d jobs ---\n", num_tenants,
              jobs_per_tenant);

  const auto setup_start = std::chrono::steady_clock::now();
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(base, num_tenants, jobs_per_tenant);
  const double shard_wall = WallSince(setup_start);

  FederationOptions options;
  options.provider.enabled = true;
  // Pools that stay scarce as the fleet grows: shard capacity tracks the
  // tenant count so denials and cross-tenant contention survive the sweep.
  options.provider.family_capacity = {std::max(4, num_tenants / 5),
                                      std::max(10, num_tenants / 2),
                                      std::max(6, num_tenants / 3)};
  options.provider.spot.enabled = true;
  options.provider.spot.seed = 4242;
  options.provider.spot.spike_probability = 0.06;
  options.simulator.seed = 5;
  options.stagger_rounds = true;  // Spread barriers across the period.

  const auto start = std::chrono::steady_clock::now();
  const FederationResult result = RunFederation(tenants, options);
  const double wall = WallSince(start);

  PrintFederationReport(result);

  const std::int64_t events = TotalEvents(result);
  const double eps = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
  std::printf("shard setup %.3fs; run %.3fs (%.0f ev/s)\n", shard_wall, wall, eps);

  char fields[640];
  std::snprintf(
      fields, sizeof(fields),
      "\"tenants\": %d, \"jobs_per_tenant\": %d, \"events\": " EVA_PRId64 ", "
      "\"events_per_sec\": %.1f, \"wall_seconds\": %.6f, "
      "\"serial_share\": %.4f, \"shard_setup_s\": %.6f, "
      "\"barriers\": " EVA_PRId64,
      num_tenants, jobs_per_tenant, events, eps, wall,
      result.stats.SerialShare(), shard_wall, result.stats.barriers);
  json.AddCaseFields(name + "_scale", fields);
  EmitTenantAggregates(json, name, result);
}

}  // namespace

int main() {
  PrintBenchHeader("Multi-tenant federation: shared provider, finite capacity, spot",
                   "provider-market subsystem; not a paper table");

  const int jobs_per_tenant = ScaledJobCount(666);
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(MakeBaseTrace(), /*num_tenants=*/3, jobs_per_tenant);
  std::printf("3 tenants x %d jobs (ScaleTrace shards of alibaba2000)\n", jobs_per_tenant);

  BenchJsonWriter json;

  FederationOptions open;
  open.provider.enabled = true;  // Pass-through: unlimited, on-demand only.
  open.simulator.seed = 5;
  RunScenario(json, "open", tenants, open);

  FederationOptions capped = open;
  // Pools sized to bind under three contending tenants: the shards together
  // sustain a few dozen concurrent CPU jobs and a handful of GPU jobs.
  capped.provider.family_capacity = {4, 10, 6};
  RunScenario(json, "capped", tenants, capped);

  FederationOptions capped_spot = capped;
  capped_spot.provider.spot.enabled = true;
  capped_spot.provider.spot.seed = 4242;
  capped_spot.provider.spot.spike_probability = 0.06;
  RunScenario(json, "capped-spot", tenants, capped_spot);

  // Everything at once: finite pools, the spot market, and the fault model
  // — zone outages clamp the shared pools, correlated bursts and drains
  // churn placements. The hostile regime the recovery accounting is for.
  FederationOptions faults = capped_spot;
  faults.simulator.faults.enabled = true;
  faults.simulator.faults.seed = 97;
  RunScenario(json, "faults", tenants, faults);

  // Tenant-scaling sweep through the serial lockstep driver. Job counts
  // shrink with the fleet so each point stays a comparable total volume;
  // the 1000-tenant point only runs at full EVA_BENCH_SCALE.
  const Trace base = MakeBaseTrace();
  RunSweepPoint(json, base, /*num_tenants=*/10, ScaledJobCount(100));
  RunSweepPoint(json, base, /*num_tenants=*/100, ScaledJobCount(40));
  RunSweepPoint(json, base, /*num_tenants=*/500, ScaledJobCount(12));
  if (ScaledJobCount(100) >= 100) {
    RunSweepPoint(json, base, /*num_tenants=*/1000, ScaledJobCount(8));
  }

  if (const char* path = BenchJsonWriter::OutputPath()) {
    return json.WriteTo(path, "federation") ? 0 : 1;
  }
  return 0;
}
