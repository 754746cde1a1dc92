// Federation driver tests: deterministic multi-tenant co-simulation against
// one shared, capacity-constrained spot provider.
//
// The load-bearing properties: per-tenant metrics are bit-identical across
// repeated runs (the serial lockstep loop arbitrates every provider grant
// in (virtual time, tenant index) order), and on unlimited pools each
// tenant's federated run matches the same tenant simulated alone — the
// loop couples tenants only through finite-pool contention. The scenario
// tests additionally pin the market behaviors (denials under exhausted
// pools, spot preemptions) actually engaging, and the spot coalescing tests
// pin that coalescing rounds within a price step changes nothing.

#include "src/sim/federation.h"

#include <gtest/gtest.h>

#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

// Three ScaleTrace shards of the 2,000-job Alibaba-like trace — the shared
// MakeTenantShards recipe, so the tested scenario and bench_federation's
// can never diverge.
std::vector<FederationTenant> MakeTenants(int jobs_per_tenant) {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  return MakeTenantShards(GenerateAlibabaTrace(base_options), /*num_tenants=*/3,
                          jobs_per_tenant);
}

// Capacity-constrained spot scenario: small family pools shared by three
// tenants, frequent repricing with a noticeable spike rate.
FederationOptions ConstrainedSpotOptions() {
  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {2, 4, 2};
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;
  return options;
}

void ExpectBitIdentical(const SimulationMetrics& a, const SimulationMetrics& b) {
  // Every simulated quantity; scheduler_wall_seconds is wall-clock
  // measurement and legitimately differs.
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.spot_cost, b.spot_cost);
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.tasks_total, b.tasks_total);
  EXPECT_EQ(a.instances_launched, b.instances_launched);
  EXPECT_EQ(a.spot_instances_launched, b.spot_instances_launched);
  EXPECT_EQ(a.spot_preemptions, b.spot_preemptions);
  EXPECT_EQ(a.acquisitions_denied, b.acquisitions_denied);
  EXPECT_EQ(a.task_migrations, b.task_migrations);
  EXPECT_EQ(a.migrations_per_task, b.migrations_per_task);
  EXPECT_EQ(a.avg_tasks_per_instance, b.avg_tasks_per_instance);
  EXPECT_EQ(a.avg_alloc_gpu, b.avg_alloc_gpu);
  EXPECT_EQ(a.avg_alloc_cpu, b.avg_alloc_cpu);
  EXPECT_EQ(a.avg_alloc_ram, b.avg_alloc_ram);
  EXPECT_EQ(a.avg_norm_job_throughput, b.avg_norm_job_throughput);
  EXPECT_EQ(a.avg_jct_hours, b.avg_jct_hours);
  EXPECT_EQ(a.avg_job_idle_hours, b.avg_job_idle_hours);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.scheduling_rounds, b.scheduling_rounds);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.events_by_type, b.events_by_type);
  EXPECT_EQ(a.events_noop, b.events_noop);
  ASSERT_EQ(a.jct_hours.size(), b.jct_hours.size());
  for (std::size_t i = 0; i < a.jct_hours.size(); ++i) {
    ASSERT_EQ(a.jct_hours[i], b.jct_hours[i]) << "jct " << i;
  }
  ASSERT_EQ(a.instance_uptime_hours.size(), b.instance_uptime_hours.size());
  for (std::size_t i = 0; i < a.instance_uptime_hours.size(); ++i) {
    ASSERT_EQ(a.instance_uptime_hours[i], b.instance_uptime_hours[i]) << "uptime " << i;
  }
  // Fault-injection ledger: recovery accounting must be as reproducible as
  // the base metrics (all zero / 1.0 when faults are off).
  EXPECT_EQ(a.faults.zone_outages, b.faults.zone_outages);
  EXPECT_EQ(a.faults.correlated_failures, b.faults.correlated_failures);
  EXPECT_EQ(a.faults.maintenance_drains, b.faults.maintenance_drains);
  EXPECT_EQ(a.faults.instances_killed, b.faults.instances_killed);
  EXPECT_EQ(a.faults.instances_drained, b.faults.instances_drained);
  EXPECT_EQ(a.faults.tasks_evicted, b.faults.tasks_evicted);
  EXPECT_EQ(a.faults.tasks_lost, b.faults.tasks_lost);
  EXPECT_EQ(a.faults.lost_work_seconds, b.faults.lost_work_seconds);
  EXPECT_EQ(a.faults.replacements_completed, b.faults.replacements_completed);
  EXPECT_EQ(a.faults.replacement_latency_min_s, b.faults.replacement_latency_min_s);
  EXPECT_EQ(a.faults.replacement_latency_median_s, b.faults.replacement_latency_median_s);
  EXPECT_EQ(a.faults.replacement_latency_p95_s, b.faults.replacement_latency_p95_s);
  EXPECT_EQ(a.faults.goodput_ratio, b.faults.goodput_ratio);
  // The decision-path counters the scheduler exports.
  const SchedulerCounters& ca = a.scheduler_counters;
  const SchedulerCounters& cb = b.scheduler_counters;
  EXPECT_EQ(ca.packs_full, cb.packs_full);
  EXPECT_EQ(ca.packs_incremental, cb.packs_incremental);
  EXPECT_EQ(ca.packs_escalated, cb.packs_escalated);
  EXPECT_EQ(ca.reconciliations, cb.reconciliations);
  EXPECT_EQ(ca.escalations, cb.escalations);
  EXPECT_EQ(ca.fallback_incomplete_delta, cb.fallback_incomplete_delta);
  EXPECT_EQ(ca.fallback_oversized_delta, cb.fallback_oversized_delta);
  EXPECT_EQ(ca.fallback_no_previous, cb.fallback_no_previous);
  EXPECT_EQ(ca.last_divergence_cost, cb.last_divergence_cost);
  EXPECT_EQ(ca.max_divergence_cost, cb.max_divergence_cost);
  EXPECT_EQ(ca.last_divergence_edits, cb.last_divergence_edits);
  EXPECT_EQ(ca.max_divergence_edits, cb.max_divergence_edits);
  EXPECT_EQ(ca.max_kept_staleness, cb.max_kept_staleness);
}

TEST(FederationTest, DeterministicAcrossRuns) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  FederationOptions options = ConstrainedSpotOptions();
  // Flight recorders ride along so a determinism regression reports the
  // first diverging round and field, not just mismatched final metrics.
  options.simulator.observability.enabled = true;
  std::vector<FlightRecorder> flights_first, flights_second;

  options.flight_recorders = &flights_first;
  const FederationResult first = RunFederation(tenants, options);
  options.flight_recorders = &flights_second;
  const FederationResult second = RunFederation(tenants, options);

  ASSERT_EQ(first.tenants.size(), 3u);
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    ExpectBitIdentical(first.tenants[i].metrics, second.tenants[i].metrics);
    const auto rerun = DiffFirstDivergence(flights_first[i], flights_second[i]);
    EXPECT_FALSE(rerun.has_value())
        << "tenant " << i << " re-run divergence: " << rerun->ToString();
    EXPECT_GT(flights_first[i].rounds_recorded(), 0) << "tenant " << i;
  }
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(first.provider.families[f].granted, second.provider.families[f].granted);
    EXPECT_EQ(first.provider.families[f].denied, second.provider.families[f].denied);
    EXPECT_EQ(first.provider.families[f].preempted, second.provider.families[f].preempted);
    EXPECT_EQ(first.provider.families[f].peak_in_use,
              second.provider.families[f].peak_in_use);
    EXPECT_EQ(first.provider.families[f].instance_hours,
              second.provider.families[f].instance_hours);
  }
}

TEST(FederationTest, ConstrainedSpotScenarioDeniesAndPreempts) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  const FederationResult result = RunFederation(tenants, ConstrainedSpotOptions());

  int denied = 0;
  int preempted = 0;
  int spot_launched = 0;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    // Every tenant drains despite contention: denials throttle, they do not
    // wedge.
    EXPECT_EQ(tenant.metrics.jobs_completed, tenant.metrics.jobs_submitted)
        << tenant.name;
    denied += tenant.metrics.acquisitions_denied;
    preempted += tenant.metrics.spot_preemptions;
    spot_launched += tenant.metrics.spot_instances_launched;
    EXPECT_GE(tenant.metrics.spot_cost, 0.0);
    EXPECT_LE(tenant.metrics.spot_cost, tenant.metrics.total_cost);
  }
  EXPECT_GT(denied, 0);
  EXPECT_GT(preempted, 0);
  EXPECT_GT(spot_launched, 0);

  // Provider-side accounting agrees with the tenants' own counters.
  EXPECT_EQ(result.provider.TotalDenied(), denied);
  EXPECT_EQ(result.provider.TotalPreempted(), preempted);
  std::int64_t granted = 0;
  for (const FederationResult::Tenant& tenant : result.tenants) {
    granted += tenant.metrics.instances_launched;
  }
  EXPECT_EQ(result.provider.TotalGranted(), granted);
  // Everything acquired was eventually released (all tenants drained).
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(result.provider.families[f].granted, result.provider.families[f].released);
    if (result.provider.families[f].capacity > 0) {
      EXPECT_LE(result.provider.families[f].peak_in_use,
                result.provider.families[f].capacity);
    }
  }
}

// With one tenant, unlimited pools and no spot tier, the federation
// protocol must reproduce a plain Simulator::Run bit-for-bit: the provider
// is pass-through (admission always grants, the cost hook evaluates the
// exact same expression) and the stepping API processes the exact same
// event sequence.
TEST(FederationTest, SingleTenantPassThroughMatchesPlainRun) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 60;
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);

  FederationTenant tenant;
  tenant.name = "solo";
  tenant.trace = trace;
  tenant.kind = SchedulerKind::kEva;
  FederationOptions options;  // Provider defaults: unlimited, on-demand only.
  const FederationResult federated = RunFederation({tenant}, options);

  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
  const SimulationMetrics plain = RunSimulation(trace, bundle.scheduler.get(), catalog,
                                                interference, SimulatorOptions{});

  ASSERT_EQ(federated.tenants.size(), 1u);
  ExpectBitIdentical(federated.tenants[0].metrics, plain);
  EXPECT_EQ(federated.tenants[0].metrics.acquisitions_denied, 0);
  EXPECT_EQ(federated.tenants[0].metrics.spot_preemptions, 0);
  EXPECT_EQ(federated.tenants[0].metrics.spot_cost, 0.0);
}

// The lockstep loop at production tenant counts: 100 tenants sharing finite
// P3/R7i pools and an unlimited C7i pool (the swept-peak accounting) must
// be bit-identical across repeated runs.
TEST(FederationTest, DeterministicAcrossRunsAtOneHundredTenants) {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(GenerateAlibabaTrace(base_options), /*num_tenants=*/100,
                       /*jobs_per_tenant=*/6);

  FederationOptions options;
  options.provider.enabled = true;
  // Finite, contended P3/R7i pools + unlimited C7i (peak via the finalize
  // sweep).
  options.provider.family_capacity = {40, -1, 30};
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;

  const FederationResult one = RunFederation(tenants, options);
  const FederationResult two = RunFederation(tenants, options);

  ASSERT_EQ(one.tenants.size(), 100u);
  for (std::size_t i = 0; i < one.tenants.size(); ++i) {
    ExpectBitIdentical(one.tenants[i].metrics, two.tenants[i].metrics);
  }
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(one.provider.families[f].granted, two.provider.families[f].granted);
    EXPECT_EQ(one.provider.families[f].denied, two.provider.families[f].denied);
    EXPECT_EQ(one.provider.families[f].preempted, two.provider.families[f].preempted);
    EXPECT_EQ(one.provider.families[f].released, two.provider.families[f].released);
    EXPECT_EQ(one.provider.families[f].peak_in_use, two.provider.families[f].peak_in_use);
    EXPECT_EQ(one.provider.families[f].instance_hours,
              two.provider.families[f].instance_hours);
  }
  // Sanity: the scenario actually contends.
  EXPECT_GT(one.provider.TotalDenied(), 0);
}

// The fault-injection invariant: with the deterministic fault model on
// (zone outages, correlated bursts, maintenance drains all engaging
// against the shared provider), the 100-tenant federation must still be
// bit-identical across repeated runs — the outage capacity clamp is a pure
// function of time consulted at acquire, and every fault schedule is a
// pure hash of (seed, kind, step).
TEST(FederationTest, FaultInjectionDeterministicAtOneHundredTenants) {
  AlibabaTraceOptions base_options;
  base_options.num_jobs = 2000;
  base_options.seed = 17;
  base_options.max_duration_hours = 48.0;
  const std::vector<FederationTenant> tenants =
      MakeTenantShards(GenerateAlibabaTrace(base_options), /*num_tenants=*/100,
                       /*jobs_per_tenant=*/6);

  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {40, -1, 30};
  options.provider.spot.enabled = true;
  options.provider.spot.price_step_s = 900.0;
  options.provider.spot.spike_probability = 0.15;
  options.provider.spot.seed = 4242;
  options.simulator.seed = 5;
  options.simulator.faults.enabled = true;
  options.simulator.faults.seed = 97;

  const FederationResult one = RunFederation(tenants, options);
  const FederationResult two = RunFederation(tenants, options);

  ASSERT_EQ(one.tenants.size(), 100u);
  std::int64_t fault_events = 0;
  std::int64_t replacements = 0;
  for (std::size_t i = 0; i < one.tenants.size(); ++i) {
    ExpectBitIdentical(one.tenants[i].metrics, two.tenants[i].metrics);
    const FaultStats& faults = one.tenants[i].metrics.faults;
    fault_events +=
        faults.zone_outages + faults.correlated_failures + faults.maintenance_drains;
    replacements += faults.replacements_completed;
    EXPECT_GE(faults.goodput_ratio, 0.0);
    EXPECT_LE(faults.goodput_ratio, 1.0);
  }
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(one.provider.families[f].granted, two.provider.families[f].granted);
    EXPECT_EQ(one.provider.families[f].denied, two.provider.families[f].denied);
    EXPECT_EQ(one.provider.families[f].fault_denied, two.provider.families[f].fault_denied);
    EXPECT_EQ(one.provider.families[f].preempted, two.provider.families[f].preempted);
    EXPECT_EQ(one.provider.families[f].released, two.provider.families[f].released);
    EXPECT_EQ(one.provider.families[f].peak_in_use, two.provider.families[f].peak_in_use);
    EXPECT_EQ(one.provider.families[f].instance_hours,
              two.provider.families[f].instance_hours);
  }
  // The scenario is not vacuous: faults fired, tasks were re-placed, the
  // outage clamp denied at least one acquire, and every tenant still
  // drained (faults delay jobs, they never lose them).
  EXPECT_GT(fault_events, 0);
  EXPECT_GT(replacements, 0);
  std::int64_t fault_denied = 0;
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    fault_denied += one.provider.families[f].fault_denied;
  }
  EXPECT_GT(fault_denied, 0);
  for (const FederationResult::Tenant& tenant : one.tenants) {
    EXPECT_EQ(tenant.metrics.jobs_completed, tenant.metrics.jobs_submitted)
        << tenant.name;
  }
}

// Two tenants racing the single slot of one family pool: the round phase
// must arbitrate the grant in tenant-index order. Demands carry GPUs on
// both vectors, so only the P3 family fits and the two tenants provably
// share that pool.
TEST(FederationTest, ContendedShardGrantsArbitrateInTenantOrder) {
  const auto gpu_job = [] {
    JobSpec job = JobSpec::FromWorkload(/*id=*/0, /*arrival_time_s=*/0.0,
                                        static_cast<WorkloadId>(0),
                                        /*duration_s=*/1800.0, /*num_tasks=*/1);
    job.demand_p3 = ResourceVector(1.0, 4.0, 16.0);
    job.demand_cpu = job.demand_p3;
    return job;
  };
  std::vector<FederationTenant> tenants(2);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].name = "racer" + std::to_string(i);
    tenants[i].trace.name = tenants[i].name;
    tenants[i].trace.jobs = {gpu_job()};
  }

  FederationOptions options;
  options.provider.enabled = true;
  options.provider.family_capacity = {1, -1, -1};  // One P3 slot for two tenants.

  const FederationResult result = RunFederation(tenants, options);
  ASSERT_EQ(result.tenants.size(), 2u);
  const SimulationMetrics& winner = result.tenants[0].metrics;
  const SimulationMetrics& loser = result.tenants[1].metrics;
  // Tenant 0 wins the t=0 round's only slot; tenant 1 is denied and
  // retries until the release.
  EXPECT_EQ(winner.acquisitions_denied, 0);
  EXPECT_GT(loser.acquisitions_denied, 0);
  EXPECT_EQ(winner.jobs_completed, 1);
  EXPECT_EQ(loser.jobs_completed, 1);
  EXPECT_LT(winner.avg_jct_hours, loser.avg_jct_hours);
}

// Staggered round offsets: a pure function of (stagger_seed, tenant index),
// so the same options reproduce bit-identically across runs — and the
// offsets must actually shift the trajectory vs. the unstaggered run.
TEST(FederationTest, StaggerOffsetsAreDeterministic) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  FederationOptions options = ConstrainedSpotOptions();
  options.stagger_rounds = true;
  options.stagger_slots = 4;

  const FederationResult first = RunFederation(tenants, options);
  const FederationResult second = RunFederation(tenants, options);

  ASSERT_EQ(first.tenants.size(), 3u);
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    ExpectBitIdentical(first.tenants[i].metrics, second.tenants[i].metrics);
  }

  // The offsets engaged: some tenant's trajectory differs from the
  // unstaggered run (deterministically — both sides are pure functions of
  // their options).
  options.stagger_rounds = false;
  const FederationResult unstaggered = RunFederation(tenants, options);
  bool any_difference = false;
  for (std::size_t i = 0; i < first.tenants.size(); ++i) {
    any_difference = any_difference ||
                     first.tenants[i].metrics.makespan_s !=
                         unstaggered.tenants[i].metrics.makespan_s ||
                     first.tenants[i].metrics.scheduling_rounds !=
                         unstaggered.tenants[i].metrics.scheduling_rounds;
  }
  EXPECT_TRUE(any_difference);
}

// On unlimited pools the shared provider grants unconditionally, so the
// lockstep loop must add no coupling between tenants: each tenant's
// federated metrics equal that tenant simulated alone against a private
// provider with the same options, seed and tenant id. Checked with the spot
// tier off and on (shared quote snapshots, per-tenant preemption draws).
TEST(FederationTest, UnlimitedPoolsMatchIndependentRuns) {
  const std::vector<FederationTenant> tenants = MakeTenants(25);
  for (const bool spot : {false, true}) {
    SCOPED_TRACE(spot ? "spot on" : "spot off");
    FederationOptions options;
    options.provider.enabled = true;  // Every pool unlimited.
    options.provider.spot.enabled = spot;
    options.provider.spot.price_step_s = 900.0;
    options.provider.spot.spike_probability = 0.15;
    options.provider.spot.seed = 4242;
    options.simulator.seed = 5;
    const FederationResult federated = RunFederation(tenants, options);

    ASSERT_EQ(federated.tenants.size(), tenants.size());
    std::int64_t spot_launched = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      SimulatorOptions alone = options.simulator;
      alone.provider = options.provider;
      alone.seed = options.simulator.seed + i;
      alone.tenant_id = static_cast<int>(i);
      SchedulerBundle bundle =
          MakeScheduler(tenants[i].kind, options.interference, options.eva);
      const SimulationMetrics independent =
          RunSimulation(tenants[i].trace, bundle.scheduler.get(), options.catalog,
                        options.interference, alone);
      SCOPED_TRACE("tenant " + std::to_string(i));
      ExpectBitIdentical(federated.tenants[i].metrics, independent);
      EXPECT_EQ(independent.acquisitions_denied, 0);
      spot_launched += independent.spot_instances_launched;
    }
    // Not vacuous: with the tier on, the tenants actually run spot.
    EXPECT_EQ(spot_launched > 0, spot);
  }
}

// A tenant that trips max_sim_time_s aborts mid-run with its round event
// still notionally pending; the driver must see its barrier as +infinity
// and terminate instead of spinning on the stale round time forever.
TEST(FederationTest, AbortedTenantDoesNotWedgeTheFederation) {
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 4;
  trace_options.seed = 2;
  FederationTenant tenant;
  tenant.name = "doomed";
  tenant.trace = GenerateSyntheticTrace(trace_options);
  tenant.kind = SchedulerKind::kEva;

  FederationOptions options;
  // The second scheduling round (t=300s) already exceeds the limit.
  options.simulator.max_sim_time_s = 100.0;
  const FederationResult result = RunFederation({tenant}, options);
  ASSERT_EQ(result.tenants.size(), 1u);
  EXPECT_EQ(result.tenants[0].metrics.jobs_completed, 0);
  EXPECT_LE(result.tenants[0].metrics.makespan_s, 100.0);
}

// Spot quotes hold for a whole price step, and SharedQuoteCatalog hands out
// one snapshot per step, so a spot round that would price off the previous
// round's snapshot coalesces like any other quiescent round. With the spot
// tier on, coalescing on and off must give bit-identical runs — alone and
// federated — while rounds actually coalesce.
CloudProviderOptions SpotProvider() {
  CloudProviderOptions provider;
  provider.enabled = true;
  provider.spot.enabled = true;
  provider.spot.price_step_s = 900.0;
  provider.spot.spike_probability = 0.15;
  provider.spot.seed = 4242;
  return provider;
}

TEST(SpotCoalescingTest, SingleTenantSpotRunIsBitExact) {
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 400;
  trace_options.seed = 17;
  trace_options.max_duration_hours = 48.0;
  const Trace trace = GenerateAlibabaTrace(trace_options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const InterferenceModel interference = InterferenceModel::Measured();
  const auto run = [&](bool coalesce) {
    SchedulerBundle bundle = MakeScheduler(SchedulerKind::kEva, interference);
    SimulatorOptions options;
    options.provider = SpotProvider();
    options.seed = 5;
    options.coalesce_quiescent_rounds = coalesce;
    const SimulationMetrics metrics =
        RunSimulation(trace, bundle.scheduler.get(), catalog, interference, options);
    return std::make_pair(metrics, bundle.eva->stats());
  };
  const auto [batched, batched_stats] = run(true);
  const auto [plain, plain_stats] = run(false);

  EXPECT_GT(batched.spot_instances_launched, 0);
  EXPECT_GT(batched.rounds_coalesced, 0);
  EXPECT_EQ(batched_stats.rounds_coalesced, batched.rounds_coalesced);
  EXPECT_EQ(plain.rounds_coalesced, 0);

  ExpectBitIdentical(batched, plain);
  EXPECT_EQ(batched_stats.rounds, plain_stats.rounds);
  EXPECT_EQ(batched_stats.full_adopted, plain_stats.full_adopted);
  EXPECT_EQ(batched_stats.events_seen, plain_stats.events_seen);
  EXPECT_EQ(batched_stats.rounds_reused, plain_stats.rounds_reused);
  EXPECT_EQ(batched_stats.reuse_miss_table, plain_stats.reuse_miss_table);
  EXPECT_EQ(batched_stats.reuse_miss_context, plain_stats.reuse_miss_context);
  EXPECT_EQ(batched_stats.full_packs, plain_stats.full_packs);
  EXPECT_EQ(batched_stats.incremental_packs, plain_stats.incremental_packs);
}

TEST(SpotCoalescingTest, FederatedSpotRunIsBitExact) {
  const std::vector<FederationTenant> tenants = MakeTenants(30);
  const auto run = [&](bool coalesce) {
    FederationOptions options;
    options.provider = SpotProvider();
    options.simulator.seed = 5;
    options.simulator.coalesce_quiescent_rounds = coalesce;
    options.stagger_rounds = true;
    return RunFederation(tenants, options);
  };
  const FederationResult batched = run(true);
  const FederationResult plain = run(false);

  ASSERT_EQ(batched.tenants.size(), tenants.size());
  ASSERT_EQ(plain.tenants.size(), tenants.size());
  std::int64_t coalesced = 0;
  std::int64_t spot_launched = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    coalesced += batched.tenants[i].metrics.rounds_coalesced;
    spot_launched += batched.tenants[i].metrics.spot_instances_launched;
    EXPECT_EQ(plain.tenants[i].metrics.rounds_coalesced, 0) << "tenant " << i;
    ExpectBitIdentical(batched.tenants[i].metrics, plain.tenants[i].metrics);
  }
  EXPECT_GT(spot_launched, 0);
  EXPECT_GT(coalesced, 0);
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    EXPECT_EQ(batched.provider.families[f].granted, plain.provider.families[f].granted);
    EXPECT_EQ(batched.provider.families[f].denied, plain.provider.families[f].denied);
    EXPECT_EQ(batched.provider.families[f].preempted, plain.provider.families[f].preempted);
    EXPECT_EQ(batched.provider.families[f].released, plain.provider.families[f].released);
    EXPECT_EQ(batched.provider.families[f].peak_in_use,
              plain.provider.families[f].peak_in_use);
    EXPECT_EQ(batched.provider.families[f].instance_hours,
              plain.provider.families[f].instance_hours);
  }
  EXPECT_EQ(batched.horizon_s, plain.horizon_s);
}

}  // namespace
}  // namespace eva
