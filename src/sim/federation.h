// Multi-tenant federation driver: N tenant simulators contending for one
// shared CloudProvider in lockstep virtual time.
//
// Each tenant is a full Simulator (own trace, own scheduler, own metrics)
// constructed against the shared provider's catalog. The driver runs them
// in one serial lockstep loop. Each iteration picks the barrier T, the
// earliest pending scheduling round across all tenants, then:
//
//   1. Advance. Every tenant, in tenant-index order, processes its pending
//      events strictly before T. Only scheduling rounds launch instances,
//      so no event in this window acquires provider capacity.
//
//   2. Round. Every tenant with events exactly at T processes them, in
//      ascending tenant index. Every contended TryAcquire therefore
//      arbitrates in (virtual time, tenant index) order, and results are
//      bit-identical across runs.
//
// Tenants share nothing but the provider, so the loop needs no locks. The
// per-barrier work is small (tens of events across all tenants, even at
// 100 tenants), far too little to pay for fanning tenants out to threads.
//
// With staggered round offsets enabled, tenants' round phases are spread
// deterministically across the scheduling period, so each barrier carries a
// fraction of the tenants instead of all of them.
//
// A tenant that drains its round chain and later re-triggers it (an arrival
// after an idle stretch) can create a round earlier than T mid-advance; the
// driver detects this and re-computes the barrier before any round runs.

#ifndef SRC_SIM_FEDERATION_H_
#define SRC_SIM_FEDERATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cloud/provider.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/workload/trace_gen.h"

namespace eva {

struct FederationTenant {
  std::string name;
  Trace trace;
  SchedulerKind kind = SchedulerKind::kEva;
};

struct FederationOptions {
  // Per-tenant simulator options. shared_provider/tenant_id are overwritten
  // per tenant; seed is offset by the tenant index so each tenant owns an
  // independent stream.
  SimulatorOptions simulator;
  EvaOptions eva;
  InterferenceModel interference = InterferenceModel::Measured();
  InstanceCatalog catalog = InstanceCatalog::AwsDefault();

  // The shared provider every tenant provisions from.
  CloudProviderOptions provider;

  // No effect: the driver is serial. Kept so existing callers that set it
  // still compile.
  int num_threads = 0;

  // Deterministic round stagger (opt-in). Tenant i's first scheduling round
  // fires at slot(i) x (period / stagger_slots) with slot(i) =
  // hash(stagger_seed, i) % stagger_slots, instead of every tenant rounding
  // at t=0, 300, 600, ... in phase. Spreads barrier pressure: each barrier
  // then carries ~1/stagger_slots of the tenants. Offsets are a pure
  // function of (stagger_seed, i) — same seed, same trajectory.
  bool stagger_rounds = false;
  int stagger_slots = 8;
  std::uint64_t stagger_seed = 0x57A66E12u;

  // Per-tenant flight recorders (caller-owned; resized to the tenant count
  // by RunFederation). One FlightRecorder holds one run's rounds, so the
  // shared `simulator.observability.flight_recorder` pointer cannot serve
  // N tenants — supply a vector instead and tenant i records into slot i.
  // The driver nulls the per-tenant registry pointer and publishes
  // federation-level aggregates into `simulator.observability.registry`
  // itself after the run. The TraceRecorder *is* shared, each tenant on its
  // own track plus a "federation" track for barrier instants.
  std::vector<FlightRecorder>* flight_recorders = nullptr;
};

// Where the federation's wall-clock time went, plus its barrier counters.
struct FederationStats {
  std::int64_t barriers = 0;           // Lockstep iterations that ran rounds.
  std::int64_t round_participants = 0; // Tenant-barrier pairs with barrier-time events.

  double setup_wall_s = 0.0;    // Scheduler + simulator construction, Start().
  double advance_wall_s = 0.0;  // Advance phase (events below each barrier).
  double round_wall_s = 0.0;    // Round phase (events at each barrier).

  // Share of round-phase tenant work on the serial critical path: all of
  // it once any round ran, since the driver runs every round serially.
  double SerialShare() const { return round_participants > 0 ? 1.0 : 0.0; }
};

struct FederationResult {
  struct Tenant {
    std::string name;
    SchedulerKind kind = SchedulerKind::kEva;
    SimulationMetrics metrics;
  };

  std::vector<Tenant> tenants;
  CloudProviderMetrics provider;
  FederationStats stats;

  // Latest tenant makespan — the federation's virtual horizon, which the
  // provider utilization is normalized against.
  SimTime horizon_s = 0.0;
};

// Runs every tenant to completion against one shared provider and returns
// per-tenant metrics plus the provider-level tallies.
FederationResult RunFederation(const std::vector<FederationTenant>& tenants,
                               const FederationOptions& options);

// The standard multi-tenant scenario recipe (bench_federation and the
// federation tests share it): N ScaleTrace shards of `base`, each thinned
// to `jobs_per_tenant` jobs with the arrival rate re-densified to the
// source's cadence — thinning alone would stretch the arrival process
// ~source/target x, and non-overlapping tenants never contend. Tenant i is
// named "tenant<i>" and seeded seed_base + i (distinct job mixes). The
// source's resample plan is computed once and every shard derived from it,
// so setup stays flat in the source size at high tenant counts.
std::vector<FederationTenant> MakeTenantShards(const Trace& base, int num_tenants,
                                               int jobs_per_tenant,
                                               std::uint64_t seed_base = 101,
                                               SchedulerKind kind = SchedulerKind::kEva);

struct FederationReportOptions {
  // Per-tenant rows printed before the rest are elided behind an aggregate
  // line (<= 0 prints every tenant). At 1000 tenants the full table is
  // noise; the min/median/p95/max rows carry the story.
  int max_tenant_rows = 16;
};

// Renders a per-tenant table (capped per `report`), cross-tenant aggregate
// rows when more than one tenant ran, the provider summary, and the
// driver's phase/wall statistics.
void PrintFederationReport(const FederationResult& result,
                           const FederationReportOptions& report = {});

}  // namespace eva

#endif  // SRC_SIM_FEDERATION_H_
