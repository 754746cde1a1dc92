// Discrete-event simulator for cloud-based clusters (§5's "Simulator").
//
// The simulator plays a trace of job arrivals against a scheduler. At every
// scheduling period it reports throughput observations, asks the scheduler
// for a desired cluster configuration, diffs it against the running cluster
// and executes the implied actions with realistic delays: instance
// acquisition + setup (Table 1), task checkpoint and launch (Table 7). Job
// progress integrates normalized throughput, where a task's throughput is
// degraded by the hidden ground-truth interference model whenever it shares
// an instance with running neighbors; a multi-task job advances at its
// slowest task's rate (§4.4). Two fidelity modes mirror the paper:
// "simulated" uses deterministic mean delays and exact observations;
// "physical" draws delays from the measured ranges and perturbs
// observations, standing in for the AWS testbed of Tables 10-12.
//
// Cloud provider market (src/cloud/provider.h), default off: launches pass
// through admission (denied when a family pool is exhausted), the catalog
// gains a spot tier whose per-round quotes the scheduler prices against
// on-demand, and spot instances receive two-minute preemption warnings that
// evict and re-checkpoint their tasks. With the provider disabled the
// engine never consults it and every trajectory is bit-identical to the
// providerless build.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>

#include "src/cloud/delays.h"
#include "src/cloud/instance_type.h"
#include "src/cloud/provider.h"
#include "src/obs/observability.h"
#include "src/sched/scheduler.h"
#include "src/sim/metrics.h"
#include "src/workload/interference.h"
#include "src/workload/job.h"

namespace eva {

struct SimulatorOptions {
  SimTime scheduling_period_s = 5.0 * kSecondsPerMinute;

  // Physical mode: stochastic delays and noisy throughput observations.
  bool physical_mode = false;
  double observation_noise_stddev = 0.03;

  CloudDelayModel cloud_delays;

  // Scales job checkpoint+launch delays (the Figure 5 sweep).
  double migration_delay_multiplier = 1.0;

  // Expose perfect remaining-runtime estimates to the scheduler (the paper
  // grants Stratus its best case; harmless to others, which ignore it).
  bool grant_runtime_estimates = true;

  // Check every returned configuration against capacity/duplication
  // invariants; invalid configurations are rejected (logged, round skipped).
  bool validate_configs = true;

  // Quiescence-aware round trigger: when nothing decision-relevant changed
  // since the previous round (empty RoundDelta, no task-rate transitions,
  // previous apply was a no-op), offer the round to
  // Scheduler::CoalesceQuiescentRounds instead of building a context and
  // invoking the scheduler. The event/integration trajectory is unchanged —
  // results are bit-identical with batching on or off — only the per-round
  // observation/context/validation/diff work disappears. Automatically
  // disabled in physical mode (noisy observations consume RNG draws every
  // round, so no round is ever a provable no-op). With the spot market on,
  // a round qualifies only while it prices off the same per-step quote
  // snapshot as the previous round.
  bool coalesce_quiescent_rounds = true;

  // --- Cloud provider market (default off: infinite on-demand supply) ----
  // Per-simulator provider, constructed when `provider.enabled` and no
  // shared provider is given.
  CloudProviderOptions provider;

  // Federation: several tenant simulators share one provider. The caller
  // owns it (it must outlive the simulator) and must construct the
  // simulator with the provider's base catalog; the engine then runs
  // against provider->tiered_catalog(). See sim/federation.h for the
  // serial lockstep loop that orders the tenants' provider calls.
  CloudProvider* shared_provider = nullptr;

  // Tenant index, for logs and federation bookkeeping.
  int tenant_id = 0;

  // Fault injection (default off: no zones, no outages — trajectories
  // bit-identical to a build without the subsystem). The schedule is a pure
  // hash of (seed, kind, step), shared with the provider's outage capacity
  // clamp; see src/cloud/fault_injector.h. When a per-simulator provider is
  // constructed these options are propagated into it; with a shared
  // provider the federation driver does the same, so both sides always read
  // one schedule.
  FaultInjectorOptions faults;

  // First scheduling round fires at this offset instead of t=0; later
  // rounds keep the phase (offset + k x period) until the cluster drains.
  // The federation's stagger option assigns distinct per-tenant offsets so
  // rounds spread across the period instead of colliding on one barrier.
  SimTime first_round_offset_s = 0.0;

  // Decision-time markup on spot quotes (the preemption-risk premium): the
  // scheduler prices a spot instance at quote x (1 + premium), so a spot
  // type must undercut on-demand by the premium before Eva mixes it in.
  // Actual costs charge the raw quote trace.
  double spot_risk_premium = 0.10;

  // Observability sinks (default off: every hot-path hook is a null test,
  // trajectories and allocation counts bit-identical to a build without the
  // subsystem). Spans/digests/series are stamped in virtual time, so what
  // they record is as deterministic as the run itself. See
  // src/obs/observability.h.
  ObservabilityOptions observability;

  std::uint64_t seed = 42;

  // Hard stop, guarding against schedulers that never drain the system.
  SimTime max_sim_time_s = 4.0 * 365.0 * kSecondsPerDay;
};

class Simulator {
 public:
  Simulator(const Trace& trace, Scheduler* scheduler, const InstanceCatalog& catalog,
            const InterferenceModel& interference, SimulatorOptions options = {});
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Runs the trace to completion and returns the collected metrics.
  // Equivalent to Start(); ProcessEventsThrough(+inf); Finish().
  SimulationMetrics Run();

  // --- Lockstep stepping API (the federation driver; see federation.h) ---
  // The driver alternates an advance phase — every tenant processes its
  // events up to (strictly before) the next scheduling round anywhere, via
  // AdvanceUntil — with a round phase that processes the round-boundary
  // events tenant by tenant via ProcessEventsThrough. Scheduling rounds are
  // the only events that acquire provider capacity, so contended admission
  // is arbitrated in (virtual time, tenant order).

  // Prepares the event queue (first arrival + first round). Call once.
  void Start();

  // Time of the pending scheduling-round event, or +infinity if none.
  SimTime NextRoundTime() const;

  // Time of the earliest pending event of any kind, or +infinity when
  // drained. The federation driver uses it to skip tenants with nothing to
  // do at a barrier.
  SimTime NextEventTime() const;

  // True when no events remain (or the run aborted at max_sim_time_s).
  bool Drained() const;

  // Processes events with time < limit, stopping early whenever the next
  // event is a scheduling round (which the round phase must own).
  void AdvanceUntil(SimTime limit);

  // Processes every event with time <= t, rounds included, plus any events
  // they spawn at times <= t.
  void ProcessEventsThrough(SimTime t);

  // End-of-run cleanup (terminates leftover instances) and metrics.
  SimulationMetrics Finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience wrapper: construct, run, return metrics.
SimulationMetrics RunSimulation(const Trace& trace, Scheduler* scheduler,
                                const InstanceCatalog& catalog,
                                const InterferenceModel& interference,
                                const SimulatorOptions& options = {});

}  // namespace eva

#endif  // SRC_SIM_SIMULATOR_H_
