#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/format.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/obs/publish.h"
#include "src/sched/config_diff.h"
#include "src/sim/cluster_state.h"
#include "src/sim/event_queue.h"
#include "src/sim/execution_model.h"
#include "src/sim/task_lifecycle.h"

namespace eva {

namespace {

// A per-simulator provider must clamp capacity off the *same* fault schedule
// the simulator kills instances from — one options block, two consumers.
CloudProviderOptions MergedProviderOptions(const SimulatorOptions& options) {
  CloudProviderOptions merged = options.provider;
  if (options.faults.enabled) {
    merged.faults = options.faults;
  }
  return merged;
}

}  // namespace

// Orchestrator: wires the event queue, cluster state, execution model and
// task lifecycle to the Scheduler interface. All domain logic lives in those
// modules; the handlers below only sequence events into state transitions.
class Simulator::Impl {
 public:
  Impl(const Trace& trace, Scheduler* scheduler, const InstanceCatalog& catalog,
       const InterferenceModel& interference, SimulatorOptions options)
      : trace_(trace),
        scheduler_(scheduler),
        options_(options),
        provider_owned_(options_.shared_provider == nullptr && options_.provider.enabled
                            ? std::make_unique<CloudProvider>(
                                  catalog, MergedProviderOptions(options_))
                            : nullptr),
        provider_(options_.shared_provider != nullptr ? options_.shared_provider
                                                      : provider_owned_.get()),
        catalog_(provider_ != nullptr ? provider_->tiered_catalog() : catalog),
        rng_(options.seed),
        state_(catalog_),
        exec_(&state_, &catalog_, &interference),
        lifecycle_(&state_, &exec_, &queue_, options.migration_delay_multiplier) {
    // Let scale-dependent scheduler defaults (Eva's auto incremental-
    // packing mode) resolve against the workload size before any round.
    scheduler_->BindWorkloadScale(trace_.jobs.size());
    if (options_.observability.enabled) {
      const ObservabilityOptions& obs = options_.observability;
      flight_ = obs.flight_recorder;
      registry_ = obs.registry;
      if (obs.trace != nullptr) {
        obs_trace_ = obs.trace;
        track_ = obs_trace_->RegisterTrack(
            !obs.track_name.empty()
                ? obs.track_name
                : "tenant" + std::to_string(options_.tenant_id));
        scheduler_->BindTrace(TraceBinding{obs_trace_, track_});
      }
    }
    if (provider_ != nullptr) {
      // Spot instances are priced off the market's trace integral (and the
      // spot share is tracked); releases return pool capacity. The hooks
      // reproduce the default expressions exactly for on-demand types.
      state_.set_instance_cost_fn([this](int type_index, SimTime launch, SimTime end) {
        const Money cost = provider_->InstanceCost(type_index, launch, end);
        if (provider_->IsSpotType(type_index)) {
          metrics_.spot_cost += cost;
        }
        return cost;
      });
      state_.set_instance_terminated_fn(
          [this](int type_index, SimTime launch, SimTime end, std::int64_t slot) {
            provider_->Release(type_index, launch, end, slot);
          });
    }
  }

  SimulationMetrics Run();

  // Lockstep stepping API (see simulator.h).
  void Start();
  SimTime NextRoundTime() const {
    // An aborted run (max_sim_time_s) reports no pending round even though
    // the round event that tripped the limit never ran — otherwise a
    // federation barrier would stay pinned at its stale time forever.
    return round_scheduled_ && !aborted_ ? next_round_time_
                                         : std::numeric_limits<SimTime>::infinity();
  }
  bool Drained() const { return aborted_ || queue_.Empty(); }
  SimTime NextEventTime() const {
    return (aborted_ || queue_.Empty()) ? std::numeric_limits<SimTime>::infinity()
                                        : queue_.Top().time;
  }
  void AdvanceUntil(SimTime limit);
  void ProcessEventsThrough(SimTime t);
  SimulationMetrics Finish();

 private:
  void Advance(SimTime to);
  // Recomputes dirty job rates and (re)arms the completion check; runs after
  // every event, standing in for the old full-cluster rescan.
  void RecomputeAndArm();

  // Drops a popped completion check from queued_checks_.
  void RetireQueuedCheck(SimTime time);

  // Pops and dispatches exactly one event. Returns false when the run
  // aborted (event beyond max_sim_time_s). Requires !queue_.Empty().
  bool ProcessOneEvent();

  void HandleArrival(std::int64_t job_index);
  void HandleRound();
  void HandleInstanceReady(InstanceId id);
  void HandleCompletionCheck();
  void HandleSpotCheck();
  void HandleSpotPreempt(InstanceId id);
  void HandleFaultCheck();
  void HandleZoneOutage(int zone);
  void HandleDrainStart(int zone);
  void HandleDrainDeadline(InstanceId id);
  void ApplyConfig(const SchedulingContext& context, const ClusterConfig& config);

  // Destroys an instance right now — containers aboard are lost, assigned
  // tasks bounce back to pending, capacity is released. The shared abrupt
  // path of expired spot notices (fault_loss=false: no fault accounting)
  // and fault kills (fault_loss=true: lost work, victims, and re-placement
  // latency are tallied).
  void AbruptReclaim(InstanceId id, bool fault_loss);

  // Records the first fault disruption of a task (idempotent); the next
  // successful container launch closes the re-placement latency sample.
  void MarkFaultDisrupted(TaskId task_id) {
    fault_disrupted_at_.try_emplace(task_id, now_);
  }

  void PushRound(SimTime at) {
    round_scheduled_ = true;
    next_round_time_ = at;
    queue_.Push(at, SimEventType::kRound);
  }

  // Arms the next spot repricing check if none is outstanding.
  void ArmSpotCheck();
  // Arms the next fault-schedule check if none is outstanding.
  void ArmFaultCheck();
  // Issues the two-minute warning for one spot instance: evicts its
  // assigned tasks, condemns it, and schedules the reclaim.
  void WarnSpotInstance(InstanceId id);

  bool SpotActive() const { return provider_ != nullptr && provider_->spot_enabled(); }
  bool FaultsActive() const { return options_.faults.enabled; }

  bool HasActiveJobs() const { return state_.num_active() > 0; }
  bool HasPendingArrivals() const { return next_arrival_ < trace_.jobs.size(); }

  // --- Observability (all no-ops when the sinks below are null) ----------

  // Sum of live instances' hourly prices — the cost-rate sample for the
  // round digest and the registry time series.
  double LiveHourlyCost() const {
    double total = 0.0;
    for (const auto& [id, instance] : state_.instances()) {
      total += catalog_.Get(instance.type_index).cost_per_hour;
    }
    return total;
  }

  // Order- and content-sensitive hash of the desired configuration; the
  // sharpest per-round fingerprint the flight recorder snapshots.
  std::uint64_t HashConfig(const ClusterConfig& config) const {
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
    auto mix = [&hash](std::uint64_t value) {
      hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    };
    mix(static_cast<std::uint64_t>(config.instances.size()));
    for (const ConfigInstance& instance : config.instances) {
      mix(static_cast<std::uint64_t>(instance.type_index));
      mix(static_cast<std::uint64_t>(instance.reuse_instance));
      mix(static_cast<std::uint64_t>(instance.tasks.size()));
      for (TaskId task : instance.tasks) {
        mix(static_cast<std::uint64_t>(task));
      }
    }
    return hash;
  }

  // Appends this round's digest and samples the registry time series.
  // Called once per scheduling round, coalesced rounds included, so digest
  // round indices line up with metrics_.scheduling_rounds across runs.
  void RecordRoundObservability() {
    const double hourly_cost = LiveHourlyCost();
    if (flight_ != nullptr) {
      RoundDigest digest;
      digest.t_s = now_;
      digest.config_hash = last_config_hash_;
      digest.rng_hash = rng_.StateHash();
      digest.hourly_cost = hourly_cost;
      digest.events_processed = metrics_.events_processed;
      digest.jobs_completed = metrics_.jobs_completed;
      digest.active_jobs = state_.num_active();
      digest.live_instances = static_cast<std::int64_t>(state_.instances().size());
      flight_->Record(digest);
    }
    if (registry_ != nullptr) {
      const double width = options_.observability.timeseries_bucket_s;
      registry_->Series("ts.hourly_cost", width).Sample(now_, hourly_cost);
      registry_->Series("ts.active_jobs", width).Sample(now_, state_.num_active());
      registry_->Series("ts.live_instances", width)
          .Sample(now_, static_cast<double>(state_.instances().size()));
      registry_->Series("ts.queue_depth", width)
          .Sample(now_, static_cast<double>(queue_.Size()));
      registry_->Series("ts.denials", width)
          .Sample(now_, static_cast<double>(metrics_.acquisitions_denied));
      // Packing divergence as the scheduler last measured it (zero until
      // the first reconciliation; zero throughout for exact-only runs).
      SchedulerCounters counters;
      scheduler_->ExportCounters(counters);
      registry_->Series("ts.divergence_cost", width)
          .Sample(now_, counters.last_divergence_cost);
      registry_->Hist("round.events_delta")
          .Record(metrics_.events_processed - last_round_events_);
      last_round_events_ = metrics_.events_processed;
    }
  }

  // True when this round is certifiably quiescent: the context the scheduler
  // would see and the observations it would receive are identical (up to the
  // clock and remaining-runtime estimates) to the previous round's, and the
  // previous configuration was applied without touching the cluster. Such a
  // round may be offered to Scheduler::CoalesceQuiescentRounds. Spot quotes
  // hold for a whole price step, so a spot round qualifies only while it
  // would price off the same quote snapshot as the previous round (spot
  // warnings and preemptions leave a pending delta, so they disqualify it
  // anyway). Fault injection is disqualifying: a fault can rip capacity out
  // between two otherwise-identical rounds.
  bool RoundIsQuiescent() const {
    return options_.coalesce_quiescent_rounds && !options_.physical_mode &&
           !FaultsActive() && last_apply_noop_ && !rates_dirty_since_round_ &&
           !state_.HasPendingDelta() && SameQuoteStep();
  }

  // True unless spot is on and this round's quote snapshot is not the one
  // the previous round priced off. SharedQuoteCatalog hands out one object
  // per price step, so identity means bit-identical prices.
  bool SameQuoteStep() const {
    return !SpotActive() ||
           provider_->SharedQuoteCatalog(now_, options_.spot_risk_premium) == quote_catalog_;
  }

  const Trace& trace_;
  Scheduler* scheduler_;
  SimulatorOptions options_;

  // Cloud provider market: owned for single-tenant runs, borrowed from the
  // federation otherwise; null when disabled. `catalog_` is the catalog the
  // engine actually runs against — the provider's tiered catalog (stable
  // object) when a provider exists, the caller's otherwise.
  std::unique_ptr<CloudProvider> provider_owned_;
  CloudProvider* provider_;
  const InstanceCatalog& catalog_;

  Rng rng_;

  ClusterState state_;
  ExecutionModel exec_;
  EventQueue queue_;
  TaskLifecycle lifecycle_;

  std::size_t next_arrival_ = 0;
  // The armed completion check: the only queued check allowed to run
  // HandleCompletionCheck. queued_checks_ holds the time of every completion
  // check still in the queue — the armed one plus superseded ones waiting to
  // pop — so no projection is ever queued twice.
  SimTime pending_completion_check_ = std::numeric_limits<SimTime>::infinity();
  std::vector<SimTime> queued_checks_;
  SimTime now_ = 0.0;
  bool round_scheduled_ = false;
  SimTime next_round_time_ = 0.0;
  bool aborted_ = false;

  // One outstanding spot repricing check at a time; re-armed while spot
  // instances are live and parked (flag false) when none remain.
  bool spot_check_armed_ = false;

  // Fault injection. The simulator-side view of the schedule — pure in
  // options_.faults, so it agrees bit-for-bit with the provider's capacity
  // clamp built from the same options. One outstanding kFaultCheck at a
  // time, re-armed while instances are live (the same idiom as spot).
  FaultModel fault_model_{options_.faults};
  bool fault_check_armed_ = false;
  // First fault disruption per not-yet-replaced task, and the closed
  // re-placement latency samples (disruption -> next successful launch).
  std::unordered_map<TaskId, SimTime> fault_disrupted_at_;
  std::vector<double> replacement_latency_s_;

  // Per-round decision-price snapshot: the tiered catalog with spot entries
  // at the current quote x (1 + risk premium). Borrowed from the provider's
  // step-keyed cache, so catalog identity changes exactly when a price step
  // boundary is crossed — pricing caches keyed on identity invalidate on
  // every real price change and only then, and all tenants rounding in one
  // step share one snapshot instead of building their own.
  std::shared_ptr<const InstanceCatalog> quote_catalog_;

  // Quiescence tracking for the batched round trigger. `last_apply_noop_`:
  // the previous round's configuration changed nothing (no launches,
  // terminations or moves — condemnations imply a non-empty terminate list,
  // so they clear it too). `rates_dirty_since_round_`: a task-rate-affecting
  // transition (instance ready, checkpoint/launch completion, an actual job
  // completion) fired since the previous round's observation snapshot;
  // cluster-shape changes are covered by the pending RoundDelta instead.
  bool last_apply_noop_ = false;
  bool rates_dirty_since_round_ = false;

  // Per-round context, refilled in place (FillContext) so its containers'
  // storage is reused round over round. Only alive during HandleRound; the
  // scheduler contract already forbids retaining the reference.
  SchedulingContext round_context_;

  // Round-scoped output buffers, rewritten in place every round: the
  // scheduler's desired configuration and its diff against the context.
  // These replace per-round temporaries (and ApplyConfig's PR-4
  // thread_local scratch — members give each simulator its own storage,
  // which is the stronger isolation under federation and parallel
  // comparison runs, and leave ScratchLease as the one thread-local
  // mechanism in the codebase).
  ClusterConfig round_config_;
  ConfigDiff round_diff_;
  std::vector<InstanceId> apply_binding_instance_;
  std::vector<char> apply_execute_;
  std::vector<InstanceId> apply_keep_visible_;

  // Per-event copy buffers (iteration-robust snapshots of instance task
  // sets and completion candidates), reused so handlers allocate nothing
  // at steady state. scratch_evict_ids_ is distinct because
  // HandleSpotPreempt snapshots two sets in one call.
  std::vector<TaskId> scratch_task_ids_;
  std::vector<TaskId> scratch_evict_ids_;
  std::vector<JobId> scratch_job_ids_;
  std::vector<InstanceId> scratch_instance_ids_;

  // Observability sinks, unpacked from options_.observability at
  // construction; all null in the default (off) configuration, so every
  // hook below is one pointer test on the hot path.
  TraceRecorder* obs_trace_ = nullptr;
  std::uint32_t track_ = 0;
  FlightRecorder* flight_ = nullptr;
  TelemetryRegistry* registry_ = nullptr;
  std::uint64_t last_config_hash_ = 0;
  std::int64_t last_round_events_ = 0;

  SimulationMetrics metrics_;
};

void Simulator::Impl::Advance(SimTime to) {
  const double dt = to - now_;
  if (dt <= 0.0) {
    now_ = std::max(now_, to);
    return;
  }
  exec_.IntegrateWork(dt);
  state_.IntegrateTo(dt);
  now_ = to;
}

void Simulator::Impl::RecomputeAndArm() {
  const SimTime earliest = exec_.RecomputeDirtyRates(now_);
  // At most one armed check per projection. A projection is armed only when
  // it is earlier than the armed one; the entry it supersedes stays queued
  // and pops as a no-op that still steps the integration (its step boundary
  // is part of the trajectory). When a superseded entry already sits at the
  // new projection's time, that entry is re-armed instead of queueing a
  // second copy.
  if (earliest >= 0.0 && earliest < pending_completion_check_ - 1e-9) {
    pending_completion_check_ = earliest;
    if (std::find(queued_checks_.begin(), queued_checks_.end(), earliest) ==
        queued_checks_.end()) {
      queued_checks_.push_back(earliest);
      queue_.Push(earliest, SimEventType::kCompletionCheck);
    }
  }
}

void Simulator::Impl::RetireQueuedCheck(SimTime time) {
  auto it = std::find(queued_checks_.begin(), queued_checks_.end(), time);
  assert(it != queued_checks_.end());
  *it = queued_checks_.back();
  queued_checks_.pop_back();
  // The armed check is never duplicated: no other queued check shares its
  // time.
  assert(std::find(queued_checks_.begin(), queued_checks_.end(), time) ==
         queued_checks_.end());
}

void Simulator::Impl::HandleArrival(std::int64_t job_index) {
  const JobSpec& spec = trace_.jobs[static_cast<std::size_t>(job_index)];
  // Admission control: reject jobs no instance type can host (the paper
  // filters these from the trace).
  const std::optional<int> fits = catalog_.CheapestFitting(
      [&spec](InstanceFamily family) { return spec.DemandFor(family); });
  if (!fits.has_value()) {
    EVA_LOG_WARNING("job " EVA_PRId64 " demand %s fits no instance type; dropped",
                    spec.id, spec.demand_p3.ToString().c_str());
    return;
  }
  const JobRec& job = state_.AddJob(spec);
  exec_.OnJobAdded(job);
  metrics_.tasks_total += spec.num_tasks;
  ++metrics_.jobs_submitted;
}

void Simulator::Impl::HandleRound() {
  round_scheduled_ = false;
  ++metrics_.scheduling_rounds;

  // Quiescence-aware trigger: a certified no-op round is offered to the
  // scheduler for absorption instead of being dispatched. The event and
  // integration trajectory is untouched (this round event was popped and
  // advanced exactly as always; the next one is pushed exactly as always),
  // so every simulated quantity stays bit-identical — the only difference
  // is that the observation/context/schedule/validate/apply machinery,
  // provably a no-op this round, never runs. An absorbed round changes no
  // state, so the keep-scheduling condition equals the previous round's,
  // which was true (it pushed this event).
  if (RoundIsQuiescent() &&
      (HasActiveJobs() || HasPendingArrivals() || state_.HasLiveInstances()) &&
      scheduler_->CoalesceQuiescentRounds(1, options_.scheduling_period_s) > 0) {
    ++metrics_.rounds_coalesced;
    if (obs_trace_ != nullptr) {
      obs_trace_->Instant(track_, "round.coalesced", now_);
    }
    if (flight_ != nullptr || registry_ != nullptr) {
      RecordRoundObservability();
    }
    PushRound(now_ + options_.scheduling_period_s);
    return;
  }

  // Report the last window's throughput (the EvaIterator channel), then ask
  // for the desired configuration. The context carries the RoundDelta the
  // cluster state accumulated since the previous round, and the scheduler
  // calls are timed so the benches can report per-round decision latency.
  const std::vector<JobThroughputObservation>& observations = exec_.CollectObservations(
      options_.physical_mode, options_.observation_noise_stddev, &rng_);
  SchedulingContext& context = round_context_;  // Reused storage across rounds.
  state_.FillContext(now_, options_.grant_runtime_estimates, context);
  if (SpotActive()) {
    // Reprice the spot tier for this round's decision. The snapshot comes
    // from the provider's step-keyed cache: rounds within one price step
    // see the same object (prices bit-identical by construction), and a
    // step crossing swaps in a new identity so every pricing cache sees
    // the change. Cached snapshots are never freed, so identities never
    // collide.
    quote_catalog_ = provider_->SharedQuoteCatalog(now_, options_.spot_risk_premium);
    context.catalog = quote_catalog_.get();
  }
  state_.DrainRoundDelta(context.delta);
  rates_dirty_since_round_ = false;  // This round's snapshot is the new baseline.
  const auto sched_start = std::chrono::steady_clock::now();
  scheduler_->ObserveThroughput(observations);
  // Round-scoped storage: the config is written into the same buffers every
  // round (schedulers reuse element capacity instead of building a fresh
  // ClusterConfig), per the arena discipline of reset-not-reallocate.
  ClusterConfig& config = round_config_;
  scheduler_->ScheduleInto(context, config);
  metrics_.scheduler_wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sched_start).count();

  if (options_.validate_configs) {
    if (const auto error = config.Validate(context)) {
      EVA_LOG_ERROR("scheduler %s returned invalid config at t=%.0f: %s",
                    scheduler_->name().c_str(), now_, error->c_str());
      // Keep replaying the rejection (and its log line) every round rather
      // than certifying a round that never applied its configuration.
      last_apply_noop_ = false;
    } else {
      ApplyConfig(context, config);
    }
  } else {
    ApplyConfig(context, config);
  }

  // Keep the cadence while there is anything left to manage (evaluated after
  // the configuration took effect, so a final cleanup round ends the chain).
  if (HasActiveJobs() || HasPendingArrivals() || state_.HasLiveInstances()) {
    PushRound(now_ + options_.scheduling_period_s);
  }

  if (obs_trace_ != nullptr) {
    obs_trace_->Instant(track_, "round", now_, "active_jobs",
                    static_cast<double>(state_.num_active()), "live_instances",
                    static_cast<double>(state_.instances().size()));
  }
  if (flight_ != nullptr || registry_ != nullptr) {
    RecordRoundObservability();
  }
}

void Simulator::Impl::ApplyConfig(const SchedulingContext& context,
                                  const ClusterConfig& config) {
  ConfigDiff& diff = round_diff_;  // Reused storage across rounds.
  DiffConfigInto(context, config, diff);

  if (flight_ != nullptr) {
    last_config_hash_ = HashConfig(config);
  }
  if (obs_trace_ != nullptr) {
    obs_trace_->Instant(track_, "config.apply", now_, "launches",
                    static_cast<double>(diff.NumLaunches()), "moves",
                    static_cast<double>(diff.moves.size()));
  }

  // An application that launches, terminates (or condemns) or moves nothing
  // leaves the cluster exactly as the scheduler saw it — the precondition
  // for certifying the following rounds quiescent.
  last_apply_noop_ =
      diff.terminate.empty() && diff.moves.empty() && diff.NumLaunches() == 0;

  // Launch new instances, subject to provider admission: an exhausted
  // family pool denies the launch, the binding stays unbound, and every
  // task routed to it keeps its previous placement until a later round
  // succeeds (or the scheduler gives up).
  bool any_denied = false;
  std::vector<InstanceId>& binding_instance = apply_binding_instance_;
  binding_instance.assign(diff.bindings.size(), kInvalidInstanceId);
  for (std::size_t i = 0; i < diff.bindings.size(); ++i) {
    const ConfigDiff::Binding& binding = diff.bindings[i];
    if (binding.existing_id != kInvalidInstanceId) {
      binding_instance[i] = binding.existing_id;
      continue;
    }
    std::int64_t slot = -1;
    if (provider_ != nullptr && !provider_->TryAcquire(binding.type_index, now_, &slot)) {
      ++metrics_.acquisitions_denied;
      any_denied = true;
      EVA_LOG_DEBUG("tenant %d: launch of type %d denied at t=%.0f", options_.tenant_id,
                    binding.type_index, now_);
      continue;
    }
    const SimTime delay = options_.cloud_delays.ProvisioningDelay(
        options_.physical_mode ? &rng_ : nullptr);
    InstRec& instance = state_.CreateInstance(binding.type_index, now_, now_ + delay);
    instance.provider_slot = slot;
    if (FaultsActive()) {
      // Zone placement is a pure hash over the zones up right now, so an
      // instance never launches into an ongoing outage.
      instance.zone = fault_model_.ZoneAt(options_.tenant_id, instance.id, now_);
      ArmFaultCheck();
    }
    binding_instance[i] = instance.id;
    queue_.Push(instance.ready_time, SimEventType::kInstanceReady, instance.id);
    if (provider_ != nullptr && provider_->IsSpotType(binding.type_index)) {
      ++metrics_.spot_instances_launched;
      ArmSpotCheck();
    }
  }

  // Which moves execute. Without denials: every move (the config was
  // validated whole, and capacity is "eventual" — swaps may transiently
  // overlap). A denial, however, strands each dropped move's task on its
  // current instance, which the scheduler's plan assumed vacated — blindly
  // executing the arrivals into that instance would over-commit it, and the
  // oversubscribed assignment would then poison every later round (Partial
  // Reconfiguration keeps instances verbatim, so the invalid set never
  // heals). Re-verify arrivals against projected capacity instead, dropping
  // (in diff order, to a fixpoint — a dropped arrival bounces its task back
  // to an instance earlier arrivals were checked without) whatever no
  // longer fits.
  std::vector<char>& execute = apply_execute_;  // Reused round scratch.
  execute.assign(diff.moves.size(), 1);
  for (std::size_t i = 0; i < diff.moves.size(); ++i) {
    const TaskRec* task = state_.FindTask(diff.moves[i].task);
    if (task == nullptr || task->state == TaskState::kDone ||
        binding_instance[static_cast<std::size_t>(diff.moves[i].to_binding)] ==
            kInvalidInstanceId) {
      execute[i] = 0;
    }
  }
  if (any_denied) {
    // Move sources/destinations are live by the assigned-set invariant
    // (MaybeTerminate requires assigned empty), so the instance lookup is
    // dereferenced unchecked — pricing demand against a substitute family
    // would silently corrupt the capacity re-verify.
    const auto demand_on = [&](const TaskRec& task, InstanceId instance_id) {
      const InstanceFamily family =
          catalog_.Get(state_.FindInstance(instance_id)->type_index).family;
      return task.job_ref->spec.DemandFor(family);
    };
    for (bool changed = true; changed;) {
      changed = false;
      // Projected per-instance demand if the currently executable moves all
      // run: start from the live assignment, apply departures, then re-add
      // arrivals one by one with a fit check at the destination.
      std::map<InstanceId, ResourceVector> projected;
      const auto projected_for = [&](InstanceId id) -> ResourceVector& {
        auto [it, inserted] = projected.try_emplace(id);
        if (inserted) {
          if (const InstRec* instance = state_.FindInstance(id)) {
            for (TaskId task_id : instance->assigned) {
              if (const TaskRec* task = state_.FindTask(task_id)) {
                it->second += demand_on(*task, id);
              }
            }
          }
        }
        return it->second;
      };
      for (std::size_t i = 0; i < diff.moves.size(); ++i) {
        if (!execute[i]) {
          continue;
        }
        const TaskRec& task = *state_.FindTask(diff.moves[i].task);
        if (task.target != kInvalidInstanceId) {
          projected_for(task.target) -= demand_on(task, task.target);
        }
      }
      for (std::size_t i = 0; i < diff.moves.size(); ++i) {
        if (!execute[i]) {
          continue;
        }
        const InstanceId dest =
            binding_instance[static_cast<std::size_t>(diff.moves[i].to_binding)];
        const TaskRec& task = *state_.FindTask(diff.moves[i].task);
        ResourceVector& load = projected_for(dest);
        const ResourceVector demand = demand_on(task, dest);
        ResourceVector with = load;
        with += demand;
        const InstRec& inst = *state_.FindInstance(dest);
        if (with.FitsWithin(catalog_.Get(inst.type_index).capacity)) {
          load = with;
          continue;
        }
        // Dropped: the task stays put; its departure must not have been
        // applied. Restore and re-verify from the top.
        execute[i] = 0;
        if (task.target != kInvalidInstanceId) {
          projected_for(task.target) += demand_on(task, task.target);
        }
        changed = true;
      }
    }
  }

  // Condemn instances leaving the configuration — except any that still
  // host a task whose move was dropped above. Condemned instances vanish
  // from the scheduler's context, so condemning one with a stranded task
  // would pin that task to an invisible instance no later round can
  // re-pool; keeping the instance visible keeps the "denials throttle,
  // the scheduler retries" loop real. Without denials every move executes
  // (dropped entries are dead/absent tasks only), so this is exactly the
  // old unconditional condemn.
  std::vector<InstanceId>& keep_visible = apply_keep_visible_;  // Reused round scratch.
  keep_visible.clear();
  for (std::size_t i = 0; i < diff.moves.size(); ++i) {
    if (execute[i]) {
      continue;
    }
    const TaskRec* task = state_.FindTask(diff.moves[i].task);
    if (task != nullptr && task->state != TaskState::kDone &&
        task->target != kInvalidInstanceId) {
      keep_visible.push_back(task->target);
    }
  }
  for (InstanceId id : diff.terminate) {
    if (std::find(keep_visible.begin(), keep_visible.end(), id) == keep_visible.end()) {
      state_.Condemn(id);
    }
  }

  // Execute the surviving moves.
  for (std::size_t i = 0; i < diff.moves.size(); ++i) {
    if (!execute[i]) {
      continue;
    }
    const ConfigDiff::Move& move = diff.moves[i];
    TaskRec* task = state_.FindTask(move.task);
    if (move.from_instance != kInvalidInstanceId) {
      ++metrics_.task_migrations;
    }
    lifecycle_.Retarget(*task, binding_instance[static_cast<std::size_t>(move.to_binding)],
                        now_);
  }

  // Condemned instances with nothing left terminate immediately.
  std::vector<InstanceId>& condemned = scratch_instance_ids_;
  condemned.clear();
  for (const auto& [id, instance] : state_.instances()) {
    if (instance.condemned) {
      condemned.push_back(id);
    }
  }
  for (InstanceId id : condemned) {
    state_.MaybeTerminate(id, now_);
  }
}

void Simulator::Impl::HandleInstanceReady(InstanceId id) {
  InstRec* inst = state_.FindInstance(id);
  if (inst == nullptr) {
    return;
  }
  inst->ready = true;
  // Launch everything parked on this instance. Copy the set: TryLaunch does
  // not mutate `assigned`, but keep the iteration robust anyway.
  std::vector<TaskId>& parked = scratch_task_ids_;
  parked.assign(inst->assigned.begin(), inst->assigned.end());
  for (TaskId task_id : parked) {
    if (TaskRec* task = state_.FindTask(task_id)) {
      lifecycle_.TryLaunch(*task, now_);
    }
  }
}

void Simulator::Impl::HandleCompletionCheck() {
  pending_completion_check_ = std::numeric_limits<SimTime>::infinity();
  if (exec_.completion_candidates().empty()) {
    // The projection landed a hair before the stepwise integration drained
    // the job; RecomputeAndArm arms the refreshed projection.
    ++metrics_.events_noop;
    return;
  }
  rates_dirty_since_round_ = true;
  std::vector<JobId>& finished = scratch_job_ids_;
  finished.assign(exec_.completion_candidates().begin(),
                  exec_.completion_candidates().end());
  for (JobId job_id : finished) {
    lifecycle_.CompleteJob(*state_.FindJob(job_id), now_, metrics_);
  }
}

void Simulator::Impl::ArmSpotCheck() {
  if (!SpotActive() || spot_check_armed_) {
    return;
  }
  spot_check_armed_ = true;
  queue_.Push(provider_->market().NextStepBoundary(now_), SimEventType::kSpotCheck);
}

void Simulator::Impl::WarnSpotInstance(InstanceId id) {
  InstRec* inst = state_.FindInstance(id);
  if (inst == nullptr) {
    return;
  }
  ++metrics_.spot_preemptions;
  provider_->RecordPreemption(inst->type_index);
  if (obs_trace_ != nullptr) {
    obs_trace_->Instant(track_, "spot.warn", now_, "instance",
                    static_cast<double>(id), "type",
                    static_cast<double>(inst->type_index));
  }
  EVA_LOG_DEBUG("tenant %d: spot instance " EVA_PRId64
                " (type %d) preemption warning at t=%.0f",
                options_.tenant_id, id, inst->type_index, now_);
  // Evict every task routed here: running tasks checkpoint (and park
  // kPending when the checkpoint lands), parked/launching tasks drop back
  // to the pending pool immediately.
  std::vector<TaskId>& assigned = scratch_task_ids_;
  assigned.assign(inst->assigned.begin(), inst->assigned.end());
  for (TaskId task_id : assigned) {
    if (TaskRec* task = state_.FindTask(task_id)) {
      lifecycle_.Evict(*task, now_);
    }
  }
  // Condemned: invisible to the scheduler from the next context on, and
  // terminated (capacity released) the moment the last container leaves —
  // possibly right now, if nothing was placed yet.
  state_.Condemn(id);
  queue_.Push(now_ + provider_->market().options().warning_s, SimEventType::kSpotPreempt,
              id);
  state_.MaybeTerminate(id, now_);
}

void Simulator::Impl::HandleSpotCheck() {
  spot_check_armed_ = false;
  // Scan live spot instances in id order (deterministic) for types whose
  // quote crossed the preemption threshold this step.
  std::vector<InstanceId> to_warn;
  bool any_spot_live = false;
  for (const auto& [id, instance] : state_.instances()) {
    if (!provider_->IsSpotType(instance.type_index)) {
      continue;
    }
    any_spot_live = true;
    if (instance.condemned) {
      continue;  // Already warned (or draining); reclaim is scheduled.
    }
    if (provider_->market().IsPreempting(provider_->BaseType(instance.type_index), now_)) {
      to_warn.push_back(id);
    }
  }
  for (InstanceId id : to_warn) {
    WarnSpotInstance(id);
  }
  if (any_spot_live) {
    ArmSpotCheck();  // Keep repricing while spot capacity is held.
  }
}

void Simulator::Impl::HandleSpotPreempt(InstanceId id) {
  // The notice expired with containers still aboard (checkpoints slower
  // than the warning): they are lost. Spot losses are tallied by the spot
  // counters, not the fault ledger.
  if (obs_trace_ != nullptr) {
    obs_trace_->Instant(track_, "spot.preempt", now_, "instance",
                    static_cast<double>(id));
  }
  AbruptReclaim(id, /*fault_loss=*/false);
}

void Simulator::Impl::AbruptReclaim(InstanceId id, bool fault_loss) {
  InstRec* inst = state_.FindInstance(id);
  if (inst == nullptr) {
    return;  // Already drained and terminated.
  }
  if (fault_loss) {
    ++metrics_.faults.instances_killed;
  }
  // Mark neighbors dirty first — the instance record disappears below.
  exec_.MarkInstanceDirty(*inst);
  std::vector<TaskId>& present = scratch_task_ids_;
  present.assign(inst->present.begin(), inst->present.end());
  for (TaskId task_id : present) {
    TaskRec* task = state_.FindTask(task_id);
    if (task == nullptr) {
      continue;
    }
    if (fault_loss) {
      // A container died with work in flight: everything since its launch
      // is gone (no checkpoint finished, or the event would have removed it
      // from the present set already).
      ++metrics_.faults.tasks_lost;
      if (task->running_since >= 0.0) {
        metrics_.faults.lost_work_seconds += std::max(now_ - task->running_since, 0.0);
      }
      MarkFaultDisrupted(task_id);
    }
    ++task->version;  // Cancels the in-flight checkpoint completion.
    state_.RemoveContainer(*task);
    if (task->target != kInvalidInstanceId && task->target != id) {
      // Outbound migration interrupted: the container is gone either way;
      // relaunch at the (still valid) destination.
      task->state = TaskState::kWaiting;
      lifecycle_.TryLaunch(*task, now_);
    } else {
      state_.ClearTarget(*task);
      task->state = TaskState::kPending;
    }
  }
  // Anything still assigned (tasks parked, launching, or bound here without
  // a container yet) drops back to pending too.
  std::vector<TaskId>& assigned = scratch_evict_ids_;
  assigned.assign(inst->assigned.begin(), inst->assigned.end());
  for (TaskId task_id : assigned) {
    if (TaskRec* task = state_.FindTask(task_id)) {
      if (fault_loss) {
        MarkFaultDisrupted(task_id);
      }
      lifecycle_.Evict(*task, now_);
    }
  }
  state_.Condemn(id);
  state_.MaybeTerminate(id, now_);
}

void Simulator::Impl::ArmFaultCheck() {
  if (!FaultsActive() || fault_check_armed_) {
    return;
  }
  fault_check_armed_ = true;
  queue_.Push(fault_model_.NextStepBoundary(now_), SimEventType::kFaultCheck);
}

void Simulator::Impl::HandleFaultCheck() {
  fault_check_armed_ = false;
  const std::int64_t step = fault_model_.StepOf(now_);
  const FaultInjectorOptions& fopts = fault_model_.options();
  // Zone events go through the queue (at now_, after this event's seq) so
  // they appear in the trace as first-class events; correlated bursts act
  // inline — their victim set is computed from the live set right here.
  for (int zone = 0; zone < fopts.num_zones; ++zone) {
    if (fault_model_.ZoneOutageStartsAt(zone, step)) {
      queue_.Push(now_, SimEventType::kZoneOutage, zone);
    }
    if (fault_model_.DrainStartsAt(zone, step)) {
      queue_.Push(now_, SimEventType::kDrainStart, zone);
    }
  }
  for (int family = 0; family < kNumInstanceFamilies; ++family) {
    if (!fault_model_.CorrelatedFailureAt(family, step)) {
      continue;
    }
    // Rank the family's live instances by a pure hash and kill the lowest
    // K: the victim set is a function of (schedule, live set) only, never
    // of map iteration or event interleaving.
    std::vector<std::pair<std::uint64_t, InstanceId>> ranked;
    for (const auto& [id, instance] : state_.instances()) {
      if (instance.condemned ||
          static_cast<int>(catalog_.Get(instance.type_index).family) != family) {
        continue;
      }
      ranked.emplace_back(fault_model_.VictimRank(options_.tenant_id, id, step), id);
    }
    if (ranked.empty()) {
      continue;  // Scheduled burst found nothing to kill; not counted.
    }
    ++metrics_.faults.correlated_failures;
    std::sort(ranked.begin(), ranked.end());
    const std::size_t burst =
        std::min(ranked.size(), static_cast<std::size_t>(
                                    std::max(fopts.correlated_failure_size, 0)));
    if (obs_trace_ != nullptr) {
      obs_trace_->Instant(track_, "fault.correlated", now_, "family",
                      static_cast<double>(family), "victims",
                      static_cast<double>(burst));
    }
    for (std::size_t i = 0; i < burst; ++i) {
      AbruptReclaim(ranked[i].second, /*fault_loss=*/true);
    }
  }
  if (state_.HasLiveInstances()) {
    ArmFaultCheck();  // Keep checking while anything can still fail.
  }
}

void Simulator::Impl::HandleZoneOutage(int zone) {
  ++metrics_.faults.zone_outages;
  EVA_LOG_DEBUG("tenant %d: zone %d outage at t=%.0f", options_.tenant_id, zone, now_);
  // The zone drops wholesale: every instance in it — ready, provisioning,
  // even already-condemned — dies abruptly, in id order.
  std::vector<InstanceId>& victims = scratch_instance_ids_;
  victims.clear();
  for (const auto& [id, instance] : state_.instances()) {
    if (instance.zone == zone) {
      victims.push_back(id);
    }
  }
  if (obs_trace_ != nullptr) {
    obs_trace_->Instant(track_, "fault.zone_outage", now_, "zone",
                    static_cast<double>(zone), "victims",
                    static_cast<double>(victims.size()));
  }
  for (InstanceId id : victims) {
    AbruptReclaim(id, /*fault_loss=*/true);
  }
}

void Simulator::Impl::HandleDrainStart(int zone) {
  ++metrics_.faults.maintenance_drains;
  EVA_LOG_DEBUG("tenant %d: zone %d maintenance drain at t=%.0f", options_.tenant_id,
                zone, now_);
  std::vector<InstanceId>& draining = scratch_instance_ids_;
  draining.clear();
  for (const auto& [id, instance] : state_.instances()) {
    if (!instance.condemned && instance.zone == zone) {
      draining.push_back(id);
    }
  }
  if (obs_trace_ != nullptr) {
    obs_trace_->Instant(track_, "fault.drain_start", now_, "zone",
                    static_cast<double>(zone), "instances",
                    static_cast<double>(draining.size()));
  }
  // The graceful twin of WarnSpotInstance, with a longer lead: evict every
  // assigned task through checkpoint-then-pend, condemn the instance, and
  // only reclaim abruptly if containers outlast the notice.
  for (InstanceId id : draining) {
    InstRec* inst = state_.FindInstance(id);
    if (inst == nullptr) {
      continue;
    }
    ++metrics_.faults.instances_drained;
    std::vector<TaskId>& assigned = scratch_task_ids_;
    assigned.assign(inst->assigned.begin(), inst->assigned.end());
    for (TaskId task_id : assigned) {
      if (TaskRec* task = state_.FindTask(task_id)) {
        ++metrics_.faults.tasks_evicted;
        MarkFaultDisrupted(task_id);
        lifecycle_.Evict(*task, now_);
      }
    }
    state_.Condemn(id);
    queue_.Push(now_ + fault_model_.options().drain_notice_s,
                SimEventType::kDrainDeadline, id);
    state_.MaybeTerminate(id, now_);
  }
}

void Simulator::Impl::HandleDrainDeadline(InstanceId id) {
  // Whatever survived the notice (checkpoints slower than the lead time) is
  // reclaimed the hard way; a cleanly drained instance is long gone and
  // this is a no-op.
  AbruptReclaim(id, /*fault_loss=*/true);
}

bool Simulator::Impl::ProcessOneEvent() {
  const SimEvent event = queue_.Pop();
  if (event.time > options_.max_sim_time_s) {
    EVA_LOG_ERROR("simulation exceeded max time; aborting with %d active jobs",
                  state_.num_active());
    aborted_ = true;
    // Pay for and release everything immediately: in a federation, an
    // aborted tenant must not sit on shared pool capacity while the
    // surviving tenants finish (Finish()'s own TerminateAllLive is then a
    // no-op — same cost, same uptime samples, charged at the same now_).
    state_.TerminateAllLive(now_);
    return false;
  }
  Advance(event.time);
  ++metrics_.events_processed;
  ++metrics_.events_by_type[static_cast<std::size_t>(event.type)];
  if (obs_trace_ != nullptr && options_.observability.trace_engine_events) {
    obs_trace_->Instant(track_, SimEventSpanName(event.type), event.time, "a",
                    static_cast<double>(event.a));
  }
  EVA_LOG_DEBUG("event t=%.3f type=%d a=" EVA_PRId64
                " v=%d active=%d live=%zu queue=%zu",
                event.time, static_cast<int>(event.type), event.a, event.version,
                state_.num_active(), state_.instances().size(), queue_.Size());
  switch (event.type) {
    case SimEventType::kArrival:
      HandleArrival(event.a);
      ++next_arrival_;
      if (HasPendingArrivals()) {
        queue_.Push(trace_.jobs[next_arrival_].arrival_time_s, SimEventType::kArrival,
                    static_cast<std::int64_t>(next_arrival_));
      }
      if (!round_scheduled_) {
        // The cluster drained; resume scheduling rounds.
        PushRound(now_);
      }
      break;
    case SimEventType::kRound:
      HandleRound();
      break;
    case SimEventType::kInstanceReady:
      // Task-rate transitions invalidate round quiescence: the next
      // round's observations can differ even when the RoundDelta is empty
      // (these transitions never touch the delta).
      rates_dirty_since_round_ = true;
      HandleInstanceReady(event.a);
      break;
    case SimEventType::kCheckpointDone:
      if (TaskRec* task = state_.FindTask(event.a)) {
        if (task->version == event.version && task->state == TaskState::kCheckpointing) {
          rates_dirty_since_round_ = true;
          lifecycle_.OnCheckpointDone(*task, now_);
        }
      }
      break;
    case SimEventType::kLaunchDone:
      if (TaskRec* task = state_.FindTask(event.a)) {
        if (task->version == event.version && task->state == TaskState::kLaunching) {
          rates_dirty_since_round_ = true;
          lifecycle_.OnLaunchDone(*task, now_);
          if (!fault_disrupted_at_.empty()) {
            // A fault-disrupted task is back on a container: close its
            // re-placement latency sample.
            const auto it = fault_disrupted_at_.find(task->id);
            if (it != fault_disrupted_at_.end()) {
              replacement_latency_s_.push_back(now_ - it->second);
              fault_disrupted_at_.erase(it);
            }
          }
        }
      }
      break;
    case SimEventType::kCompletionCheck:
      RetireQueuedCheck(event.time);
      // Only the armed check runs the handler. A superseded one has done its
      // part (the Advance above) and must leave the arming alone: resetting
      // it would queue a second copy of the armed projection, and every copy
      // would re-arm the next projection in turn.
      if (event.time == pending_completion_check_) {
        HandleCompletionCheck();
      } else {
        ++metrics_.events_noop;
      }
      break;
    case SimEventType::kSpotCheck:
      rates_dirty_since_round_ = true;
      HandleSpotCheck();
      break;
    case SimEventType::kSpotPreempt:
      rates_dirty_since_round_ = true;
      HandleSpotPreempt(event.a);
      break;
    case SimEventType::kFaultCheck:
      rates_dirty_since_round_ = true;
      HandleFaultCheck();
      break;
    case SimEventType::kZoneOutage:
      rates_dirty_since_round_ = true;
      HandleZoneOutage(static_cast<int>(event.a));
      break;
    case SimEventType::kDrainStart:
      rates_dirty_since_round_ = true;
      HandleDrainStart(static_cast<int>(event.a));
      break;
    case SimEventType::kDrainDeadline:
      rates_dirty_since_round_ = true;
      HandleDrainDeadline(event.a);
      break;
  }
  RecomputeAndArm();
  return true;
}

void Simulator::Impl::Start() {
  metrics_ = SimulationMetrics{};
  metrics_.scheduler_name = scheduler_->name();
  metrics_.trace_name = trace_.name;

  // Arrivals are injected lazily — each arrival pushes its successor — so
  // the heap holds only live events instead of the whole future trace
  // (popping from a 2,000-deep heap dominated the event loop). The event
  // queue's arrival-first tie-break keeps the pop order identical to the
  // old eager push (see SimEvent::operator>).
  if (!trace_.jobs.empty()) {
    queue_.Push(trace_.jobs[0].arrival_time_s, SimEventType::kArrival, 0);
  }
  PushRound(std::max(options_.first_round_offset_s, 0.0));
}

void Simulator::Impl::AdvanceUntil(SimTime limit) {
  while (!aborted_ && !queue_.Empty() && queue_.Top().time < limit &&
         queue_.Top().type != SimEventType::kRound) {
    ProcessOneEvent();
  }
}

void Simulator::Impl::ProcessEventsThrough(SimTime t) {
  while (!aborted_ && !queue_.Empty() && queue_.Top().time <= t) {
    ProcessOneEvent();
  }
}

SimulationMetrics Simulator::Impl::Finish() {
  // Safety: pay for any instance still alive (a well-behaved run terminates
  // everything via the final cleanup round).
  state_.TerminateAllLive(now_);

  metrics_.makespan_s = now_;
  metrics_.migrations_per_task =
      metrics_.tasks_total > 0
          ? static_cast<double>(metrics_.task_migrations) / metrics_.tasks_total
          : 0.0;
  scheduler_->ExportCounters(metrics_.scheduler_counters);
  state_.FinalizeMetrics(metrics_);
  if (FaultsActive()) {
    FaultStats& faults = metrics_.faults;
    faults.replacements_completed =
        static_cast<std::int64_t>(replacement_latency_s_.size());
    if (!replacement_latency_s_.empty()) {
      faults.replacement_latency_min_s =
          *std::min_element(replacement_latency_s_.begin(), replacement_latency_s_.end());
      faults.replacement_latency_median_s = Quantile(replacement_latency_s_, 0.5);
      faults.replacement_latency_p95_s = Quantile(replacement_latency_s_, 0.95);
    }
    // Goodput indicator: executed / (executed + lost), 1.0 in a fault-free
    // run. `lost_work_seconds` is the re-execution debt a real fleet would
    // pay for destroyed containers (progress since launch that no
    // checkpoint preserved) — a ledger quantity layered on top of the
    // executed-time integral, not a rewind of it.
    const double executed = state_.TotalRunningSeconds();
    const double attempted = executed + faults.lost_work_seconds;
    faults.goodput_ratio = attempted > 0.0 ? executed / attempted : 1.0;
  }
  // Project the finished run onto the uniform registry schema (sim.*,
  // scheduler.*, faults.*) next to whatever the per-round sampler recorded.
  PublishSimulationMetrics(metrics_, registry_);
  return metrics_;
}

SimulationMetrics Simulator::Impl::Run() {
  Start();
  while (!queue_.Empty()) {
    if (!ProcessOneEvent()) {
      break;
    }
  }
  return Finish();
}

Simulator::Simulator(const Trace& trace, Scheduler* scheduler, const InstanceCatalog& catalog,
                     const InterferenceModel& interference, SimulatorOptions options)
    : impl_(std::make_unique<Impl>(trace, scheduler, catalog, interference, options)) {}

Simulator::~Simulator() = default;

SimulationMetrics Simulator::Run() { return impl_->Run(); }

void Simulator::Start() { impl_->Start(); }
SimTime Simulator::NextRoundTime() const { return impl_->NextRoundTime(); }
SimTime Simulator::NextEventTime() const { return impl_->NextEventTime(); }
bool Simulator::Drained() const { return impl_->Drained(); }
void Simulator::AdvanceUntil(SimTime limit) { impl_->AdvanceUntil(limit); }
void Simulator::ProcessEventsThrough(SimTime t) { impl_->ProcessEventsThrough(t); }
SimulationMetrics Simulator::Finish() { return impl_->Finish(); }

SimulationMetrics RunSimulation(const Trace& trace, Scheduler* scheduler,
                                const InstanceCatalog& catalog,
                                const InterferenceModel& interference,
                                const SimulatorOptions& options) {
  Simulator simulator(trace, scheduler, catalog, interference, options);
  return simulator.Run();
}

}  // namespace eva
