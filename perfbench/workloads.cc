#include "workloads.h"

#include <cstdio>
#include <limits>

#include "src/cloud/instance_type.h"
#include "src/common/rng.h"
#include "src/sim/experiment.h"
#include "src/sim/simulator.h"
#include "src/workload/interference.h"
#include "src/workload/trace_gen.h"
#include "src/workload/workload.h"

namespace perfbench {

namespace {

constexpr int kBaseJobs = 2000;
constexpr int kOpenJobs = 10000;
constexpr int kFedTenants = 100;
constexpr int kFedJobsPerTenant = 40;
constexpr std::uint64_t kAlibabaSeed = 17;
constexpr std::uint64_t kScaleSeed = 23;
constexpr std::uint64_t kShardSeedBase = 101;
constexpr std::uint64_t kSpotSeed = 4242;

eva::Trace MakeBaseTrace(std::uint64_t seed) {
  eva::AlibabaTraceOptions options;
  options.num_jobs = kBaseJobs;
  options.seed = kAlibabaSeed;
  options.max_duration_hours = 48.0;
  eva::Trace base = eva::GenerateAlibabaTrace(options);
  if (seed == kDefaultSeed) {
    return base;
  }
  // Same class rule as the generator: GPU jobs draw a GPU workload model,
  // CPU jobs a CPU one.
  const std::vector<eva::WorkloadId> gpu = eva::WorkloadRegistry::GpuWorkloads();
  const std::vector<eva::WorkloadId> cpu = eva::WorkloadRegistry::CpuWorkloads();
  eva::Rng rng(seed);
  for (eva::JobSpec& job : base.jobs) {
    if (rng.Uniform(0.0, 1.0) >= kRedrawFraction) {
      continue;
    }
    const std::vector<eva::WorkloadId>& models = job.demand_p3.gpus() > 0.0 ? gpu : cpu;
    job.workload = models[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(models.size()) - 1))];
  }
  return base;
}

eva::Trace MakeSingleTrace(Workload workload, std::uint64_t seed) {
  if (workload == Workload::kCapped2k) {
    return MakeBaseTrace(kDefaultSeed);
  }
  eva::TraceScaleOptions scale;
  scale.target_jobs = kOpenJobs;
  scale.seed = kScaleSeed;
  return eva::ScaleTrace(MakeBaseTrace(seed), scale);
}

eva::SimulatorOptions MakeSingleOptions(Workload workload) {
  eva::SimulatorOptions options;
  if (workload == Workload::kCapped2k) {
    // bench_federation's capped pools, on one tenant.
    options.provider.enabled = true;
    options.provider.family_capacity = {4, 10, 6};
  }
  return options;
}

std::string Mismatch(const char* what, double reference, double replay) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s: reference %.17g, replay %.17g", what, reference,
                replay);
  return buffer;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kOpen10k, Workload::kCapped2k, Workload::kFed100}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOpen10k:
      return "alibaba10k-open";
    case Workload::kCapped2k:
      return "alibaba2k-capped";
    case Workload::kFed100:
      return "fed100-spot";
  }
  return "?";
}

SingleInputs::SingleInputs(Workload workload, std::uint64_t seed)
    : interference(eva::InterferenceModel::Measured()),
      catalog(eva::InstanceCatalog::AwsDefault()),
      bundle(eva::MakeScheduler(eva::SchedulerKind::kEva, interference)),
      options(MakeSingleOptions(workload)) {
  const auto start = Clock::now();
  trace = MakeSingleTrace(workload, seed);
  trace_gen_s = SecondsSince(start);
}

void ReplaySingle(Workload workload, std::uint64_t seed, const ReplayOptions& options,
                  SingleReplay* out) {
  SpanRecorder* spans = options.traced ? &out->spans : nullptr;
  SingleInputs inputs(workload, seed);
  out->trace_gen_s = inputs.trace_gen_s;
  TimedScheduler timed(inputs.bundle.scheduler.get(), spans,
                       options.traced ? options.capture_every : 0, kCaptureLimit);
  eva::Simulator simulator(inputs.trace, &timed, inputs.catalog, inputs.interference,
                           inputs.options);
  simulator.Start();

  constexpr eva::SimTime kInf = std::numeric_limits<eva::SimTime>::infinity();
  out->round_ms.clear();
  out->round_ms.reserve(16384);
  const auto replay_start = Clock::now();
  const double replay_cpu_start = CpuSeconds();
  {
    ScopedSpan replay_span(spans, "replay");
    while (!simulator.Drained()) {
      const eva::SimTime round_time = simulator.NextRoundTime();
      {
        ScopedSpan advance_span(spans, "advance");
        simulator.AdvanceUntil(round_time);
      }
      // An arrival after an idle stretch can re-arm the round chain earlier
      // than the round we advanced towards; step to that one first.
      if (round_time == kInf || simulator.NextRoundTime() != round_time) {
        continue;
      }
      const auto round_start = Clock::now();
      {
        ScopedSpan round_span(spans, "round");
        simulator.ProcessEventsThrough(round_time);
      }
      out->round_ms.push_back(SecondsSince(round_start) * 1e3);
    }
    out->metrics = simulator.Finish();
  }
  out->replay_s = SecondsSince(replay_start);
  out->replay_cpu_s = CpuSeconds() - replay_cpu_start;
  out->eva_stats = inputs.bundle.eva->stats();
  out->decide_calls = timed.decide_calls();
  out->decide_tasks = timed.decide_tasks();
  if (!timed.captured().empty()) {
    out->cold = ReplayDecisionPath(timed.captured(), &inputs.bundle.eva->throughput_table(),
                                   inputs.catalog);
  }
}

double SetupSingle(Workload workload, std::uint64_t seed) {
  const auto start = Clock::now();
  SingleInputs inputs(workload, seed);
  TimedScheduler timed(inputs.bundle.scheduler.get(), nullptr);
  eva::Simulator simulator(inputs.trace, &timed, inputs.catalog, inputs.interference,
                           inputs.options);
  simulator.Start();
  return SecondsSince(start);
}

eva::SimulationMetrics ReferenceSingle(Workload workload, std::uint64_t seed) {
  SingleInputs inputs(workload, seed);
  return eva::RunSimulation(inputs.trace, inputs.bundle.scheduler.get(), inputs.catalog,
                            inputs.interference, inputs.options);
}

std::string CompareSingle(const eva::SimulationMetrics& reference,
                          const eva::SimulationMetrics& replay) {
  if (reference.total_cost != replay.total_cost) {
    return Mismatch("total_cost", reference.total_cost, replay.total_cost);
  }
  if (reference.avg_jct_hours != replay.avg_jct_hours) {
    return Mismatch("avg_jct_hours", reference.avg_jct_hours, replay.avg_jct_hours);
  }
  if (reference.events_processed != replay.events_processed) {
    return Mismatch("events_processed", static_cast<double>(reference.events_processed),
                    static_cast<double>(replay.events_processed));
  }
  if (reference.scheduling_rounds != replay.scheduling_rounds) {
    return Mismatch("scheduling_rounds", static_cast<double>(reference.scheduling_rounds),
                    static_cast<double>(replay.scheduling_rounds));
  }
  if (reference.jobs_completed != replay.jobs_completed) {
    return Mismatch("jobs_completed", static_cast<double>(reference.jobs_completed),
                    static_cast<double>(replay.jobs_completed));
  }
  return std::string();
}

std::vector<eva::FederationTenant> MakeFedTenants(std::uint64_t seed) {
  return eva::MakeTenantShards(MakeBaseTrace(seed), kFedTenants, kFedJobsPerTenant,
                               kShardSeedBase);
}

double ShardSetupFed(std::uint64_t seed) {
  const auto start = Clock::now();
  const std::vector<eva::FederationTenant> tenants = MakeFedTenants(seed);
  return SecondsSince(start);
}

void ReplayFed(std::uint64_t seed, int num_threads, FedReplay* out) {
  const auto setup_start = Clock::now();
  const std::vector<eva::FederationTenant> tenants = MakeFedTenants(seed);
  out->trace_gen_s = SecondsSince(setup_start);

  eva::FederationOptions options;
  options.provider.enabled = true;  // Unlimited pools.
  options.provider.spot.enabled = true;
  options.provider.spot.seed = kSpotSeed;
  options.provider.spot.spike_probability = 0.06;
  options.simulator.seed = 5;
  options.stagger_rounds = true;
  if (num_threads > 0) {
    options.num_threads = num_threads;
  }
  const auto replay_start = Clock::now();
  const double replay_cpu_start = CpuSeconds();
  out->result = eva::RunFederation(tenants, options);
  out->replay_s = SecondsSince(replay_start);
  out->replay_cpu_s = CpuSeconds() - replay_cpu_start;
}

std::string CompareFed(const eva::FederationResult& reference,
                       const eva::FederationResult& replay) {
  if (reference.tenants.size() != replay.tenants.size()) {
    return Mismatch("tenants", static_cast<double>(reference.tenants.size()),
                    static_cast<double>(replay.tenants.size()));
  }
  for (std::size_t i = 0; i < reference.tenants.size(); ++i) {
    std::string error =
        CompareSingle(reference.tenants[i].metrics, replay.tenants[i].metrics);
    if (!error.empty()) {
      return reference.tenants[i].name + " " + error;
    }
  }
  const eva::CloudProviderMetrics& a = reference.provider;
  const eva::CloudProviderMetrics& b = replay.provider;
  if (a.TotalGranted() != b.TotalGranted() || a.TotalDenied() != b.TotalDenied() ||
      a.TotalPreempted() != b.TotalPreempted()) {
    return "provider grant/deny/preempt tallies differ";
  }
  return std::string();
}

}  // namespace perfbench
