// Property-based tests: invariants that must hold for arbitrary seeds,
// exercised with parameterized sweeps.

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "src/core/full_reconfig.h"
#include "src/core/partial_reconfig.h"
#include "src/core/throughput_monitor.h"
#include "src/sched/config_diff.h"
#include "src/sim/experiment.h"
#include "src/solver/bnb_solver.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

SchedulingContext RandomContext(int num_tasks, std::uint64_t seed,
                                const InstanceCatalog& catalog, double placed_fraction,
                                std::vector<InstanceId>* instances_out = nullptr) {
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
    task.remaining_work_s = rng.Uniform(600.0, 7200.0);
    context.tasks.push_back(task);
  }
  // Optionally pre-place a fraction of tasks, each alone on its RP instance
  // (a always-valid starting cluster).
  InstanceId next_instance = 1000;
  for (TaskInfo& task : context.tasks) {
    if (!rng.Bernoulli(placed_fraction)) {
      continue;
    }
    const auto type = catalog.CheapestFitting(
        [&task](InstanceFamily family) { return task.DemandFor(family); });
    if (!type.has_value()) {
      continue;
    }
    InstanceInfo instance;
    instance.id = next_instance++;
    instance.type_index = *type;
    instance.tasks = {task.id};
    task.current_instance = instance.id;
    context.instances.push_back(instance);
    if (instances_out != nullptr) {
      instances_out->push_back(instance.id);
    }
  }
  context.Finalize();
  return context;
}

// ---------- Packing invariants across seeds ----------

class PackingPropertyTest : public testing::TestWithParam<int> {};

TEST_P(PackingPropertyTest, PartialConfigIsAlwaysValidAndComplete) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(40, GetParam(), catalog, 0.5);
  ThroughputTable table(0.95);
  SchedulingContext ctx = context;
  ctx.throughput = &table;
  const TnrpCalculator calculator(ctx, {});
  const ClusterConfig config = PartialReconfiguration(ctx, calculator);
  EXPECT_FALSE(config.Validate(ctx).has_value());
  std::set<TaskId> seen;
  for (const ConfigInstance& instance : config.instances) {
    for (TaskId id : instance.tasks) {
      EXPECT_TRUE(seen.insert(id).second);
    }
  }
  EXPECT_EQ(seen.size(), ctx.tasks.size());
}

TEST_P(PackingPropertyTest, FullConfigCostNeverAboveReservationPriceSum) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(40, GetParam(), catalog, 0.0);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  Money rp_sum = 0.0;
  for (const TaskInfo& task : context.tasks) {
    rp_sum += calculator.ReservationPrice(task);
  }
  EXPECT_LE(config.HourlyCost(catalog), rp_sum + 1e-9);
}

TEST_P(PackingPropertyTest, FullConfigNeverBeatsSolverLowerBound) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(20, GetParam(), catalog, 0.0);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  std::vector<const TaskInfo*> tasks;
  for (const TaskInfo& task : context.tasks) {
    tasks.push_back(&task);
  }
  EXPECT_GE(config.HourlyCost(catalog) + 1e-9, PackingLowerBound(context, tasks));
}

TEST_P(PackingPropertyTest, DiffOfOwnConfigIsIdempotent) {
  // Applying a config and immediately re-diffing the same config against
  // the resulting cluster must be a no-op.
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context = RandomContext(30, GetParam(), catalog, 0.0);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);

  // Materialize the config as the running cluster.
  SchedulingContext after;
  after.catalog = &catalog;
  after.tasks = context.tasks;
  InstanceId next_id = 0;
  for (const ConfigInstance& instance : config.instances) {
    InstanceInfo info;
    info.id = next_id++;
    info.type_index = instance.type_index;
    info.tasks = instance.tasks;
    for (TaskInfo& task : after.tasks) {
      for (TaskId id : instance.tasks) {
        if (task.id == id) {
          task.current_instance = info.id;
        }
      }
    }
    after.instances.push_back(info);
  }
  after.Finalize();
  const ConfigDiff diff = DiffConfig(after, config);
  EXPECT_EQ(diff.NumLaunches(), 0);
  EXPECT_EQ(diff.NumMigrations(), 0);
  EXPECT_TRUE(diff.terminate.empty());
  EXPECT_TRUE(diff.moves.empty());
}

TEST_P(PackingPropertyTest, SolverNeverWorseThanHeuristicAndBoundedBelow) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(10, GetParam(), catalog, 0.0);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const Money heuristic = FullReconfiguration(context, calculator).HourlyCost(catalog);
  SolverOptions options;
  options.time_limit_seconds = 2.0;
  const SolverResult solved = SolveOptimalPacking(context, options);
  std::vector<const TaskInfo*> tasks;
  for (const TaskInfo& task : context.tasks) {
    tasks.push_back(&task);
  }
  EXPECT_LE(solved.hourly_cost, heuristic + 1e-9);
  EXPECT_GE(solved.hourly_cost + 1e-9, PackingLowerBound(context, tasks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingPropertyTest, testing::Range(100, 112));

// ---------- Monitor invariants ----------

class MonitorPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MonitorPropertyTest, TableEntriesNeverExceedTruthUnderExactObservations) {
  // Random multi-task jobs with random ground-truth pairwise interference:
  // after any observation sequence, every recorded entry must stay at or
  // below the true co-location throughput of its key (lower-bound claim of
  // §4.4), given noise-free observations.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const InterferenceModel truth = InterferenceModel::Measured();
  ThroughputMonitor monitor(0.95);

  for (int round = 0; round < 200; ++round) {
    const int num_tasks = static_cast<int>(rng.UniformInt(1, 4));
    JobThroughputObservation observation;
    observation.job = round;
    double job_tput = 1.0;
    for (int t = 0; t < num_tasks; ++t) {
      TaskPlacementObservation placement;
      placement.task = t;
      placement.workload =
          static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
      const int neighbors = static_cast<int>(rng.UniformInt(0, 3));
      for (int n = 0; n < neighbors; ++n) {
        placement.colocated.push_back(
            static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1)));
      }
      job_tput = std::min(job_tput, truth.Throughput(placement.workload, placement.colocated));
      observation.tasks.push_back(std::move(placement));
    }
    observation.normalized_throughput = job_tput;
    monitor.Observe({observation});

    // Check the lower-bound invariant for every key we can reconstruct.
    for (const TaskPlacementObservation& placement : observation.tasks) {
      const auto entry =
          monitor.table().Lookup(placement.workload, placement.colocated);
      if (entry.has_value()) {
        EXPECT_LE(*entry,
                  truth.Throughput(placement.workload, placement.colocated) + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorPropertyTest, testing::Range(1, 7));

// ---------- End-to-end invariants ----------

struct EndToEndCase {
  EndToEndCase(SchedulerKind k, std::uint64_t s) : kind(k), seed(s) {}
  SchedulerKind kind;
  // gtest names each case by hex-dumping the whole object, so the four bytes
  // between `kind` and `seed` are a zeroed field rather than implicit padding,
  // whose uninitialised contents made the test names differ between builds.
  std::uint32_t filler = 0;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<EndToEndCase>,
              "EndToEndCase must have no padding bytes");

class EndToEndPropertyTest : public testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndPropertyTest, ConservationAndSanity) {
  const EndToEndCase param = GetParam();
  SyntheticTraceOptions trace_options;
  trace_options.num_jobs = 12;
  trace_options.mean_interarrival_s = 10 * kSecondsPerMinute;
  trace_options.seed = param.seed;
  const Trace trace = GenerateSyntheticTrace(trace_options);
  ExperimentOptions options;
  const std::vector<ExperimentResult> results =
      RunComparison(trace, {param.kind}, options);
  const SimulationMetrics& metrics = results[0].metrics;
  // Conservation: every submitted job completes; every launched instance
  // eventually terminates (and is accounted in the uptime list).
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_submitted);
  EXPECT_EQ(static_cast<int>(metrics.instance_uptime_hours.size()),
            metrics.instances_launched);
  // Sanity: throughput in (0, 1]; JCT at least the standalone duration.
  EXPECT_GT(metrics.avg_norm_job_throughput, 0.0);
  EXPECT_LE(metrics.avg_norm_job_throughput, 1.0 + 1e-9);
  EXPECT_GT(metrics.total_cost, 0.0);
  EXPECT_GE(metrics.avg_job_idle_hours, 0.0);
  for (double jct : metrics.jct_hours) {
    EXPECT_GT(jct, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EndToEndPropertyTest,
    testing::Values(EndToEndCase{SchedulerKind::kNoPacking, 1},
                    EndToEndCase{SchedulerKind::kNoPacking, 2},
                    EndToEndCase{SchedulerKind::kStratus, 1},
                    EndToEndCase{SchedulerKind::kStratus, 2},
                    EndToEndCase{SchedulerKind::kSynergy, 1},
                    EndToEndCase{SchedulerKind::kSynergy, 2},
                    EndToEndCase{SchedulerKind::kOwl, 1},
                    EndToEndCase{SchedulerKind::kOwl, 2},
                    EndToEndCase{SchedulerKind::kEva, 1},
                    EndToEndCase{SchedulerKind::kEva, 2},
                    EndToEndCase{SchedulerKind::kEvaFullOnly, 1},
                    EndToEndCase{SchedulerKind::kEvaPartialOnly, 1},
                    EndToEndCase{SchedulerKind::kEvaRp, 1},
                    EndToEndCase{SchedulerKind::kEvaSingle, 1}));

}  // namespace
}  // namespace eva
