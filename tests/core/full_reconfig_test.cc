#include "src/core/full_reconfig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <set>
#include <string>

#include "src/common/rng.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

// The §4.2 walk-through: Table 3 tasks over the Table 3 catalog.
class PaperExampleTest : public testing::Test {
 protected:
  PaperExampleTest() : catalog_(InstanceCatalog::PaperExample()) {
    context_.catalog = &catalog_;
    const ResourceVector demands[] = {{2, 8, 24}, {1, 4, 10}, {0, 6, 20}, {0, 4, 12}};
    for (int i = 0; i < 4; ++i) {
      TaskInfo task;
      task.id = i + 1;
      task.job = i + 1;
      task.workload = 0;
      task.demand_p3 = demands[i];
      task.demand_cpu = demands[i];
      context_.tasks.push_back(task);
    }
    context_.Finalize();
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
};

TEST_F(PaperExampleTest, ReproducesTheWalkThrough) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);

  // Expected: it1 <- {tau1, tau2, tau4}, it3 <- {tau3}; $12.8/hr total.
  ASSERT_EQ(config.instances.size(), 2u);
  EXPECT_NEAR(config.HourlyCost(catalog_), 12.8, 1e-9);

  const ConfigInstance& big = config.instances[0];
  EXPECT_EQ(catalog_.Get(big.type_index).name, "it1");
  EXPECT_EQ(std::set<TaskId>(big.tasks.begin(), big.tasks.end()), std::set<TaskId>({1, 2, 4}));

  const ConfigInstance& small = config.instances[1];
  EXPECT_EQ(catalog_.Get(small.type_index).name, "it3");
  EXPECT_EQ(small.tasks, std::vector<TaskId>({3}));
}

TEST_F(PaperExampleTest, CheaperThanOneInstancePerTask) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  EXPECT_LT(config.HourlyCost(catalog_), 16.2 - 1e-9);
}

TEST_F(PaperExampleTest, EveryInstanceIsCostEfficient) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  for (const ConfigInstance& instance : config.instances) {
    std::vector<const TaskInfo*> members;
    for (TaskId id : instance.tasks) {
      members.push_back(context_.FindTask(id));
    }
    EXPECT_GE(calculator.SetRp(members) + 1e-9,
              catalog_.Get(instance.type_index).cost_per_hour);
  }
}

TEST_F(PaperExampleTest, InterferenceMakesPackingConservative) {
  // With a learned table saying tau1 collapses to 0.5 next to anything, the
  // big instance is no longer cost-efficient as a trio; tau1 is hosted
  // alone.
  ThroughputTable table(0.5);
  context_.throughput = &table;
  const TnrpCalculator calculator(context_, {});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  for (const ConfigInstance& instance : config.instances) {
    EXPECT_EQ(instance.tasks.size(), 1u);  // t=0.5 forbids all co-location.
  }
  EXPECT_NEAR(config.HourlyCost(catalog_), 16.2, 1e-9);
}

TEST_F(PaperExampleTest, ValidatesAgainstContext) {
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context_, calculator);
  EXPECT_FALSE(config.Validate(context_).has_value());
}

// Randomized behavior over the real catalog.
class FullReconfigRandomTest : public testing::TestWithParam<int> {};

SchedulingContext RandomContext(int num_tasks, std::uint64_t seed,
                                const InstanceCatalog& catalog) {
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
    context.tasks.push_back(task);
  }
  context.Finalize();
  return context;
}

TEST_P(FullReconfigRandomTest, AssignsEveryTaskExactlyOnce) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  std::set<TaskId> seen;
  for (const ConfigInstance& instance : config.instances) {
    for (TaskId id : instance.tasks) {
      EXPECT_TRUE(seen.insert(id).second) << "task assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), context.tasks.size());
}

TEST_P(FullReconfigRandomTest, RespectsCapacities) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  EXPECT_FALSE(config.Validate(context).has_value());
}

TEST_P(FullReconfigRandomTest, NeverCostsMoreThanNoPacking) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  Money no_packing = 0.0;
  for (const TaskInfo& task : context.tasks) {
    no_packing += calculator.ReservationPrice(task);
  }
  EXPECT_LE(config.HourlyCost(catalog), no_packing + 1e-9);
}

TEST_P(FullReconfigRandomTest, CostEfficiencyInvariantHolds) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  const SchedulingContext context = RandomContext(60, GetParam(), catalog);
  ThroughputTable table(0.95);
  SchedulingContext with_table = context;
  with_table.throughput = &table;
  const TnrpCalculator calculator(with_table, {});
  const ClusterConfig config = FullReconfiguration(with_table, calculator);
  for (const ConfigInstance& instance : config.instances) {
    std::vector<const TaskInfo*> members;
    for (TaskId id : instance.tasks) {
      members.push_back(with_table.FindTask(id));
    }
    EXPECT_GE(calculator.SetTnrp(members) + 1e-6,
              catalog.Get(instance.type_index).cost_per_hour);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullReconfigRandomTest, testing::Range(1, 11));

TEST(FullReconfigEdgeTest, EmptyContextYieldsEmptyConfig) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  context.Finalize();
  const TnrpCalculator calculator(context, {});
  EXPECT_TRUE(FullReconfiguration(context, calculator).instances.empty());
}

TEST(FullReconfigEdgeTest, UnplaceableTaskReportedUnassigned) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  TaskInfo task;
  task.id = 1;
  task.job = 1;
  task.workload = 0;
  task.demand_p3 = {64, 1, 1};
  task.demand_cpu = {64, 1, 1};
  context.tasks.push_back(task);
  context.Finalize();
  const TnrpCalculator calculator(context, {});
  PackingOptions options;
  options.assign_leftovers_standalone = false;
  const PackingResult result =
      PackByReservationPrice(context, calculator, {&context.tasks[0]}, options);
  EXPECT_TRUE(result.instances.empty());
  ASSERT_EQ(result.unassigned.size(), 1u);
  EXPECT_EQ(result.unassigned[0], 1);
}

TEST(FullReconfigEdgeTest, IdenticalGpuTasksShareBigInstance) {
  // Two ViT tasks (2 GPUs each) should share one p3.8xlarge instead of two.
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < 2; ++i) {
    TaskInfo task;
    task.id = i;
    task.job = i;
    task.workload = WorkloadRegistry::IdOf("ViT");
    task.demand_p3 = {2, 8, 60};
    task.demand_cpu = {2, 8, 60};
    context.tasks.push_back(task);
  }
  context.Finalize();
  const TnrpCalculator calculator(context, {.interference_aware = false});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  ASSERT_EQ(config.instances.size(), 1u);
  EXPECT_EQ(catalog.Get(config.instances[0].type_index).name, "p3.8xlarge");
}

TEST(FullReconfigEdgeTest, TnrpDecreaseStopsPacking) {
  // A throughput table that makes a second co-resident collapse the set's
  // TNRP triggers the Line 9-11 early stop.
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  SchedulingContext context;
  context.catalog = &catalog;
  for (int i = 0; i < 2; ++i) {
    TaskInfo task;
    task.id = i;
    task.job = 100 + i;
    task.workload = WorkloadRegistry::IdOf("ViT");
    task.demand_p3 = {2, 8, 60};
    task.demand_cpu = {2, 8, 60};
    context.tasks.push_back(task);
  }
  context.Finalize();
  ThroughputTable table(0.3);  // Brutal default interference.
  context.throughput = &table;
  const TnrpCalculator calculator(context, {});
  const ClusterConfig config = FullReconfiguration(context, calculator);
  // Packing both would give 2 * 0.3 * 12.24 = 7.3 < 12.24: each runs alone.
  ASSERT_EQ(config.instances.size(), 2u);
}

// Algorithm 1 as specified, scoring every candidate with a fresh
// SetTnrp(members + {c}): the reference the per-workload scan must match
// bit for bit (same sort, greedy, cost test, downsizing and safety net).
PackingResult ReferencePack(const SchedulingContext& context, const TnrpCalculator& calculator,
                            std::vector<const TaskInfo*> pool, const PackingOptions& options) {
  PackingResult result;
  SortTasksByRpDesc(calculator, pool);
  std::vector<bool> assigned(pool.size(), false);
  for (int type_index : context.catalog->IndicesByDescendingCost()) {
    const InstanceType& type = context.catalog->Get(type_index);
    while (true) {
      std::vector<const TaskInfo*> members;
      std::vector<std::size_t> member_indices;
      std::vector<bool> taken(pool.size(), false);
      ResourceVector used;
      Money set_tnrp = 0.0;
      while (true) {
        int best = -1;
        Money best_tnrp = 0.0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (assigned[i] || taken[i] ||
              !(used + pool[i]->DemandFor(type.family)).FitsWithin(type.capacity)) {
            continue;
          }
          std::vector<const TaskInfo*> joined = members;
          joined.push_back(pool[i]);
          const Money tnrp = calculator.SetTnrp(joined, type.family);
          if (best < 0 || tnrp > best_tnrp) {
            best = static_cast<int>(i);
            best_tnrp = tnrp;
          }
        }
        if (best < 0 || (!members.empty() && best_tnrp < set_tnrp)) {
          break;
        }
        const auto index = static_cast<std::size_t>(best);
        members.push_back(pool[index]);
        member_indices.push_back(index);
        taken[index] = true;
        used += pool[index]->DemandFor(type.family);
        set_tnrp = best_tnrp;
      }
      if (members.empty() ||
          set_tnrp + options.cost_epsilon * type.cost_per_hour < type.cost_per_hour) {
        break;
      }
      ConfigInstance instance;
      instance.type_index = type_index;
      for (std::size_t index : member_indices) {
        instance.tasks.push_back(pool[index]->id);
        assigned[index] = true;
      }
      result.instances.push_back(instance);
    }
  }
  if (options.shrink_to_cheapest_type) {
    for (ConfigInstance& instance : result.instances) {
      std::vector<const TaskInfo*> members;
      for (TaskId id : instance.tasks) {
        members.push_back(context.FindTask(id));
      }
      const InstanceType& current = context.catalog->Get(instance.type_index);
      int best_type = instance.type_index;
      Money best_net = calculator.SetTnrp(members, current.family) - current.cost_per_hour;
      for (int k = 0; k < context.catalog->NumTypes(); ++k) {
        const InstanceType& type = context.catalog->Get(k);
        ResourceVector total;
        for (const TaskInfo* member : members) {
          total += member->DemandFor(type.family);
        }
        if (!total.FitsWithin(type.capacity)) {
          continue;
        }
        const Money net = calculator.SetTnrp(members, type.family) - type.cost_per_hour;
        if (net > best_net + 1e-12) {
          best_net = net;
          best_type = k;
        }
      }
      instance.type_index = best_type;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (assigned[i]) {
      continue;
    }
    const std::optional<int> type_index = context.catalog->CheapestFitting(
        [task = pool[i]](InstanceFamily family) { return task->DemandFor(family); });
    if (!options.assign_leftovers_standalone || !type_index.has_value()) {
      result.unassigned.push_back(pool[i]->id);
      continue;
    }
    ConfigInstance instance;
    instance.type_index = *type_index;
    instance.tasks.push_back(pool[i]->id);
    result.instances.push_back(instance);
  }
  return result;
}

// Workload ids for the property pools: a few dense ids, ids at and past
// the memo's 7-bit packing range (127 and 130 alias under `& 0x7f`, as do
// 2 and 130), and the invalid id.
constexpr WorkloadId kPoolWorkloads[] = {0, 1, 2, 3, 127, 130, 255, kInvalidWorkloadId};

WorkloadId PickWorkload(Rng& rng) {
  const auto last = static_cast<std::int64_t>(std::size(kPoolWorkloads)) - 1;
  return kPoolWorkloads[rng.UniformInt(0, last)];
}

// A random pool: jobs of 1-4 tasks sharing one workload and one demand
// shape; several jobs per workload with different shapes (so same-workload
// candidates differ in demand, RP and job size); GPU, small-CPU and
// RAM-heavy shapes (the last pack past 8 per instance); per-family speedups
// on some jobs.
SchedulingContext RandomPool(Rng& rng, const InstanceCatalog& catalog) {
  SchedulingContext context;
  context.catalog = &catalog;
  const int num_jobs = static_cast<int>(rng.UniformInt(8, 30));
  TaskId next_id = 0;
  for (JobId job = 0; job < num_jobs; ++job) {
    const WorkloadId workload = PickWorkload(rng);
    ResourceVector demand;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        demand = {static_cast<double>(rng.UniformInt(1, 2)), 4, 20};
        break;
      case 1:
        demand = {0, static_cast<double>(rng.UniformInt(1, 4)), 4};
        break;
      default:
        demand = {0, 1, static_cast<double>(rng.UniformInt(12, 24))};
        break;
    }
    std::array<double, kNumInstanceFamilies> speedup = {1.0, 1.0, 1.0};
    if (rng.UniformInt(0, 2) == 0) {
      for (double& s : speedup) {
        s = 0.5 + 0.25 * static_cast<double>(rng.UniformInt(0, 4));
      }
    }
    const int size = rng.UniformInt(0, 3) == 0 ? static_cast<int>(rng.UniformInt(2, 4)) : 1;
    for (int t = 0; t < size; ++t) {
      TaskInfo task;
      task.id = next_id++;
      task.job = job;
      task.workload = workload;
      task.demand_p3 = demand;
      task.demand_cpu = demand;
      task.family_speedup = speedup;
      context.tasks.push_back(task);
    }
  }
  context.Finalize();
  return context;
}

// Observed co-location throughputs for every pool workload: pairs for all
// (w, partner) combinations and some exact three-way multisets, so each
// workload — including the aliasing ids — has its own row.
void RecordRandomObservations(Rng& rng, ThroughputTable& table) {
  for (WorkloadId w : kPoolWorkloads) {
    for (WorkloadId partner : kPoolWorkloads) {
      if (rng.UniformInt(0, 3) != 0) {
        table.Record(w, {partner}, rng.Uniform(0.6, 1.0));
      }
    }
    const WorkloadId p = PickWorkload(rng);
    const WorkloadId q = PickWorkload(rng);
    table.Record(w, {p, q}, rng.Uniform(0.5, 1.0));
  }
}

void ExpectSamePacking(const PackingResult& actual, const PackingResult& expected) {
  ASSERT_EQ(actual.instances.size(), expected.instances.size());
  for (std::size_t i = 0; i < expected.instances.size(); ++i) {
    EXPECT_EQ(actual.instances[i].type_index, expected.instances[i].type_index) << "inst " << i;
    EXPECT_EQ(actual.instances[i].reuse_instance, expected.instances[i].reuse_instance);
    EXPECT_EQ(actual.instances[i].tasks, expected.instances[i].tasks) << "inst " << i;
  }
  EXPECT_EQ(actual.unassigned, expected.unassigned);
}

// The per-workload argmax is an exact re-association of SetTnrp's fold, so
// the packing must match the every-candidate reference bit for bit across
// pricing modes. Coverage is asserted, not assumed: some instance hosts >8
// tasks, some multi-task job shares an instance, and some shared instance
// holds a task of an id outside the 7-bit packing range.
TEST(FullReconfigPropertyTest, PerWorkloadScanMatchesEveryCandidateReference) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  std::size_t max_instance_tasks = 0;
  int shared_multi_task = 0;
  int shared_unpackable = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const SchedulingContext base = RandomPool(rng, catalog);
    const double defaults[] = {0.9, 0.97, 1.0};
    ThroughputTable table(defaults[rng.UniformInt(0, 2)]);
    RecordRandomObservations(rng, table);
    SchedulingContext context = base;
    context.throughput = &table;
    context.Finalize();
    std::vector<const TaskInfo*> pool;
    for (const TaskInfo& task : context.tasks) {
      pool.push_back(&task);
    }
    for (const bool interference_aware : {true, false}) {
      for (const bool multi_task_aware : {true, false}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " interference " +
                     std::to_string(interference_aware) + " multi-task " +
                     std::to_string(multi_task_aware));
        PackingOptions options;
        options.shrink_to_cheapest_type = seed % 3 != 0;
        options.assign_leftovers_standalone = seed % 5 != 0;
        const TnrpCalculator::Options pricing{interference_aware, multi_task_aware};
        const TnrpCalculator calculator(context, pricing);
        const TnrpCalculator reference_calculator(context, pricing);
        const PackingResult actual = PackByReservationPrice(context, calculator, pool, options);
        const PackingResult expected =
            ReferencePack(context, reference_calculator, pool, options);
        ExpectSamePacking(actual, expected);

        for (const ConfigInstance& instance : actual.instances) {
          max_instance_tasks = std::max(max_instance_tasks, instance.tasks.size());
          if (instance.tasks.size() < 2) {
            continue;
          }
          for (TaskId id : instance.tasks) {
            const TaskInfo& task = *context.FindTask(id);
            shared_multi_task += context.JobSize(task.job) > 1 ? 1 : 0;
            shared_unpackable += task.workload < 0 || task.workload >= 128 ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(max_instance_tasks, 8u);
  EXPECT_GT(shared_multi_task, 0);
  EXPECT_GT(shared_unpackable, 0);
}

}  // namespace
}  // namespace eva
