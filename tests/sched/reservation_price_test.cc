#include "src/sched/reservation_price.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/rng.h"

namespace eva {
namespace {

// Context with the Table 3 tasks over the Table 3 catalog, plus an optional
// throughput table.
class ReservationPriceTest : public testing::Test {
 protected:
  ReservationPriceTest() : catalog_(InstanceCatalog::PaperExample()) {
    context_.catalog = &catalog_;
    const ResourceVector demands[] = {{2, 8, 24}, {1, 4, 10}, {0, 6, 20}, {0, 4, 12}};
    for (int i = 0; i < 4; ++i) {
      TaskInfo task;
      task.id = i + 1;
      task.job = i + 1;  // Single-task jobs.
      task.workload = i % WorkloadRegistry::NumWorkloads();
      task.demand_p3 = demands[i];
      task.demand_cpu = demands[i];
      context_.tasks.push_back(task);
    }
    context_.Finalize();
  }

  const TaskInfo& Task(int id) { return *context_.FindTask(id); }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  ThroughputTable table_{0.95};
};

TEST_F(ReservationPriceTest, Table3ReservationPrices) {
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(1)), 12.0);
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(2)), 3.0);
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(3)), 0.8);
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(Task(4)), 0.4);
}

TEST_F(ReservationPriceTest, SetRpIsSumOfMembers) {
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.SetRp({&Task(1), &Task(2), &Task(4)}), 15.4);
}

TEST_F(ReservationPriceTest, TnrpWithoutPartnersEqualsRp) {
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.TaskTnrp(Task(1), {}), 12.0);
}

TEST_F(ReservationPriceTest, TnrpScalesByEstimatedThroughput) {
  // §4.3's example: tau1 at 0.8 and tau2 at 0.9 gives 12*0.8 + 3*0.9 = 12.3.
  table_.Record(Task(1).workload, {Task(2).workload}, 0.8);
  table_.Record(Task(2).workload, {Task(1).workload}, 0.9);
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_NEAR(calculator.SetTnrp({&Task(1), &Task(2)}), 12.3, 1e-9);
}

TEST_F(ReservationPriceTest, SevereInterferenceBreaksCostEfficiency) {
  // §4.3: at 0.7/0.8 the pair is worth $10.8 < $12.
  table_.Record(Task(1).workload, {Task(2).workload}, 0.7);
  table_.Record(Task(2).workload, {Task(1).workload}, 0.8);
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_NEAR(calculator.SetTnrp({&Task(1), &Task(2)}), 10.8, 1e-9);
}

TEST_F(ReservationPriceTest, InterferenceObliviousIgnoresTable) {
  table_.Record(Task(1).workload, {Task(2).workload}, 0.5);
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {.interference_aware = false});
  EXPECT_DOUBLE_EQ(calculator.SetTnrp({&Task(1), &Task(2)}), 15.0);
}

TEST_F(ReservationPriceTest, NullEstimatorActsLikeNoInterference) {
  context_.throughput = nullptr;
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.SetTnrp({&Task(1), &Task(2)}), 15.0);
}

TEST_F(ReservationPriceTest, DefaultEstimateAppliesToUnseenPairs) {
  context_.throughput = &table_;
  const TnrpCalculator calculator(context_, {});
  EXPECT_NEAR(calculator.SetTnrp({&Task(1), &Task(2)}), 0.95 * 12.0 + 0.95 * 3.0, 1e-9);
}

TEST_F(ReservationPriceTest, UnplaceableTaskHasZeroRp) {
  TaskInfo monster;
  monster.id = 99;
  monster.job = 99;
  monster.workload = 0;
  monster.demand_p3 = {64, 1, 1};
  monster.demand_cpu = {64, 1, 1};
  context_.tasks.push_back(monster);
  context_.Finalize();
  const TnrpCalculator calculator(context_, {});
  EXPECT_DOUBLE_EQ(calculator.ReservationPrice(*context_.FindTask(99)), 0.0);
}

// Multi-task TNRP (§4.4).
class MultiTaskTnrpTest : public testing::Test {
 protected:
  MultiTaskTnrpTest() : catalog_(InstanceCatalog::PaperExample()) {
    context_.catalog = &catalog_;
    // One data-parallel job with 4 identical tasks (demand of tau2).
    for (int i = 0; i < 4; ++i) {
      TaskInfo task;
      task.id = i;
      task.job = 7;
      task.workload = 0;
      task.demand_p3 = {1, 4, 10};
      task.demand_cpu = {1, 4, 10};
      context_.tasks.push_back(task);
    }
    // A single-task job it can co-locate with.
    TaskInfo other;
    other.id = 10;
    other.job = 8;
    other.workload = 3;
    other.demand_p3 = {0, 4, 12};
    other.demand_cpu = {0, 4, 12};
    context_.tasks.push_back(other);
    context_.Finalize();
    context_.throughput = &table_;
  }

  InstanceCatalog catalog_;
  SchedulingContext context_;
  ThroughputTable table_{0.95};
};

TEST_F(MultiTaskTnrpTest, StragglerPenaltyChargedToPlacement) {
  // RP of each job-7 task is $3 (it2). Co-locating one of them at tput 0.9
  // costs the *whole 4-task job* 0.1 of its value:
  // TNRP = 3 - 4 * (1 - 0.9) * 3 = 1.8.
  table_.Record(0, {3}, 0.9);
  const TnrpCalculator calculator(context_, {});
  const TaskInfo& task = *context_.FindTask(0);
  const TaskInfo& other = *context_.FindTask(10);
  EXPECT_NEAR(calculator.TaskTnrp(task, {&other}), 1.8, 1e-9);
}

TEST_F(MultiTaskTnrpTest, CanGoNegativeUnderSevereInterference) {
  table_.Record(0, {3}, 0.5);
  const TnrpCalculator calculator(context_, {});
  const TaskInfo& task = *context_.FindTask(0);
  const TaskInfo& other = *context_.FindTask(10);
  // 3 - 4 * 0.5 * 3 = -3.
  EXPECT_NEAR(calculator.TaskTnrp(task, {&other}), -3.0, 1e-9);
}

TEST_F(MultiTaskTnrpTest, SingleAwareModeTreatsTasksIndependently) {
  table_.Record(0, {3}, 0.9);
  const TnrpCalculator calculator(context_, {.multi_task_aware = false});
  const TaskInfo& task = *context_.FindTask(0);
  const TaskInfo& other = *context_.FindTask(10);
  EXPECT_NEAR(calculator.TaskTnrp(task, {&other}), 2.7, 1e-9);  // 0.9 * 3.
}

TEST_F(MultiTaskTnrpTest, SingleTaskJobUnaffectedByJobScaling) {
  table_.Record(3, {0}, 0.9);
  const TnrpCalculator calculator(context_, {});
  const TaskInfo& other = *context_.FindTask(10);
  const TaskInfo& task = *context_.FindTask(0);
  // Job 8 has one task: plain tput * RP. RP(other) = $0.4 (it4).
  EXPECT_NEAR(calculator.TaskTnrp(other, {&task}), 0.36, 1e-9);
}

TEST(ThroughputTableVersionTest, RecordBumpsOnlyOnValueChange) {
  ThroughputTable table(0.95);
  EXPECT_EQ(table.Version(), 0u);
  EXPECT_TRUE(table.Record(2, {5}, 0.8));
  const std::uint64_t v1 = table.Version();
  EXPECT_GT(v1, 0u);
  EXPECT_GT(table.RowVersion(2), 0u);
  EXPECT_EQ(table.RowVersion(5), 0u);  // Only workload 2's row changed.
  // Re-recording the identical value must not invalidate anything.
  EXPECT_FALSE(table.Record(2, {5}, 0.8));
  EXPECT_EQ(table.Version(), v1);
  // A different value must.
  EXPECT_TRUE(table.Record(2, {5}, 0.7));
  EXPECT_GT(table.Version(), v1);
}

// TNRP of `set` folded by hand: each member's RP (times its speedup on
// `family`) scaled by the estimator's throughput next to the other members
// in caller order, with the §4.4 job-size charge, summed in member order.
Money HandFoldSetTnrp(const SchedulingContext& context, const TnrpCalculator& fresh,
                      const ThroughputEstimator& estimator,
                      const std::vector<const TaskInfo*>& set,
                      std::optional<InstanceFamily> family) {
  Money total = 0.0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TaskInfo& task = *set[i];
    const Money rp =
        fresh.ReservationPrice(task) * (family.has_value() ? task.SpeedupOn(*family) : 1.0);
    std::vector<WorkloadId> partners;
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (j != i) {
        partners.push_back(set[j]->workload);
      }
    }
    const double tput = estimator.Estimate(task.workload, partners);
    const int job_size = context.JobSize(task.job);
    total += job_size <= 1 ? tput * rp
                           : rp - static_cast<double>(job_size) * (1.0 - tput) * rp;
  }
  return total;
}

// Memoized TNRP equals a freshly constructed calculator after arbitrary
// sequences of job arrival / completion / observation deltas and spot price
// steps. The persistent calculator Rebind()s across rounds and must
// invalidate exactly the entries the deltas touched.
TEST(TnrpMemoizationPropertyTest, MatchesFreshCalculatorUnderDeltaSequences) {
  // Every round prices off a fresh catalog object with rescaled prices, as a
  // spot price step does. Catalogs stay alive: the calculator tells them
  // apart by identity.
  std::deque<InstanceCatalog> catalogs;
  catalogs.push_back(InstanceCatalog::AwsDefault());
  Rng rng(1234);

  ThroughputTable table(0.95);
  std::vector<TaskInfo> live;  // Current task population.
  TaskId next_task_id = 0;
  JobId next_job_id = 0;

  // Context rebuilt each "round" from the live population, like the
  // simulator does. Storage outlives the round for the persistent binding.
  SchedulingContext context;
  const auto rebuild_context = [&] {
    context = SchedulingContext();
    context.catalog = &catalogs.back();
    context.throughput = &table;
    context.tasks = live;
    context.Finalize();
  };
  rebuild_context();
  TnrpCalculator memoized(context, {});

  const auto random_workload = [&] {
    return static_cast<WorkloadId>(
        rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
  };
  // A workload of a live task when there is one, so exact multiset entries
  // land on co-locations the probes below actually price.
  const auto live_workload = [&] {
    return live.empty() ? random_workload()
                        : live[static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<std::int64_t>(live.size()) - 1))]
                              .workload;
  };

  for (int round = 0; round < 60; ++round) {
    // Random delta: arrivals (possibly multi-task), completions, and new
    // throughput observations.
    const int arrivals = static_cast<int>(rng.UniformInt(0, 2));
    for (int a = 0; a < arrivals; ++a) {
      const WorkloadId workload = random_workload();
      const WorkloadSpec& spec = WorkloadRegistry::Get(workload);
      const int num_tasks = rng.Bernoulli(0.3) ? 2 : 1;
      const JobId job = next_job_id++;
      for (int t = 0; t < num_tasks; ++t) {
        TaskInfo task;
        task.id = next_task_id++;
        task.job = job;
        task.workload = workload;
        task.demand_p3 = spec.demand_p3;
        task.demand_cpu = spec.demand_cpu;
        live.push_back(task);
      }
    }
    while (!live.empty() && rng.Bernoulli(0.2)) {
      // Complete a random job (all of its tasks leave together).
      const JobId job = live[static_cast<std::size_t>(
                                 rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1))]
                            .job;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [job](const TaskInfo& task) { return task.job == job; }),
                 live.end());
    }
    const int observations = static_cast<int>(rng.UniformInt(0, 3));
    for (int o = 0; o < observations; ++o) {
      const WorkloadId w = random_workload();
      const WorkloadId p = random_workload();
      table.Record(w, {p}, rng.Uniform(0.5, 1.0));
    }
    // Exact multiset observations: multi-partner entries are invalidated
    // only through the observed workload's row version.
    const int exact_observations = static_cast<int>(rng.UniformInt(1, 2));
    for (int o = 0; o < exact_observations; ++o) {
      const WorkloadId w = live_workload();
      std::vector<WorkloadId> partners = {live_workload(), live_workload()};
      if (rng.Bernoulli(0.5)) {
        partners.push_back(live_workload());
      }
      table.Record(w, partners, rng.Uniform(0.5, 1.0));
    }
    std::vector<InstanceType> stepped = catalogs.back().types();
    for (InstanceType& type : stepped) {
      type.cost_per_hour *= rng.Uniform(0.5, 1.5);
    }
    catalogs.emplace_back(std::move(stepped));

    rebuild_context();
    memoized.Rebind(context);
    const TnrpCalculator fresh(context, {});

    if (context.tasks.empty()) {
      continue;
    }
    // Compare on random sets and co-locations, with and without a family.
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<const TaskInfo*> set;
      const int size = static_cast<int>(
          rng.UniformInt(1, std::min<std::int64_t>(4, static_cast<std::int64_t>(
                                                          context.tasks.size()))));
      for (int s = 0; s < size; ++s) {
        set.push_back(&context.tasks[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(context.tasks.size()) - 1))]);
      }
      const std::optional<InstanceFamily> family =
          rng.Bernoulli(0.5) ? std::optional<InstanceFamily>(InstanceFamily::kC7i)
                             : std::nullopt;
      ASSERT_EQ(memoized.ReservationPrice(*set.front()),
                fresh.ReservationPrice(*set.front()));
      ASSERT_EQ(memoized.SetTnrp(set, family), fresh.SetTnrp(set, family))
          << "round " << round << " probe " << probe;
      std::vector<const TaskInfo*> partners(set.begin() + 1, set.end());
      ASSERT_EQ(memoized.TaskTnrp(*set.front(), partners, family),
                fresh.TaskTnrp(*set.front(), partners, family));
    }
    // Sets of 3-5 distinct members against the hand fold.
    if (context.tasks.size() < 3) {
      continue;
    }
    std::vector<const TaskInfo*> shuffled;
    for (const TaskInfo& task : context.tasks) {
      shuffled.push_back(&task);
    }
    for (int probe = 0; probe < 4; ++probe) {
      for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
        std::swap(shuffled[i], shuffled[static_cast<std::size_t>(
                                   rng.UniformInt(0, static_cast<std::int64_t>(i)))]);
      }
      const auto size = static_cast<std::size_t>(
          rng.UniformInt(3, std::min<std::int64_t>(5, static_cast<std::int64_t>(
                                                          shuffled.size()))));
      const std::vector<const TaskInfo*> set(shuffled.begin(),
                                             shuffled.begin() + static_cast<std::ptrdiff_t>(size));
      const std::optional<InstanceFamily> family =
          rng.Bernoulli(0.5) ? std::optional<InstanceFamily>(InstanceFamily::kR7i)
                             : std::nullopt;
      ASSERT_EQ(memoized.SetTnrp(set, family),
                HandFoldSetTnrp(context, fresh, table, set, family))
          << "round " << round << " probe " << probe;
    }
  }
  // The memoized calculator must actually be memoizing.
  EXPECT_GT(memoized.cache_stats().tput_hits, 0u);
}

// The throughput memo holds no price: a Rebind that changes only the catalog
// (a spot price step) keeps every entry, while RPs follow the new prices. A
// different estimator object drops the memo.
TEST(TnrpMemoizationPropertyTest, CatalogChangeKeepsThroughputMemo) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  ThroughputTable table(0.95);
  table.Record(0, {1, 2}, 0.7);
  table.Record(2, {3}, 0.8);
  table.Record(3, {2, 4}, 0.6);

  SchedulingContext context;
  context.catalog = &catalog;
  context.throughput = &table;
  for (WorkloadId w = 0; w < 5; ++w) {  // Five tasks, distinct workloads.
    TaskInfo task;
    task.id = w;
    task.job = w;
    task.workload = w;
    task.demand_p3 = WorkloadRegistry::Get(w).demand_p3;
    task.demand_cpu = WorkloadRegistry::Get(w).demand_cpu;
    context.tasks.push_back(task);
  }
  context.Finalize();
  const auto task = [&context](TaskId id) { return context.FindTask(id); };
  // Six distinct (workload, ordered partner workloads) keys.
  const std::vector<std::vector<const TaskInfo*>> probes = {
      {task(0), task(1), task(2)}, {task(2), task(3), task(4)}};

  TnrpCalculator memoized(context, {});
  memoized.Rebind(context);  // Long-lived: RPs on the rebound (flat) path.
  std::vector<Money> before;
  for (const auto& set : probes) {
    before.push_back(memoized.SetTnrp(set));
  }
  const TnrpCalculator::CacheStats cold = memoized.cache_stats();
  EXPECT_EQ(cold.tput_misses, 6u);
  EXPECT_EQ(cold.tput_hits, 0u);
  const Money old_rp = memoized.ReservationPrice(*task(0));

  // A spot price step: same tasks, a new catalog object at twice the prices.
  std::vector<InstanceType> doubled = catalog.types();
  for (InstanceType& type : doubled) {
    type.cost_per_hour *= 2.0;
  }
  const InstanceCatalog stepped(doubled);
  context.catalog = &stepped;
  memoized.Rebind(context);
  const TnrpCalculator fresh(context, {});
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Money after = memoized.SetTnrp(probes[i]);
    EXPECT_EQ(after, fresh.SetTnrp(probes[i]));
    EXPECT_NE(after, before[i]);
  }
  const TnrpCalculator::CacheStats warm = memoized.cache_stats();
  EXPECT_EQ(warm.tput_misses, cold.tput_misses);
  EXPECT_EQ(warm.tput_hits, cold.tput_hits + 6);
  EXPECT_EQ(memoized.ReservationPrice(*task(0)), fresh.ReservationPrice(*task(0)));
  EXPECT_EQ(memoized.ReservationPrice(*task(0)), 2.0 * old_rp);

  // A different estimator object (equal contents) starts the memo over.
  const ThroughputTable copy = table;
  memoized.Rebind(context, &copy);
  for (const auto& set : probes) {
    memoized.SetTnrp(set);
  }
  EXPECT_EQ(memoized.cache_stats().tput_misses, warm.tput_misses + 6);
  EXPECT_EQ(memoized.cache_stats().tput_hits, warm.tput_hits);
}

}  // namespace
}  // namespace eva
