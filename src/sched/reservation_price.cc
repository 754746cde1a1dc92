#include "src/sched/reservation_price.h"

#include <algorithm>
#include <utility>

#include "src/common/arena.h"
#include "src/common/hash.h"

namespace eva {
namespace {

// Per-(thread, depth) leased scratch (see common/arena.h) for the TNRP
// paths.
struct TaskPtrScratch {
  std::vector<const TaskInfo*> ptrs;
};

struct WorkloadScratch {
  std::vector<WorkloadId> workloads;
};

struct SortScratch {
  std::vector<std::pair<Money, const TaskInfo*>> keyed;
};

}  // namespace

std::size_t TnrpCalculator::TputKeyHash::operator()(const TputKey& key) const {
  const std::size_t seed = HashCombine(static_cast<std::size_t>(key.workload),
                                       static_cast<std::size_t>(key.count));
  return HashCombine(seed, static_cast<std::size_t>(key.packed));
}

TnrpCalculator::TnrpCalculator(const SchedulingContext& context, Options options,
                               const ThroughputEstimator* estimator)
    : context_(&context),
      options_(options),
      estimator_(estimator),
      bound_catalog_(context.catalog) {}
// The flat RP cache is built on Rebind only: a freshly constructed
// calculator is usually a per-round temporary (the baselines), for which
// allocating an id-indexed array every round would cost more than the hash
// probes it avoids. Long-lived calculators (EvaScheduler's) rebind every
// round and get the flat path from round two on.

void TnrpCalculator::GrowRpFlat() {
  TaskId max_id = -1;
  for (const TaskInfo& task : context_->tasks) {
    max_id = std::max(max_id, task.id);
  }
  // Guard against pathological sparse ids blowing up the flat array; such
  // contexts simply stay on the hash fallback.
  constexpr TaskId kMaxFlat = 1 << 22;
  if (max_id >= 0 && max_id < kMaxFlat &&
      static_cast<std::size_t>(max_id) >= rp_flat_.size()) {
    rp_flat_.resize(static_cast<std::size_t>(max_id) + 1);
    rp_flat_filled_.resize(static_cast<std::size_t>(max_id) + 1, 0);
  }
}

void TnrpCalculator::Rebind(const SchedulingContext& context,
                            const ThroughputEstimator* estimator) {
  const ThroughputEstimator* previous = this->estimator();
  context_ = &context;
  estimator_ = estimator;
  if (context.catalog != bound_catalog_) {
    // RPs are catalog prices; the throughput memo holds none, so a new
    // quote snapshot (a spot price step) leaves it valid.
    bound_catalog_ = context.catalog;
    rp_cache_.clear();
    std::fill(rp_flat_filled_.begin(), rp_flat_filled_.end(), 0);
  }
  GrowRpFlat();
  // Row versions only track mutations of the *same* estimator object. The
  // size bound keeps memory O(working set) on long traces (superseded
  // entries are overwritten in place, never evicted); it is deterministic
  // and the memo only affects speed, so results are unchanged.
  constexpr std::size_t kMaxTputEntries = std::size_t{1} << 20;
  if (this->estimator() != previous || tput_memo_.size() > kMaxTputEntries) {
    tput_memo_.Clear();
  }
}

Money TnrpCalculator::ComputeReservationPrice(const TaskInfo& task) const {
  // Minimum cost of executing the task's work: cost per hour divided by the
  // task's relative speed on the hosting family. With homogeneous speedups
  // (all 1.0) this reduces to the paper's original definition.
  Money best = 0.0;
  bool found = false;
  for (const InstanceType& type : context_->catalog->types()) {
    if (!task.DemandFor(type.family).FitsWithin(type.capacity)) {
      continue;
    }
    const double speedup = task.SpeedupOn(type.family);
    if (speedup <= 0.0) {
      continue;
    }
    const Money effective = type.cost_per_hour / speedup;
    if (!found || effective < best) {
      best = effective;
      found = true;
    }
  }
  return best;
}

TnrpCalculator::RpEntry TnrpCalculator::RpEntryFor(const TaskInfo& task) const {
  const auto index = static_cast<std::size_t>(task.id);
  const bool flat = task.id >= 0 && index < rp_flat_.size();
  if (flat && rp_flat_filled_[index]) {
    ++cache_stats_.rp_hits;
    return rp_flat_[index];
  }
  if (!flat) {
    const auto cached = rp_cache_.find(task.id);
    if (cached != rp_cache_.end()) {
      ++cache_stats_.rp_hits;
      return cached->second;
    }
  }
  RpEntry entry;
  entry.rp = ComputeReservationPrice(task);
  entry.job_size = context_->JobSize(task.job);
  ++cache_stats_.rp_misses;
  if (flat) {
    rp_flat_[index] = entry;
    rp_flat_filled_[index] = 1;
  } else {
    rp_cache_[task.id] = entry;
  }
  return entry;
}

Money TnrpCalculator::ReservationPrice(const TaskInfo& task) const {
  return RpEntryFor(task).rp;
}

double TnrpCalculator::ThroughputFactor(const TaskInfo& task,
                                        const std::vector<const TaskInfo*>& partners) const {
  const ThroughputEstimator* throughput = estimator();
  if (!options_.interference_aware || throughput == nullptr) {
    return 1.0;
  }
  const auto estimate = [&] {
    ScratchLease<WorkloadScratch> scratch;
    std::vector<WorkloadId>& partner_workloads = scratch->workloads;
    partner_workloads.clear();
    for (const TaskInfo* partner : partners) {
      partner_workloads.push_back(partner->workload);
    }
    return throughput->Estimate(task.workload, partner_workloads);
  };
  // The estimate is a pure function of (workload, partner workload
  // sequence) until the workload's row version moves. The key keeps the
  // caller's partner ORDER (see kMaxPackedPartners).
  TputKey key;
  key.workload = task.workload;
  key.count = static_cast<std::uint32_t>(partners.size());
  bool packable = partners.size() <= kMaxPackedPartners;
  for (const TaskInfo* partner : partners) {
    packable = packable && partner->workload >= 0 && partner->workload < kMaxPackedWorkload;
    key.packed = (key.packed << 7) | static_cast<std::uint64_t>(partner->workload & 0x7f);
  }
  if (!packable) {
    return estimate();
  }
  const std::uint64_t row_version = throughput->RowVersion(task.workload);
  const auto [slot, inserted] = tput_memo_.Upsert(key, TputKeyHash()(key));
  TputEntry& entry = *slot;
  if (!inserted && entry.row_version == row_version) {
    ++cache_stats_.tput_hits;
    return entry.tput;
  }
  ++cache_stats_.tput_misses;
  entry = {estimate(), row_version};
  return entry.tput;
}

Money TnrpCalculator::TaskTnrp(const TaskInfo& task,
                               const std::vector<const TaskInfo*>& partners,
                               std::optional<InstanceFamily> family) const {
  const bool alone = partners.empty();
  return TnrpFromFactor(task, alone ? 1.0 : ThroughputFactor(task, partners), alone, family);
}

Money TnrpCalculator::TnrpFromFactor(const TaskInfo& task, double tput, bool alone,
                                     std::optional<InstanceFamily> family) const {
  const double speedup = family.has_value() ? task.SpeedupOn(*family) : 1.0;
  const RpEntry entry = RpEntryFor(task);
  const Money rp = entry.rp * speedup;
  if (!options_.interference_aware || alone) {
    return rp;
  }
  if (!options_.multi_task_aware || entry.job_size <= 1) {
    return tput * rp;
  }
  // §4.4: the straggler effect propagates to every sibling; charge the full
  // job-level loss to this placement. All tasks of a job share demands, so
  // each sibling's RP equals this task's.
  return rp - static_cast<double>(entry.job_size) * (1.0 - tput) * rp;
}

Money TnrpCalculator::SetTnrp(const std::vector<const TaskInfo*>& tasks,
                              std::optional<InstanceFamily> family) const {
  ScratchLease<TaskPtrScratch> partner_scratch;
  std::vector<const TaskInfo*>& partners = partner_scratch->ptrs;
  Money total = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    partners.clear();
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      if (j != i) {
        partners.push_back(tasks[j]);
      }
    }
    total += TaskTnrp(*tasks[i], partners, family);
  }
  return total;
}

Money TnrpCalculator::SetRp(const std::vector<const TaskInfo*>& tasks) const {
  Money total = 0.0;
  for (const TaskInfo* task : tasks) {
    total += ReservationPrice(*task);
  }
  return total;
}

void SortTasksByRpDesc(const TnrpCalculator& calculator,
                       std::vector<const TaskInfo*>& tasks) {
  ScratchLease<SortScratch> sort_scratch;  // Pooled per (thread, depth).
  std::vector<std::pair<Money, const TaskInfo*>>& keyed = sort_scratch->keyed;
  keyed.clear();
  keyed.reserve(tasks.size());
  for (const TaskInfo* task : tasks) {
    keyed.emplace_back(calculator.ReservationPrice(*task), task);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<Money, const TaskInfo*>& a,
               const std::pair<Money, const TaskInfo*>& b) {
              if (a.first != b.first) {
                return a.first > b.first;
              }
              return a.second->id < b.second->id;
            });
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    tasks[i] = keyed[i].second;
  }
}

}  // namespace eva
