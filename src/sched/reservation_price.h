// Reservation price (RP) and throughput-normalized reservation price (TNRP)
// calculators (§4.2-§4.4).
//
// RP(tau) is the hourly cost of the cheapest instance type capable of
// hosting tau alone — the maximum hourly price worth paying for the task.
// TNRP scales RP by the (estimated) normalized throughput the task would
// achieve under a given co-location, so that a task-to-instance assignment
// is cost-efficient exactly when TNRP(T) >= instance cost. For multi-task
// jobs, the degradation a placement inflicts on the whole data-parallel job
// is charged to that placement:
//   TNRP(tau, T) = RP(tau) - sum_{tau' in job(tau)} (1 - tput_{tau,T}) * RP(tau').
//
// The calculator keeps two memos so the scheduling decision path can reuse
// work across rounds:
//   * RP (and job size) per task — demands and speedups are immutable per
//     id; refreshed whenever the bound catalog changes (a spot price step);
//   * the throughput factor per (task workload, ordered partner workloads),
//     stamped with the estimator's row version for the task's workload —
//     entries invalidate themselves exactly when new observations change
//     the estimate. The factor holds no price, so a new catalog leaves it
//     valid, and tasks of one workload share its entries.
// TNRP itself is recomputed from these two on every call with the same
// arithmetic an unmemoized evaluation performs, so the memos change speed,
// never results. A calculator is not thread-safe: one decision prices on one
// thread. Rebind() points a long-lived calculator at the next round's
// context while keeping the memos.

#ifndef SRC_SCHED_RESERVATION_PRICE_H_
#define SRC_SCHED_RESERVATION_PRICE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/soa_table.h"
#include "src/sched/throughput_estimator.h"
#include "src/sched/types.h"

namespace eva {

class TnrpCalculator {
 public:
  struct Options {
    // When false, throughput is treated as 1.0 everywhere — this is the
    // Eva-RP ablation of Figure 4.
    bool interference_aware = true;

    // When false, tasks of multi-task jobs are treated as independent —
    // the Eva-Single ablation of Table 6 / Figure 7.
    bool multi_task_aware = true;
  };

  struct CacheStats {
    std::uint64_t rp_hits = 0;
    std::uint64_t rp_misses = 0;
    std::uint64_t tput_hits = 0;
    std::uint64_t tput_misses = 0;
  };

  // `estimator` overrides context.throughput when given — long-lived
  // schedulers pass their own table here so each round's context does not
  // have to be copied just to re-bind its throughput pointer.
  TnrpCalculator(const SchedulingContext& context, Options options,
                 const ThroughputEstimator* estimator = nullptr);

  // Points the calculator at a new context while keeping the memos — the
  // cross-round fast path. Contract: task and job ids must be stable
  // identities (the same id always denotes the same demands, workload,
  // speedups, and job size). A different catalog object refreshes the RP
  // memo only; a different throughput estimator object drops the throughput
  // memo (row versions only track mutations of one estimator). Not
  // thread-safe against concurrent pricing calls; rebind between rounds,
  // not during one.
  void Rebind(const SchedulingContext& context,
              const ThroughputEstimator* estimator = nullptr);

  // RP(tau): hourly cost of the cheapest fitting type. With heterogeneous
  // per-family speedups (§4.2's extension) this becomes the minimum cost of
  // executing one unit of work: min_k C_k / speedup(family(k)) over fitting
  // types. Cached per task. Tasks that fit no instance type have RP 0 (the
  // simulator rejects such jobs at admission, so this is defensive).
  Money ReservationPrice(const TaskInfo& task) const;

  // TNRP of one task co-located with `partners` (the other tasks on the
  // same hypothetical instance, excluding the task itself). May be negative
  // for multi-task jobs under severe interference. When `family` is given,
  // the task's relative speed on that family scales its value (§4.2).
  Money TaskTnrp(const TaskInfo& task, const std::vector<const TaskInfo*>& partners,
                 std::optional<InstanceFamily> family = std::nullopt) const;

  // TNRP of a set of tasks placed together: the sum, folded in member
  // order, of each member's TaskTnrp with the other members (in caller
  // order) as its partners.
  Money SetTnrp(const std::vector<const TaskInfo*>& tasks,
                std::optional<InstanceFamily> family = std::nullopt) const;

  // Plain reservation-price sum of a set (used by Eva-RP and the
  // cost-efficiency walk-through of §4.2).
  Money SetRp(const std::vector<const TaskInfo*>& tasks) const;

  const Options& options() const { return options_; }
  const CacheStats& cache_stats() const { return cache_stats_; }

 private:
  // Partner workloads are packed 7 bits each into one word *in caller
  // order* — NOT canonicalized: Estimate's fold over the partners is
  // order-sensitive in floating point, and a memoized factor must reproduce
  // an unmemoized evaluation of the same call bit-for-bit. The packing is
  // injective for <= kMaxPackedPartners partners with ids < 128; calls
  // outside that envelope compute unmemoized (identical values).
  static constexpr std::size_t kMaxPackedPartners = 8;
  static constexpr WorkloadId kMaxPackedWorkload = 128;

  struct TputKey {
    WorkloadId workload = kInvalidWorkloadId;
    std::uint32_t count = 0;
    std::uint64_t packed = 0;

    bool operator==(const TputKey& other) const {
      return workload == other.workload && count == other.count && packed == other.packed;
    }
  };

  struct TputKeyHash {
    std::size_t operator()(const TputKey& key) const;
  };

  struct TputEntry {
    double tput = 1.0;
    std::uint64_t row_version = 0;  // Estimator row version at compute time.
  };

  // RP and job size are both immutable per task id, so they share a memo
  // entry (job size feeds the §4.4 multi-task term without re-touching the
  // context's job index on every call).
  struct RpEntry {
    Money rp = 0.0;
    int job_size = 1;
  };

  const ThroughputEstimator* estimator() const {
    return estimator_ != nullptr ? estimator_ : context_->throughput;
  }

  RpEntry RpEntryFor(const TaskInfo& task) const;
  Money ComputeReservationPrice(const TaskInfo& task) const;
  // Estimated throughput of `task` next to `partners` (memoized).
  double Throughput(const TaskInfo& task,
                    const std::vector<const TaskInfo*>& partners) const;

  // Grows the flat RP cache to cover the bound context's task ids (called
  // from Rebind, between rounds).
  void GrowRpFlat();

  const SchedulingContext* context_;
  Options options_;
  const ThroughputEstimator* estimator_;

  // Catalog the RP memo was computed against. Rebind must compare the new
  // context's catalog against this saved value, NOT against
  // context_->catalog: callers (the simulator) refill one context object in
  // place across rounds, so by Rebind time the old object already carries
  // the new catalog pointer and the comparison would always read "same" —
  // silently keeping RPs priced off a catalog that changed (the spot tier's
  // per-step quote snapshots).
  const InstanceCatalog* bound_catalog_ = nullptr;

  // Flat RP cache for the dense task-id universe (simulator ids are
  // sequential): the RP lookup is the innermost pricing primitive, and a
  // vector index beats the hash probe it replaces by an order of magnitude.
  // Ids beyond the flat range (hand-built contexts) fall back to rp_cache_.
  mutable std::vector<RpEntry> rp_flat_;
  mutable std::vector<std::uint8_t> rp_flat_filled_;
  mutable std::unordered_map<TaskId, RpEntry> rp_cache_;
  // Lookup-only flat table (never iterated), so its layout cannot affect
  // any value or order the scheduler produces.
  mutable FlatMemoMap<TputKey, TputEntry, TputKeyHash> tput_memo_;
  mutable CacheStats cache_stats_;
};

// Sorts tasks by descending reservation price with deterministic ascending-id
// tie-break — the candidate order of Algorithm 1 and the incremental
// baselines. Computes each RP exactly once into a keyed vector before
// sorting (the previous comparator-driven sorts re-priced tasks on every
// comparison, O(n log n) calculator calls).
void SortTasksByRpDesc(const TnrpCalculator& calculator,
                       std::vector<const TaskInfo*>& tasks);

}  // namespace eva

#endif  // SRC_SCHED_RESERVATION_PRICE_H_
