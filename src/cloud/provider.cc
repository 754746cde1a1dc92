#include "src/cloud/provider.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace eva {

std::int64_t CloudProviderMetrics::TotalGranted() const {
  std::int64_t total = 0;
  for (const Family& family : families) {
    total += family.granted;
  }
  return total;
}

std::int64_t CloudProviderMetrics::TotalDenied() const {
  std::int64_t total = 0;
  for (const Family& family : families) {
    total += family.denied;
  }
  return total;
}

std::int64_t CloudProviderMetrics::TotalPreempted() const {
  std::int64_t total = 0;
  for (const Family& family : families) {
    total += family.preempted;
  }
  return total;
}

namespace {

// Freed live-acquire arena slots hold this sentinel; real acquire times are
// always >= 0, so occupied and free slots can never be confused.
constexpr SimTime kFreeAcquireSlot = -1.0;

// The one copy of the tier layout: base types verbatim, then one "-spot"
// twin per type (same family/capacity) priced by `spot_price(index, base
// hourly price)`. Both the stable tiered catalog and every per-round quote
// snapshot are built through here, so their indices can never diverge.
template <typename PriceFn>
std::vector<InstanceType> TieredTypes(const InstanceCatalog& base,
                                      const PriceFn& spot_price) {
  std::vector<InstanceType> types = base.types();
  types.reserve(types.size() * 2);
  for (int i = 0; i < base.NumTypes(); ++i) {
    InstanceType spot = base.Get(i);
    spot.name += "-spot";
    spot.cost_per_hour = spot_price(i, spot.cost_per_hour);
    types.push_back(std::move(spot));
  }
  return types;
}

// Max overlap of the closed intervals {[s, e]} ∪ {[a, ∞)}: sorted sweep,
// starts before ends at equal times. Order-independent by construction —
// the inputs are treated as multisets.
int SweptPeak(std::vector<std::pair<SimTime, SimTime>> lifetimes,
              std::vector<SimTime> live_acquires) {
  std::vector<SimTime> starts;
  std::vector<SimTime> ends;
  starts.reserve(lifetimes.size() + live_acquires.size());
  ends.reserve(lifetimes.size());
  for (const auto& [start, end] : lifetimes) {
    starts.push_back(start);
    ends.push_back(std::max(end, start));
  }
  starts.insert(starts.end(), live_acquires.begin(), live_acquires.end());
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  int current = 0;
  int peak = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < starts.size()) {
    if (j < ends.size() && ends[j] < starts[i]) {
      --current;
      ++j;
    } else {
      ++current;
      ++i;
      peak = std::max(peak, current);
    }
  }
  return peak;
}

}  // namespace

InstanceCatalog CloudProvider::MakeTiered(const InstanceCatalog& base,
                                          const SpotMarket& market) {
  // The stable catalog's spot price is the band midpoint — a placeholder
  // for display only. Decision prices come from the quote snapshots and
  // true costs from InstanceCost; neither reads this entry.
  const double midpoint = 0.5 * (market.options().min_price_fraction +
                                 market.options().max_price_fraction);
  return InstanceCatalog(
      TieredTypes(base, [midpoint](int, Money price) { return price * midpoint; }));
}

CloudProvider::CloudProvider(const InstanceCatalog& base, CloudProviderOptions options)
    : base_(base),
      options_(options),
      market_(base_, options_.spot),
      fault_model_(options_.faults),
      tiered_(options_.spot.enabled ? MakeTiered(base_, market_)
                                    : InstanceCatalog({})) {}

std::unique_ptr<InstanceCatalog> CloudProvider::MakeQuoteCatalog(
    SimTime now, double risk_premium) const {
  if (!spot_enabled()) {
    return std::make_unique<InstanceCatalog>(base_.types());
  }
  return std::make_unique<InstanceCatalog>(
      TieredTypes(base_, [this, now, risk_premium](int index, Money) {
        return market_.Quote(index, now) * (1.0 + risk_premium);
      }));
}

std::shared_ptr<const InstanceCatalog> CloudProvider::SharedQuoteCatalog(
    SimTime now, double risk_premium) const {
  if (!spot_enabled()) {
    if (base_snapshot_ == nullptr) {
      base_snapshot_ = std::make_shared<InstanceCatalog>(base_.types());
    }
    return base_snapshot_;
  }
  const std::int64_t step = market_.StepOf(now);
  const auto key = std::make_pair(step, risk_premium);
  auto it = quote_cache_.find(key);
  if (it != quote_cache_.end()) {
    return it->second;
  }
  // Same prices as MakeQuoteCatalog bit-for-bit: Quote(now) ==
  // QuoteAtStep(StepOf(now)), and every `now` in this step maps here.
  auto snapshot = std::make_shared<const InstanceCatalog>(
      TieredTypes(base_, [this, step, risk_premium](int index, Money) {
        return market_.QuoteAtStep(index, step) * (1.0 + risk_premium);
      }));
  quote_cache_.emplace(key, snapshot);
  return snapshot;
}

bool CloudProvider::TryAcquire(int type_index, SimTime now, std::int64_t* slot) {
  const auto family = static_cast<std::size_t>(FamilyOf(type_index));
  const int capacity = options_.family_capacity[family];
  // Windowed outage clamp: a pure function of time, so it agrees across
  // tenants.
  const int effective =
      fault_model_.enabled() ? fault_model_.ClampedCapacity(capacity, now) : capacity;
  if (slot != nullptr) {
    *slot = -1;
  }
  FamilyShard& shard = shards_[family];
  if (capacity >= 0 && shard.in_use >= effective) {
    ++shard.denied;
    if (shard.in_use < capacity) {
      ++shard.fault_denied;  // Nominal headroom existed; the clamp denied.
    }
    return false;
  }
  ++shard.in_use;
  ++shard.granted;
  if (capacity >= 0) {
    shard.peak_in_use = std::max(shard.peak_in_use, shard.in_use);
  } else {
    // Slot arena: reuse a freed index when one exists, grow otherwise. The
    // returned ticket makes the matching Release O(1).
    std::int64_t index;
    if (!shard.live_free.empty()) {
      index = shard.live_free.back();
      shard.live_free.pop_back();
      shard.live_acquires[static_cast<std::size_t>(index)] = now;
    } else {
      index = static_cast<std::int64_t>(shard.live_acquires.size());
      shard.live_acquires.push_back(now);
    }
    if (slot != nullptr) {
      *slot = index;
    }
  }
  return true;
}

void CloudProvider::Release(int type_index, SimTime acquired_at, SimTime now,
                            std::int64_t slot) {
  const auto family = static_cast<std::size_t>(FamilyOf(type_index));
  const int capacity = options_.family_capacity[family];
  FamilyShard& shard = shards_[family];
  --shard.in_use;
  ++shard.released;
  shard.lifetimes.emplace_back(acquired_at, now);
  if (capacity < 0) {
    if (slot >= 0) {
      // Ticketed release: O(1) — the federation hot path.
      const auto index = static_cast<std::size_t>(slot);
      EVA_CHECK(index < shard.live_acquires.size() &&
                    shard.live_acquires[index] == acquired_at,
                "provider release ticket does not match its acquire record");
      shard.live_acquires[index] = kFreeAcquireSlot;
      shard.live_free.push_back(slot);
    } else {
      // Ticketless fallback (direct callers): linear scan for the matching
      // acquire time; freed slots hold the sentinel and can never match.
      auto it = std::find(shard.live_acquires.begin(), shard.live_acquires.end(),
                          acquired_at);
      EVA_CHECK(it != shard.live_acquires.end(),
                "provider release without matching acquire record");
      *it = kFreeAcquireSlot;
      shard.live_free.push_back(
          static_cast<std::int64_t>(it - shard.live_acquires.begin()));
    }
  }
}

void CloudProvider::RecordPreemption(int type_index) {
  const auto family = static_cast<std::size_t>(FamilyOf(type_index));
  ++shards_[family].preempted;
}

Money CloudProvider::InstanceCost(int type_index, SimTime t0, SimTime t1) const {
  if (IsSpotType(type_index)) {
    return market_.CostForInterval(BaseType(type_index), t0, t1);
  }
  return CostForUptime(tiered_catalog().Get(type_index).cost_per_hour,
                       std::max(t1 - t0, 0.0));
}

CloudProviderMetrics CloudProvider::FinalizeMetrics(SimTime horizon) const {
  CloudProviderMetrics metrics;
  for (std::size_t f = 0; f < static_cast<std::size_t>(kNumInstanceFamilies); ++f) {
    const FamilyShard& shard = shards_[f];
    CloudProviderMetrics::Family& out = metrics.families[f];
    out.capacity = options_.family_capacity[f];
    out.granted = shard.granted;
    out.denied = shard.denied;
    out.preempted = shard.preempted;
    out.released = shard.released;
    out.fault_denied = shard.fault_denied;
    // Fold lifetimes in (start, end) order: floating-point sums are
    // order-sensitive, and sorting first makes the fold independent of
    // release order.
    std::vector<std::pair<SimTime, SimTime>> sorted = shard.lifetimes;
    std::sort(sorted.begin(), sorted.end());
    double instance_seconds = 0.0;
    for (const auto& [start, end] : sorted) {
      instance_seconds += std::max(end - start, 0.0);
    }
    out.instance_hours = SecondsToHours(instance_seconds);
    if (out.capacity >= 0) {
      out.peak_in_use = shard.peak_in_use;
    } else {
      // Unlimited pools keep no running max; sweep the interval records
      // instead. Only occupied arena slots are open intervals.
      std::vector<SimTime> live;
      live.reserve(shard.live_acquires.size() - shard.live_free.size());
      for (const SimTime acquired : shard.live_acquires) {
        if (acquired >= 0.0) {
          live.push_back(acquired);
        }
      }
      out.peak_in_use = SweptPeak(sorted, std::move(live));
    }
    if (out.capacity > 0 && horizon > 0.0) {
      out.avg_utilization = instance_seconds / (static_cast<double>(out.capacity) * horizon);
    }
  }
  return metrics;
}

}  // namespace eva
