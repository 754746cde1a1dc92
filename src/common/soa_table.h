// Struct-of-arrays building blocks for the hot per-round and per-event
// state: dense columns keyed by the engine's sequential integer ids.
//
//   * EpochColumn<T> — a dense id-indexed column whose entries are stamped
//     with the epoch that wrote them; Clear() bumps the epoch, invalidating
//     every entry in O(1). This is the generalization of the scheduling
//     context's epoch-stamped flat indices: anywhere the engine used to
//     rebuild a per-round unordered_map it can keep one column for the whole
//     run and Clear() it per round — zero allocations at steady state.
//   * EpochSet<Id> — EpochColumn<char> membership plus an insertion-order
//     list, replacing per-event std::set node churn (the execution model's
//     dirty set). O(1) insert/contains/Clear; the list can be sorted when a
//     consumer needs id-ascending iteration.
//   * IdSet<Id> — a sorted flat vector with set semantics. Iteration order
//     is identical to std::set<Id>, but erase/insert reuse one contiguous
//     buffer instead of allocating/freeing a node per mutation. Meant for
//     small-cardinality per-record sets (an instance's assigned/present
//     tasks) where the O(n) shift is cheaper than a malloc.
//   * PagedTable<T> — id-indexed record storage in fixed-size pages: stable
//     pointers (pages never move), id-ordered iteration, O(1) lookup, and
//     one allocation per page instead of one per record (the task table).
//
// None of these change values or iteration contracts relative to the
// containers they replace — they are layout changes, chosen so the engine's
// floating-point fold orders (and therefore the golden metrics) stay
// bit-identical.

#ifndef SRC_COMMON_SOA_TABLE_H_
#define SRC_COMMON_SOA_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <memory>
#include <vector>

namespace eva {

// Dense column of T keyed by a non-negative integer id. An entry is live
// iff its stamp matches the current epoch; Clear() bumps the epoch. On
// epoch wrap (2^32), every stamp is zeroed so stale entries from the
// previous wrap cannot alias as live.
template <typename T>
class EpochColumn {
 public:
  // Writes `value` at `id`, growing the column if needed.
  void Set(std::size_t id, const T& value) {
    EnsureSize(id);
    values_[id] = value;
    stamps_[id] = epoch_;
  }

  // Mutable access to the slot at `id`, stamping it live (value is
  // default-constructed garbage if the slot was not live this epoch —
  // callers that need read-modify-write should Find() first).
  T& Touch(std::size_t id) {
    EnsureSize(id);
    stamps_[id] = epoch_;
    return values_[id];
  }

  const T* Find(std::size_t id) const {
    if (id >= stamps_.size() || stamps_[id] != epoch_) {
      return nullptr;
    }
    return &values_[id];
  }
  T* Find(std::size_t id) {
    if (id >= stamps_.size() || stamps_[id] != epoch_) {
      return nullptr;
    }
    return &values_[id];
  }
  bool Contains(std::size_t id) const {
    return id < stamps_.size() && stamps_[id] == epoch_;
  }

  // O(1) invalidation of every entry (epoch bump; see wrap note above).
  void Clear() {
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  std::size_t capacity() const { return values_.size(); }

 private:
  void EnsureSize(std::size_t id) {
    if (id >= values_.size()) {
      // Doubling growth: ids arrive sequentially, and resize(id + 1) per id
      // would reallocate every call.
      const std::size_t grown = std::max(id + 1, values_.size() * 2);
      values_.resize(grown);
      stamps_.resize(grown, epoch_ - 1);
    }
  }

  std::vector<T> values_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;
};

// Set of integer ids with O(1) insert/contains/Clear and an explicit
// element list. Iteration order is insertion order; call SortedView() (or
// sort `items()` yourself) when a consumer requires ascending ids.
template <typename Id>
class EpochSet {
 public:
  // Returns true if the id was newly inserted (or re-inserted after an
  // EraseMembership this epoch — the element list already has it then).
  bool Insert(Id id) {
    if (const char* member = member_.Find(static_cast<std::size_t>(id))) {
      if (*member != 0) {
        return false;
      }
      member_.Touch(static_cast<std::size_t>(id)) = 1;
      return true;
    }
    member_.Touch(static_cast<std::size_t>(id)) = 1;
    items_.push_back(id);
    return true;
  }

  bool Contains(Id id) const {
    const char* member = member_.Find(static_cast<std::size_t>(id));
    return member != nullptr && *member != 0;
  }

  // Removes the id from membership; the element list keeps the stale entry
  // until Clear() (consumers filter through Contains). The execution model
  // never needs mid-epoch erase, so this stays O(1).
  void EraseMembership(Id id) {
    if (member_.Contains(static_cast<std::size_t>(id))) {
      member_.Touch(static_cast<std::size_t>(id)) = 0;
    }
  }

  bool Empty() const { return items_.empty(); }
  std::size_t SizeUpperBound() const { return items_.size(); }

  // The insertion-order element list; may contain erased ids (check
  // Contains) but never duplicates.
  const std::vector<Id>& items() const { return items_; }
  std::vector<Id>& mutable_items() { return items_; }

  void Clear() {
    member_.Clear();
    items_.clear();
  }

 private:
  // 1 = member, 0 = erased-this-epoch; absent stamp = never inserted.
  EpochColumn<char> member_;
  std::vector<Id> items_;
};

// Sorted flat vector with std::set semantics and iteration order. insert()
// and erase() shift the tail (fine at per-record cardinalities); capacity
// is retained across mutations, so steady-state churn allocates nothing.
template <typename Id>
class IdSet {
 public:
  using const_iterator = typename std::vector<Id>::const_iterator;

  bool insert(Id id) {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it != ids_.end() && *it == id) {
      return false;
    }
    ids_.insert(it, id);
    return true;
  }

  bool erase(Id id) {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) {
      return false;
    }
    ids_.erase(it);
    return true;
  }

  bool contains(Id id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  std::size_t count(Id id) const { return contains(id) ? 1 : 0; }

  // Replaces the contents with an already-sorted, duplicate-free sequence,
  // reusing capacity (the bulk-rebuild path of per-round consumers).
  void AssignSorted(const std::vector<Id>& sorted_unique) {
    ids_.assign(sorted_unique.begin(), sorted_unique.end());
  }

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void clear() { ids_.clear(); }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  const std::vector<Id>& ids() const { return ids_; }

 private:
  std::vector<Id> ids_;
};

// Open-addressing hash map for memo tables: flat slot storage (no per-node
// allocation — the node-based unordered_map shards it replaces allocated on
// every insert), linear probing over a power-of-two capacity, no erase
// (memo entries die by Clear(), which keeps capacity). Callers pass the
// key's precomputed hash with every lookup. Not internally synchronized.
template <typename K, typename V, typename Hash>
class FlatMemoMap {
 public:
  explicit FlatMemoMap(Hash hash = Hash()) : hash_(hash) {}

  V* Find(const K& key, std::size_t hash) {
    if (used_ == 0) {
      return nullptr;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = MixHash(hash) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        return nullptr;
      }
      if (slot.key == key) {
        return &slot.value;
      }
    }
  }

  // Returns the value slot for `key` and whether it was just inserted (a
  // new slot holds a default-constructed value), as try_emplace does.
  std::pair<V*, bool> Upsert(const K& key, std::size_t hash) {
    if (slots_.empty() || (used_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = MixHash(hash) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot.key = key;
        slot.used = true;
        ++used_;
        return {&slot.value, true};
      }
      if (slot.key == key) {
        return {&slot.value, false};
      }
    }
  }

  std::size_t size() const { return used_; }

  // Drops every entry, keeping slot capacity (steady-state Clear + refill
  // allocates nothing).
  void Clear() {
    for (Slot& slot : slots_) {
      slot.used = false;
      slot.key = K();
      slot.value = V();
    }
    used_ = 0;
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };

  // Power-of-two masking exposes weak low bits that prime-modulo bucketing
  // (the unordered_map this replaces) papered over; with linear probing the
  // resulting clustering turns probe chains pathological. Finalize every
  // caller hash with a full-avalanche mixer (murmur3 fmix64) before
  // masking.
  static std::size_t MixHash(std::size_t hash) {
    std::uint64_t h = hash;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot());
    const std::size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (!slot.used) {
        continue;
      }
      std::size_t i = MixHash(hash_(slot.key)) & mask;
      while (slots_[i].used) {
        i = (i + 1) & mask;
      }
      slots_[i] = std::move(slot);
    }
  }

  Hash hash_;
  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

// Record table keyed by a dense sequential id: fixed-size pages give stable
// record addresses (no rehash/move on growth), one allocation per
// kPageSize records, and id-ascending iteration that skips erased slots.
template <typename T, typename Id = std::int64_t>
class PagedTable {
 public:
  static constexpr std::size_t kPageSize = 512;

  // Default-constructs (or reuses the erased slot of) the record at `id`.
  T& Emplace(Id id) {
    const std::size_t index = static_cast<std::size_t>(id);
    const std::size_t page = index / kPageSize;
    if (page >= pages_.size()) {
      pages_.resize(page + 1);
    }
    if (!pages_[page]) {
      pages_[page] = std::make_unique<Page>();
    }
    Page& p = *pages_[page];
    const std::size_t slot = index % kPageSize;
    assert(!p.live[slot]);
    p.live[slot] = true;
    ++p.live_count;
    ++size_;
    p.records[slot] = T{};
    return p.records[slot];
  }

  T* Find(Id id) {
    const std::size_t index = static_cast<std::size_t>(id);
    const std::size_t page = index / kPageSize;
    if (id < 0 || page >= pages_.size() || !pages_[page] ||
        !pages_[page]->live[index % kPageSize]) {
      return nullptr;
    }
    return &pages_[page]->records[index % kPageSize];
  }
  const T* Find(Id id) const {
    return const_cast<PagedTable*>(this)->Find(id);
  }

  const T& at(Id id) const {
    const T* record = Find(id);
    assert(record != nullptr);
    return *record;
  }

  void Erase(Id id) {
    const std::size_t index = static_cast<std::size_t>(id);
    Page& p = *pages_[index / kPageSize];
    assert(p.live[index % kPageSize]);
    p.live[index % kPageSize] = false;
    --p.live_count;
    --size_;
    // Ids are handed out sequentially, so once a page fully drains no id in
    // it can come back — free it, keeping resident memory O(live records).
    if (p.live_count == 0) {
      pages_[index / kPageSize].reset();
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Forward iterator over live records in ascending id order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator(const PagedTable* table, std::size_t index)
        : table_(table), index_(index) {
      SkipDead();
    }
    const T& operator*() const {
      return table_->pages_[index_ / kPageSize]->records[index_ % kPageSize];
    }
    const T* operator->() const { return &**this; }
    Id id() const { return static_cast<Id>(index_); }
    const_iterator& operator++() {
      ++index_;
      SkipDead();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    void SkipDead() {
      const std::size_t limit = table_->pages_.size() * kPageSize;
      while (index_ < limit) {
        const Page* page = table_->pages_[index_ / kPageSize].get();
        if (page == nullptr || page->live_count == 0) {
          index_ = (index_ / kPageSize + 1) * kPageSize;
          continue;
        }
        if (page->live[index_ % kPageSize]) {
          return;
        }
        ++index_;
      }
      index_ = limit;
    }

    const PagedTable* table_;
    std::size_t index_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, pages_.size() * kPageSize);
  }

 private:
  struct Page {
    T records[kPageSize];
    bool live[kPageSize] = {};
    std::size_t live_count = 0;
  };

  std::vector<std::unique_ptr<Page>> pages_;
  std::size_t size_ = 0;
};

}  // namespace eva

#endif  // SRC_COMMON_SOA_TABLE_H_
