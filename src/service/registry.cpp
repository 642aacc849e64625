#include "service/registry.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/once.hpp"

namespace omega::service {

WorkloadRegistry::WorkloadRegistry(std::size_t capacity)
    : capacity_(capacity) {}

GnnWorkload WorkloadRegistry::build_workload(const WorkloadRef& ref) {
  SynthesisOptions so;
  so.seed = ref.seed;
  so.scale = ref.scale;
  so.add_self_loops = ref.add_self_loops;
  so.gcn_normalize = ref.gcn_normalize;
  if (!ref.mtx_path.empty()) {
    return workload_from_matrix_market(ref.mtx_path, ref.in_features, so);
  }
  GnnWorkload w = synthesize_workload(dataset_by_name(ref.dataset), so);
  if (ref.in_features > 0) w.in_features = ref.in_features;
  return w;
}

std::shared_ptr<const WorkloadEntry> WorkloadRegistry::acquire(
    const WorkloadRef& ref) {
  const std::string key = ref.signature();

  if (capacity_ == 0) {
    // Caching disabled: build fresh, count the miss, cache nothing.
    {
      const std::scoped_lock lock(mutex_);
      ++misses_;
    }
    return std::make_shared<const WorkloadEntry>(build_workload(ref));
  }

  std::shared_ptr<Slot> slot;
  {
    const std::scoped_lock lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      ++hits_;
      ++it->second.hits;
      it->second.last_hit_epoch = epoch_;
      recency_.splice(recency_.begin(), recency_, it->second.lru);
      slot = it->second.slot;
    } else {
      ++misses_;
      recency_.push_front(key);
      slot = std::make_shared<Slot>();
      entries_.emplace(key, MapEntry{slot, recency_.begin(), 0, epoch_});
      while (entries_.size() > capacity_) {
        // Evict the least-recently-used signature. In-flight acquires hold
        // the slot's shared_ptr, so eviction only drops the cache's ref.
        const std::string victim = recency_.back();
        recency_.pop_back();
        entries_.erase(victim);
        ++evictions_;
      }
    }
  }

  // Build outside the registry lock: concurrent misses on different
  // signatures synthesize in parallel; same-signature waiters block on the
  // once_flag and share one build. A throwing build memoizes its exception
  // on the slot (call_once_caching — exceptions must not cross the
  // pthread_once boundary), and the slot is dropped from the map so a later
  // acquire retries with a fresh slot instead of hitting a permanently-empty
  // cache entry.
  try {
    call_once_caching(slot->once, slot->error, [&] {
      slot->entry = std::make_shared<const WorkloadEntry>(build_workload(ref));
    });
  } catch (...) {
    const std::scoped_lock lock(mutex_);
    if (const auto it = entries_.find(key);
        it != entries_.end() && it->second.slot == slot) {
      recency_.erase(it->second.lru);
      entries_.erase(it);
    }
    throw;
  }
  return slot->entry;
}

RegistryStats WorkloadRegistry::stats() const {
  const std::scoped_lock lock(mutex_);
  RegistryStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident = entries_.size();
  s.capacity = capacity_;
  return s;
}

std::vector<RegistryEntryStats> WorkloadRegistry::entry_stats() const {
  std::vector<RegistryEntryStats> out;
  {
    const std::scoped_lock lock(mutex_);
    out.reserve(entries_.size());
    for (const auto& [key, e] : entries_) {
      RegistryEntryStats r;
      r.signature = key;
      r.hits = e.hits;
      r.last_hit_epoch = e.last_hit_epoch;
      r.warm = e.slot != nullptr && e.slot->entry != nullptr;
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RegistryEntryStats& a, const RegistryEntryStats& b) {
              return a.signature < b.signature;
            });
  return out;
}

std::uint64_t WorkloadRegistry::epoch() const {
  const std::scoped_lock lock(mutex_);
  return epoch_;
}

void WorkloadRegistry::advance_epoch() {
  const std::scoped_lock lock(mutex_);
  ++epoch_;
}

ContextEvalStats WorkloadRegistry::eval_stats() const {
  // Snapshot the entry pointers under the lock, then aggregate outside it:
  // each context's eval_stats() takes that context's own mutex.
  std::vector<std::shared_ptr<const WorkloadEntry>> resident;
  {
    const std::scoped_lock lock(mutex_);
    resident.reserve(entries_.size());
    // omega-lint: allow(unordered-iter): commutative fold (counter sums), no emission order
    for (const auto& [key, e] : entries_) {
      if (e.slot != nullptr && e.slot->entry != nullptr) {
        resident.push_back(e.slot->entry);
      }
    }
  }
  ContextEvalStats total;
  for (const auto& entry : resident) {
    total += entry->context.eval_stats();
  }
  return total;
}

}  // namespace omega::service
