#include "service/shard.hpp"

#include <algorithm>
#include <utility>

namespace omega::service {

namespace {

/// 64-bit avalanche finalizer (MurmurHash3 fmix64 constants). Raw FNV-1a
/// diffuses short, similar strings — exactly what vnode labels and workload
/// signatures are — into a narrow band of the upper bits, which collapses
/// the ring: neighboring keys all land on the same successor vnode. The
/// finalizer spreads them uniformly; applied to both ring points and lookup
/// keys it preserves the consistent-hashing contract.
std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

std::uint64_t ring_hash(std::string_view s) { return mix64(fnv1a64(s)); }

}  // namespace

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

ShardRouter::ShardRouter(std::size_t shards, std::size_t replicas)
    : shards_(shards == 0 ? 1 : shards),
      replicas_(replicas == 0 ? 1 : replicas) {
  ring_.reserve(shards_ * replicas_);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t r = 0; r < replicas_; ++r) {
      // Virtual-node label; hashing the label (not s*replicas+r arithmetic)
      // keeps ring positions stable when the replica count changes.
      const std::string label =
          "shard:" + std::to_string(s) + ":vnode:" + std::to_string(r);
      ring_.push_back(Point{ring_hash(label), static_cast<std::uint32_t>(s)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.hash < b.hash || (a.hash == b.hash && a.shard < b.shard);
  });
}

std::size_t ShardRouter::route(std::string_view signature) const {
  if (shards_ == 1) return 0;
  const std::uint64_t h = ring_hash(signature);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  return it == ring_.end() ? ring_.front().shard : it->shard;
}

ShardedRegistry::ShardedRegistry(std::size_t capacity, std::size_t shards)
    : router_(shards) {
  const std::size_t n = router_.shards();
  // Ceil split so the total never shrinks below the requested capacity;
  // capacity 0 (caching disabled) stays 0 on every shard.
  const std::size_t per_shard = capacity == 0 ? 0 : (capacity + n - 1) / n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<WorkloadRegistry>(per_shard));
  }
}

std::shared_ptr<const WorkloadEntry> ShardedRegistry::acquire(
    const WorkloadRef& ref) {
  return shards_[router_.route(ref.signature())]->acquire(ref);
}

RegistryStats ShardedRegistry::stats() const {
  RegistryStats total;
  for (const auto& shard : shards_) {
    const RegistryStats s = shard->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.resident += s.resident;
    total.capacity += s.capacity;
  }
  return total;
}

ContextEvalStats ShardedRegistry::eval_stats() const {
  ContextEvalStats total;
  for (const auto& shard : shards_) {
    total += shard->eval_stats();
  }
  return total;
}

std::vector<RegistryEntryStats> ShardedRegistry::entry_stats() const {
  std::vector<RegistryEntryStats> out;
  for (const auto& shard : shards_) {
    std::vector<RegistryEntryStats> rows = shard->entry_stats();
    out.insert(out.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  }
  // Signatures are unique across shards (each routes to exactly one), so
  // this is a strict total order — same emission order as unsharded.
  std::sort(out.begin(), out.end(),
            [](const RegistryEntryStats& a, const RegistryEntryStats& b) {
              return a.signature < b.signature;
            });
  return out;
}

std::uint64_t ShardedRegistry::epoch() const { return shards_.front()->epoch(); }

void ShardedRegistry::advance_epoch() {
  for (const auto& shard : shards_) shard->advance_epoch();
}

}  // namespace omega::service
