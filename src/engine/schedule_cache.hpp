// Evaluation-reuse layer for design-space sweeps.
//
// Every `search_mappings` candidate used to pay O(V) or O(E) work that is
// identical across thousands of candidates: scatter-order candidates
// re-transposed the CSR adjacency, and every candidate rebuilt the lane
// schedule from the degree profile. A WorkloadContext memoizes both per
// workload so a sweep pays them once:
//
//  * the reverse adjacency comes from CSRGraph::shared_transposed(), cached
//    inside the graph itself and shared by every scatter candidate;
//  * lane schedules are keyed by (walk direction, lanes, lane_width) only —
//    the feature-tile multiplier c_f scales every schedule quantity
//    linearly, so all F-tilings of one (V, N) tiling hit one cache entry
//    (see LaneSchedule);
//  * each schedule stores the prefix max of per-row finish steps, so the
//    row-major pipeline chunk timeline reads one value per row block
//    instead of rescanning all V rows per candidate;
//  * complete PhaseResults live in the context's one TermStore
//    (engine/eval_core.hpp), keyed by their engine config: every
//    evaluation plan of the context and every Omega::run / run_pipeline
//    call with the context resolves its phases there, so a phase config
//    shared by two chains, or by the scalar and the batched path, is
//    simulated once.
//
// All methods are const and thread-safe; one context is shared by every
// thread of a sweep. See DESIGN.md "WorkloadContext caching contract".
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"

namespace omega {

/// Ceiling on distinct phase terms (and, apart, PP pairs) per context. A
/// sweep's working set stays far below this; the ceiling exists for
/// long-lived contexts (the mapping service pins one per resident workload)
/// that see requests across many substrates — past it, new configs
/// evaluate uncached instead of growing the store without bound.
inline constexpr std::size_t kPhaseMemoMaxEntries = 65536;

/// Round-robin lane schedule over the walked rows. Spatially mapped rows do
/// NOT advance in lockstep: each lane walks its own rows asynchronously and
/// the phase finishes when the slowest lane drains. A row whose length
/// exceeds its lane's fair share serializes that lane — the paper's "evil
/// row" effect, which is what punishes extremely high T_V on skewed graphs
/// while leaving moderate T_V efficient (Section V-B1).
///
/// Stored for a feature-tile multiplier of 1: a row's work is
/// trips * c_f, and lane cumulative sums are linear in it, so the engine
/// scales critical_path / total_steps / row finishes by c_f at use sites.
/// This is exact (not an approximation): multiplying every summand of a
/// cumulative sum by c_f multiplies every partial sum by c_f.
struct LaneSchedule {
  std::uint64_t critical_path = 0;          // max lane work, in steps
  std::uint64_t total_steps = 0;            // sum of all row steps
  std::vector<std::uint64_t> row_finish;    // per-row completion step
  std::vector<std::uint64_t> row_finish_prefix;  // prefix max of row_finish
};

/// Builds the schedule for `lanes` round-robin lanes of width `lane_width`
/// over the rows of `walk` (forward adjacency for gather orders, reverse
/// adjacency for scatter orders).
[[nodiscard]] LaneSchedule build_lane_schedule(const CSRGraph& walk,
                                               std::size_t lanes,
                                               std::size_t lane_width);

/// The batched evaluation plan the context caches and the term store every
/// plan and run path of the context shares (engine/eval_core.hpp; declared
/// here only, because eval_core.hpp includes this header).
class PipelineEvalPlan;
class TermStore;

/// Aggregated per-context counters; see WorkloadContext::eval_stats.
struct ContextEvalStats {
  std::uint64_t plans = 0;          // distinct (substrate, chain) plans
  std::uint64_t terms = 0;          // resident terms of the term store
  std::uint64_t term_requests = 0;
  std::uint64_t term_builds = 0;
  /// Sum of term_timeline_bytes; deterministic only below the timeline
  /// admission budget — excluded from goldened stats responses.
  std::uint64_t term_bytes = 0;
  /// PP pair-memo entries and the per-chunk recurrences run; the latter
  /// depends on the thread schedule (two threads can miss one pair at
  /// once), so both stay out of goldened responses like term_bytes.
  std::uint64_t pp_pairs = 0;
  std::uint64_t pp_compositions = 0;

  ContextEvalStats& operator+=(const ContextEvalStats& o);
};

/// Per-workload memo shared by all candidates of a sweep. Construct once per
/// (graph, sweep) and pass to Omega::run; candidates that share a walk
/// direction and (lanes, lane_width) reuse one schedule, and all scatter
/// candidates share one transpose.
class WorkloadContext {
 public:
  explicit WorkloadContext(const CSRGraph& adjacency);
  ~WorkloadContext();

  [[nodiscard]] const CSRGraph& graph() const noexcept { return *adjacency_; }

  /// Reverse adjacency (lazily computed, cached in the graph itself).
  [[nodiscard]] const CSRGraph& reverse_graph() const;

  /// Memoized schedule for the given walk. `gather` selects the forward
  /// (true) or reverse (false) adjacency.
  [[nodiscard]] std::shared_ptr<const LaneSchedule> lane_schedule(
      bool gather, std::size_t lanes, std::size_t lane_width) const;

  /// Number of distinct schedules built so far (observability / tests).
  [[nodiscard]] std::size_t schedule_cache_size() const;

  /// The phase-term store shared by the context's plans and run paths.
  [[nodiscard]] const TermStore& terms() const noexcept { return *terms_; }

  /// Distinct phase terms held by the store.
  [[nodiscard]] std::size_t phase_cache_size() const;

  /// Term misses the store refused (entry ceiling or timeline budget).
  [[nodiscard]] std::size_t phase_memo_overflow() const;

  /// Memoized evaluation plan. `signature` captures everything the plan
  /// depends on besides the graph (substrate + energy model + chain — see
  /// PipelineEvalPlan::obtain); `build` runs at most once per signature.
  /// Concurrent misses on different signatures build in parallel; a
  /// throwing build is memoized and rethrown to every caller.
  [[nodiscard]] std::shared_ptr<const PipelineEvalPlan> eval_plan(
      const std::string& signature,
      const std::function<std::shared_ptr<const PipelineEvalPlan>()>& build)
      const;

  /// Number of distinct plans resident (observability / tests).
  [[nodiscard]] std::size_t eval_plan_count() const;

  /// The plan count and the term store's counters (service `stats`
  /// response).
  [[nodiscard]] ContextEvalStats eval_stats() const;

 private:
  struct Key {
    bool gather;
    std::size_t lanes;
    std::size_t lane_width;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = k.gather ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull;
      h ^= k.lanes + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      h ^= k.lane_width + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h;
    }
  };
  /// Map values are once-entries so a cache miss builds outside the map
  /// lock: concurrent misses on different keys proceed in parallel, and
  /// concurrent misses on the same key build exactly once.
  struct Entry {
    std::once_flag once;
    std::exception_ptr error;
    std::shared_ptr<const LaneSchedule> schedule;
  };
  struct PlanEntry {
    std::once_flag once;
    std::exception_ptr error;
    std::shared_ptr<const PipelineEvalPlan> plan;
  };

  const CSRGraph* adjacency_;
  mutable std::shared_ptr<const CSRGraph> reverse_;  // pinned on first use
  mutable std::once_flag reverse_once_;
  mutable std::exception_ptr reverse_error_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> schedules_;
  mutable std::unordered_map<std::string, std::shared_ptr<PlanEntry>>
      eval_plans_;
  std::unique_ptr<const TermStore> terms_;
};

}  // namespace omega
