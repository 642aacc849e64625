// Batched candidate evaluation: the DSE hot path.
//
// Every search (search_mappings lowers its two-phase descriptors onto the
// AC/CA chains, search_pipeline_mappings and search_model_mappings run
// chains directly) evaluates candidates through one PipelineEvalPlan per
// chain. A sweep's candidates differ from their neighbors in one or two
// binding fields, and the full Omega::run_pipeline path re-derives
// everything per candidate: the PE/bandwidth split, feature widths, the
// boundary plans, N engine configs, N phase lookups, the PP compositions,
// the traffic sum and the energy model. A plan factors one candidate
// evaluation into N *phase terms* — one per chain position, the memoizable
// units — plus (N-1) boundary compositions:
//
//   cycles  = sum over segments (PP pairs overlap chunk-by-chunk, the rest
//             sat-add)
//   traffic = sum of the terms' traffic
//   energy  = compute_energy(traffic, em, max PP partition bytes)
//
// Each term is keyed by the binding fields it actually depends on (its
// engine config: tile dims, loop order, the InterPhase-derived flag set,
// the PE/bandwidth split, widths, chunk grid — see key_of in eval_core.cpp
// for the exact field->term dependency map) and cached in the
// WorkloadContext's one TermStore, so a single-field mutation invalidates at
// most the terms whose key embeds that field. Every plan of the context and
// every Omega::run / run_pipeline call given the context (resolve_phase
// below) resolve through that store: a term shared by two chains, or by the
// scalar and the batched path, is simulated once. The plan itself is cached
// in the context keyed by everything outside the binding (substrate +
// energy model + chain), so repeated searches over one workload reuse all
// terms across calls.
//
// Only PP boundaries get a chunk grid. The composition reads chunk
// timelines at a PP boundary alone, and the engines' cycles and traffic do
// not depend on the grid (only chunk_cycles/chunk_completion do), so an
// SP-Generic phase is resolved grid-free: it shares its key and its one
// build with its grid-free twin (an unspilled Sequential boundary's term),
// walks no chunks and holds no timeline. Omega::run_pipeline keeps the
// SP-Generic grid, because schedule traces render its chunk slices.
//
// A PP segment's composed cycles depend only on its two terms, so the
// store also memoizes compose_parallel_pipeline per (producer key,
// consumer key) pair: a warm repeat of a sweep runs no O(chunks)
// recurrence.
//
// Two access tiers sit above the shared map:
//  * PipelineDeltaState — a per-evaluation-block L1: the last term per
//    chain position. Neighboring candidates that leave one phase untouched
//    (the common case in tiling sweeps: the per-phase tiling cross product
//    mutates one side at a time) hit the slot without touching the map or
//    hashing the key.
//  * evaluate — one candidate against the plan with O(phases) state: the
//    precheck, then per phase its engine config (boundary plans and PE
//    split derived on the way) resolved at once (L1 slot -> shared map ->
//    simulate), stopping at the first infeasible phase, then the
//    composition read straight from the slots the resolves filled. A
//    search streams each parallel block through it candidate by candidate,
//    so nothing per block is allocated or zero-filled.
//
// Parity contract: for every binding, evaluate returns bit-identical
// (cycles, on_chip_pj) to Omega::run_pipeline on the bound spec with the
// same context, and `ok == false` exactly when run_pipeline throws Error;
// for a lowered two-phase descriptor the same holds against Omega::run.
// The scalar path stays alive behind SearchOptions::eval_path as the
// differential oracle; tests/eval_core_test.cpp fuzzes single-field
// mutations of two-phase descriptors and of 3-phase bindings against it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/gemm_engine.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/spmm_engine.hpp"
#include "omega/omega.hpp"
#include "omega/pipeline.hpp"
#include "util/error.hpp"
#include "util/once.hpp"

namespace omega {

/// One candidate's evaluation result, reduced to what the search ranks on.
/// `ok == false` mirrors the scalar oracle throwing (infeasible candidate);
/// the other fields are zero then.
struct EvalOutcome {
  std::uint64_t cycles = 0;
  double on_chip_pj = 0.0;
  bool ok = false;
};

/// POD signature of one phase term: every engine-config field that
/// determines its PhaseResult (key_of in eval_core.cpp). w[0] tags the
/// engine and, for spmm, the graph it walks — the workload adjacency or a
/// sparse-weight W^T pattern, whose identity fills the last words — so keys
/// of different engines or graphs can never collide.
struct EvalTermKey {
  std::array<std::uint64_t, 22> w{};
  [[nodiscard]] bool operator==(const EvalTermKey&) const = default;
};

/// Byte budget for the timelines of *chunked* phase terms held by one
/// context's store. Every chunked term is charged num_chunks * 16 bytes
/// (its two u64 timeline vectors), whatever its grid size: candidates that
/// differ only in fields outside a phase's key share its grid, so big
/// grids recur as much as small ones. Past the budget, new chunked terms
/// are built uncached (results identical; the per-block L1 slot is then
/// their only cache, and every warm sweep rebuilds them). Sized so a cold
/// seed-1 perfbench dse_sweep context (about 495 MiB of timelines) fits
/// with room to spare.
inline constexpr std::size_t kTermTimelineBudgetBytes = 1ull << 30;

/// A PP segment's identity: its producer's and its consumer's term keys.
struct EvalPairKey {
  EvalTermKey producer;
  EvalTermKey consumer;
  [[nodiscard]] bool operator==(const EvalPairKey&) const = default;
};

struct EvalTermKeyHash {
  [[nodiscard]] std::size_t operator()(const EvalTermKey& k) const noexcept {
    return static_cast<std::size_t>(fnv(k, kFnvOffset));
  }
  [[nodiscard]] std::size_t operator()(const EvalPairKey& k) const noexcept {
    return static_cast<std::size_t>(
        fnv(k.consumer, fnv(k.producer, kFnvOffset)));
  }

 private:
  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
  // FNV-1a over the words; the fields are small integers, so the byte-wise
  // avalanche matters more than speed here (the map is behind the L1).
  static std::uint64_t fnv(const EvalTermKey& k, std::uint64_t h) noexcept {
    for (const std::uint64_t w : k.w) {
      h ^= w;
      h *= 0x100000001b3ull;
    }
    return h;
  }
};

/// The phase-term memo of one WorkloadContext: a POD-keyed map of
/// once-built phase results, the chunked-timeline byte budget, the PP pair
/// memo, and the request/build counters. Thread-safe; one store per
/// context, shared by its plans and its run paths.
///
/// Sharding: the maps are split into kShards {mutex, terms, pairs} shards
/// selected by the high bits of EvalTermKeyHash, so concurrent sweep
/// threads contend only when their keys land in one shard. A shard lock
/// covers a lookup and the insert of a new entry, never a build or a
/// composition: each term entry builds at most once through its own
/// once-flag (call_once_caching), outside any lock.
///
/// Admission by reservation: the entry count and the admitted timeline
/// bytes are store-wide atomics. A new key is admitted only if it can
/// reserve one entry below kPhaseMemoMaxEntries and its footprint within
/// kTermTimelineBudgetBytes, each by a compare-exchange that never moves a
/// counter past its limit, so the admitted totals can never exceed the
/// limits whatever the thread schedule. A key refused by either limit is
/// built uncached (identical result; only revisit cost differs). Near a
/// limit, which keys win admission depends on the schedule.
///
/// PP pair memo: compose_pp maps (producer key, consumer key) to
/// compose_parallel_pipeline(producer.chunk_completion,
/// consumer.chunk_cycles). A term's result depends only on its key, so the
/// value depends only on the pair and no thread schedule can change it. A
/// missed pair is composed outside the lock and then admitted by the same
/// compare-exchange reservation, under its own kPhaseMemoMaxEntries
/// ceiling; a refused pair is composed uncached on every visit. Two
/// threads missing one pair at once both compose it (the count of
/// recurrences run is therefore not schedule-free); one insert wins.
class TermStore {
 public:
  /// A caller-owned L1 entry: the last term resolved at one term position.
  /// A null `term` with `valid == true` caches "this term's phase config is
  /// infeasible".
  struct Slot {
    EvalTermKey key;
    std::shared_ptr<const PhaseResult> term;
    bool valid = false;
  };

  /// One caller's share of the store counters: the store-wide atomics
  /// count every caller, so concurrent sweeps over one store read their
  /// own requests/builds here instead of diffing the atomics.
  struct Tally {
    std::uint64_t requests = 0;    // resolve calls
    std::uint64_t builds = 0;      // calls that ran the phase simulation
    std::uint64_t delta_hits = 0;  // calls served by the caller's L1 slot
    std::uint64_t pp_lookups = 0;  // compose_pp calls
    std::uint64_t pp_compositions = 0;  // compose_pp calls that recurred
  };

  /// Resolves a term through (L1 slot -> map -> build). `build` is any
  /// callable returning std::shared_ptr<const PhaseResult>; it runs only
  /// on a miss. `timeline_bytes == 0` marks a grid-free term (admitted
  /// below the entry ceiling); nonzero is the footprint of a chunked
  /// term's timelines, admitted against kTermTimelineBudgetBytes too.
  /// A build that throws Error (an infeasible config) caches a null term.
  /// `slot` is the caller's per-block L1 for this term position; `tally`
  /// counts this call into the caller's share.
  template <typename Build>
  [[nodiscard]] std::shared_ptr<const PhaseResult> resolve(
      const EvalTermKey& key, Slot& slot, const Build& build,
      std::size_t timeline_bytes, Tally& tally) const {
    requests_.fetch_add(1, std::memory_order_relaxed);
    ++tally.requests;
    if (slot.valid && slot.key == key) {
      ++tally.delta_hits;
      return slot.term;
    }
    const auto run = [&]() -> std::shared_ptr<const PhaseResult> {
      builds_.fetch_add(1, std::memory_order_relaxed);
      ++tally.builds;
      try {
        return build();
      } catch (const Error&) {
        // Null: the config is infeasible (engine validate threw) —
        // exactly the candidates on which the scalar oracle throws.
        // Anything else (bad_alloc, logic bugs) escapes; a memo entry
        // memoizes it through call_once_caching and rethrows it to every
        // caller.
        return nullptr;
      }
    };
    const std::shared_ptr<TermEntry> entry = find_or_admit(key, timeline_bytes);
    if (entry == nullptr) {
      // Refused by a limit: build uncached (identical result; only
      // revisit cost differs).
      slot.term = run();
    } else {
      call_once_caching(entry->once, entry->error,
                        [&] { entry->result = run(); });
      slot.term = entry->result;
    }
    slot.key = key;
    slot.valid = true;
    return slot.term;
  }

  /// The composed cycles of a PP segment whose two resolved slots are
  /// `producer` and `consumer` (both non-null terms on one chunk grid):
  /// compose_parallel_pipeline(producer.term->chunk_completion,
  /// consumer.term->chunk_cycles), memoized by the pair of slot keys.
  [[nodiscard]] std::uint64_t compose_pp(const Slot& producer,
                                         const Slot& consumer,
                                         Tally& tally) const;

  /// Distinct admitted keys (exact whenever no resolve is in flight).
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }
  /// Misses on new keys that a limit refused (each built uncached).
  [[nodiscard]] std::uint64_t refusals() const {
    return refusals_.load(std::memory_order_relaxed);
  }
  /// Bytes of chunked-term timelines admitted against
  /// kTermTimelineBudgetBytes (grid-free terms are not counted). NOT
  /// deterministic near the budget (which term wins admission there depends
  /// on the thread schedule), so it feeds metrics and CLI output only —
  /// never goldened responses.
  [[nodiscard]] std::size_t timeline_bytes() const {
    return timeline_bytes_.load(std::memory_order_relaxed);
  }
  /// Distinct PP pairs admitted to the pair memo.
  [[nodiscard]] std::size_t pp_pairs() const {
    return pairs_.load(std::memory_order_relaxed);
  }
  /// compose_pp calls that ran the O(chunks) recurrence (pair-memo misses;
  /// schedule-dependent when two threads miss one pair at once, so
  /// metrics-only like timeline_bytes).
  [[nodiscard]] std::uint64_t pp_compositions() const {
    return pp_compositions_.load(std::memory_order_relaxed);
  }

 private:
  struct TermEntry {
    std::once_flag once;
    std::exception_ptr error;  // non-Error escape from the build, memoized
    // Null after a failed build: the engines reject this config
    // (infeasible), cached so every revisit fails without re-simulating.
    std::shared_ptr<const PhaseResult> result;
  };

  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  struct alignas(64) Shard {
    std::mutex mutex;
    std::unordered_map<EvalTermKey, std::shared_ptr<TermEntry>,
                       EvalTermKeyHash>
        terms;  // guarded by mutex
    std::unordered_map<EvalPairKey, std::uint64_t, EvalTermKeyHash>
        pairs;  // guarded by mutex: PP pair -> composed cycles
  };

  /// High hash bits pick the shard; the maps bucket on the whole hash.
  [[nodiscard]] Shard& shard_of(std::size_t hash) const {
    return shards_[hash >> (std::numeric_limits<std::size_t>::digits -
                            kShardBits)];
  }
  /// The entry of `key`, inserted if it can be admitted; null when a limit
  /// refuses a new key.
  [[nodiscard]] std::shared_ptr<TermEntry> find_or_admit(
      const EvalTermKey& key, std::size_t timeline_bytes) const;
  [[nodiscard]] bool admit(std::size_t timeline_bytes) const;

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::size_t> size_{0};
  mutable std::atomic<std::size_t> timeline_bytes_{0};
  mutable std::atomic<std::size_t> pairs_{0};
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> builds_{0};
  mutable std::atomic<std::uint64_t> refusals_{0};
  mutable std::atomic<std::uint64_t> pp_compositions_{0};
};

/// Per-evaluation-block working state: one L1 slot per phase POSITION
/// (consecutive candidates that leave phase i untouched hit slot i without
/// hashing its key). After an evaluation, slot i holds that candidate's
/// phase-i term. One state per parallel block — never shared across
/// threads.
struct PipelineDeltaState {
  std::vector<TermStore::Slot> slots;  // sized to the plan's phase count
  TermStore::Tally tally;              // this state's term lookups
};

/// A per-(workload, substrate, chain) evaluation plan. The plan is keyed by
/// the *chain* (engines, widths, densities — everything a sweep holds
/// fixed) so per-candidate work reduces to deriving engine configs from the
/// binding (dataflows, boundaries, PE fractions) and resolving terms in
/// the context's store; sparse-weight W^T CSRs are built once per chain
/// phase here, where run_pipeline builds one per simulated term. All
/// methods are const and thread-safe. The plan keeps no counters: the
/// store's (WorkloadContext::eval_stats) count every plan and run path of
/// the context, and each evaluation counts its own share on its state.
class PipelineEvalPlan {
 public:
  /// The context-cached plan for (omega's substrate + energy model,
  /// workload, chain). `context` must be bound to `workload.adjacency`. A
  /// chain that can never evaluate (chain_error, empty workload) still
  /// yields a plan — every candidate then reports ok == false, mirroring
  /// run_pipeline throwing on each.
  [[nodiscard]] static std::shared_ptr<const PipelineEvalPlan> obtain(
      const Omega& omega, const GnnWorkload& workload,
      const PipelineChainSpec& chain, const WorkloadContext& context);

  /// Evaluates one binding. The outcome does not depend on what `state`
  /// saw before (see the parity contract above); only the L1 hits do.
  [[nodiscard]] EvalOutcome evaluate(const PipelineBindingView& binding,
                                     PipelineDeltaState& state) const;

  [[nodiscard]] std::size_t phase_count() const { return statics_.size(); }

 private:
  PipelineEvalPlan() = default;

  /// Chain-invariant per-phase facts, resolved once at obtain time.
  struct PhaseStatic {
    PhaseEngine engine = PhaseEngine::kDenseDense;
    std::size_t in_w = 0;
    std::size_t out_w = 0;
    /// Sparse-weight phases only: W^T's nonzeros per row (with in_w and
    /// out_w, the pattern's identity in the term key) and the pattern.
    std::size_t nnz_per_row = 0;
    std::shared_ptr<const CSRGraph> wcsr;
  };

  /// The throws Omega::run_pipeline performs before the engines run (spec
  /// validation, substrate capability, PP sanity): false means the oracle
  /// throws on the bound spec.
  [[nodiscard]] bool precheck(const PipelineBindingView& binding) const;
  /// Resolves one phase term into state.slots[phase_idx]; false when the
  /// engines reject the config (infeasible).
  [[nodiscard]] bool resolve(const SpmmPhaseConfig& cfg, const PhaseStatic& ps,
                             std::size_t phase_idx,
                             PipelineDeltaState& state) const;
  [[nodiscard]] bool resolve(const GemmPhaseConfig& cfg, std::size_t phase_idx,
                             PipelineDeltaState& state) const;
  [[nodiscard]] EvalOutcome compose(const PipelineBindingView& binding,
                                    PipelineDeltaState& state,
                                    std::size_t partition_bytes) const;

  // Workload / substrate / chain bindings (all binding-invariant).
  const CSRGraph* graph_ = nullptr;
  const WorkloadContext* context_ = nullptr;
  AcceleratorConfig hw_;
  EnergyModel em_;
  std::size_t v_ = 0;
  std::vector<PhaseStatic> statics_;
  bool chain_ok_ = false;
};

/// Omega::run_pipeline's engine calls. Without a context each simulates
/// fresh; with one it resolves its term through the context's store, so
/// the run path shares every term with the context's plans. An infeasible
/// config throws the engine's Error either way, on a revisit too.
[[nodiscard]] PhaseResult resolve_phase(const GemmPhaseConfig& cfg,
                                        const WorkloadContext* context);
/// `context`, when given, must be bound to `cfg.graph`.
[[nodiscard]] PhaseResult resolve_phase(const SpmmPhaseConfig& cfg,
                                        const WorkloadContext* context);
/// A sparse-weight phase on W^T = sparse_weight_csr(in_w, out_w, density):
/// `cfg.graph` is set to the pattern, which is built only when the term is
/// simulated.
[[nodiscard]] PhaseResult resolve_sparse_weight_phase(
    SpmmPhaseConfig cfg, std::size_t in_w, std::size_t out_w, double density,
    const WorkloadContext* context);

}  // namespace omega
