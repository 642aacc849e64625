// Batched candidate evaluation: the DSE hot path.
//
// Every search (search_mappings lowers its two-phase descriptors onto the
// AC/CA chains, search_pipeline_mappings and search_model_mappings run
// chains directly) evaluates candidates through one PipelineEvalPlan per
// chain. A sweep's candidates differ from their neighbors in one or two
// binding fields, and the full Omega::run_pipeline path re-derives
// everything per candidate: the PE/bandwidth split, feature widths, the
// boundary plans, N engine configs, N phase simulations (memoized by string
// key — built, hashed and compared per candidate), the PP compositions, the
// traffic sum and the energy model. A plan factors one candidate
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
// for the exact field->term dependency map) and cached in a POD-keyed hash
// map on the plan, so a single-field mutation invalidates at most the terms
// whose key embeds that field. The plan itself is cached in the
// WorkloadContext keyed by everything outside the binding (substrate +
// energy model + chain), so repeated searches over one workload reuse all
// terms across calls.
//
// Two access tiers sit above the shared map:
//  * PipelineDeltaState — a per-evaluation-block L1: the last term per
//    chain position. Neighboring candidates that leave one phase untouched
//    (the common case in tiling sweeps: the per-phase tiling cross product
//    mutates one side at a time) hit the slot without touching the map or
//    hashing the key.
//  * evaluate_batch — struct-of-arrays evaluation of a candidate block:
//    pass 1 derives every candidate's term specs into parallel arrays,
//    pass 2 resolves terms (L1 slot -> shared map -> simulate), pass 3
//    composes cycles/energy in a tight loop over the resolved arrays.
//
// Parity contract: for every binding, evaluate_batch returns bit-identical
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
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/gemm_engine.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/spmm_engine.hpp"
#include "omega/omega.hpp"
#include "omega/pipeline.hpp"

namespace omega {

/// One candidate's evaluation result, reduced to what the search ranks on.
/// `ok == false` mirrors the scalar oracle throwing (infeasible candidate);
/// the other fields are zero then.
struct EvalOutcome {
  std::uint64_t cycles = 0;
  double on_chip_pj = 0.0;
  bool ok = false;
};

/// POD signature of one phase term — the numeric mirror of the engines'
/// string memo keys (same fields, no formatting/hashing of digits per
/// candidate). w[0] tags the engine so spmm/gemm keys can never collide.
struct EvalTermKey {
  std::array<std::uint64_t, 22> w{};
  [[nodiscard]] bool operator==(const EvalTermKey&) const = default;
};

/// Byte budget for *chunked* phase-term timelines held by one plan.
/// The legacy engine memo refuses chunk grids past kPhaseMemoMaxChunks on
/// the assumption that giant timelines are near-unique; sweep profiles show
/// the opposite — candidates that differ only in fields outside a phase's
/// key share its grid, and re-simulating those terms dominates the hot
/// path. The plan therefore admits big-chunk terms until their estimated
/// timeline footprint (two u64 vectors per term) reaches this budget; past
/// it, new big terms fall back to uncached builds (results identical, the
/// per-block L1 slot is then their only cache).
inline constexpr std::size_t kTermTimelineBudgetBytes = 512ull << 20;

struct EvalTermKeyHash {
  [[nodiscard]] std::size_t operator()(const EvalTermKey& k) const noexcept {
    // FNV-1a over the words; the fields are small integers, so the byte-wise
    // avalanche matters more than speed here (the map is behind the L1).
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t w : k.w) {
      h ^= w;
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// The shared term memo behind an evaluation plan: a POD-keyed map of
/// once-built phase results, the chunked-timeline byte budget, and the
/// request/build counters. Thread-safe; one store per plan.
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
  };

  /// Resolves a term through (L1 slot -> map -> build). `timeline_bytes
  /// == 0` marks a small-grid term (always admitted, like the legacy
  /// engine memo); nonzero is the estimated footprint of a chunked term's
  /// timelines, admitted against kTermTimelineBudgetBytes. `slot` is the
  /// caller's per-block L1 for this term position; `tally` counts this
  /// call into the caller's share.
  [[nodiscard]] std::shared_ptr<const PhaseResult> resolve(
      const EvalTermKey& key, Slot& slot,
      const std::function<std::shared_ptr<const PhaseResult>()>& build,
      std::size_t timeline_bytes, Tally& tally) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }
  /// Estimated bytes of chunked-term timelines admitted against
  /// kTermTimelineBudgetBytes (small-grid terms are not counted).
  [[nodiscard]] std::size_t timeline_bytes() const;

 private:
  struct TermEntry {
    std::once_flag once;
    std::exception_ptr error;  // non-Error escape from the build, memoized
    // Null after a failed build: the engines reject this config
    // (infeasible), cached so every revisit fails without re-simulating.
    std::shared_ptr<const PhaseResult> result;
  };

  mutable std::mutex mutex_;
  mutable std::unordered_map<EvalTermKey, std::shared_ptr<TermEntry>,
                             EvalTermKeyHash>
      terms_;
  mutable std::size_t timeline_bytes_ = 0;  // guarded by mutex_
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> builds_{0};
};

/// Per-evaluation-block working state: one L1 slot per phase POSITION
/// (consecutive candidates that leave phase i untouched hit slot i without
/// hashing its key) plus reusable batch scratch. One state per parallel
/// block — never shared across threads.
struct PipelineDeltaState {
  std::vector<TermStore::Slot> slots;  // sized to the plan's phase count
  TermStore::Tally tally;              // this state's term lookups

  struct Scratch;
  std::shared_ptr<Scratch> scratch;
};

/// A per-(workload, substrate, chain) evaluation plan. The plan is keyed by
/// the *chain* (engines, widths, densities — everything a sweep holds
/// fixed) so per-candidate work reduces to deriving engine configs from the
/// binding (dataflows, boundaries, PE fractions) and resolving cached
/// terms; sparse-weight W^T CSRs are built once per chain phase here
/// instead of once per candidate as in run_pipeline. All methods are const
/// and thread-safe. Counter semantics: term_requests/term_builds/term_count
/// are deterministic for a given evaluated-candidate set (builds happen
/// once per distinct key); L1 hit counts live on the caller's state because
/// block layout is thread-count-dependent. The counters feed the service
/// `stats` response (WorkloadContext::eval_stats) and the search
/// observability.
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

  /// Struct-of-arrays evaluation of a binding block: writes one EvalOutcome
  /// per input binding. Outcomes do not depend on the block boundaries or
  /// on what `state` saw before (see the parity contract above).
  void evaluate_batch(std::span<const PipelineBindingView> bindings,
                      EvalOutcome* out, PipelineDeltaState& state) const;

  [[nodiscard]] std::size_t phase_count() const { return statics_.size(); }

  /// Distinct phase terms resident in the plan's term memo.
  [[nodiscard]] std::size_t term_count() const { return store_.size(); }
  /// Term lookups served (one per resolved phase of a feasible candidate).
  [[nodiscard]] std::uint64_t term_requests() const {
    return store_.requests();
  }
  /// Term lookups that had to run a phase simulation (memo misses).
  [[nodiscard]] std::uint64_t term_builds() const { return store_.builds(); }
  /// Estimated bytes of chunked-term timelines resident in the term store.
  /// NOT deterministic near the admission budget (which candidate's
  /// timeline wins admission at saturation depends on thread schedule), so
  /// this feeds metrics/CLI output only — never goldened responses.
  [[nodiscard]] std::size_t term_timeline_bytes() const {
    return store_.timeline_bytes();
  }

 private:
  friend struct PipelineDeltaState::Scratch;  // scratch holds term arrays
  PipelineEvalPlan() = default;

  /// Chain-invariant per-phase facts, resolved once at obtain time.
  struct PhaseStatic {
    PhaseEngine engine = PhaseEngine::kDenseDense;
    std::size_t in_w = 0;
    std::size_t out_w = 0;
    /// Distinguishes which graph a sparse term runs on in its key (spare
    /// word w[19]): 0 = the workload adjacency, 1 + i = phase i's W^T. Two
    /// sparse-weight phases can share every keyed config field while
    /// walking different weight patterns.
    std::uint64_t graph_tag = 0;
    std::shared_ptr<const CSRGraph> wcsr;  // sparse-weight phases only
  };

  /// One phase's fully derived engine config (the term spec). Exactly one
  /// of spmm/gemm is meaningful per `is_gemm`; sparse-weight phases derive
  /// a transposed spmm config like run_pipeline.
  struct PhaseTerm {
    bool is_gemm = false;
    std::uint64_t graph_tag = 0;
    SpmmPhaseConfig spmm;
    GemmPhaseConfig gemm;
  };
  /// Per-candidate composition inputs. `feasible == false` short-circuits
  /// the term passes (precheck failed — exactly the throws run_pipeline
  /// performs before reaching the engines).
  struct CandidateMeta {
    bool feasible = false;
    std::size_t partition_bytes = 0;
  };

  [[nodiscard]] bool derive(const PipelineBindingView& binding,
                            PhaseTerm* terms, CandidateMeta* meta) const;
  [[nodiscard]] std::shared_ptr<const PhaseResult> resolve_phase(
      const PhaseTerm& term, std::size_t phase_idx,
      PipelineDeltaState& state) const;
  [[nodiscard]] EvalOutcome compose(
      const PipelineBindingView& binding,
      const std::shared_ptr<const PhaseResult>* results,
      std::size_t partition_bytes) const;
  void ensure_state(PipelineDeltaState& state) const;

  // Workload / substrate / chain bindings (all binding-invariant).
  const CSRGraph* graph_ = nullptr;
  const WorkloadContext* context_ = nullptr;
  AcceleratorConfig hw_;
  EnergyModel em_;
  std::size_t v_ = 0;
  std::vector<PhaseStatic> statics_;
  bool chain_ok_ = false;

  TermStore store_;
};

}  // namespace omega
