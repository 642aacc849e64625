// The searched candidate space of one chain as a counted choice tree.
//
// The paper's taxonomy (Section III) makes the mapping space a product of
// fixed per-phase domains — a loop order, a power-of-two tile triple, an
// inter-phase strategy per boundary and a PP split — filtered by the Table
// II rules. CandidateSpace counts that tree without walking it and decodes
// any index in O(phases x log), so a capped search costs O(budget) instead
// of O(space): search_pipeline_mappings stride-samples indices and decodes
// only those.
//
// Ordering contract (what a given index decodes to — the sampled sets, and
// therefore every ranked/Pareto result and service golden, depend on it):
//
//  * Classic two-phase chains (one sparse-dense + one dense phase, AC or
//    CA) keep the historic two-phase enumerator's order. Blocks come in
//    sequence: every Seq (agg order, cmb order) pair, then per feasible
//    pipelined pair its SPg block and one PP block per pp_fractions entry
//    (as given, duplicates and out-of-range values included — the latter
//    validate to empty blocks), then the two SP-Optimized templates. A block
//    is agg tilings x cmb tilings with agg outer; Table II validation is
//    decided once per block, except for SP-Optimized, whose per-tile rules
//    filter the agg list (the cmb tile is tied to it). Each index decodes to
//    the descriptor and is lowered through lower_two_phase_candidate_into,
//    so `legacy` and key() are the descriptor's.
//  * General chains: boundary strategies outermost (per boundary Seq, SPg,
//    SPO, then PP per valid fraction; chunked boundaries never adjacent and
//    never feeding a sparse-weight phase; PP needs >= 2 PEs), then per phase
//    order_i -> tile_i -> order_{i+1} -> ... . A chunked boundary admits
//    only hand-off-feasible order pairs; an SP-Optimized boundary ties the
//    consumer's tile to the producer's (sp_optimized_pair_ok and the PE
//    budget decide it). The number of completions below phase i depends on
//    order_i only, and on tile_i too when boundary i is SP-Optimized; the
//    space memoizes those counts, so decode picks each phase's order by a
//    scan over six counts and its tile by a division or, below an
//    SP-Optimized boundary, a binary search over prefix counts.
//
// Tile lists are memoized per (phase, PE budget). Counts are checked: a
// space larger than size_t throws InvalidArgumentError rather than
// saturating (a saturated size would silently skew the stride sample).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "dse/pipeline_search.hpp"

namespace omega {

/// Binding-invariant shape of a searched chain, resolved once: per-phase
/// engine, widths and admissible loop orders, plus the classic two-phase
/// projection when the chain is one.
struct ChainShape {
  struct Phase {
    PhaseEngine engine = PhaseEngine::kDenseDense;
    std::size_t in_w = 0;
    std::size_t out_w = 0;
    /// The engine vocabulary's six orders, minus G-after-F orders for
    /// sparse-weight phases (which walk W^T G-major — PipelineSpec::validate
    /// would reject the rest).
    std::vector<LoopOrder> orders;
  };
  std::vector<Phase> phases;
  /// Set for classic two-phase chains (sparse-dense Aggregation + dense
  /// Combination in either order), whose space keeps the legacy order.
  std::optional<PhaseOrder> classic;
  LayerSpec classic_layer;

  /// Throws if the chain fails chain_error (`index` names it). A chain with
  /// in_features == 0 takes `default_in_features` (the workload's).
  [[nodiscard]] static ChainShape of(const PipelineChainSpec& chain,
                                     std::size_t index,
                                     std::size_t default_in_features);
};

/// PEs of the first phase of a PP pair given `frac` of `pes` (>= 2): the
/// truncation split candidate tilings are budgeted with. The evaluator
/// rounds with llround instead; generation has always budgeted with
/// truncation, and the Table V seeds size their bindings the same way.
[[nodiscard]] std::size_t pp_budget_first(std::size_t pes, double frac);

class CandidateSpace {
 public:
  /// The space of `chain` (stamped `chain_index`) on `workload` at `pes`.
  CandidateSpace(const PipelineChainSpec& chain, std::size_t chain_index,
                 const GnnWorkload& workload, std::size_t pes,
                 const PipelineSearchOptions& options);
  /// The classic two-phase space of `order` over bare workload dims (what
  /// enumerate_search_candidates decodes).
  CandidateSpace(PhaseOrder order, const WorkloadDims& dims, std::size_t pes,
                 const PipelineSearchOptions& options);
  ~CandidateSpace();

  /// Number of candidates, computed from counts (never by walking).
  [[nodiscard]] std::size_t size() const;
  /// The candidate at `index` < size(), in the ordering contract above.
  [[nodiscard]] PipelineCandidate decode(std::size_t index) const;
  /// decode(index) written into `out`, whatever it held before, reusing
  /// its vectors' capacity: a sweep streams its sample through one
  /// candidate per block. Thread-safe (the space is read-only).
  void decode_into(std::size_t index, PipelineCandidate& out) const;
  /// Every candidate in order (decode of 0 .. size()-1).
  [[nodiscard]] std::vector<PipelineCandidate> decode_all() const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

}  // namespace omega
