// Phase-pluggable pipeline API: the N-phase sparse/dense evaluation core.
//
// The paper's two-phase GNN layer (Aggregation + Combination) is one point
// in a larger space of multiphase sparse/dense dataflows: Dynasparse re-maps
// each kernel by measured operand sparsity, VersaGNN treats both GNN phases
// as interchangeable sparse/dense GEMM stages, and pruned/quantized models
// make the Combination weights sparse. This header generalizes the
// evaluation core to an arbitrary chain of phases:
//
//   PipelineSpec{phases[], boundaries[], pe_fractions[]}
//     phase    = engine kind (sparse-dense SpMM / dense GEMM / sparse-weight
//                SpGEMM) + intra-phase dataflow + output width
//     boundary = one InterPhase strategy per adjacent pair, analyzed with
//                the same Table II machinery as the two-phase model
//
// Omega::run_pipeline evaluates a spec end-to-end; the classic
// Omega::run/RunResult pair is now a thin two-phase adapter over it (see
// two_phase_pipeline / to_run_result below), bit-identical to the historic
// implementation (tests/pipeline_test.cpp pins the parity).
//
// Validation rules (PipelineSpec::validate):
//  * every phase's loop order/tiles must be valid for its engine's loop
//    vocabulary (V,N,F for sparse-dense; V,F,G otherwise);
//  * SP-Generic / PP boundaries need a feasible hand-off (analyze_handoff)
//    between the producer's and consumer's traversal of the intermediate;
//  * SP-Optimized boundaries need both phases to stream their third dim
//    innermost with matching traversal major, a temporal producer
//    contraction, a temporal consumer third dim, and matched row/col tiles
//    (the RF-resident tile is shared);
//  * a phase can stage chunks through at most ONE adjacent boundary (its
//    engine tracks a single chunk grid), so PP groups are pairs and a
//    chunked boundary must be flanked by Seq / SP-Optimized ones;
//  * sparse-weight phases walk the rows of the compressed W (G-major over
//    the F contraction), so their loop order must place G before F, and
//    they can produce into a chunked boundary but not consume from one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "omega/omega.hpp"
#include "util/saturate.hpp"

namespace omega {

/// Which cost engine evaluates a phase.
///  kSparseDense:  Out[V,W] = A[V,V] x B[V,W], A = the workload adjacency in
///                 CSR (the classic Aggregation phase); preserves the
///                 feature width.
///  kDenseDense:   Out[V,G] = X[V,F] x W[F,G], dense weights (the classic
///                 Combination phase).
///  kSparseSparse: Out[V,G] = X[V,F] x W[F,G] with W CSR-compressed at
///                 PhaseSpec::weight_density — pruned/quantized models. The
///                 cost model is the SpMM engine run on the transposed
///                 problem Out^T = W^T x X^T (W^T rows are walked like
///                 adjacency rows; W's ids/values are charged to the
///                 adjacency traffic category as CSR metadata).
enum class PhaseEngine : std::uint8_t {
  kSparseDense = 0,
  kDenseDense = 1,
  kSparseSparse = 2,
};

[[nodiscard]] const char* to_string(PhaseEngine e);
/// Parses "spmm"/"sparse_dense", "gemm"/"dense", "spgemm"/"sparse_weight"
/// (case-insensitive); throws InvalidArgumentError.
[[nodiscard]] PhaseEngine phase_engine_from_string(const std::string& s);

/// Parses "Seq", "SPg", "SP"/"SPO", "PP" (case-insensitive — the notation
/// to_string(InterPhase) emits); throws InvalidArgumentError. The single
/// parser behind the CLI run-pipeline flags and the service v2 protocol.
[[nodiscard]] InterPhase inter_phase_from_string(const std::string& s);

/// The loop vocabulary a phase engine uses (which GnnPhase its
/// IntraPhaseDataflow must be expressed in).
[[nodiscard]] constexpr GnnPhase taxonomy_phase(PhaseEngine e) {
  return e == PhaseEngine::kSparseDense ? GnnPhase::kAggregation
                                        : GnnPhase::kCombination;
}

/// One phase of a pipeline.
struct PhaseSpec {
  std::string name;  // free-form label echoed in results ("agg", "score", …)
  PhaseEngine engine = PhaseEngine::kDenseDense;
  /// Loop order + tile sizes in the engine's vocabulary; `dataflow.phase`
  /// must equal taxonomy_phase(engine).
  IntraPhaseDataflow dataflow;
  /// Output feature width. Must be 0 for kSparseDense (the sparse-dense
  /// phase preserves its input width); >= 1 otherwise.
  std::size_t out_features = 0;
  /// kSparseSparse only: density of W in (0, 1]; every W^T row keeps
  /// max(1, round(density * F)) evenly spaced nonzeros. Must stay 1.0 for
  /// the other engines.
  double weight_density = 1.0;

  /// Hand-off role dims when this phase produces / consumes an intermediate.
  [[nodiscard]] HandoffRole producer_role() const;
  [[nodiscard]] HandoffRole consumer_role() const;

  /// e.g. "score=gemm(VtFtGt,G=16)" / "cmb=spgemm(GtVtFt,G=16,d=0.5)".
  [[nodiscard]] std::string to_string() const;
};

/// Hand-off roles derived from the engine kind and loop order alone —
/// PhaseSpec::producer_role/consumer_role delegate here, and the lowering
/// derives boundary plans per candidate without materializing PhaseSpecs
/// (no name strings on the eval plan's hot path).
[[nodiscard]] HandoffRole phase_producer_role(PhaseEngine e,
                                              const LoopOrder& order);
[[nodiscard]] HandoffRole phase_consumer_role(PhaseEngine e,
                                              const LoopOrder& order);

/// Allocation-free SP-Optimized boundary check: true iff
/// PipelineSpec::validation_error would accept this producer/consumer pair
/// (same rules as the message-building path, shared so they cannot drift).
[[nodiscard]] bool sp_optimized_pair_ok(PhaseEngine prod_engine,
                                        const IntraPhaseDataflow& prod,
                                        PhaseEngine cons_engine,
                                        const IntraPhaseDataflow& cons);

/// A complete N-phase pipeline description.
struct PipelineSpec {
  std::vector<PhaseSpec> phases;          // execution order, >= 1 phase
  std::vector<InterPhase> boundaries;     // phases.size() - 1 entries
  /// Relative PE weights per phase (empty = all equal). A PP boundary
  /// splits the array between its pair in proportion
  /// fractions[i] : fractions[i+1]; phases outside PP pairs get the whole
  /// array. Each entry must be finite and > 0.
  std::vector<double> pe_fractions;
  /// First-phase input width override; 0 = the workload's feature width.
  std::size_t in_features = 0;

  /// Like DataflowDescriptor: returns the failure reason, or throws
  /// InvalidDataflowError with it.
  [[nodiscard]] std::optional<std::string> validation_error() const;
  void validate() const;

  /// e.g. "agg=spmm(VtFsNt) ->PP-> cmb=gemm(VsGsFt,G=16)".
  [[nodiscard]] std::string to_string() const;
};

/// The per-candidate ("binding") half of a PipelineSpec: everything a DSE
/// sweep varies. The chain half (engines, widths, densities — see
/// PipelineChainSpec) stays fixed across a sweep, which is what lets the
/// eval core precompute widths and sparse-weight CSRs once per search.
struct PipelineBindingView {
  std::span<const IntraPhaseDataflow> phases;  // one per chain phase
  std::span<const InterPhase> boundaries;      // phases.size() - 1
  std::span<const double> pe_fractions;        // empty or one per phase
};

/// The binding-invariant half of one phase (PhaseSpec minus the dataflow).
struct PhaseChainSpec {
  std::string name;  // echoed into bound specs; "phase<i>" when empty
  PhaseEngine engine = PhaseEngine::kDenseDense;
  std::size_t out_features = 0;   // 0 for kSparseDense (width-preserving)
  double weight_density = 1.0;    // kSparseSparse only
};

/// An N-phase chain: the search-space *shape* a pipeline DSE sweep runs
/// over. `bind` assembles a full PipelineSpec from a candidate binding.
struct PipelineChainSpec {
  std::vector<PhaseChainSpec> phases;
  std::size_t in_features = 0;  // first-phase input width; 0 = workload's

  /// Chain projection of a full spec (drops the per-phase dataflows).
  [[nodiscard]] static PipelineChainSpec of(const PipelineSpec& spec);

  /// Binding-invariant validation: the chain-level rules of
  /// pipeline_violation (at least one phase, per-phase width/density) with
  /// PipelineSpec::validation_error's phase-indexed messages. Dataflow- and
  /// boundary-dependent rules can only be checked on a bound spec.
  [[nodiscard]] std::optional<std::string> chain_error() const;

  /// Full spec from a candidate binding; throws InvalidArgumentError on an
  /// arity mismatch between the binding and the chain.
  [[nodiscard]] PipelineSpec bind(const PipelineBindingView& binding) const;

  /// e.g. "score=gemm(G=16) -> agg=spmm -> xform=spgemm(G=8,d=0.500)".
  [[nodiscard]] std::string to_string() const;
};

/// Per-phase evaluation outcome.
struct PhaseOutcome {
  std::string name;
  PhaseEngine engine = PhaseEngine::kDenseDense;
  PhaseResult result;
  std::size_t pes = 0;
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  double static_utilization = 0.0;

  [[nodiscard]] double dynamic_utilization() const {
    return result.utilization(pes);
  }
};

/// Per-adjacent-pair boundary outcome (Table III generalized).
struct BoundaryOutcome {
  InterPhase inter = InterPhase::kSequential;
  Granularity granularity = Granularity::kNone;
  /// The chunk grid both sides share; whole(rows, cols) when unchunked.
  ChunkSpec chunk_grid;
  std::size_t rows = 0;  // intermediate extents: V x producer out width
  std::size_t cols = 0;
  std::size_t pipeline_chunks = 1;
  std::size_t pipeline_elements = 0;   // Pel
  std::size_t buffer_elements = 0;     // Table III buffering
  bool spilled = false;                // Seq: intermediate exceeded the GB
  bool overlapped = false;             // PP: pair composed chunk-by-chunk
};

/// Complete result of evaluating one PipelineSpec on one workload.
struct PipelineResult {
  std::uint64_t cycles = 0;
  std::vector<PhaseOutcome> phases;
  std::vector<BoundaryOutcome> boundaries;  // phases.size() - 1 entries
  std::size_t num_rows = 0;      // V
  std::size_t in_features = 0;   // first phase's input width
  std::size_t out_features = 0;  // last phase's output width
  TrafficCounters traffic;
  EnergyBreakdown energy;
};

/// Prices a traffic profile through the energy model: per-category GB
/// accesses, RF, DRAM, and the PP intermediate-partition buffer (sized
/// `partition_bytes`; 0 when no boundary buffers). This is the single
/// energy-accounting function; PipelineLowering::compose calls it for
/// Omega::run, run_pipeline and the eval plan alike.
[[nodiscard]] EnergyBreakdown compute_energy(const TrafficCounters& traffic,
                                             const EnergyModel& em,
                                             std::size_t partition_bytes);

// ---- The one lowering: bound pipeline -> engine configs ---------------------
//
// Omega::run_pipeline and PipelineEvalPlan::evaluate (engine/eval_core.hpp)
// derive a bound pipeline's engine configs and cost through these functions
// alone: the rule set, one Table III plan per boundary, one PE/bandwidth
// split and one engine config per phase, and one composition. The callers
// differ only in how they resolve a config into a PhaseResult and compose a
// PP pair (the plan through its context's term store), and in
// PipelineLowering::stage_sp_generic.

/// The rules a bound pipeline can break, in the order pipeline_violation
/// checks them. The index of a PipelineViolation names the phase or the
/// boundary the rule is about (0 for the spec-wide rules).
enum class PipelineRule : std::uint8_t {
  kNone = 0,
  // Spec-wide.
  kNoPhases,
  kBoundaryArity,
  kFractionArity,
  kFractionValue,
  // Per phase.
  kVocabulary,          // dataflow in the wrong loop vocabulary
  kDataflow,            // IntraPhaseDataflow::validate throws
  kWidthPreserved,      // sparse-dense phase with out_features != 0
  kWidthMissing,        // dense / sparse-weight phase with out_features 0
  kDensityRange,        // weight_density outside (0, 1]
  kSparseWeightOrder,   // sparse-weight loop order places F outside G
  kDensityNotSparse,    // weight_density != 1 on a non-sparse-weight phase
  // Per boundary.
  kSpOptimized,             // SP-Optimized pair constraints (Table II)
  kHandoff,                 // SP-Generic / PP pair fails analyze_handoff
  kChunksIntoSparseWeight,  // a sparse-weight phase consumes chunks
  // Per phase: both adjacent boundaries are chunked.
  kTwoChunkedBoundaries,
  // Substrate (per phase), then the PP split (per boundary).
  kNoSpatialReduction,
  kNoTemporalReduction,
  kPpTooFewPes,
  kPpShare,
};

struct PipelineViolation {
  PipelineRule rule = PipelineRule::kNone;
  std::size_t index = 0;

  /// Substrate and PP-split rules: Omega::run_pipeline throws ResourceError
  /// for these and InvalidDataflowError for the spec rules before them.
  [[nodiscard]] bool substrate() const {
    return rule >= PipelineRule::kNoSpatialReduction;
  }
};

/// The one rule set: the first rule `spec` breaks. `hw` adds the checks of
/// binding to a substrate (spatial/temporal reduction support per phase,
/// then >= 2 PEs and a first-phase share strictly inside (0, 1) per PP
/// boundary); null checks the spec rules alone (validation_error).
[[nodiscard]] PipelineViolation pipeline_violation(
    const PipelineSpec& spec, const AcceleratorConfig* hw);
/// The same rule set on `chain` bound to `binding` without materializing
/// the spec (the eval plan's check of each candidate). `binding.phases`
/// must hold one dataflow per chain phase.
[[nodiscard]] PipelineViolation pipeline_violation(
    const PipelineChainSpec& chain, const PipelineBindingView& binding,
    const AcceleratorConfig* hw);

/// One phase's share of the PE array and of the GB port bandwidths.
struct PhaseSplit {
  std::size_t pes = 0;
  std::size_t bw_dist = 0;
  std::size_t bw_red = 0;
};

/// A bound pipeline's composed cost.
struct PipelineCost {
  std::uint64_t cycles = 0;
  TrafficCounters traffic;
  EnergyBreakdown energy;
};

/// The lowering of one bound pipeline on one substrate and workload. Every
/// member assumes a spec that passes pipeline_violation with the substrate.
struct PipelineLowering {
  const AcceleratorConfig& hw;
  const EnergyModel& em;
  const CSRGraph* graph = nullptr;  // the workload adjacency
  const WorkloadContext* context = nullptr;  // bound to `graph`, or null
  std::size_t rows = 0;  // V: the row extent of every intermediate
  /// Whether an SP-Generic boundary gets its chunk grid (with the
  /// granularity and Pel it implies), which its phases' configs then
  /// stage; a PP boundary always does. Omega::run_pipeline sets it, because
  /// schedule traces render the SP-Generic chunk slices from the phases'
  /// timelines and results report Pel. The eval plan does not: the
  /// composition reads chunk timelines at PP boundaries alone, neither
  /// engine's cycles nor its traffic depends on the grid, and an
  /// SP-Generic Pel feeds no energy term. So an SP-Generic phase resolves
  /// to the term of its grid-free twin (the same phase next to an unspilled
  /// Seq boundary), built once and holding no timeline.
  bool stage_sp_generic = true;

  /// Table III for the boundary between a producer and a consumer whose
  /// intermediate has `cols` columns: the chunk grid, granularity and Pel
  /// of a staged boundary, the buffered elements (saturating like Pel),
  /// and the Seq spill decision.
  [[nodiscard]] BoundaryOutcome boundary(InterPhase inter,
                                         PhaseEngine prod_engine,
                                         const IntraPhaseDataflow& prod,
                                         PhaseEngine cons_engine,
                                         const IntraPhaseDataflow& cons,
                                         std::size_t cols) const;

  /// Phase `i`'s split: the whole array, or its side of the PP pair at
  /// an adjacent boundary, with the GB ports shared in proportion
  /// (Section V-C3). The rule set caps a phase at one chunked boundary, so
  /// PP groups are exactly pairs.
  [[nodiscard]] PhaseSplit split(std::span<const InterPhase> boundaries,
                                 std::span<const double> pe_fractions,
                                 std::size_t i) const;

  /// The engine config of a phase with PE share `share` between boundary
  /// plans `up` and `down` (null at the ends of the chain). `Config` is
  /// GemmPhaseConfig for a dense phase and SpmmPhaseConfig otherwise; a
  /// sparse-weight phase's describes the transposed problem on W^T, whose
  /// pattern the caller binds as `graph` (see PhaseEngine).
  template <typename Config>
  [[nodiscard]] Config phase(PhaseEngine engine, const IntraPhaseDataflow& df,
                             std::size_t in_w, std::size_t out_w,
                             const BoundaryOutcome* up,
                             const BoundaryOutcome* down,
                             const PhaseSplit& share) const;

  /// Cycles, traffic and energy from the boundary plans and the resolved
  /// phases: `result(i)` is phase i's PhaseResult and `pp_cycles(b)` the
  /// composed cycles of the PP pair at boundary b (the consumer starts
  /// chunk i once the producer completed it). Every other phase
  /// serializes, so the makespan is the saturating sum over segments; the
  /// summed traffic is priced with the largest PP partition.
  template <typename ResultAt, typename PpCycles>
  [[nodiscard]] PipelineCost compose(
      std::span<const BoundaryOutcome> boundaries, const ResultAt& result,
      const PpCycles& pp_cycles) const {
    const std::size_t n = boundaries.size() + 1;
    PipelineCost cost;
    std::size_t partition_bytes = 0;
    for (std::size_t i = 0; i < n;) {
      if (i + 1 < n && boundaries[i].inter == InterPhase::kParallelPipeline) {
        cost.cycles = sat_add_u64(cost.cycles, pp_cycles(i));
        partition_bytes = std::max<std::size_t>(
            partition_bytes,
            sat_mul_u64(boundaries[i].buffer_elements, hw.element_bytes));
        i += 2;
      } else {
        cost.cycles = sat_add_u64(cost.cycles, result(i).cycles);
        i += 1;
      }
    }
    for (std::size_t i = 0; i < n; ++i) cost.traffic += result(i).traffic;
    cost.energy = compute_energy(cost.traffic, em, partition_bytes);
    return cost;
  }
};

/// Lowers the classic two-phase descriptor into a PipelineSpec (phases in
/// execution order per df.phase_order). When `num_pes` > 0 the PP PE split
/// is resolved against that array size so the generalized allocator
/// reproduces the legacy llround-then-clamp split bit-for-bit for BOTH
/// phase orders (the legacy formula anchors the rounding on Aggregation;
/// the pipeline allocator anchors it on the first phase of the pair).
/// Omega::run uses this with its own PE count — pass the same value when
/// checking parity.
[[nodiscard]] PipelineSpec two_phase_pipeline(const DataflowDescriptor& df,
                                              const LayerSpec& layer = {},
                                              std::size_t num_pes = 0);

/// The first phase's PE fraction two_phase_pipeline gives a PP descriptor
/// (the second phase gets 1 minus it), resolved against `num_pes` as above.
[[nodiscard]] double two_phase_first_pe_fraction(const DataflowDescriptor& df,
                                                 std::size_t num_pes = 0);

/// Collapses a two-phase PipelineResult back into the legacy RunResult view
/// (requires exactly one kSparseDense and one non-sparse-dense phase).
/// `df` is echoed into RunResult::dataflow.
[[nodiscard]] RunResult to_run_result(PipelineResult&& pr,
                                      const DataflowDescriptor& df);

/// Assembles a PhaseSpec from front-end fields — the single path behind the
/// CLI `--phase` flag and the service v2 "phases[]" parser, so the tile-dim
/// convention cannot drift between them. `dataflow` is the intra-phase
/// notation (parsed in the engine's vocabulary); `tiles` is empty or holds
/// one size per canonical phase dim (V,N,F for spmm; V,F,G otherwise);
/// an empty `name` defaults to "phase<index>". Throws InvalidArgumentError
/// on an empty dataflow or a wrong-arity tile list.
[[nodiscard]] PhaseSpec assemble_phase_spec(std::string name,
                                            PhaseEngine engine,
                                            const std::string& dataflow,
                                            const std::vector<std::size_t>& tiles,
                                            std::size_t out_features,
                                            double weight_density,
                                            std::size_t index);

/// Synthetic CSR pattern of W^T for a sparse-weight phase: `out_features`
/// rows, each holding max(1, round(density * in_features)) evenly spaced
/// column ids in [0, in_features). Deterministic — the cost model only
/// consumes the degree profile. Exposed for tests and benches.
[[nodiscard]] CSRGraph sparse_weight_csr(std::size_t in_features,
                                         std::size_t out_features,
                                         double density);

/// Nonzeros per W^T row in sparse_weight_csr's pattern:
/// min(F, max(1, round(density * F))). The sparse-weight MAC count is
/// out_features * nnz_per_row * V — the quantity compulsory-work lower
/// bounds (DSE pruning) need without materializing the CSR.
[[nodiscard]] std::size_t sparse_weight_nnz_per_row(std::size_t in_features,
                                                    double density);

}  // namespace omega
