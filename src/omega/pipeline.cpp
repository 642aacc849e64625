#include "omega/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "engine/eval_core.hpp"  // resolve_phase
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/saturate.hpp"

namespace omega {

const char* to_string(PhaseEngine e) {
  switch (e) {
    case PhaseEngine::kSparseDense: return "spmm";
    case PhaseEngine::kDenseDense: return "gemm";
    case PhaseEngine::kSparseSparse: return "spgemm";
  }
  return "?";
}

PhaseEngine phase_engine_from_string(const std::string& s) {
  const std::string e = to_lower(s);
  if (e == "spmm" || e == "sparse_dense") return PhaseEngine::kSparseDense;
  if (e == "gemm" || e == "dense") return PhaseEngine::kDenseDense;
  if (e == "spgemm" || e == "sparse_weight") return PhaseEngine::kSparseSparse;
  throw InvalidArgumentError("unknown phase engine: " + s +
                             " (want spmm | gemm | spgemm)");
}

InterPhase inter_phase_from_string(const std::string& s) {
  const std::string i = to_lower(s);
  if (i == "seq" || i == "sequential") return InterPhase::kSequential;
  if (i == "spg" || i == "sp-generic") return InterPhase::kSPGeneric;
  if (i == "sp" || i == "spo" || i == "sp-optimized") {
    return InterPhase::kSPOptimized;
  }
  if (i == "pp" || i == "parallel-pipeline") {
    return InterPhase::kParallelPipeline;
  }
  throw InvalidArgumentError("unknown inter-phase strategy: " + s +
                             " (want Seq | SPg | SP | PP)");
}

HandoffRole phase_producer_role(PhaseEngine e, const LoopOrder& order) {
  // What the phase PRODUCES: the sparse-dense phase emits V x Feat with
  // contraction N; the dense/sparse-weight phases emit V x G with
  // contraction F (same role split as the classic AC/CA analysis).
  return e == PhaseEngine::kSparseDense
             ? HandoffRole{order, Dim::kV, Dim::kF, Dim::kN}
             : HandoffRole{order, Dim::kV, Dim::kG, Dim::kF};
}

HandoffRole phase_consumer_role(PhaseEngine e, const LoopOrder& order) {
  // What the phase CONSUMES: the sparse-dense phase reads intermediate
  // rows through its N loop and columns through its feature loop (the
  // classic CA consumer); the dense phases read V x F as their A operand.
  return e == PhaseEngine::kSparseDense
             ? HandoffRole{order, Dim::kN, Dim::kF, Dim::kV}
             : HandoffRole{order, Dim::kV, Dim::kF, Dim::kG};
}

HandoffRole PhaseSpec::producer_role() const {
  return phase_producer_role(engine, dataflow.order);
}

HandoffRole PhaseSpec::consumer_role() const {
  return phase_consumer_role(engine, dataflow.order);
}

std::string PhaseSpec::to_string() const {
  std::string s = name.empty() ? std::string("phase") : name;
  s += "=";
  s += omega::to_string(engine);
  s += "(";
  s += dataflow.to_string();
  if (out_features > 0) s += ",G=" + std::to_string(out_features);
  if (engine == PhaseEngine::kSparseSparse) {
    s += ",d=" + fixed(weight_density, 3);
  }
  s += ")";
  return s;
}

std::string PipelineSpec::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) {
      s += " ->";
      s += omega::to_string(boundaries[i - 1]);
      s += "-> ";
    }
    s += phases[i].to_string();
  }
  return s;
}

namespace {

/// Which generalized SP-Optimized constraint (Table II row 2) a pair
/// violates: the kSpOptimized rule of pipeline_violation, spelled out by
/// sp_optimized_pair_error, and sp_optimized_pair_ok.
enum class SpoViolation : std::uint8_t {
  kNone = 0,
  kProducerContractionNotInnermost,
  kConsumerThirdNotInnermost,
  kMajorMismatch,
  kProducerContractionSpatial,
  kConsumerThirdSpatial,
  kTileMismatch,
};

SpoViolation spo_pair_violation(PhaseEngine prod_engine,
                                const IntraPhaseDataflow& prod,
                                PhaseEngine cons_engine,
                                const IntraPhaseDataflow& cons) {
  const HandoffRole p = phase_producer_role(prod_engine, prod.order);
  const HandoffRole c = phase_consumer_role(cons_engine, cons.order);
  if (p.order.depth_of(p.third) != 2) {
    return SpoViolation::kProducerContractionNotInnermost;
  }
  if (c.order.depth_of(c.third) != 2) {
    return SpoViolation::kConsumerThirdNotInnermost;
  }
  const bool p_row_major = p.order.at(0) == p.row;
  const bool c_row_major = c.order.at(0) == c.row;
  if (p_row_major != c_row_major) return SpoViolation::kMajorMismatch;
  if (prod.tiles.get(p.third) != 1) {
    return SpoViolation::kProducerContractionSpatial;
  }
  if (cons.tiles.get(c.third) != 1) return SpoViolation::kConsumerThirdSpatial;
  if (prod.tiles.get(p.row) != cons.tiles.get(c.row) ||
      prod.tiles.get(p.col) != cons.tiles.get(c.col)) {
    return SpoViolation::kTileMismatch;
  }
  return SpoViolation::kNone;
}

/// Message path over spo_pair_violation: both phases keep the intermediate
/// tile resident in the PE register files, so the producer must accumulate
/// temporally, the consumer must stream its third dim temporally, both must
/// traverse the shared tile in the same major with the third dim innermost,
/// and the row/col tiles must match across the pair. Reduces exactly to the
/// classic sp_optimized_error pairs for the two-phase descriptor. `b` is
/// the boundary index, named in the message.
std::optional<std::string> sp_optimized_pair_error(const PhaseSpec& prod,
                                                   const PhaseSpec& cons,
                                                   std::size_t b) {
  const SpoViolation v = spo_pair_violation(prod.engine, prod.dataflow,
                                            cons.engine, cons.dataflow);
  if (v == SpoViolation::kNone) return std::nullopt;
  const HandoffRole p = phase_producer_role(prod.engine, prod.dataflow.order);
  const HandoffRole c = phase_consumer_role(cons.engine, cons.dataflow.order);
  const std::string where = "boundary " + std::to_string(b) + " (" +
                            prod.to_string() + " ->SP-> " + cons.to_string() +
                            "): ";
  switch (v) {
    case SpoViolation::kNone:
      break;
    case SpoViolation::kProducerContractionNotInnermost:
      return where + "SP-Optimized needs the producer's contraction (" +
             std::string(1, dim_letter(p.third)) +
             ") innermost so accumulated data never leaves the PEs";
    case SpoViolation::kConsumerThirdNotInnermost:
      return where + "SP-Optimized streams the consumer's third dim (" +
             std::string(1, dim_letter(c.third)) +
             ") temporally over the stationary intermediate (innermost loop)";
    case SpoViolation::kMajorMismatch:
      return where + "producer and consumer must traverse the RF-resident "
                     "intermediate in the same major";
    case SpoViolation::kProducerContractionSpatial:
      return where + "SP-Optimized requires a temporal producer contraction "
                     "(T_" + std::string(1, dim_letter(p.third)) + " = 1)";
    case SpoViolation::kConsumerThirdSpatial:
      return where + "SP-Optimized streams the consumer's third dim "
                     "temporally (T_" + std::string(1, dim_letter(c.third)) +
             " = 1)";
    case SpoViolation::kTileMismatch:
      return where + "SP-Optimized requires matched row/col tiles across the "
                     "pair (the same intermediate tile stays in the PEs)";
  }
  return std::nullopt;
}

bool is_chunked(InterPhase ip) {
  return ip == InterPhase::kSPGeneric || ip == InterPhase::kParallelPipeline;
}

/// The first phase's share of the PP pair at boundary `b`: the ratio of the
/// pair's PE fractions, or an even split when the spec gives none.
double pp_first_share(std::span<const double> fractions, std::size_t b) {
  if (fractions.empty()) return 0.5;
  return fractions[b] / (fractions[b] + fractions[b + 1]);
}

/// The per-phase rules that need no dataflow: all chain_error checks per
/// phase.
PipelineRule chain_rule(PhaseEngine engine, std::size_t out_features,
                        double weight_density) {
  if (engine == PhaseEngine::kSparseDense) {
    if (out_features != 0) return PipelineRule::kWidthPreserved;
  } else if (out_features == 0) {
    return PipelineRule::kWidthMissing;
  }
  if (engine == PhaseEngine::kSparseSparse) {
    if (!(weight_density > 0.0 && weight_density <= 1.0)) {
      return PipelineRule::kDensityRange;
    }
    // omega-lint: allow(float-eq): 1.0 is the exact dense-default sentinel
  } else if (weight_density != 1.0) {
    return PipelineRule::kDensityNotSparse;
  }
  return PipelineRule::kNone;
}

/// A phase as the rule set reads it.
struct RulePhase {
  PhaseEngine engine;
  std::size_t out_features;
  double weight_density;
  const IntraPhaseDataflow& dataflow;
};

/// The rule set behind both pipeline_violation overloads; `phase(i)` is
/// phase i's RulePhase. Allocation-free: the eval plan runs it per
/// candidate.
template <typename PhaseAt>
PipelineViolation first_violation(std::size_t n, const PhaseAt& phase,
                                  std::span<const InterPhase> boundaries,
                                  std::span<const double> fractions,
                                  const AcceleratorConfig* hw) {
  using R = PipelineRule;
  if (n == 0) return {R::kNoPhases, 0};
  if (boundaries.size() + 1 != n) return {R::kBoundaryArity, 0};
  if (!fractions.empty() && fractions.size() != n) {
    return {R::kFractionArity, 0};
  }
  for (const double f : fractions) {
    if (!std::isfinite(f) || f <= 0.0) return {R::kFractionValue, 0};
  }
  for (std::size_t i = 0; i < n; ++i) {
    const RulePhase p = phase(i);
    if (p.dataflow.phase != taxonomy_phase(p.engine)) {
      return {R::kVocabulary, i};
    }
    try {
      p.dataflow.validate();
    } catch (const Error&) {
      return {R::kDataflow, i};
    }
    if (const R r = chain_rule(p.engine, p.out_features, p.weight_density);
        r != R::kNone) {
      return {r, i};
    }
    if (p.engine == PhaseEngine::kSparseSparse &&
        p.dataflow.order.depth_of(Dim::kG) >
            p.dataflow.order.depth_of(Dim::kF)) {
      return {R::kSparseWeightOrder, i};
    }
  }
  for (std::size_t b = 0; b + 1 < n; ++b) {
    const RulePhase prod = phase(b);
    const RulePhase cons = phase(b + 1);
    switch (boundaries[b]) {
      case InterPhase::kSequential:
        break;
      case InterPhase::kSPOptimized:
        if (spo_pair_violation(prod.engine, prod.dataflow, cons.engine,
                               cons.dataflow) != SpoViolation::kNone) {
          return {R::kSpOptimized, b};
        }
        break;
      case InterPhase::kSPGeneric:
      case InterPhase::kParallelPipeline:
        if (!analyze_handoff(
                 phase_producer_role(prod.engine, prod.dataflow.order),
                 phase_consumer_role(cons.engine, cons.dataflow.order))
                 .feasible) {
          return {R::kHandoff, b};
        }
        break;
    }
    if (is_chunked(boundaries[b]) &&
        cons.engine == PhaseEngine::kSparseSparse) {
      return {R::kChunksIntoSparseWeight, b};
    }
  }
  for (std::size_t b = 1; b + 1 < n; ++b) {
    if (is_chunked(boundaries[b - 1]) && is_chunked(boundaries[b])) {
      return {R::kTwoChunkedBoundaries, b};
    }
  }
  if (hw == nullptr) return {};
  // Substrate capability (Table II NoC/PE support column), then the PP
  // split: a PE on each side, and no share that starves a phase.
  for (std::size_t i = 0; i < n; ++i) {
    const RulePhase p = phase(i);
    const Dim contraction =
        p.engine == PhaseEngine::kSparseDense ? Dim::kN : Dim::kF;
    const bool spatial = p.dataflow.tiles.get(contraction) > 1;
    if (spatial && !hw->supports_spatial_reduction) {
      return {R::kNoSpatialReduction, i};
    }
    if (!spatial && !hw->supports_temporal_reduction) {
      return {R::kNoTemporalReduction, i};
    }
  }
  for (std::size_t b = 0; b + 1 < n; ++b) {
    if (boundaries[b] != InterPhase::kParallelPipeline) continue;
    if (hw->num_pes < 2) return {R::kPpTooFewPes, b};
    const double share = pp_first_share(fractions, b);
    if (!(share > 0.0 && share < 1.0)) return {R::kPpShare, b};
  }
  return {};
}

/// The fixed text of a spec-wide or per-phase rule; `df` is the phase's
/// dataflow (null from chain_error, which meets only the chain rules).
std::string rule_text(PipelineRule rule, const IntraPhaseDataflow* df) {
  switch (rule) {
    case PipelineRule::kNoPhases:
      return "pipeline needs at least one phase";
    case PipelineRule::kFractionArity:
      return "pe_fractions must be empty or hold one entry per phase";
    case PipelineRule::kFractionValue:
      return "pe_fractions entries must be finite and > 0";
    case PipelineRule::kVocabulary:
      return "dataflow is expressed in the wrong loop vocabulary for the "
             "engine (sparse-dense phases loop over V/N/F, dense and "
             "sparse-weight phases over V/F/G)";
    case PipelineRule::kDataflow:
      try {
        df->validate();
      } catch (const Error& e) {
        return e.what();
      }
      break;
    case PipelineRule::kWidthPreserved:
      return "sparse-dense phases preserve the feature width; leave "
             "out_features 0";
    case PipelineRule::kWidthMissing:
      return "dense and sparse-weight phases need out_features >= 1";
    case PipelineRule::kDensityRange:
      return "weight_density must lie in (0, 1]";
    case PipelineRule::kSparseWeightOrder:
      return "sparse-weight phases walk the compressed W rows G-major over "
             "the F contraction; the loop order must place G outside F "
             "(got " +
             df->order.letters() + ")";
    case PipelineRule::kDensityNotSparse:
      return "weight_density only applies to sparse-weight phases";
    default:
      break;
  }
  return {};
}

/// validation_error's text for a spec rule `v` breaks, or run_pipeline's
/// ResourceError text for a substrate rule.
std::string violation_message(const PipelineSpec& spec,
                              const PipelineViolation& v) {
  const std::size_t i = v.index;
  const auto phase_text = [&] {
    return "phase " + std::to_string(i) + " (" + spec.phases[i].to_string() +
           "): ";
  };
  switch (v.rule) {
    case PipelineRule::kNone:
      break;
    case PipelineRule::kBoundaryArity:
      return "pipeline wants exactly one boundary per adjacent phase pair (" +
             std::to_string(spec.phases.size()) + " phases, " +
             std::to_string(spec.boundaries.size()) + " boundaries)";
    case PipelineRule::kNoPhases:
    case PipelineRule::kFractionArity:
    case PipelineRule::kFractionValue:
      return rule_text(v.rule, nullptr);
    case PipelineRule::kVocabulary:
    case PipelineRule::kDataflow:
    case PipelineRule::kWidthPreserved:
    case PipelineRule::kWidthMissing:
    case PipelineRule::kDensityRange:
    case PipelineRule::kSparseWeightOrder:
    case PipelineRule::kDensityNotSparse:
      return phase_text() + rule_text(v.rule, &spec.phases[i].dataflow);
    case PipelineRule::kSpOptimized:
      return *sp_optimized_pair_error(spec.phases[i], spec.phases[i + 1], i);
    case PipelineRule::kHandoff:
      return "boundary " + std::to_string(i) + " (" +
             spec.phases[i].to_string() + " ->" +
             omega::to_string(spec.boundaries[i]) + "-> " +
             spec.phases[i + 1].to_string() + "): " +
             analyze_handoff(spec.phases[i].producer_role(),
                             spec.phases[i + 1].consumer_role())
                 .reason;
    case PipelineRule::kChunksIntoSparseWeight:
      return "boundary " + std::to_string(i) + " (" +
             spec.phases[i + 1].to_string() +
             "): a sparse-weight phase cannot consume a chunked intermediate "
             "(its walked rows are W rows, not intermediate rows); use Seq "
             "or SP-Optimized upstream";
    case PipelineRule::kTwoChunkedBoundaries:
      return phase_text() +
             "a phase can stage chunks through at most one adjacent "
             "boundary (both neighbors are SP-Generic/PP); separate the "
             "chunked boundaries with Seq or SP-Optimized";
    case PipelineRule::kNoSpatialReduction:
      return spec.phases[i].to_string() +
             ": substrate has no spatial-reduction support "
             "(adder tree / store-and-forward)";
    case PipelineRule::kNoTemporalReduction:
      return spec.phases[i].to_string() +
             ": substrate has no temporal-reduction support "
             "(in-place accumulators)";
    case PipelineRule::kPpTooFewPes:
      return spec.to_string() +
             ": parallel pipeline needs >= 2 PEs to split the "
             "array between the phases";
    case PipelineRule::kPpShare:
      return spec.to_string() +
             ": PP PE shares must lie strictly inside (0, 1) — "
             "0, 1 or NaN would starve a phase of PEs";
  }
  return {};
}

// Out^T swaps rows/columns, and flipping the traversal major keeps the
// FLATTENED chunk order identical (row-major over (R, C) and column-major
// over (C, R) enumerate the same (r, c) sequence), which is what lets a
// transposed sparse-weight producer's timeline compose index-by-index with
// an untransposed consumer.
ChunkSpec transpose_chunks(const ChunkSpec& c) {
  ChunkSpec t;
  t.rows = c.cols;
  t.cols = c.rows;
  t.row_block = c.col_block;
  t.col_block = c.row_block;
  t.major = c.major == TraversalMajor::kRowMajor ? TraversalMajor::kColumnMajor
                                                 : TraversalMajor::kRowMajor;
  return t;
}

}  // namespace

bool sp_optimized_pair_ok(PhaseEngine prod_engine,
                          const IntraPhaseDataflow& prod,
                          PhaseEngine cons_engine,
                          const IntraPhaseDataflow& cons) {
  return spo_pair_violation(prod_engine, prod, cons_engine, cons) ==
         SpoViolation::kNone;
}

EnergyBreakdown compute_energy(const TrafficCounters& traffic,
                               const EnergyModel& em,
                               std::size_t partition_bytes) {
  EnergyBreakdown e;
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    e.gb_by_category_pj[c] =
        static_cast<double>(traffic.gb[c].total()) * em.gb_access_pj;
    e.gb_pj += e.gb_by_category_pj[c];
  }
  e.rf_pj = static_cast<double>(traffic.rf.total()) * em.rf_access_pj;
  e.partition_pj = static_cast<double>(traffic.intermediate_partition.total()) *
                   em.buffer_access_pj(partition_bytes);
  e.dram_pj = static_cast<double>(traffic.dram.total()) * em.dram_access_pj;
  return e;
}

PipelineViolation pipeline_violation(const PipelineSpec& spec,
                                     const AcceleratorConfig* hw) {
  return first_violation(
      spec.phases.size(),
      [&](std::size_t i) {
        const PhaseSpec& p = spec.phases[i];
        return RulePhase{p.engine, p.out_features, p.weight_density,
                         p.dataflow};
      },
      spec.boundaries, spec.pe_fractions, hw);
}

PipelineViolation pipeline_violation(const PipelineChainSpec& chain,
                                     const PipelineBindingView& binding,
                                     const AcceleratorConfig* hw) {
  return first_violation(
      chain.phases.size(),
      [&](std::size_t i) {
        const PhaseChainSpec& p = chain.phases[i];
        return RulePhase{p.engine, p.out_features, p.weight_density,
                         binding.phases[i]};
      },
      binding.boundaries, binding.pe_fractions, hw);
}

std::optional<std::string> PipelineSpec::validation_error() const {
  const PipelineViolation v = pipeline_violation(*this, nullptr);
  if (v.rule == PipelineRule::kNone) return std::nullopt;
  return violation_message(*this, v);
}

void PipelineSpec::validate() const {
  if (const auto err = validation_error()) {
    throw InvalidDataflowError("pipeline " + to_string() + ": " + *err);
  }
}

PipelineChainSpec PipelineChainSpec::of(const PipelineSpec& spec) {
  PipelineChainSpec c;
  c.in_features = spec.in_features;
  c.phases.reserve(spec.phases.size());
  for (const PhaseSpec& p : spec.phases) {
    c.phases.push_back({p.name, p.engine, p.out_features, p.weight_density});
  }
  return c;
}

std::optional<std::string> PipelineChainSpec::chain_error() const {
  if (phases.empty()) return rule_text(PipelineRule::kNoPhases, nullptr);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseChainSpec& p = phases[i];
    const PipelineRule r = chain_rule(p.engine, p.out_features,
                                      p.weight_density);
    if (r != PipelineRule::kNone) {
      return "phase " + std::to_string(i) + " (" +
             (p.name.empty() ? std::string("phase") : p.name) + "=" +
             std::string(omega::to_string(p.engine)) +
             "): " + rule_text(r, nullptr);
    }
  }
  return std::nullopt;
}

PipelineSpec PipelineChainSpec::bind(const PipelineBindingView& b) const {
  const std::size_t n = phases.size();
  if (b.phases.size() != n || b.boundaries.size() + 1 != n ||
      (!b.pe_fractions.empty() && b.pe_fractions.size() != n)) {
    throw InvalidArgumentError(
        "pipeline binding arity does not match the chain (" +
        std::to_string(n) + " phases want " + std::to_string(n) +
        " dataflows, " + std::to_string(n > 0 ? n - 1 : 0) +
        " boundaries, and 0 or " + std::to_string(n) + " pe_fractions; got " +
        std::to_string(b.phases.size()) + " / " +
        std::to_string(b.boundaries.size()) + " / " +
        std::to_string(b.pe_fractions.size()) + ")");
  }
  PipelineSpec s;
  s.in_features = in_features;
  s.phases.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.phases[i].name = phases[i].name;
    s.phases[i].engine = phases[i].engine;
    s.phases[i].out_features = phases[i].out_features;
    s.phases[i].weight_density = phases[i].weight_density;
    s.phases[i].dataflow = b.phases[i];
  }
  s.boundaries.assign(b.boundaries.begin(), b.boundaries.end());
  s.pe_fractions.assign(b.pe_fractions.begin(), b.pe_fractions.end());
  return s;
}

std::string PipelineChainSpec::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseChainSpec& p = phases[i];
    if (i > 0) s += " -> ";
    s += p.name.empty() ? std::string("phase") : p.name;
    s += "=";
    s += omega::to_string(p.engine);
    if (p.out_features > 0 || p.engine == PhaseEngine::kSparseSparse) {
      s += "(";
      if (p.out_features > 0) s += "G=" + std::to_string(p.out_features);
      if (p.engine == PhaseEngine::kSparseSparse) {
        if (p.out_features > 0) s += ",";
        s += "d=" + fixed(p.weight_density, 3);
      }
      s += ")";
    }
  }
  return s;
}

PhaseSpec assemble_phase_spec(std::string name, PhaseEngine engine,
                              const std::string& dataflow,
                              const std::vector<std::size_t>& tiles,
                              std::size_t out_features, double weight_density,
                              std::size_t index) {
  if (dataflow.empty()) {
    throw InvalidArgumentError("each phase needs a dataflow (loop order)");
  }
  PhaseSpec p;
  p.engine = engine;
  p.dataflow = IntraPhaseDataflow::parse(dataflow, taxonomy_phase(engine));
  if (!tiles.empty()) {
    if (tiles.size() != 3) {
      throw InvalidArgumentError(
          "phase tiles want 3 values, one per canonical phase dim (V,N,F "
          "for spmm; V,F,G otherwise)");
    }
    const auto dims = phase_dims(taxonomy_phase(engine));
    for (std::size_t d = 0; d < 3; ++d) p.dataflow.tiles.set(dims[d], tiles[d]);
  }
  p.out_features = out_features;
  p.weight_density = weight_density;
  p.name = name.empty() ? "phase" + std::to_string(index) : std::move(name);
  return p;
}

std::size_t sparse_weight_nnz_per_row(std::size_t in_features,
                                      double density) {
  return std::min<std::size_t>(
      in_features,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::llround(density * static_cast<double>(in_features)))));
}

CSRGraph sparse_weight_csr(std::size_t in_features, std::size_t out_features,
                           double density) {
  OMEGA_CHECK(in_features >= 1 && out_features >= 1,
              "weight matrix extents must be >= 1");
  OMEGA_CHECK(density > 0.0 && density <= 1.0,
              "weight density must lie in (0, 1]");
  const std::size_t nnz_per_row =
      sparse_weight_nnz_per_row(in_features, density);
  // W^T pattern: out_features rows of max(1, round(density * F)) entries.
  // Only the degree profile feeds the cost model (the engines never
  // dereference neighbor ids — traffic is counted per (edge, feature)), so
  // the evenly spaced F-space column ids are folded into the row space to
  // satisfy the square-CSR container; duplicates are legal in from_rows and
  // preserve the nonzero count.
  std::vector<std::vector<VertexId>> rows(out_features);
  for (auto& row : rows) {
    row.reserve(nnz_per_row);
    for (std::size_t j = 0; j < nnz_per_row; ++j) {
      row.push_back(
          static_cast<VertexId>(j * in_features / nnz_per_row % out_features));
    }
  }
  return CSRGraph::from_rows(std::move(rows));
}

PipelineSpec two_phase_pipeline(const DataflowDescriptor& df,
                                const LayerSpec& layer, std::size_t num_pes) {
  PipelineSpec s;
  s.in_features = layer.in_features;
  PhaseSpec agg;
  agg.name = "agg";
  agg.engine = PhaseEngine::kSparseDense;
  agg.dataflow = df.agg;
  PhaseSpec cmb;
  cmb.name = "cmb";
  cmb.engine = PhaseEngine::kDenseDense;
  cmb.dataflow = df.cmb;
  cmb.out_features = layer.out_features;
  const bool ac = df.phase_order == PhaseOrder::kAC;
  if (ac) {
    s.phases = {std::move(agg), std::move(cmb)};
  } else {
    s.phases = {std::move(cmb), std::move(agg)};
  }
  s.boundaries = {df.inter};
  if (df.inter == InterPhase::kParallelPipeline) {
    const double first = two_phase_first_pe_fraction(df, num_pes);
    s.pe_fractions = {first, 1.0 - first};
  }
  return s;
}

double two_phase_first_pe_fraction(const DataflowDescriptor& df,
                                   std::size_t num_pes) {
  const bool ac = df.phase_order == PhaseOrder::kAC;
  if (num_pes >= 2 && df.pp_agg_pe_fraction > 0.0 &&
      df.pp_agg_pe_fraction < 1.0) {
    // Resolve the split the way the historic two-phase model did — round
    // the AGGREGATION share and give Combination the remainder — then
    // express it as an exact first-phase share. llround(num_pes * (1-f))
    // is NOT always num_pes - llround(num_pes * f), so a CA pair fed the
    // raw complement would drift by one PE on rounding ties.
    const std::size_t pes_agg = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(static_cast<double>(num_pes) *
                                              df.pp_agg_pe_fraction)),
        1, num_pes - 1);
    const std::size_t first_pes = ac ? pes_agg : num_pes - pes_agg;
    return static_cast<double>(first_pes) / static_cast<double>(num_pes);
  }
  return ac ? df.pp_agg_pe_fraction : 1.0 - df.pp_agg_pe_fraction;
}

RunResult to_run_result(PipelineResult&& pr, const DataflowDescriptor& df) {
  OMEGA_CHECK(pr.phases.size() == 2 && pr.boundaries.size() == 1,
              "RunResult is a two-phase view; N-phase results stay "
              "PipelineResults");
  const bool ac = pr.phases[0].engine == PhaseEngine::kSparseDense;
  PhaseOutcome& agg = ac ? pr.phases[0] : pr.phases[1];
  PhaseOutcome& cmb = ac ? pr.phases[1] : pr.phases[0];
  OMEGA_CHECK(agg.engine == PhaseEngine::kSparseDense &&
                  cmb.engine != PhaseEngine::kSparseDense,
              "two-phase view wants one sparse-dense and one dense phase");
  const BoundaryOutcome& b = pr.boundaries[0];

  RunResult r;
  r.dataflow = df;
  r.cycles = pr.cycles;
  r.agg = std::move(agg.result);
  r.cmb = std::move(cmb.result);
  r.pes_agg = agg.pes;
  r.pes_cmb = cmb.pes;
  r.granularity = b.granularity;
  r.pipeline_chunks = b.pipeline_chunks;
  r.pipeline_elements = b.pipeline_elements;
  r.intermediate_buffer_elements = b.buffer_elements;
  r.intermediate_spilled = b.spilled;
  r.num_rows = pr.num_rows;
  r.in_features = pr.in_features;
  r.out_features = pr.out_features;
  r.chunk_grid = b.chunk_grid;
  r.traffic = pr.traffic;
  r.energy = pr.energy;
  r.agg_static_utilization = agg.static_utilization;
  r.cmb_static_utilization = cmb.static_utilization;
  return r;
}

BoundaryOutcome PipelineLowering::boundary(InterPhase inter,
                                           PhaseEngine prod_engine,
                                           const IntraPhaseDataflow& prod,
                                           PhaseEngine cons_engine,
                                           const IntraPhaseDataflow& cons,
                                           std::size_t cols) const {
  BoundaryOutcome bo;
  bo.inter = inter;
  bo.rows = rows;
  bo.cols = cols;
  bo.chunk_grid = ChunkSpec::whole(rows, cols);
  if (inter == InterPhase::kParallelPipeline ||
      (stage_sp_generic && inter == InterPhase::kSPGeneric)) {
    const HandoffRole p = phase_producer_role(prod_engine, prod.order);
    const HandoffRole c = phase_consumer_role(cons_engine, cons.order);
    const PipelineAnalysis analysis = analyze_handoff(p, c);
    OMEGA_CHECK(analysis.feasible, "validated pipeline must be chunkable");
    bo.granularity = analysis.granularity;
    bo.chunk_grid.major = analysis.major;
    // The largest tile across the pair for the intermediate's row / column
    // dimension: Table III's T_Vmax / T_Fmax for any producer and consumer.
    const std::size_t t_row = std::min(
        std::max(prod.tiles.get(p.row), cons.tiles.get(c.row)), rows);
    const std::size_t t_col = std::min(
        std::max(prod.tiles.get(p.col), cons.tiles.get(c.col)), cols);
    switch (bo.granularity) {
      case Granularity::kElement:
        bo.chunk_grid.row_block = t_row;
        bo.chunk_grid.col_block = t_col;
        bo.pipeline_elements = sat_mul_u64(t_row, t_col);
        break;
      case Granularity::kRow:
        bo.chunk_grid.row_block = t_row;
        bo.pipeline_elements = sat_mul_u64(t_row, cols);
        break;
      case Granularity::kColumn:
        bo.chunk_grid.col_block = t_col;
        bo.pipeline_elements = sat_mul_u64(rows, t_col);
        break;
      case Granularity::kNone:
        break;
    }
    bo.pipeline_chunks = bo.chunk_grid.num_chunks();
  }
  // The sizes saturate, so an astronomically large intermediate cannot wrap
  // into a small buffer or "fits on chip" (DESIGN.md "Overflow contract").
  switch (inter) {
    case InterPhase::kSequential:
      bo.buffer_elements = sat_mul_u64(rows, cols);
      break;
    case InterPhase::kSPGeneric:
      bo.buffer_elements = bo.pipeline_elements;
      break;
    case InterPhase::kSPOptimized:
      break;
    case InterPhase::kParallelPipeline:
      bo.buffer_elements = sat_mul_u64(2, bo.pipeline_elements);
      break;
  }
  bo.spilled = inter == InterPhase::kSequential &&
               sat_mul_u64(bo.buffer_elements, hw.element_bytes) > hw.gb_bytes;
  bo.overlapped = inter == InterPhase::kParallelPipeline;
  return bo;
}

PhaseSplit PipelineLowering::split(std::span<const InterPhase> boundaries,
                                   std::span<const double> pe_fractions,
                                   std::size_t i) const {
  PhaseSplit s{hw.num_pes, hw.distribution_bandwidth, hw.reduction_bandwidth};
  const bool pp_first =
      i < boundaries.size() && boundaries[i] == InterPhase::kParallelPipeline;
  const bool pp_second =
      i > 0 && boundaries[i - 1] == InterPhase::kParallelPipeline;
  if (!pp_first && !pp_second) return s;
  const double share = pp_first_share(pe_fractions, pp_first ? i : i - 1);
  const std::size_t first = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::llround(static_cast<double>(hw.num_pes) * share)),
      1, hw.num_pes - 1);
  s.pes = pp_first ? first : hw.num_pes - first;
  s.bw_dist = scaled_bandwidth(hw.distribution_bandwidth, s.pes, hw.num_pes);
  s.bw_red = scaled_bandwidth(hw.reduction_bandwidth, s.pes, hw.num_pes);
  return s;
}

template <typename Config>
Config PipelineLowering::phase(PhaseEngine engine,
                               const IntraPhaseDataflow& df, std::size_t in_w,
                               std::size_t out_w, const BoundaryOutcome* up,
                               const BoundaryOutcome* down,
                               const PhaseSplit& share) const {
  constexpr bool kGemm = std::is_same_v<Config, GemmPhaseConfig>;
  OMEGA_CHECK(kGemm == (engine == PhaseEngine::kDenseDense),
              "dense phases lower to GEMM configs, the others to SpMM ones");
  // The intermediate a phase consumes or produces stays in the PE register
  // files across an SP-Optimized boundary, goes through DRAM across a
  // spilled Seq one and through the ping-pong partition across a PP one.
  const auto is = [](const BoundaryOutcome* bo, InterPhase inter) {
    return bo != nullptr && bo->inter == inter;
  };
  const auto staged = [](const BoundaryOutcome* bo) {
    return bo != nullptr && bo->granularity != Granularity::kNone;
  };
  Config cfg;
  cfg.pes = share.pes;
  cfg.bw_dist = share.bw_dist;
  cfg.bw_red = share.bw_red;
  cfg.rf_elements = hw.rf_elements_per_pe();
  cfg.out_category = down != nullptr ? TrafficCategory::kIntermediate
                                     : TrafficCategory::kOutput;
  cfg.out_to_rf = is(down, InterPhase::kSPOptimized);
  cfg.out_in_dram = down != nullptr && down->spilled;
  cfg.out_drain_bw = cfg.out_in_dram ? hw.dram_bandwidth : 0;
  cfg.out_via_partition = is(down, InterPhase::kParallelPipeline);
  // An engine tracks one chunk grid: the consumed intermediate's, else the
  // produced one's. A sparse-weight phase produces Out^T, so it walks the
  // transposed grid (the rule set keeps chunks out of its input).
  if (staged(up)) {
    cfg.chunks = up->chunk_grid;
    cfg.chunk_target = ChunkTarget::kMatrixA;
  } else if (staged(down)) {
    cfg.chunks = engine == PhaseEngine::kSparseSparse
                     ? transpose_chunks(down->chunk_grid)
                     : down->chunk_grid;
    cfg.chunk_target = ChunkTarget::kMatrixOut;
  }
  const TrafficCategory in_cat =
      up != nullptr ? TrafficCategory::kIntermediate : TrafficCategory::kInput;
  const bool in_dram = up != nullptr && up->spilled;
  if constexpr (kGemm) {
    cfg.rows = rows;
    cfg.inner = in_w;
    cfg.cols = out_w;
    cfg.order = df.order;
    cfg.tiles = df.tiles;
    cfg.a_category = in_cat;
    cfg.a_from_rf = is(up, InterPhase::kSPOptimized);
    cfg.a_in_dram = in_dram;
    cfg.a_stream_bw = in_dram ? hw.dram_bandwidth : 0;
    cfg.a_via_partition = is(up, InterPhase::kParallelPipeline);
  } else {
    cfg.b_category = in_cat;
    cfg.b_from_rf = is(up, InterPhase::kSPOptimized);
    cfg.b_in_dram = in_dram;
    cfg.b_stream_bw = in_dram ? hw.dram_bandwidth : 0;
    cfg.b_via_partition = is(up, InterPhase::kParallelPipeline);
    if (engine == PhaseEngine::kSparseDense) {
      cfg.graph = graph;
      cfg.context = context;
      cfg.order = df.order;
      cfg.tiles = df.tiles;
      cfg.feat = in_w;
    } else {
      // Transposed problem Out^T[G,V] = W^T[G,F] x X^T[F,V]: the SpMM
      // engine walks W^T rows exactly like adjacency rows — fewer nonzeros
      // per row (lower density) mean fewer neighbor steps and less
      // metadata/operand traffic. Loop dims translate G->V, F->N, V->Feat
      // (the vocabulary rule rules out N); the consumed X^T becomes the
      // engine's B operand. The workload context is bound to the
      // adjacency, so none is passed.
      const auto translate = [](Dim d) {
        if (d == Dim::kG) return Dim::kV;
        if (d == Dim::kF) return Dim::kN;
        return Dim::kF;
      };
      cfg.order = LoopOrder(translate(df.order.at(0)),
                            translate(df.order.at(1)),
                            translate(df.order.at(2)));
      cfg.tiles.v = df.tiles.g;
      cfg.tiles.n = df.tiles.f;
      cfg.tiles.f = df.tiles.v;
      cfg.feat = rows;
    }
  }
  return cfg;
}

template GemmPhaseConfig PipelineLowering::phase<GemmPhaseConfig>(
    PhaseEngine, const IntraPhaseDataflow&, std::size_t, std::size_t,
    const BoundaryOutcome*, const BoundaryOutcome*, const PhaseSplit&) const;
template SpmmPhaseConfig PipelineLowering::phase<SpmmPhaseConfig>(
    PhaseEngine, const IntraPhaseDataflow&, std::size_t, std::size_t,
    const BoundaryOutcome*, const BoundaryOutcome*, const PhaseSplit&) const;

PipelineResult Omega::run_pipeline(const GnnWorkload& workload,
                                   const PipelineSpec& spec,
                                   const WorkloadContext* context) const {
  return run_pipeline_impl(workload, spec, context, /*validated=*/false);
}

PipelineResult Omega::run_pipeline_impl(const GnnWorkload& workload,
                                        const PipelineSpec& spec,
                                        const WorkloadContext* context,
                                        bool validated) const {
  // The rule set: a spec rule throws before the workload dims are checked,
  // a substrate or PP-split rule after. The pre-validated adapter path skips
  // it: Omega::run already performed the equivalent descriptor checks
  // (with the legacy descriptor-notation messages) before lowering, its PP
  // split among them.
  const PipelineViolation violation =
      validated ? PipelineViolation{} : pipeline_violation(spec, &hw_);
  if (violation.rule != PipelineRule::kNone && !violation.substrate()) {
    throw InvalidDataflowError("pipeline " + spec.to_string() + ": " +
                               violation_message(spec, violation));
  }
  const std::size_t n = spec.phases.size();
  const std::size_t v = workload.num_vertices();
  OMEGA_CHECK(v >= 1, "workload needs at least one vertex");

  // ---- Feature widths along the chain --------------------------------------
  PipelineResult result;
  result.phases.resize(n);
  std::size_t width =
      spec.in_features > 0 ? spec.in_features : workload.in_features;
  OMEGA_CHECK(width >= 1, "first-phase input width must be >= 1");
  for (std::size_t i = 0; i < n; ++i) {
    const PhaseSpec& p = spec.phases[i];
    PhaseOutcome& po = result.phases[i];
    po.name = p.name;
    po.engine = p.engine;
    po.in_features = width;
    po.out_features =
        p.engine == PhaseEngine::kSparseDense ? width : p.out_features;
    width = po.out_features;
  }
  if (violation.rule != PipelineRule::kNone) {
    throw ResourceError(violation_message(spec, violation));
  }

  // ---- Lower, resolve and compose ------------------------------------------
  const PipelineLowering lower{hw_, energy_, &workload.adjacency, context, v,
                               /*stage_sp_generic=*/true};
  result.boundaries.resize(n - 1);
  for (std::size_t b = 0; b + 1 < n; ++b) {
    const PhaseSpec& prod = spec.phases[b];
    const PhaseSpec& cons = spec.phases[b + 1];
    result.boundaries[b] = lower.boundary(
        spec.boundaries[b], prod.engine, prod.dataflow, cons.engine,
        cons.dataflow, result.phases[b].out_features);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const PhaseSpec& p = spec.phases[i];
    PhaseOutcome& po = result.phases[i];
    const BoundaryOutcome* up = i > 0 ? &result.boundaries[i - 1] : nullptr;
    const BoundaryOutcome* down = i + 1 < n ? &result.boundaries[i] : nullptr;
    const PhaseSplit share = lower.split(spec.boundaries, spec.pe_fractions, i);
    po.pes = share.pes;
    po.static_utilization = static_utilization(p.dataflow, po.pes);
    if (p.engine == PhaseEngine::kDenseDense) {
      po.result = resolve_phase(
          lower.phase<GemmPhaseConfig>(p.engine, p.dataflow, po.in_features,
                                       po.out_features, up, down, share),
          context);
      continue;
    }
    const SpmmPhaseConfig cfg = lower.phase<SpmmPhaseConfig>(
        p.engine, p.dataflow, po.in_features, po.out_features, up, down,
        share);
    po.result = p.engine == PhaseEngine::kSparseDense
                    ? resolve_phase(cfg, context)
                    : resolve_sparse_weight_phase(cfg, po.in_features,
                                                  po.out_features,
                                                  p.weight_density, context);
  }
  // The PP recurrence runs here on every call, so the fuzzes check the
  // term store's pair memo (the eval plan's) against it.
  const PipelineCost cost = lower.compose(
      result.boundaries,
      [&](std::size_t i) -> const PhaseResult& {
        return result.phases[i].result;
      },
      [&](std::size_t b) {
        return compose_parallel_pipeline(
            result.phases[b].result.chunk_completion,
            result.phases[b + 1].result.chunk_cycles);
      });
  result.cycles = cost.cycles;
  result.traffic = cost.traffic;
  result.energy = cost.energy;
  result.num_rows = v;
  result.in_features = result.phases.front().in_features;
  result.out_features = result.phases.back().out_features;
  return result;
}

}  // namespace omega
