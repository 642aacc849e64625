#include "dse/search.hpp"

#include <algorithm>
#include <cmath>

#include "dse/candidate_space.hpp"
#include "dse/pipeline_search.hpp"
#include "util/error.hpp"

namespace omega {

const char* to_string(Objective o) {
  switch (o) {
    case Objective::kRuntime: return "runtime";
    case Objective::kEnergy: return "energy";
    case Objective::kEnergyDelayProduct: return "EDP";
  }
  return "?";
}

const char* to_string(EvalPath p) {
  switch (p) {
    case EvalPath::kBatched: return "batched";
    case EvalPath::kScalar: return "scalar";
  }
  return "?";
}

void EvalStats::merge(const EvalStats& other) {
  term_requests += other.term_requests;
  term_builds += other.term_builds;
  delta_hits += other.delta_hits;
  batches += other.batches;
  batched_candidates += other.batched_candidates;
  max_batch = std::max(max_batch, other.max_batch);
  pp_lookups += other.pp_lookups;
  pp_compositions += other.pp_compositions;
}

const Candidate& SearchResult::best() const {
  OMEGA_CHECK(!ranked.empty(), "search produced no feasible mapping");
  return ranked.front();
}

std::vector<std::array<std::size_t, 3>> enumerate_tile_triples(
    std::size_t budget, std::size_t cap_a, std::size_t cap_b,
    std::size_t cap_c, double min_util) {
  std::vector<std::array<std::size_t, 3>> out;
  const auto floor_target =
      static_cast<double>(budget) * std::clamp(min_util, 0.0, 1.0);
  for (std::size_t a = 1; a <= std::min(budget, cap_a); a *= 2) {
    for (std::size_t b = 1; a * b <= budget && b <= cap_b; b *= 2) {
      for (std::size_t c = 1; a * b * c <= budget && c <= cap_c; c *= 2) {
        const std::size_t product = a * b * c;
        // Keep only maximal points: no dimension can grow further within
        // the budget and caps. The utilization floor filters among them but
        // is waived when the caps themselves block growth (tiny workloads).
        const bool cap_blocked =
            a * 2 > cap_a && b * 2 > cap_b && c * 2 > cap_c;
        const bool saturated = (2 * product > budget) || cap_blocked;
        if (!saturated) continue;
        if (static_cast<double>(product) >= floor_target || cap_blocked) {
          out.push_back({a, b, c});
        }
      }
    }
  }
  return out;
}

namespace {

std::uint64_t ceil_div_u64(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? a : (a + b - 1) / b;
}

/// The pipeline-search options a two-phase search projects to (chains and
/// extra candidates are the caller's to add).
PipelineSearchOptions pipeline_options_of(const SearchOptions& options) {
  PipelineSearchOptions popt;
  popt.objective = options.objective;
  popt.include_seq = options.include_seq;
  popt.include_sp_generic = options.include_sp_generic;
  popt.include_sp_optimized = options.include_sp_optimized;
  popt.include_pp = options.include_pp;
  popt.pp_fractions = options.pp_fractions;
  popt.min_static_utilization = options.min_static_utilization;
  popt.max_candidates = options.max_candidates;
  popt.threads = options.threads;
  popt.top_k = options.top_k;
  // The legacy contract prunes the runtime objective only; the pipeline
  // searcher prunes every objective, so gate here.
  popt.prune = options.prune && options.objective == Objective::kRuntime;
  popt.prune_seed = options.prune_seed;
  popt.eval_path = options.eval_path;
  popt.trace = options.trace;
  popt.seed_table5 = false;
  return popt;
}

}  // namespace

bool candidate_order(const Candidate& a, const Candidate& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  if (a.on_chip_pj != b.on_chip_pj) return a.on_chip_pj < b.on_chip_pj;
  return a.dataflow.to_string() < b.dataflow.to_string();
}

std::uint64_t ideal_mac_cycle_bound(const DataflowDescriptor& df,
                                    std::size_t pes, std::uint64_t edges,
                                    const WorkloadDims& dims) {
  const bool ac = df.phase_order == PhaseOrder::kAC;
  const std::uint64_t agg_macs =
      edges * static_cast<std::uint64_t>(ac ? dims.in_features
                                            : dims.out_features);
  const std::uint64_t cmb_macs = static_cast<std::uint64_t>(dims.vertices) *
                                 dims.in_features * dims.out_features;
  if (df.inter == InterPhase::kParallelPipeline && pes >= 2) {
    // Same PE split Omega::run_impl performs.
    const std::size_t pes_agg = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(static_cast<double>(pes) *
                                              df.pp_agg_pe_fraction)),
        1, pes - 1);
    const std::size_t pes_cmb = pes - pes_agg;
    return std::max(ceil_div_u64(agg_macs, pes_agg),
                    ceil_div_u64(cmb_macs, pes_cmb));
  }
  return ceil_div_u64(agg_macs, pes) + ceil_div_u64(cmb_macs, pes);
}

std::vector<DataflowDescriptor> enumerate_search_candidates(
    const SearchOptions& options, const WorkloadDims& dims, std::size_t pes) {
  const PipelineSearchOptions popt = pipeline_options_of(options);
  std::vector<DataflowDescriptor> candidates;
  for (const PhaseOrder po : {PhaseOrder::kAC, PhaseOrder::kCA}) {
    if (po == PhaseOrder::kCA && !options.include_ca) break;
    const CandidateSpace space(po, dims, pes, popt);
    candidates.reserve(candidates.size() + space.size());
    for (std::size_t i = 0; i < space.size(); ++i) {
      candidates.push_back(*space.decode(i).legacy);
    }
  }
  return candidates;
}

// Thin adapter over the N-phase pipeline searcher: the two-phase layer is
// expressed as one chain per phase order, the legacy options map onto
// PipelineSearchOptions, and ranked/Pareto entries come back through each
// candidate's preserved legacy descriptor — bit-identical to the historic
// implementation (tests/pipeline_dse_test.cpp pins the parity).
SearchResult search_mappings(const Omega& omega, const GnnWorkload& workload,
                             const LayerSpec& layer,
                             const SearchOptions& options,
                             const WorkloadContext* shared_context) {
  const std::size_t pes = omega.config().num_pes;

  std::vector<PipelineChainSpec> chains;
  chains.push_back(two_phase_chain(PhaseOrder::kAC, layer));
  bool has_ca_extra = false;
  for (const DataflowDescriptor& df : options.extra_candidates) {
    has_ca_extra |= df.phase_order == PhaseOrder::kCA;
  }
  if (options.include_ca || has_ca_extra) {
    chains.push_back(two_phase_chain(PhaseOrder::kCA, layer));
  }

  PipelineSearchOptions popt = pipeline_options_of(options);
  // CA extras without include_ca evaluate against a bind-only CA chain that
  // contributes no enumerated population.
  popt.enumerate_chains = options.include_ca ? 0 : 1;
  for (const DataflowDescriptor& df : options.extra_candidates) {
    const std::size_t chain_index = df.phase_order == PhaseOrder::kCA ? 1 : 0;
    popt.extra_candidates.push_back(
        lower_two_phase_candidate(df, chain_index, pes));
  }

  const PipelineSearchResult pr = search_pipeline_mappings(
      omega, workload, chains, popt, shared_context);

  SearchResult result;
  result.generated = pr.generated;
  result.evaluated = pr.evaluated;
  result.pruned = pr.pruned;
  result.eval = pr.eval;
  const auto convert = [](const RankedPipelineCandidate& rc) {
    OMEGA_CHECK(rc.candidate.legacy.has_value(),
                "two-phase adapter: candidate without a legacy descriptor");
    Candidate c;
    c.dataflow = *rc.candidate.legacy;
    c.cycles = rc.cycles;
    c.on_chip_pj = rc.on_chip_pj;
    c.score = rc.score;
    return c;
  };
  result.ranked.reserve(pr.ranked.size());
  for (const RankedPipelineCandidate& rc : pr.ranked) {
    result.ranked.push_back(convert(rc));
  }
  result.pareto.reserve(pr.pareto.size());
  for (const RankedPipelineCandidate& rc : pr.pareto) {
    result.pareto.push_back(convert(rc));
  }
  return result;
}

}  // namespace omega
