// Batched evaluation core vs the scalar oracle (engine/eval_core.hpp).
//
// The parity contract under test: every candidate a search evaluates flows
// through PipelineEvalPlan::evaluate_batch, which must return bit-identical
// (cycles, on_chip_pj) to the scalar oracle through the same
// WorkloadContext, and ok == false exactly when the oracle throws Error.
// Two fuzzes walk random base candidates plus single-field mutations (the
// neighborhood structure the per-position L1 slots are built for):
//  * two-phase descriptors, lowered with lower_two_phase_candidate onto the
//    AC or CA chain exactly as search_mappings lowers them, against
//    Omega::run;
//  * 3-phase GAT-style bindings (gemm -> spmm -> spgemm) against
//    Omega::run_pipeline.
// Each population is evaluated at block sizes 1 and 257, reusing one state
// per chain throughout, so stale slots from an earlier block can never leak
// into the next.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <span>
#include <vector>

#include "dse/pipeline_search.hpp"
#include "dse/search.hpp"
#include "engine/eval_core.hpp"
#include "graph/generators.hpp"
#include "omega/omega.hpp"
#include "util/error.hpp"

namespace omega {
namespace {

GnnWorkload fuzz_workload() {
  Rng rng(29);
  GnnWorkload w;
  w.name = "fuzz";
  w.adjacency = rmat(7, 800, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

AcceleratorConfig small_hw() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return hw;
}

EvalOutcome two_phase_oracle(const Omega& omega, const GnnWorkload& w,
                             const LayerSpec& layer,
                             const DataflowDescriptor& df,
                             const WorkloadContext& context) {
  EvalOutcome o;
  try {
    const RunResult r = omega.run(w, layer, df, context);
    o.cycles = r.cycles;
    o.on_chip_pj = r.energy.on_chip_pj();
    o.ok = true;
  } catch (const Error&) {
    o.ok = false;
  }
  return o;
}

EvalOutcome pipeline_oracle(const Omega& omega, const GnnWorkload& w,
                            const PipelineChainSpec& chain,
                            const PipelineCandidate& c,
                            const WorkloadContext& context) {
  EvalOutcome o;
  try {
    const PipelineResult r =
        omega.run_pipeline(w, chain.bind(c.view()), &context);
    o.cycles = r.cycles;
    o.on_chip_pj = r.energy.on_chip_pj();
    o.ok = true;
  } catch (const Error&) {
    o.ok = false;
  }
  return o;
}

/// Evaluates `cands` through their chains' plans in blocks of at most
/// `block` same-chain candidates and checks every outcome against `want`
/// (bit-identical metrics, identical verdicts). Returns the L1 slot hits.
std::uint64_t expect_batches_match(
    std::span<const std::shared_ptr<const PipelineEvalPlan>> plans,
    const std::vector<PipelineCandidate>& cands,
    const std::vector<EvalOutcome>& want, std::size_t block) {
  std::vector<PipelineDeltaState> states(plans.size());
  std::vector<EvalOutcome> got(cands.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].chain_index == c) idx.push_back(i);
    }
    std::vector<PipelineBindingView> views;
    std::vector<EvalOutcome> out;
    for (std::size_t from = 0; from < idx.size(); from += block) {
      const std::size_t n = std::min(block, idx.size() - from);
      views.clear();
      for (std::size_t k = 0; k < n; ++k) {
        views.push_back(cands[idx[from + k]].view());
      }
      out.assign(n, EvalOutcome{});
      plans[c]->evaluate_batch(views, out.data(), states[c]);
      for (std::size_t k = 0; k < n; ++k) got[idx[from + k]] = out[k];
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    SCOPED_TRACE(cands[i].key() + " (block " + std::to_string(block) + ")");
    EXPECT_EQ(got[i].ok, want[i].ok);
    EXPECT_EQ(got[i].cycles, want[i].cycles);
    EXPECT_EQ(got[i].on_chip_pj, want[i].on_chip_pj);
    if (::testing::Test::HasFailure()) return 0;
  }
  std::uint64_t hits = 0;
  for (const PipelineDeltaState& s : states) hits += s.tally.delta_hits;
  return hits;
}

/// Mutates exactly one descriptor field. Mutants may be invalid (bad tile
/// shapes, infeasible order pairs, PP fraction at the boundary) — the
/// contract covers those too: both paths must agree the candidate is
/// infeasible.
DataflowDescriptor mutate_one_field(DataflowDescriptor df, std::mt19937& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto nudge_tile = [&](std::size_t& t) {
    if (pick(2) == 0) {
      t = t * 2;
    } else {
      t = std::max<std::size_t>(1, t / 2);
    }
  };
  switch (pick(9)) {
    case 0:
      df.inter = static_cast<InterPhase>(pick(4));
      break;
    case 1:
      df.phase_order = df.phase_order == PhaseOrder::kAC ? PhaseOrder::kCA
                                                         : PhaseOrder::kAC;
      break;
    case 2: nudge_tile(df.agg.tiles.v); break;
    case 3: nudge_tile(df.agg.tiles.n); break;
    case 4: nudge_tile(df.agg.tiles.f); break;
    case 5: nudge_tile(df.cmb.tiles.v); break;
    case 6: nudge_tile(df.cmb.tiles.f); break;
    case 7: nudge_tile(df.cmb.tiles.g); break;
    default: {
      constexpr double kFracs[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
      df.pp_agg_pe_fraction = kFracs[pick(7)];
      break;
    }
  }
  return df;
}

struct Verdicts {
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
};

/// Lowers every descriptor onto the AC (0) or CA (1) chain exactly as
/// search_mappings lowers it and checks the batched core against Omega::run
/// at block sizes 1 and 257. `context` must be fresh (the term-request
/// floor below counts from zero).
Verdicts expect_two_phase_parity(const Omega& omega, const GnnWorkload& w,
                                 const LayerSpec& layer,
                                 const WorkloadContext& context,
                                 const std::vector<DataflowDescriptor>& dfs) {
  const std::array<std::shared_ptr<const PipelineEvalPlan>, 2> plans = {
      PipelineEvalPlan::obtain(omega, w,
                               two_phase_chain(PhaseOrder::kAC, layer),
                               context),
      PipelineEvalPlan::obtain(omega, w,
                               two_phase_chain(PhaseOrder::kCA, layer),
                               context)};
  Verdicts v;
  std::vector<PipelineCandidate> cands;
  std::vector<EvalOutcome> expected;
  for (const DataflowDescriptor& df : dfs) {
    const EvalOutcome want = two_phase_oracle(omega, w, layer, df, context);
    ++(want.ok ? v.feasible : v.infeasible);
    cands.push_back(lower_two_phase_candidate(
        df, df.phase_order == PhaseOrder::kCA ? 1 : 0, layer,
        omega.config().num_pes));
    expected.push_back(want);
  }
  for (const std::size_t block : {std::size_t{1}, std::size_t{257}}) {
    const std::uint64_t hits =
        expect_batches_match(plans, cands, expected, block);
    if (::testing::Test::HasFailure()) return v;
    EXPECT_GT(hits, 0u) << "block " << block;
  }
  const std::uint64_t requests =
      plans[0]->term_requests() + plans[1]->term_requests();
  EXPECT_GE(requests, 2 * 2 * v.feasible);  // two terms, two passes
  EXPECT_LE(plans[0]->term_builds() + plans[1]->term_builds(), requests);
  return v;
}

TEST(EvalCoreFuzz, SingleFieldMutationsMatchScalarOracle) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  (void)context.reverse_graph();

  SearchOptions gen;
  gen.include_ca = true;
  const std::vector<DataflowDescriptor> base = enumerate_search_candidates(
      gen, dims_of(w, layer), omega.config().num_pes);
  ASSERT_GT(base.size(), 100u);

  std::mt19937 rng(20240807);
  std::vector<DataflowDescriptor> dfs;
  while (dfs.size() < 4200) {
    const DataflowDescriptor& b =
        base[std::uniform_int_distribution<std::size_t>(0, base.size() - 1)(
            rng)];
    dfs.push_back(b);
    dfs.push_back(mutate_one_field(b, rng));
  }
  const Verdicts v = expect_two_phase_parity(omega, w, layer, context, dfs);
  // The neighborhood must exercise both verdicts, or the fuzz proves less
  // than it claims.
  EXPECT_GT(v.feasible, 100u);
  EXPECT_GT(v.infeasible, 100u);
}

TEST(EvalCoreFuzz, SpOptimizedNeighborhoodsMatchScalarOracle) {
  // SP-Optimized descriptors are about a dozen of the ~71k base
  // candidates, so the random walk above almost never lands on one; walk
  // each one's neighborhood here so the RF-resident handoff flags are
  // checked (the enumerated ones are all AC: the spmm producer's out_to_rf
  // and the gemm consumer's a_from_rf).
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  (void)context.reverse_graph();

  SearchOptions gen;
  gen.include_ca = true;
  std::mt19937 rng(20240807);
  std::vector<DataflowDescriptor> dfs;
  std::size_t spo_bases = 0;
  for (const DataflowDescriptor& b : enumerate_search_candidates(
           gen, dims_of(w, layer), omega.config().num_pes)) {
    if (b.inter != InterPhase::kSPOptimized) continue;
    ++spo_bases;
    dfs.push_back(b);
    for (int k = 0; k < 16; ++k) dfs.push_back(mutate_one_field(b, rng));
  }
  ASSERT_GE(spo_bases, 4u);
  const Verdicts v = expect_two_phase_parity(omega, w, layer, context, dfs);
  EXPECT_GE(v.feasible, spo_bases);
  EXPECT_GT(v.infeasible, 0u);
}

/// Mutates exactly one binding field of an N-phase candidate: one
/// boundary's strategy, one PE fraction, one tile of one phase, or one
/// phase's loop order. Mutants may be invalid; both sides must then agree
/// the candidate is infeasible.
PipelineCandidate mutate_one_binding_field(PipelineCandidate c,
                                           std::mt19937& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  switch (pick(4)) {
    case 0:
      c.boundaries[pick(c.boundaries.size())] =
          static_cast<InterPhase>(pick(4));
      break;
    case 1: {
      constexpr double kFracs[] = {0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 3.0};
      if (c.pe_fractions.empty()) c.pe_fractions.assign(c.phases.size(), 1.0);
      c.pe_fractions[pick(c.pe_fractions.size())] = kFracs[pick(7)];
      break;
    }
    case 2: {
      TileSizes& t = c.phases[pick(c.phases.size())].tiles;
      std::size_t* dims[] = {&t.v, &t.n, &t.f, &t.g};
      std::size_t& d = *dims[pick(4)];
      d = pick(2) == 0 ? d * 2 : std::max<std::size_t>(1, d / 2);
      break;
    }
    default: {
      IntraPhaseDataflow& df = c.phases[pick(c.phases.size())];
      std::array<Dim, 3> dims = {df.order.at(0), df.order.at(1),
                                 df.order.at(2)};
      for (std::size_t k = pick(6); k > 0; --k) {
        std::next_permutation(dims.begin(), dims.end());
      }
      df.order = LoopOrder(dims[0], dims[1], dims[2]);
      break;
    }
  }
  return c;
}

TEST(EvalCoreFuzz, PipelineBindingMutationsMatchRunPipeline) {
  const GnnWorkload w = fuzz_workload();
  // A 4 KiB global buffer makes Seq intermediates spill to DRAM, a path the
  // 128-vertex workload never reaches on the default 4 MiB buffer.
  AcceleratorConfig hw = small_hw();
  hw.gb_bytes = 4096;
  const Omega omega(hw);
  const WorkloadContext context(w.adjacency);
  PipelineChainSpec chain;
  chain.phases = {{.name = "score",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "agg", .engine = PhaseEngine::kSparseDense},
                  {.name = "xform",
                   .engine = PhaseEngine::kSparseSparse,
                   .out_features = 8,
                   .weight_density = 0.5}};

  // Base bindings: the feasible part of a deterministic stride subsample of
  // the chain's population (all of it is ~2M bindings), evaluated by the
  // scalar oracle so the base set never depends on the plan under test.
  PipelineSearchOptions gen;
  gen.max_candidates = 1024;
  gen.top_k = 1024;
  gen.eval_path = EvalPath::kScalar;
  std::vector<PipelineCandidate> base;
  for (const RankedPipelineCandidate& rc :
       search_pipeline_mappings(omega, w, chain, gen, &context).ranked) {
    base.push_back(rc.candidate);
  }
  ASSERT_GT(base.size(), 100u);
  const std::array<std::shared_ptr<const PipelineEvalPlan>, 1> plans = {
      PipelineEvalPlan::obtain(omega, w, chain, context)};

  std::mt19937 rng(20240807);
  std::vector<PipelineCandidate> cands;
  std::vector<EvalOutcome> expected;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  while (cands.size() < 4200) {
    const PipelineCandidate& b =
        base[std::uniform_int_distribution<std::size_t>(0, base.size() - 1)(
            rng)];
    const PipelineCandidate m = mutate_one_binding_field(b, rng);
    for (const PipelineCandidate* c : {&b, &m}) {
      const EvalOutcome want = pipeline_oracle(omega, w, chain, *c, context);
      ++(want.ok ? feasible : infeasible);
      cands.push_back(*c);
      expected.push_back(want);
    }
  }
  EXPECT_GT(feasible, 100u);
  EXPECT_GT(infeasible, 100u);

  for (const std::size_t block : {std::size_t{1}, std::size_t{257}}) {
    (void)expect_batches_match(plans, cands, expected, block);
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(plans[0]->term_requests(), 0u);
}

TEST(EvalCoreFuzz, PlanIsCachedPerContextSignature) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  const PipelineChainSpec ac = two_phase_chain(PhaseOrder::kAC, layer);
  const auto a = PipelineEvalPlan::obtain(omega, w, ac, context);
  const auto b = PipelineEvalPlan::obtain(omega, w, ac, context);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(context.eval_plan_count(), 1u);
  // A different layer shape is a different chain, hence a different plan.
  const auto c = PipelineEvalPlan::obtain(
      omega, w, two_phase_chain(PhaseOrder::kAC, LayerSpec{8}), context);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(context.eval_plan_count(), 2u);
}

/// Ranked + Pareto output of search_mappings must be bit-identical between
/// the batched and scalar paths across all four inter-phase modes and
/// thread counts — the acceptance gate of the batched core.
class EvalCoreSearchParity : public ::testing::TestWithParam<InterPhase> {};

void expect_same_candidates(const std::vector<Candidate>& a,
                            const std::vector<Candidate>& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_EQ(a[i].on_chip_pj, b[i].on_chip_pj);
    EXPECT_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].dataflow.to_string(), b[i].dataflow.to_string());
  }
}

TEST_P(EvalCoreSearchParity, RankedAndParetoIdenticalAcrossPathsAndThreads) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());

  SearchOptions base;
  base.include_seq = GetParam() == InterPhase::kSequential;
  base.include_sp_generic = GetParam() == InterPhase::kSPGeneric;
  base.include_sp_optimized = GetParam() == InterPhase::kSPOptimized;
  base.include_pp = GetParam() == InterPhase::kParallelPipeline;
  base.include_ca = true;
  base.top_k = 32;

  SearchOptions scalar = base;
  scalar.eval_path = EvalPath::kScalar;
  scalar.threads = 1;
  const SearchResult want = search_mappings(omega, w, layer, scalar);
  ASSERT_GT(want.evaluated, 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SearchOptions so = base;
    so.eval_path = EvalPath::kBatched;
    so.threads = threads;
    const SearchResult got = search_mappings(omega, w, layer, so);
    const std::string label = "batched/t" + std::to_string(threads);
    EXPECT_EQ(got.generated, want.generated) << label;
    EXPECT_EQ(got.evaluated, want.evaluated) << label;
    expect_same_candidates(want.ranked, got.ranked, label + "/ranked");
    expect_same_candidates(want.pareto, got.pareto, label + "/pareto");
    EXPECT_GT(got.eval.batches, 0u) << label;
    EXPECT_EQ(got.eval.batched_candidates, got.generated) << label;
    EXPECT_GT(got.eval.max_batch, 0u) << label;
    EXPECT_GT(got.eval.term_requests, 0u) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllInterPhaseModes, EvalCoreSearchParity,
                         ::testing::Values(InterPhase::kSequential,
                                           InterPhase::kSPGeneric,
                                           InterPhase::kSPOptimized,
                                           InterPhase::kParallelPipeline));

TEST(EvalCoreSearch, PrunedBatchedSearchMatchesScalarBest) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());

  SearchOptions scalar;
  scalar.include_ca = true;
  scalar.eval_path = EvalPath::kScalar;
  const SearchResult want = search_mappings(omega, w, layer, scalar);

  SearchOptions pruned = scalar;
  pruned.eval_path = EvalPath::kBatched;
  pruned.prune = true;
  const SearchResult got = search_mappings(omega, w, layer, pruned);
  EXPECT_EQ(got.best().cycles, want.best().cycles);
  EXPECT_EQ(got.best().dataflow.to_string(), want.best().dataflow.to_string());
}

TEST(EvalCoreStats, ContextAggregatesPlanCounters) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);

  SearchOptions so;
  so.max_candidates = 256;
  const SearchResult r = search_mappings(omega, w, layer, so, &context);
  ASSERT_GT(r.evaluated, 0u);

  const ContextEvalStats stats = context.eval_stats();
  EXPECT_EQ(stats.plans, 1u);
  EXPECT_GT(stats.terms, 0u);
  EXPECT_EQ(stats.term_requests, r.eval.term_requests);
  EXPECT_EQ(stats.term_builds, r.eval.term_builds);
  EXPECT_LE(stats.term_builds, stats.term_requests);
}

}  // namespace
}  // namespace omega
