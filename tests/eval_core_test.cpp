// Batched evaluation core vs the scalar oracle (engine/eval_core.hpp).
//
// The parity contract under test: every candidate a search evaluates flows
// through PipelineEvalPlan::evaluate, which must return bit-identical
// (cycles, on_chip_pj) to the scalar oracle through the same
// WorkloadContext, and ok == false exactly when the oracle throws Error.
// Two fuzzes walk random base candidates plus single-field mutations (the
// neighborhood structure the per-position L1 slots are built for):
//  * two-phase descriptors, lowered with lower_two_phase_candidate onto the
//    AC or CA chain exactly as search_mappings lowers them, against
//    Omega::run;
//  * 3-phase GAT-style bindings (gemm -> spmm -> spgemm) against
//    Omega::run_pipeline, plus 3-phase bindings built around one
//    SP-Optimized boundary (gemm -> spmm and spmm -> gemm handoffs).
// Each population is evaluated twice, a cold pass then a warm one, reusing
// one state per chain throughout, so stale slots from an earlier candidate
// can never leak
// into the next. The sharded TermStore is hammered from 8 threads: every
// admitted key builds once, and the byte budget and entry ceiling hold. The
// PP pair memo returns exactly what compose_parallel_pipeline returns, under
// contention too, within its ceiling; SP-Generic phases hold no chunk
// timeline and share their terms with their Sequential twins.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <thread>
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

/// Evaluates `cands` through their chains' plans, one state per chain, and
/// checks every outcome against `want` (bit-identical metrics, identical
/// verdicts). Returns the L1 slot hits.
std::uint64_t expect_plans_match(
    std::span<const std::shared_ptr<const PipelineEvalPlan>> plans,
    const std::vector<PipelineCandidate>& cands,
    const std::vector<EvalOutcome>& want, const char* pass) {
  std::vector<PipelineDeltaState> states(plans.size());
  std::vector<EvalOutcome> got(cands.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].chain_index != c) continue;
      got[i] = plans[c]->evaluate(cands[i].view(), states[c]);
    }
  }
  for (std::size_t i = 0; i < cands.size(); ++i) {
    SCOPED_TRACE(cands[i].key() + " (" + pass + " pass)");
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
/// in a cold and a warm pass. `context` must be fresh (the term-request
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
        df, df.phase_order == PhaseOrder::kCA ? 1 : 0,
        omega.config().num_pes));
    expected.push_back(want);
  }
  for (const char* pass : {"cold", "warm"}) {
    const std::uint64_t hits = expect_plans_match(plans, cands, expected, pass);
    if (::testing::Test::HasFailure()) return v;
    EXPECT_GT(hits, 0u) << pass << " pass";
  }
  // The context's store counts the oracle's lookups and both passes.
  const ContextEvalStats stats = context.eval_stats();
  EXPECT_GE(stats.term_requests, 3 * 2 * v.feasible);  // two terms, 3 runs
  EXPECT_LE(stats.term_builds, stats.term_requests);
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

/// The GAT-style 3-phase chain: gemm -> spmm -> spgemm.
PipelineChainSpec gat_chain() {
  PipelineChainSpec chain;
  chain.phases = {{.name = "score",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "agg", .engine = PhaseEngine::kSparseDense},
                  {.name = "xform",
                   .engine = PhaseEngine::kSparseSparse,
                   .out_features = 8,
                   .weight_density = 0.5}};
  return chain;
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
  const PipelineChainSpec chain = gat_chain();

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

  const std::uint64_t oracle_requests = context.eval_stats().term_requests;
  for (const char* pass : {"cold", "warm"}) {
    (void)expect_plans_match(plans, cands, expected, pass);
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(context.eval_stats().term_requests, oracle_requests);
}

/// Feasible bindings of `chain` with one SP-Optimized boundary each, built
/// to satisfy sp_optimized_pair_ok: the producer's contraction and the
/// consumer's third dim innermost and temporal (tile 1), one major on both
/// sides, and the consumer's row/col tiles equal to the producer's. The
/// other boundaries are Seq and the other phases take a random order and
/// tiling; every tiling is powers of two within `pes`. Sparse-weight phases
/// never consume over SP-Optimized: their third dim G would have to follow
/// F, an order they reject.
std::vector<PipelineCandidate> sp_optimized_bases(
    const Omega& omega, const GnnWorkload& w, const PipelineChainSpec& chain,
    const WorkloadContext& context, std::size_t count, std::mt19937& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t pes = omega.config().num_pes;
  const auto pow2_within = [&](std::size_t room) {
    std::size_t t = std::size_t{1} << pick(4);
    while (t > room) t /= 2;
    return t;
  };
  std::vector<std::size_t> spo_boundaries;
  for (std::size_t b = 0; b + 1 < chain.phases.size(); ++b) {
    if (chain.phases[b + 1].engine != PhaseEngine::kSparseSparse) {
      spo_boundaries.push_back(b);
    }
  }
  std::vector<PipelineCandidate> bases;
  for (std::size_t attempt = 0; bases.size() < count && attempt < 8 * count;
       ++attempt) {
    PipelineCandidate c;
    c.boundaries.assign(chain.phases.size() - 1, InterPhase::kSequential);
    for (const PhaseChainSpec& p : chain.phases) {
      IntraPhaseDataflow df;
      df.phase = taxonomy_phase(p.engine);
      std::array<Dim, 3> dims = df.phase == GnnPhase::kAggregation
                                    ? std::array{Dim::kV, Dim::kN, Dim::kF}
                                    : std::array{Dim::kV, Dim::kF, Dim::kG};
      std::shuffle(dims.begin(), dims.end(), rng);
      if (p.engine == PhaseEngine::kSparseSparse) {
        // Sparse-weight phases walk W^T G-major: G before F.
        const auto g = std::find(dims.begin(), dims.end(), Dim::kG);
        const auto f = std::find(dims.begin(), dims.end(), Dim::kF);
        if (g > f) std::iter_swap(g, f);
      }
      df.order = LoopOrder(dims[0], dims[1], dims[2]);
      std::size_t room = pes;
      for (const Dim d : dims) {
        df.tiles.set(d, pow2_within(room));
        room /= df.tiles.get(d);
      }
      c.phases.push_back(df);
    }
    const std::size_t b = spo_boundaries[pick(spo_boundaries.size())];
    c.boundaries[b] = InterPhase::kSPOptimized;
    const PhaseEngine pe = chain.phases[b].engine;
    const PhaseEngine ce = chain.phases[b + 1].engine;
    const HandoffRole p = phase_producer_role(pe, LoopOrder());
    const HandoffRole q = phase_consumer_role(ce, LoopOrder());
    const bool row_major = pick(2) == 0;
    IntraPhaseDataflow& prod = c.phases[b];
    IntraPhaseDataflow& cons = c.phases[b + 1];
    prod.order = row_major ? LoopOrder(p.row, p.col, p.third)
                           : LoopOrder(p.col, p.row, p.third);
    cons.order = row_major ? LoopOrder(q.row, q.col, q.third)
                           : LoopOrder(q.col, q.row, q.third);
    const std::size_t t_row = pow2_within(pes);
    const std::size_t t_col = pow2_within(pes / t_row);
    prod.tiles = TileSizes{};
    prod.tiles.set(p.row, t_row);
    prod.tiles.set(p.col, t_col);
    cons.tiles = TileSizes{};
    cons.tiles.set(q.row, t_row);
    cons.tiles.set(q.col, t_col);
    EXPECT_TRUE(sp_optimized_pair_ok(pe, prod, ce, cons));
    if (pipeline_oracle(omega, w, chain, c, context).ok) bases.push_back(c);
  }
  return bases;
}

TEST(EvalCoreFuzz, SpOptimizedPipelineBindingsMatchRunPipeline) {
  // 3-phase bindings whose SP-Optimized boundary hands the intermediate
  // over in the PE register files, each way a chain can: gemm -> spmm (the
  // spmm consumer's b_from_rf) and spmm -> gemm (the gemm consumer's
  // a_from_rf), next to gemm and spmm producers' out_to_rf. Sampled
  // populations almost never contain a feasible one.
  const GnnWorkload w = fuzz_workload();
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  PipelineChainSpec two_hop;
  two_hop.phases = {{.name = "agg", .engine = PhaseEngine::kSparseDense},
                    {.name = "cmb",
                     .engine = PhaseEngine::kDenseDense,
                     .out_features = 16},
                    {.name = "agg2", .engine = PhaseEngine::kSparseDense}};

  std::mt19937 rng(20240807);
  for (const PipelineChainSpec& chain : {gat_chain(), two_hop}) {
    SCOPED_TRACE(chain.to_string());
    const std::vector<PipelineCandidate> bases =
        sp_optimized_bases(omega, w, chain, context, 300, rng);
    ASSERT_EQ(bases.size(), 300u);
    const std::array<std::shared_ptr<const PipelineEvalPlan>, 1> plans = {
        PipelineEvalPlan::obtain(omega, w, chain, context)};
    std::vector<PipelineCandidate> cands;
    std::vector<EvalOutcome> expected;
    std::size_t infeasible = 0;
    for (const PipelineCandidate& b : bases) {
      cands.push_back(b);
      expected.push_back(pipeline_oracle(omega, w, chain, b, context));
      for (int k = 0; k < 3; ++k) {
        cands.push_back(mutate_one_binding_field(b, rng));
        expected.push_back(
            pipeline_oracle(omega, w, chain, cands.back(), context));
        infeasible += expected.back().ok ? 0 : 1;
      }
    }
    EXPECT_GT(infeasible, 0u);
    for (const char* pass : {"cold", "warm"}) {
      (void)expect_plans_match(plans, cands, expected, pass);
      ASSERT_FALSE(HasFailure());
    }
  }
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

// ---- the sharded term store under concurrency ------------------------------

EvalTermKey synthetic_key(std::uint64_t id) {
  EvalTermKey k;
  k.w[0] = 7;  // no engine uses this tag
  k.w[1] = id;
  return k;
}

/// Resolves every key of `footprints` from `threads` threads, each in its
/// own shuffled order and each key twice in a row (the second an L1 hit),
/// while a watcher samples the admitted timeline bytes. Returns the builds
/// per key; checks the results, the counters and the byte budget.
std::vector<std::uint64_t> resolve_concurrently(
    const TermStore& store, const std::vector<std::size_t>& footprints,
    std::size_t threads) {
  const std::size_t n = footprints.size();
  std::vector<std::atomic<std::uint64_t>> builds(n);
  std::vector<TermStore::Tally> tallies(threads);
  std::vector<char> wrong(threads, 0);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> max_bytes{0};
  std::thread watcher([&] {
    while (!done.load()) {
      const std::size_t b = store.timeline_bytes();
      if (b > max_bytes.load()) max_bytes.store(b);
      std::this_thread::yield();
    }
  });
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), std::mt19937_64(t + 1));
      TermStore::Slot slot;
      // Start together, so the first admissions race each other.
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      for (const std::size_t id : order) {
        const auto build = [&builds, id] {
          builds[id].fetch_add(1);
          auto r = std::make_shared<PhaseResult>();
          r->cycles = id;
          return std::shared_ptr<const PhaseResult>(std::move(r));
        };
        for (int rep = 0; rep < 2; ++rep) {
          const auto term = store.resolve(synthetic_key(id), slot, build,
                                          footprints[id], tallies[t]);
          if (term == nullptr || term->cycles != id) wrong[t] = 1;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  done.store(true);
  watcher.join();

  EXPECT_EQ(std::count(wrong.begin(), wrong.end(), 1), 0);
  EXPECT_LE(max_bytes.load(), kTermTimelineBudgetBytes);
  EXPECT_LE(store.timeline_bytes(), kTermTimelineBudgetBytes);
  TermStore::Tally sum;
  for (const TermStore::Tally& t : tallies) {
    sum.requests += t.requests;
    sum.builds += t.builds;
    sum.delta_hits += t.delta_hits;
  }
  std::vector<std::uint64_t> out(n);
  std::uint64_t total_builds = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = builds[i].load();
    total_builds += out[i];
  }
  EXPECT_EQ(sum.requests, store.requests());
  EXPECT_EQ(sum.requests, 2 * threads * n);
  EXPECT_EQ(sum.delta_hits, threads * n);
  EXPECT_EQ(sum.builds, store.builds());
  EXPECT_EQ(sum.builds, total_builds);
  return out;
}

TEST(TermStoreConcurrency, AdmittedKeysBuildOnceWithinTheByteBudget) {
  // 200 grid-free keys (always admitted below the entry ceiling) and 12
  // chunked keys of 200 MiB: exactly five fit kTermTimelineBudgetBytes. A
  // refused key is built uncached by every thread's miss; an admitted one
  // exactly once.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kBig = 200ull << 20;
  constexpr std::size_t kFits = kTermTimelineBudgetBytes / kBig;
  static_assert(kFits == 5);
  std::vector<std::size_t> footprints(200, 0);
  footprints.insert(footprints.end(), 12, kBig);
  TermStore store;
  const std::vector<std::uint64_t> builds =
      resolve_concurrently(store, footprints, kThreads);

  std::size_t admitted_big = 0;
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    if (footprints[i] == 0) {
      EXPECT_EQ(builds[i], 1u) << "grid-free key " << i;
    } else if (builds[i] == 1) {
      ++admitted_big;
    } else {
      EXPECT_EQ(builds[i], kThreads) << "refused key " << i;
    }
  }
  EXPECT_EQ(admitted_big, kFits);
  // Each thread's miss on a refused key is one refusal.
  EXPECT_EQ(store.refusals(), (12 - kFits) * kThreads);
  EXPECT_EQ(store.timeline_bytes(), kFits * kBig);
  EXPECT_EQ(store.size(), 200 + kFits);
}

TEST(TermStoreConcurrency, ByteBudgetHoldsWhenAdmissionsRace) {
  // Every key is chunked and only two fit the budget, so the threads race
  // for the same last bytes from their first request on.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kBig = kTermTimelineBudgetBytes / 3 + 1;
  const std::vector<std::size_t> footprints(16, kBig);
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    TermStore store;
    const std::vector<std::uint64_t> builds =
        resolve_concurrently(store, footprints, kThreads);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.timeline_bytes(), 2 * kBig);
    EXPECT_EQ(std::count(builds.begin(), builds.end(), std::uint64_t{1}), 2);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TermStoreConcurrency, EntryCeilingHoldsUnderContention) {
  constexpr std::size_t kThreads = 8;
  const std::vector<std::size_t> footprints(kPhaseMemoMaxEntries + 300, 0);
  TermStore store;
  const std::vector<std::uint64_t> builds =
      resolve_concurrently(store, footprints, kThreads);
  EXPECT_EQ(store.size(), kPhaseMemoMaxEntries);
  const auto once = static_cast<std::size_t>(
      std::count(builds.begin(), builds.end(), std::uint64_t{1}));
  EXPECT_EQ(once, kPhaseMemoMaxEntries);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(builds.begin(), builds.end(), kThreads)),
            footprints.size() - once);
}

// ---- SP-Generic phases are grid-free --------------------------------------

std::vector<DataflowDescriptor> sp_generic_candidates(const GnnWorkload& w,
                                                      const LayerSpec& layer,
                                                      std::size_t pes) {
  SearchOptions gen;
  gen.include_ca = true;
  std::vector<DataflowDescriptor> out;
  for (const DataflowDescriptor& df :
       enumerate_search_candidates(gen, dims_of(w, layer), pes)) {
    if (df.inter == InterPhase::kSPGeneric) out.push_back(df);
  }
  return out;
}

TEST(EvalCoreSpGeneric, SweepHoldsNoChunkTimelines) {
  // 4096 vertices: an SP-Generic row grid reaches 4096 chunks, and every
  // chunked term is charged to the timeline budget. The batched path
  // resolves those phases grid-free, and still matches the oracle, which
  // stages the grid — so the oracle runs on a context of its own, whose
  // store does hold chunked terms.
  Rng rng(31);
  GnnWorkload w;
  w.name = "spg";
  w.adjacency = rmat(12, 16384, rng).with_self_loops().gcn_normalized();
  w.in_features = 16;
  const LayerSpec layer{8};
  const Omega omega(small_hw());
  const WorkloadContext oracle_context(w.adjacency);
  const WorkloadContext context(w.adjacency);
  const std::vector<DataflowDescriptor> all =
      sp_generic_candidates(w, layer, omega.config().num_pes);
  ASSERT_GT(all.size(), 200u);

  std::vector<PipelineCandidate> cands;
  std::vector<EvalOutcome> expected;
  std::size_t max_chunks = 0;
  for (std::size_t i = 0; i < all.size(); i += all.size() / 200) {
    const DataflowDescriptor& df = all[i];
    EvalOutcome want;
    try {
      const RunResult r = omega.run(w, layer, df, oracle_context);
      want = {r.cycles, r.energy.on_chip_pj(), true};
      max_chunks = std::max(max_chunks, r.pipeline_chunks);
    } catch (const Error&) {
    }
    cands.push_back(lower_two_phase_candidate(
        df, df.phase_order == PhaseOrder::kCA ? 1 : 0,
        omega.config().num_pes));
    expected.push_back(want);
  }
  ASSERT_GT(max_chunks, 2048u);
  EXPECT_GT(oracle_context.eval_stats().term_bytes, 0u);
  const std::array<std::shared_ptr<const PipelineEvalPlan>, 2> plans = {
      PipelineEvalPlan::obtain(omega, w,
                               two_phase_chain(PhaseOrder::kAC, layer),
                               context),
      PipelineEvalPlan::obtain(omega, w,
                               two_phase_chain(PhaseOrder::kCA, layer),
                               context)};
  for (const char* pass : {"cold", "warm"}) {
    (void)expect_plans_match(plans, cands, expected, pass);
    ASSERT_FALSE(HasFailure());
  }
  const ContextEvalStats stats = context.eval_stats();
  EXPECT_GT(stats.terms, 0u);
  EXPECT_EQ(stats.term_bytes, 0u);
  EXPECT_EQ(stats.pp_pairs, 0u);
}

TEST(EvalCoreSpGeneric, SharesItsTermsWithTheSequentialTwin) {
  // An SP-Generic candidate and the same candidate over an unspilled
  // Sequential boundary derive identical grid-free engine configs: the
  // second resolves both phases from the store without a build.
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  std::size_t checked = 0;
  for (const DataflowDescriptor& spg :
       sp_generic_candidates(w, layer, omega.config().num_pes)) {
    if (checked == 20) break;
    DataflowDescriptor seq = spg;
    seq.inter = InterPhase::kSequential;
    // The oracle's terms would land in the plan's context store: give the
    // oracle a context of its own.
    const WorkloadContext oracle_context(w.adjacency);
    const WorkloadContext context(w.adjacency);
    const EvalOutcome want_spg =
        two_phase_oracle(omega, w, layer, spg, oracle_context);
    const EvalOutcome want_seq =
        two_phase_oracle(omega, w, layer, seq, oracle_context);
    if (!want_spg.ok || !want_seq.ok) continue;
    ++checked;
    SCOPED_TRACE(spg.to_string());
    const std::size_t chain = spg.phase_order == PhaseOrder::kCA ? 1 : 0;
    const auto plan = PipelineEvalPlan::obtain(
        omega, w, two_phase_chain(spg.phase_order, layer), context);
    const std::size_t pes = omega.config().num_pes;
    const PipelineCandidate spg_cand =
        lower_two_phase_candidate(spg, chain, pes);
    const PipelineCandidate seq_cand =
        lower_two_phase_candidate(seq, chain, pes);
    PipelineDeltaState first;
    const EvalOutcome got_spg = plan->evaluate(spg_cand.view(), first);
    EXPECT_EQ(first.tally.builds, 2u);
    PipelineDeltaState second;  // a fresh L1: the store must serve the twin
    const EvalOutcome got_seq = plan->evaluate(seq_cand.view(), second);
    EXPECT_EQ(second.tally.requests, 2u);
    EXPECT_EQ(second.tally.builds, 0u);
    EXPECT_EQ(context.phase_cache_size(), 2u);
    EXPECT_EQ(context.eval_stats().term_builds, 2u);
    EXPECT_EQ(got_spg.cycles, want_spg.cycles);
    EXPECT_EQ(got_spg.on_chip_pj, want_spg.on_chip_pj);
    EXPECT_EQ(got_seq.cycles, want_seq.cycles);
    EXPECT_EQ(got_seq.on_chip_pj, want_seq.on_chip_pj);
    if (HasFailure()) return;
  }
  EXPECT_EQ(checked, 20u);
}

// ---- the PP pair memo ------------------------------------------------------

/// A resolved slot holding a synthetic term with the given timelines.
TermStore::Slot timeline_slot(std::uint64_t id,
                              std::vector<std::uint64_t> completion,
                              std::vector<std::uint64_t> cycles) {
  auto r = std::make_shared<PhaseResult>();
  r->chunk_completion = std::move(completion);
  r->chunk_cycles = std::move(cycles);
  return {.key = synthetic_key(id),
          .term = std::shared_ptr<const PhaseResult>(std::move(r)),
          .valid = true};
}

TEST(PpPairMemo, MatchesTheRecurrenceOnRandomTimelines) {
  // Producers are monotone, non-monotone (completions out of order) or
  // near UINT64_MAX with consumers large enough to saturate the recurrence.
  // Each pair is composed twice (a miss, then a memo hit); pair (i, i - 8)
  // shares pair i's producer and grid but not its consumer.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::mt19937_64 rng(20241020);
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  constexpr std::size_t kPairs = 300;
  std::vector<TermStore::Slot> producers;
  std::vector<TermStore::Slot> consumers;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const std::size_t chunks = 1 + i % 8;
    std::vector<std::uint64_t> completion(chunks);
    std::vector<std::uint64_t> cycles(chunks);
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      switch (i % 3) {
        case 0:
          sum += below(1000);
          completion[c] = sum;
          cycles[c] = below(1000);
          break;
        case 1:
          completion[c] = below(1'000'000);
          cycles[c] = below(1000);
          break;
        default:
          completion[c] = kMax - below(4) * below(1'000'000);
          cycles[c] = (kMax >> below(3)) - below(1000);
          break;
      }
    }
    producers.push_back(timeline_slot(2 * i, completion, {}));
    consumers.push_back(timeline_slot(2 * i + 1, {}, cycles));
  }
  std::size_t saturated = 0;
  TermStore store;
  TermStore::Tally tally;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < kPairs; ++i) {
    for (const std::size_t j : {i, i - 8}) {
      if (j >= kPairs) continue;
      SCOPED_TRACE("pair " + std::to_string(i) + "/" + std::to_string(j));
      const std::uint64_t want = compose_parallel_pipeline(
          producers[i].term->chunk_completion, consumers[j].term->chunk_cycles);
      saturated += want == kMax ? 1 : 0;
      EXPECT_EQ(store.compose_pp(producers[i], consumers[j], tally), want);
      EXPECT_EQ(store.compose_pp(producers[i], consumers[j], tally), want);
      ++pairs;
    }
  }
  EXPECT_GT(saturated, 0u);
  EXPECT_EQ(tally.pp_lookups, 2 * pairs);
  EXPECT_EQ(tally.pp_compositions, pairs);
  EXPECT_EQ(store.pp_compositions(), pairs);
  EXPECT_EQ(store.pp_pairs(), pairs);
}

TEST(TermStoreConcurrency, PairMemoIsExactAndCappedUnderContention) {
  // 8 threads compose the same kPhaseMemoMaxEntries + 300 pairs, each in its
  // own shuffled order, so admissions race each other and the ceiling.
  // Every call returns its pair's exact value; the admitted pairs reach the
  // ceiling and never pass it, and a refused pair is composed on each visit.
  constexpr std::size_t kThreads = 8;
  const std::size_t n = kPhaseMemoMaxEntries + 300;
  std::vector<TermStore::Slot> producers;
  std::vector<TermStore::Slot> consumers;
  for (std::size_t i = 0; i < n; ++i) {
    producers.push_back(timeline_slot(i, {i, i + 1}, {}));
    consumers.push_back(timeline_slot(n + i, {}, {i % 7, 1}));
  }
  const auto want = [](std::size_t i) {
    return std::max<std::uint64_t>(i + 1, i + i % 7) + 1;
  };
  const TermStore store;
  std::vector<TermStore::Tally> tallies(kThreads);
  std::vector<char> wrong(kThreads, 0);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> max_pairs{0};
  std::thread watcher([&] {
    while (!done.load()) {
      const std::size_t p = store.pp_pairs();
      if (p > max_pairs.load()) max_pairs.store(p);
      std::this_thread::yield();
    }
  });
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), std::mt19937_64(t + 1));
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (const std::size_t i : order) {
        if (store.compose_pp(producers[i], consumers[i], tallies[t]) !=
            want(i)) {
          wrong[t] = 1;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  done.store(true);
  watcher.join();

  EXPECT_EQ(std::count(wrong.begin(), wrong.end(), 1), 0);
  EXPECT_LE(max_pairs.load(), kPhaseMemoMaxEntries);
  EXPECT_EQ(store.pp_pairs(), kPhaseMemoMaxEntries);
  std::uint64_t lookups = 0;
  std::uint64_t compositions = 0;
  for (const TermStore::Tally& t : tallies) {
    lookups += t.pp_lookups;
    compositions += t.pp_compositions;
  }
  EXPECT_EQ(lookups, kThreads * n);
  EXPECT_EQ(compositions, store.pp_compositions());
  EXPECT_GE(compositions,
            kPhaseMemoMaxEntries + kThreads * (n - kPhaseMemoMaxEntries));
}

TEST(TermStoreConcurrency, SweepTermCountersIndependentOfThreads) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  std::optional<ContextEvalStats> first;
  std::optional<EvalStats> first_eval;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const WorkloadContext context(w.adjacency);
    SearchOptions so;
    so.max_candidates = 512;
    so.include_ca = true;
    so.threads = threads;
    const SearchResult r = search_mappings(omega, w, layer, so, &context);
    const ContextEvalStats stats = context.eval_stats();
    EXPECT_EQ(stats.term_builds, r.eval.term_builds);
    EXPECT_EQ(stats.term_requests, r.eval.term_requests);
    if (!first) {
      first = stats;
      first_eval = r.eval;
      ASSERT_GT(stats.terms, 0u);
      continue;
    }
    EXPECT_EQ(stats.terms, first->terms);
    EXPECT_EQ(stats.term_builds, first->term_builds);
    EXPECT_EQ(r.eval.term_requests, first_eval->term_requests);
  }
}


// ---- one term store per context --------------------------------------------

TEST(ContextTermStore, SparseWeightTermsOfTwoChainsDoNotAlias) {
  // Two chains whose sparse-weight phase sits at the same position and
  // differs only in density share one context, hence one store: their W^T
  // terms must be keyed by the pattern they walk, not by chain position.
  // Both plans and both chains' run_pipeline calls resolve through that
  // store; each must match the context-free oracle.
  const GnnWorkload w = fuzz_workload();
  const Omega omega(small_hw());
  const WorkloadContext gen_context(w.adjacency);
  const WorkloadContext context(w.adjacency);
  PipelineChainSpec dense_w = gat_chain();
  dense_w.phases[2].weight_density = 0.5;
  PipelineChainSpec sparse_w = dense_w;
  sparse_w.phases[2].weight_density = 0.1;

  PipelineSearchOptions gen;
  gen.max_candidates = 256;
  gen.top_k = 256;
  gen.eval_path = EvalPath::kScalar;
  std::vector<PipelineCandidate> cands;
  for (const RankedPipelineCandidate& rc :
       search_pipeline_mappings(omega, w, dense_w, gen, &gen_context)
           .ranked) {
    cands.push_back(rc.candidate);
  }
  ASSERT_GT(cands.size(), 100u);

  const std::array<PipelineChainSpec, 2> chains = {dense_w, sparse_w};
  const auto run = [&](std::size_t c, const PipelineCandidate& cand,
                       const WorkloadContext* ctx) {
    EvalOutcome o;
    try {
      const PipelineResult r =
          omega.run_pipeline(w, chains[c].bind(cand.view()), ctx);
      o = {r.cycles, r.energy.on_chip_pj(), true};
    } catch (const Error&) {
    }
    return o;
  };
  std::array<std::vector<EvalOutcome>, 2> want;
  std::array<std::shared_ptr<const PipelineEvalPlan>, 2> plans;
  for (std::size_t c = 0; c < 2; ++c) {
    for (const PipelineCandidate& cand : cands) {
      want[c].push_back(run(c, cand, nullptr));
    }
    plans[c] = PipelineEvalPlan::obtain(omega, w, chains[c], context);
  }
  std::size_t differ = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (want[0][i].cycles != want[1][i].cycles) ++differ;
  }
  ASSERT_GT(differ, 0u) << "the densities must price some binding apart";

  std::array<PipelineDeltaState, 2> states;
  for (const char* pass : {"cold", "warm"}) {
    for (std::size_t i = 0; i < cands.size(); ++i) {
      for (std::size_t c = 0; c < 2; ++c) {
        SCOPED_TRACE(cands[i].key() + " density " +
                     std::to_string(chains[c].phases[2].weight_density) +
                     " (" + pass + " pass)");
        for (const EvalOutcome& got :
             {plans[c]->evaluate(cands[i].view(), states[c]),
              run(c, cands[i], &context)}) {
          EXPECT_EQ(got.ok, want[c][i].ok);
          EXPECT_EQ(got.cycles, want[c][i].cycles);
          EXPECT_EQ(got.on_chip_pj, want[c][i].on_chip_pj);
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST(ContextTermStore, BigGridRunPathIsCachedAndExact) {
  // A PP descriptor on 4096 vertices with a grid of more than 2048 chunks:
  // Omega::run with a context resolves both phases through the store,
  // bit-identical to the context-free run, and a revisit builds nothing.
  Rng rng(31);
  GnnWorkload w;
  w.name = "pp-big";
  w.adjacency = rmat(12, 16384, rng).with_self_loops().gcn_normalized();
  w.in_features = 16;
  const LayerSpec layer{8};
  const Omega omega(small_hw());
  SearchOptions gen;
  gen.include_ca = true;
  std::optional<DataflowDescriptor> pick;
  RunResult fresh;
  for (const DataflowDescriptor& df : enumerate_search_candidates(
           gen, dims_of(w, layer), omega.config().num_pes)) {
    if (df.inter != InterPhase::kParallelPipeline) continue;
    try {
      fresh = omega.run(w, layer, df);
    } catch (const Error&) {
      continue;
    }
    if (fresh.pipeline_chunks > 2048) {
      pick = df;
      break;
    }
  }
  ASSERT_TRUE(pick.has_value());
  SCOPED_TRACE(pick->to_string());

  const WorkloadContext context(w.adjacency);
  const RunResult cold = omega.run(w, layer, *pick, context);
  const ContextEvalStats after_cold = context.eval_stats();
  const RunResult warm = omega.run(w, layer, *pick, context);
  const ContextEvalStats after_warm = context.eval_stats();
  for (const RunResult* r : {&cold, &warm}) {
    EXPECT_EQ(r->cycles, fresh.cycles);
    EXPECT_EQ(r->energy.on_chip_pj(), fresh.energy.on_chip_pj());
    EXPECT_EQ(r->traffic.gb_total(), fresh.traffic.gb_total());
    EXPECT_EQ(r->traffic.rf.total(), fresh.traffic.rf.total());
    EXPECT_EQ(r->agg.chunk_cycles, fresh.agg.chunk_cycles);
    EXPECT_EQ(r->agg.chunk_completion, fresh.agg.chunk_completion);
    EXPECT_EQ(r->cmb.chunk_cycles, fresh.cmb.chunk_cycles);
    EXPECT_EQ(r->cmb.chunk_completion, fresh.cmb.chunk_completion);
  }
  EXPECT_EQ(after_cold.terms, 2u);
  EXPECT_EQ(after_cold.term_builds, 2u);
  EXPECT_EQ(after_cold.term_bytes, 2 * fresh.pipeline_chunks * 16);
  EXPECT_EQ(after_warm.term_requests, 4u);
  EXPECT_EQ(after_warm.term_builds, 2u);
}

TEST(ContextTermStore, InfeasibleConfigRethrowsTheEngineError) {
  // PP at a 10% aggregation share leaves the aggregation phase too few PEs
  // for a tiling the whole array fits: the engine's validate rejects it.
  // Through a context the store caches the rejection as a null term, and
  // the first call and every revisit throw the engine's own message.
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  SearchOptions gen;
  gen.include_ca = true;
  const auto message = [&](const DataflowDescriptor& df,
                           const WorkloadContext* context) -> std::string {
    try {
      if (context == nullptr) {
        (void)omega.run(w, layer, df);
      } else {
        (void)omega.run(w, layer, df, *context);
      }
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  std::optional<DataflowDescriptor> pick;
  std::string want;
  for (DataflowDescriptor df : enumerate_search_candidates(
           gen, dims_of(w, layer), omega.config().num_pes)) {
    if (df.inter != InterPhase::kParallelPipeline) continue;
    df.pp_agg_pe_fraction = 0.1;
    want = message(df, nullptr);
    if (want.find("spatial tile footprint") != std::string::npos) {
      pick = df;
      break;
    }
  }
  ASSERT_TRUE(pick.has_value());
  SCOPED_TRACE(pick->to_string());

  const WorkloadContext context(w.adjacency);
  EXPECT_EQ(message(*pick, &context), want);
  const ContextEvalStats first = context.eval_stats();
  EXPECT_GT(first.terms, 0u);  // the rejection is cached
  EXPECT_EQ(message(*pick, &context), want);
  EXPECT_EQ(context.eval_stats().term_builds, first.term_builds);
}

}  // namespace
}  // namespace omega
