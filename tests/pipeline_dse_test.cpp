// Pipeline-space DSE tests (dse/pipeline_search.hpp): the two-phase adapter
// contract (search_mappings == search_pipeline_mappings on classic chains,
// bit-identical), Table V seeds never losing to the searched best, lossless
// EDP pruning, thread-count determinism on a 3-phase chain, and the
// phase/boundary-indexed validation messages the searcher relies on; the
// counted candidate space (pinned populations, random-access decode, an
// O(budget) capped search, checked sizes) and per-sweep eval counters; the
// rank stage against a verbatim copy of its key-per-candidate predecessor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dse/candidate_space.hpp"
#include "dse/pipeline_search.hpp"
#include "engine/eval_core.hpp"
#include "engine/schedule_cache.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace omega {
namespace {

GnnWorkload toy_workload() {
  Rng rng(42);
  GnnWorkload w;
  w.name = "pdse-toy";
  w.adjacency = erdos_renyi(80, 400, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

/// A 3-phase GAT-style chain: dense score head, sparse aggregation, and a
/// half-dense sparse-weight output transform.
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

using Entry = std::tuple<std::string, std::uint64_t, double, double>;

std::vector<Entry> entries_of(const std::vector<Candidate>& v) {
  std::vector<Entry> out;
  out.reserve(v.size());
  for (const Candidate& c : v) {
    out.emplace_back(c.dataflow.to_string(), c.cycles, c.on_chip_pj, c.score);
  }
  return out;
}

std::vector<Entry> entries_of(const std::vector<RankedPipelineCandidate>& v) {
  std::vector<Entry> out;
  out.reserve(v.size());
  for (const RankedPipelineCandidate& c : v) {
    out.emplace_back(c.key, c.cycles, c.on_chip_pj, c.score);
  }
  return out;
}

/// Mirrors the adapter's chain construction so the direct N-phase call can
/// be compared against search_mappings.
std::vector<PipelineChainSpec> classic_chains(const LayerSpec& layer,
                                              bool include_ca) {
  DataflowDescriptor probe;
  probe.inter = InterPhase::kSequential;
  probe.phase_order = PhaseOrder::kAC;
  probe.agg.phase = GnnPhase::kAggregation;
  probe.agg.order = LoopOrder(Dim::kV, Dim::kN, Dim::kF);
  probe.cmb.phase = GnnPhase::kCombination;
  probe.cmb.order = LoopOrder(Dim::kV, Dim::kF, Dim::kG);
  std::vector<PipelineChainSpec> chains;
  chains.push_back(PipelineChainSpec::of(two_phase_pipeline(probe, layer)));
  if (include_ca) {
    probe.phase_order = PhaseOrder::kCA;
    chains.push_back(PipelineChainSpec::of(two_phase_pipeline(probe, layer)));
  }
  return chains;
}

TEST(PipelineAdapterTest, TwoPhaseParityRankedAndPareto) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const LayerSpec layer{8};

  for (const bool prune : {false, true}) {
    SearchOptions legacy;
    legacy.max_candidates = 300;
    legacy.top_k = 8;
    legacy.include_ca = true;
    legacy.prune = prune;
    const SearchResult lr = search_mappings(omega, w, layer, legacy);

    PipelineSearchOptions popt;
    popt.max_candidates = 300;
    popt.top_k = 8;
    popt.prune = prune;  // runtime objective: adapter passes prune through
    popt.seed_table5 = false;
    const PipelineSearchResult pr = search_pipeline_mappings(
        omega, w, classic_chains(layer, true), popt);

    EXPECT_EQ(lr.generated, pr.generated);
    EXPECT_EQ(lr.evaluated, pr.evaluated);
    EXPECT_EQ(lr.pruned, pr.pruned);
    EXPECT_EQ(entries_of(lr.ranked), entries_of(pr.ranked));
    EXPECT_EQ(entries_of(lr.pareto), entries_of(pr.pareto));
    // Classic-chain candidates carry the lowered legacy descriptor, and the
    // ranking key is exactly its notation.
    for (const RankedPipelineCandidate& rc : pr.ranked) {
      ASSERT_TRUE(rc.candidate.legacy.has_value());
      EXPECT_EQ(rc.key, rc.candidate.legacy->to_string());
    }
  }
}

TEST(PipelineSeedTest, Table5SeedsNeverBeatSearchedBest) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  const std::vector<PipelineCandidate> seeds =
      table5_pipeline_seeds(omega, w, chain, 0);
  ASSERT_FALSE(seeds.empty());

  PipelineSearchOptions opt;
  opt.max_candidates = 400;
  opt.seed_table5 = true;
  const PipelineSearchResult r = search_pipeline_mappings(omega, w, chain, opt);
  ASSERT_FALSE(r.ranked.empty());

  // Every seed is a valid binding the evaluator accepts, and none scores
  // better than the searched best (they ride inside the same sweep).
  for (const PipelineCandidate& seed : seeds) {
    const PipelineResult pr = omega.run_pipeline(w, chain.bind(seed.view()));
    EXPECT_LE(r.best().score, static_cast<double>(pr.cycles));
  }
}

TEST(PipelinePruneTest, EdpPruningIsLossless) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  PipelineSearchOptions opt;
  opt.objective = Objective::kEnergyDelayProduct;
  opt.max_candidates = 400;
  const PipelineSearchResult full = search_pipeline_mappings(omega, w, chain,
                                                             opt);
  opt.prune = true;
  const PipelineSearchResult pruned = search_pipeline_mappings(omega, w, chain,
                                                               opt);
  ASSERT_FALSE(full.ranked.empty());
  ASSERT_FALSE(pruned.ranked.empty());
  EXPECT_EQ(full.best().key, pruned.best().key);
  EXPECT_EQ(full.best().cycles, pruned.best().cycles);
  EXPECT_EQ(full.best().on_chip_pj, pruned.best().on_chip_pj);
  EXPECT_EQ(full.best().score, pruned.best().score);
  // The cull must never increase the work.
  EXPECT_LE(pruned.evaluated, full.evaluated);
  EXPECT_EQ(pruned.evaluated + pruned.pruned, full.evaluated);
}

TEST(PipelinePruneTest, EnergyPruningIsLossless) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  PipelineSearchOptions opt;
  opt.objective = Objective::kEnergy;
  opt.max_candidates = 400;
  const PipelineSearchResult full = search_pipeline_mappings(omega, w, chain,
                                                             opt);
  opt.prune = true;
  const PipelineSearchResult pruned = search_pipeline_mappings(omega, w, chain,
                                                               opt);
  ASSERT_FALSE(pruned.ranked.empty());
  EXPECT_EQ(full.best().key, pruned.best().key);
  EXPECT_EQ(full.best().score, pruned.best().score);
}

TEST(PipelineSearchTest, DeterministicAcrossThreadCounts) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  PipelineSearchOptions opt;
  opt.max_candidates = 300;
  opt.prune = true;
  opt.threads = 1;
  const PipelineSearchResult one = search_pipeline_mappings(omega, w, chain,
                                                            opt);
  opt.threads = 4;
  const PipelineSearchResult four = search_pipeline_mappings(omega, w, chain,
                                                             opt);
  EXPECT_EQ(one.generated, four.generated);
  EXPECT_EQ(one.evaluated, four.evaluated);
  EXPECT_EQ(one.pruned, four.pruned);
  EXPECT_EQ(entries_of(one.ranked), entries_of(four.ranked));
  EXPECT_EQ(entries_of(one.pareto), entries_of(four.pareto));
  // Term counters are per-candidate sums, independent of the block layout.
  EXPECT_EQ(one.eval.term_requests, four.eval.term_requests);
  EXPECT_EQ(one.eval.term_builds, four.eval.term_builds);
}

TEST(PipelineValidationTest, ErrorsNameTheOffendingPhase) {
  // A sparse-dense phase is width-preserving: out_features must stay 0, and
  // the chain error says which phase got it wrong.
  PipelineChainSpec chain = gat_chain();
  chain.phases[1].out_features = 5;
  const auto err = chain.chain_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("phase 1"), std::string::npos) << *err;

  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  EXPECT_THROW(
      (void)search_pipeline_mappings(omega, toy_workload(), chain, {}),
      Error);
}

TEST(PipelineValidationTest, ErrorsNameTheOffendingBoundary) {
  // Adjacent chunked boundaries are inadmissible; a hand-built spec that
  // violates the rule reports the phase/boundary index.
  const GnnWorkload w = toy_workload();
  PipelineChainSpec chain;
  chain.phases = {{.name = "a",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "b", .engine = PhaseEngine::kSparseDense},
                  {.name = "c",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 8}};
  std::vector<IntraPhaseDataflow> phases{
      {.phase = GnnPhase::kCombination,
       .order = LoopOrder(Dim::kV, Dim::kF, Dim::kG)},
      {.phase = GnnPhase::kAggregation,
       .order = LoopOrder(Dim::kV, Dim::kN, Dim::kF)},
      {.phase = GnnPhase::kCombination,
       .order = LoopOrder(Dim::kV, Dim::kF, Dim::kG)}};
  std::vector<InterPhase> bounds{InterPhase::kSPGeneric,
                                 InterPhase::kSPGeneric};
  const PipelineSpec spec =
      chain.bind({phases, bounds, std::span<const double>{}});
  const auto err = spec.validation_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_TRUE(err->find("phase 1") != std::string::npos ||
              err->find("boundary") != std::string::npos)
      << *err;
}

TEST(PipelineSearchTest, ConcurrentSweepsReportTheirOwnTermCounters) {
  // Two sweeps sharing one context (and so one eval plan and term store)
  // each report exactly their own term lookups, as if run alone.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();
  PipelineSearchOptions opt;
  opt.max_candidates = 400;
  opt.threads = 2;

  const WorkloadContext cold_solo_ctx(w.adjacency);
  const PipelineSearchResult cold =
      search_pipeline_mappings(omega, w, chain, opt, &cold_solo_ctx);
  const PipelineSearchResult warm =
      search_pipeline_mappings(omega, w, chain, opt, &cold_solo_ctx);
  ASSERT_GT(cold.eval.term_builds, 0u);
  ASSERT_GT(warm.eval.term_requests, 0u);
  EXPECT_EQ(warm.eval.term_builds, 0u);

  const auto race = [&](const WorkloadContext& ctx) {
    std::vector<PipelineSearchResult> r(2);
    std::thread a([&] { r[0] = search_pipeline_mappings(omega, w, chain, opt,
                                                         &ctx); });
    std::thread b([&] { r[1] = search_pipeline_mappings(omega, w, chain, opt,
                                                         &ctx); });
    a.join();
    b.join();
    return r;
  };
  // Warm context: both report the solo warm counts.
  for (int round = 0; round < 3; ++round) {
    for (const PipelineSearchResult& r : race(cold_solo_ctx)) {
      EXPECT_EQ(r.eval.term_requests, warm.eval.term_requests);
      EXPECT_EQ(r.eval.term_builds, warm.eval.term_builds);
      EXPECT_EQ(entries_of(r.ranked), entries_of(warm.ranked));
    }
  }
  // Cold context: each term is built once, by whichever sweep got there
  // first, so the builds split between the two and sum to the solo count.
  const WorkloadContext fresh(w.adjacency);
  const std::vector<PipelineSearchResult> both = race(fresh);
  EXPECT_EQ(both[0].eval.term_requests, cold.eval.term_requests);
  EXPECT_EQ(both[1].eval.term_requests, cold.eval.term_requests);
  EXPECT_EQ(both[0].eval.term_builds + both[1].eval.term_builds,
            cold.eval.term_builds);
}

TEST(PipelineSearchTest, WarmRepeatRunsNoTermBuildOrPpRecurrence) {
  // A repeat on a warm context resolves every phase term from the term
  // store and every PP segment from the pair memo, at any thread count,
  // and returns the cold search's ranked and Pareto sets.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();
  const LayerSpec layer{16};
  std::optional<std::vector<Entry>> first_ranked;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const WorkloadContext context(w.adjacency);
    PipelineSearchOptions opt;
    opt.max_candidates = 600;
    opt.threads = threads;
    const PipelineSearchResult cold =
        search_pipeline_mappings(omega, w, chain, opt, &context);
    const PipelineSearchResult warm =
        search_pipeline_mappings(omega, w, chain, opt, &context);
    ASSERT_GT(cold.eval.pp_lookups, 0u);
    EXPECT_GT(cold.eval.pp_compositions, 0u);
    EXPECT_EQ(warm.eval.term_requests, cold.eval.term_requests);
    EXPECT_EQ(warm.eval.term_builds, 0u);
    EXPECT_EQ(warm.eval.pp_lookups, cold.eval.pp_lookups);
    EXPECT_EQ(warm.eval.pp_compositions, 0u);
    EXPECT_EQ(entries_of(warm.ranked), entries_of(cold.ranked));
    EXPECT_EQ(entries_of(warm.pareto), entries_of(cold.pareto));
    if (!first_ranked) first_ranked = entries_of(cold.ranked);
    EXPECT_EQ(entries_of(cold.ranked), *first_ranked);

    SearchOptions so;
    so.include_ca = true;
    so.max_candidates = 600;
    so.threads = threads;
    const SearchResult two_cold =
        search_mappings(omega, w, layer, so, &context);
    const SearchResult two_warm =
        search_mappings(omega, w, layer, so, &context);
    ASSERT_GT(two_cold.eval.pp_lookups, 0u);
    EXPECT_EQ(two_warm.eval.term_builds, 0u);
    EXPECT_EQ(two_warm.eval.pp_compositions, 0u);
    EXPECT_EQ(entries_of(two_warm.ranked), entries_of(two_cold.ranked));
    EXPECT_EQ(entries_of(two_warm.pareto), entries_of(two_cold.pareto));
  }
}

// ---- the counted candidate space -------------------------------------------

GnnWorkload parity_workload() {
  Rng rng(7);
  GnnWorkload w;
  w.name = "space-parity";
  w.adjacency = erdos_renyi(16, 40, rng).with_self_loops().gcn_normalized();
  w.in_features = 4;
  return w;
}

/// The chains the parity matrix covers: classic AC and CA, a GAT-style
/// 3-phase chain, a 3-phase chain admitting SP-Optimized at both boundaries
/// (no binding holds it at two adjacent boundaries: the middle phase cannot
/// keep both its contraction and its streamed dim innermost), and a 4-phase
/// two-layer GCN whose boundaries 0 and 2 can be SP-Optimized together.
PipelineChainSpec parity_chain(const std::string& name) {
  const LayerSpec layer{4};
  if (name == "AC") return two_phase_chain(PhaseOrder::kAC, layer);
  if (name == "CA") return two_phase_chain(PhaseOrder::kCA, layer);
  PipelineChainSpec c;
  if (name == "GAT") {
    c.phases = {{.name = "score",
                 .engine = PhaseEngine::kDenseDense,
                 .out_features = 4},
                {.name = "agg", .engine = PhaseEngine::kSparseDense},
                {.name = "xform",
                 .engine = PhaseEngine::kSparseSparse,
                 .out_features = 2,
                 .weight_density = 0.5}};
  } else if (name == "SPO2") {
    c.phases = {{.name = "cmb1",
                 .engine = PhaseEngine::kDenseDense,
                 .out_features = 4},
                {.name = "agg", .engine = PhaseEngine::kSparseDense},
                {.name = "cmb2",
                 .engine = PhaseEngine::kDenseDense,
                 .out_features = 2}};
  } else {
    c.phases = {{.name = "agg1", .engine = PhaseEngine::kSparseDense},
                {.name = "cmb1",
                 .engine = PhaseEngine::kDenseDense,
                 .out_features = 4},
                {.name = "agg2", .engine = PhaseEngine::kSparseDense},
                {.name = "cmb2",
                 .engine = PhaseEngine::kDenseDense,
                 .out_features = 2}};
  }
  return c;
}

PipelineSearchOptions parity_options(const std::string& variant) {
  PipelineSearchOptions o;
  if (variant == "no_seq") o.include_seq = false;
  if (variant == "no_spg") o.include_sp_generic = false;
  if (variant == "no_spo") o.include_sp_optimized = false;
  if (variant == "no_pp") o.include_pp = false;
  if (variant == "pp_half") o.pp_fractions = {0.5};
  if (variant == "pp_none") o.pp_fractions = {};
  if (variant == "util0") o.min_static_utilization = 0.0;
  if (variant == "util1") o.min_static_utilization = 1.0;
  // Duplicates and an out-of-range fraction: classic chains keep them as
  // given (1.5 validates to an empty block), general chains drop 1.5.
  if (variant == "pp_odd") o.pp_fractions = {0.75, 1.5, 0.25, 0.25};
  return o;
}

/// FNV-1a over every key() in order, each followed by a newline.
std::uint64_t key_digest(const std::vector<PipelineCandidate>& cands) {
  std::uint64_t h = 1469598103934665603ull;
  for (const PipelineCandidate& c : cands) {
    for (const unsigned char ch : c.key() + "\n") {
      h ^= ch;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(CandidateSpaceTest, MatchesThePinnedWalkerPopulations) {
  // (size, key digest) of every population as the historic enumerators
  // (legacy two-phase enumerator, two-pass N-phase walker) produced it.
  struct Row {
    const char* chain;
    std::size_t pes;
    const char* variant;
    std::size_t size;
    std::uint64_t digest;
  };
  static const Row kRows[] = {
      {"AC", 1, "default", 46u, 0x63edc296d4173347ull},
      {"AC", 1, "no_seq", 10u, 0xe2462fd0f89bde37ull},
      {"AC", 1, "no_spg", 38u, 0x6cb0bf185107118full},
      {"AC", 1, "no_spo", 44u, 0xf1fbd08c35a9226bull},
      {"AC", 1, "no_pp", 46u, 0x63edc296d4173347ull},
      {"AC", 1, "pp_half", 46u, 0x63edc296d4173347ull},
      {"AC", 1, "pp_none", 46u, 0x63edc296d4173347ull},
      {"AC", 1, "util0", 46u, 0x63edc296d4173347ull},
      {"AC", 1, "util1", 46u, 0x63edc296d4173347ull},
      {"AC", 1, "pp_odd", 46u, 0x63edc296d4173347ull},
      {"AC", 2, "default", 424u, 0xf08aecab31b81dbbull},
      {"AC", 2, "no_seq", 100u, 0xb0e2dba8d85be6fbull},
      {"AC", 2, "no_spg", 352u, 0x89d6ade8ab2dcefbull},
      {"AC", 2, "no_spo", 420u, 0x2feaaaa0e2a8b243ull},
      {"AC", 2, "no_pp", 400u, 0x3e2ccf4a6137b753ull},
      {"AC", 2, "pp_half", 408u, 0xd56afa19059085fbull},
      {"AC", 2, "pp_none", 400u, 0x3e2ccf4a6137b753ull},
      {"AC", 2, "util0", 424u, 0xf08aecab31b81dbbull},
      {"AC", 2, "util1", 424u, 0xf08aecab31b81dbbull},
      {"AC", 2, "pp_odd", 424u, 0xf08aecab31b81dbbull},
      {"AC", 16, "default", 5754u, 0x644204b47dba6fd7ull},
      {"AC", 16, "no_seq", 2190u, 0xeb5db7b1c572b9b7ull},
      {"AC", 16, "no_spg", 4962u, 0x94a76345c25046c7ull},
      {"AC", 16, "no_spo", 5748u, 0xe514bace47165b0bull},
      {"AC", 16, "no_pp", 4362u, 0x00d49f86bb27ebd7ull},
      {"AC", 16, "pp_half", 4938u, 0xb88beea1077dc57full},
      {"AC", 16, "pp_none", 4362u, 0x00d49f86bb27ebd7ull},
      {"AC", 16, "util0", 5754u, 0x644204b47dba6fd7ull},
      {"AC", 16, "util1", 4938u, 0xb88beea1077dc57full},
      {"AC", 16, "pp_odd", 5562u, 0x7a6983e0c6a4c52full},
      {"AC", 256, "default", 780u, 0x9ec525d42089f6dbull},
      {"AC", 256, "no_seq", 672u, 0x5c8367dd187a645bull},
      {"AC", 256, "no_spg", 756u, 0x3b704ddfc991100bull},
      {"AC", 256, "no_spo", 780u, 0x9ec525d42089f6dbull},
      {"AC", 256, "no_pp", 132u, 0xa509a645368b746bull},
      {"AC", 256, "pp_half", 276u, 0xa4208c4afab0de73ull},
      {"AC", 256, "pp_none", 132u, 0xa509a645368b746bull},
      {"AC", 256, "util0", 780u, 0x9ec525d42089f6dbull},
      {"AC", 256, "util1", 276u, 0xa4208c4afab0de73ull},
      {"AC", 256, "pp_odd", 852u, 0x03c23e8ddbe2f24bull},
      {"CA", 1, "default", 46u, 0x49c228dfe4588c8full},
      {"CA", 1, "no_seq", 10u, 0xf1ceaee9d29e7ccfull},
      {"CA", 1, "no_spg", 38u, 0xd2b1bb5d146524ffull},
      {"CA", 1, "no_spo", 44u, 0x4991da7c2aa0f6d3ull},
      {"CA", 1, "no_pp", 46u, 0x49c228dfe4588c8full},
      {"CA", 1, "pp_half", 46u, 0x49c228dfe4588c8full},
      {"CA", 1, "pp_none", 46u, 0x49c228dfe4588c8full},
      {"CA", 1, "util0", 46u, 0x49c228dfe4588c8full},
      {"CA", 1, "util1", 46u, 0x49c228dfe4588c8full},
      {"CA", 1, "pp_odd", 46u, 0x49c228dfe4588c8full},
      {"CA", 2, "default", 420u, 0xe2821f4131c8a103ull},
      {"CA", 2, "no_seq", 96u, 0x11103ae46b92ce33ull},
      {"CA", 2, "no_spg", 348u, 0x599243c915b4d583ull},
      {"CA", 2, "no_spo", 420u, 0xe2821f4131c8a103ull},
      {"CA", 2, "no_pp", 396u, 0x23b93140666c0af3ull},
      {"CA", 2, "pp_half", 404u, 0xf1297e4ad86b24f3ull},
      {"CA", 2, "pp_none", 396u, 0x23b93140666c0af3ull},
      {"CA", 2, "util0", 420u, 0xe2821f4131c8a103ull},
      {"CA", 2, "util1", 420u, 0xe2821f4131c8a103ull},
      {"CA", 2, "pp_odd", 420u, 0xe2821f4131c8a103ull},
      {"CA", 16, "default", 5748u, 0xd3c32ca64ae93f3bull},
      {"CA", 16, "no_seq", 2184u, 0xd5615c5da781c05bull},
      {"CA", 16, "no_spg", 4956u, 0xdca451f84138191bull},
      {"CA", 16, "no_spo", 5748u, 0xd3c32ca64ae93f3bull},
      {"CA", 16, "no_pp", 4356u, 0x1f305fd0e01f65ebull},
      {"CA", 16, "pp_half", 4932u, 0xba22a09424717c83ull},
      {"CA", 16, "pp_none", 4356u, 0x1f305fd0e01f65ebull},
      {"CA", 16, "util0", 5748u, 0xd3c32ca64ae93f3bull},
      {"CA", 16, "util1", 4932u, 0xba22a09424717c83ull},
      {"CA", 16, "pp_odd", 5556u, 0xef09778ace2abf83ull},
      {"CA", 256, "default", 780u, 0xacdcf9d1a87aa4f3ull},
      {"CA", 256, "no_seq", 672u, 0xc41574297840c8c3ull},
      {"CA", 256, "no_spg", 756u, 0xc8ba5c6a83cffdd3ull},
      {"CA", 256, "no_spo", 780u, 0xacdcf9d1a87aa4f3ull},
      {"CA", 256, "no_pp", 132u, 0x4a7a37b6a428d3f3ull},
      {"CA", 256, "pp_half", 276u, 0x986299d73cc912c3ull},
      {"CA", 256, "pp_none", 132u, 0x4a7a37b6a428d3f3ull},
      {"CA", 256, "util0", 780u, 0xacdcf9d1a87aa4f3ull},
      {"CA", 256, "util1", 276u, 0x986299d73cc912c3ull},
      {"CA", 256, "pp_odd", 852u, 0x8b46687c2a0f1dc3ull},
      {"GAT", 1, "default", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 1, "no_seq", 0u, 0x14650fb0739d0383ull},
      {"GAT", 1, "no_spg", 114u, 0xf2f29a4e5c201d01ull},
      {"GAT", 1, "no_spo", 132u, 0x616f19c11f627053ull},
      {"GAT", 1, "no_pp", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 1, "pp_half", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 1, "pp_none", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 1, "util0", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 1, "util1", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 1, "pp_odd", 138u, 0x0ba904cdcaf18549ull},
      {"GAT", 2, "default", 3816u, 0x76b8e24f85129a8bull},
      {"GAT", 2, "no_seq", 0u, 0x14650fb0739d0383ull},
      {"GAT", 2, "no_spg", 3168u, 0x29a1a97a9454d1dbull},
      {"GAT", 2, "no_spo", 3780u, 0xfb239ebad9eeefa3ull},
      {"GAT", 2, "no_pp", 3600u, 0xe6c3b7f20eeaeecbull},
      {"GAT", 2, "pp_half", 3672u, 0x80596b605e90a59bull},
      {"GAT", 2, "pp_none", 3600u, 0xe6c3b7f20eeaeecbull},
      {"GAT", 2, "util0", 3816u, 0x76b8e24f85129a8bull},
      {"GAT", 2, "util1", 3816u, 0x76b8e24f85129a8bull},
      {"GAT", 2, "pp_odd", 3816u, 0xb0ea1fe764c6ecf3ull},
      {"GAT", 16, "default", 103572u, 0xb94b8d9ab9df6283ull},
      {"GAT", 16, "no_seq", 0u, 0x14650fb0739d0383ull},
      {"GAT", 16, "no_spg", 89316u, 0x29a71d281b599973ull},
      {"GAT", 16, "no_spo", 103464u, 0x1aa76c01f70c6393ull},
      {"GAT", 16, "no_pp", 78516u, 0xdbf41a6a2a4a7f53ull},
      {"GAT", 16, "pp_half", 88884u, 0x4fbb7f9e11af6343ull},
      {"GAT", 16, "pp_none", 78516u, 0xdbf41a6a2a4a7f53ull},
      {"GAT", 16, "util0", 103572u, 0xb94b8d9ab9df6283ull},
      {"GAT", 16, "util1", 88884u, 0x4fbb7f9e11af6343ull},
      {"GAT", 16, "pp_odd", 100980u, 0x76bc0fc8257d4b23ull},
      {"GAT", 256, "default", 2340u, 0x7428ba17069b1343ull},
      {"GAT", 256, "no_seq", 0u, 0x14650fb0739d0383ull},
      {"GAT", 256, "no_spg", 2268u, 0x5613c05134019d33ull},
      {"GAT", 256, "no_spo", 2340u, 0x7428ba17069b1343ull},
      {"GAT", 256, "no_pp", 396u, 0x781a87356d76bf83ull},
      {"GAT", 256, "pp_half", 828u, 0x8e8335ae12a784e3ull},
      {"GAT", 256, "pp_none", 396u, 0x781a87356d76bf83ull},
      {"GAT", 256, "util0", 2340u, 0x7428ba17069b1343ull},
      {"GAT", 256, "util1", 828u, 0x8e8335ae12a784e3ull},
      {"GAT", 256, "pp_odd", 2772u, 0x3dfdb5dc66e02933ull},
      {"SPO2", 1, "default", 340u, 0x58f22f588abec743ull},
      {"SPO2", 1, "no_seq", 4u, 0x44a4b04be926b82bull},
      {"SPO2", 1, "no_spg", 240u, 0xd24c0d46246fe30bull},
      {"SPO2", 1, "no_spo", 312u, 0x7e606c1f8f4c90b3ull},
      {"SPO2", 1, "no_pp", 340u, 0x58f22f588abec743ull},
      {"SPO2", 1, "pp_half", 340u, 0x58f22f588abec743ull},
      {"SPO2", 1, "pp_none", 340u, 0x58f22f588abec743ull},
      {"SPO2", 1, "util0", 340u, 0x58f22f588abec743ull},
      {"SPO2", 1, "util1", 340u, 0x58f22f588abec743ull},
      {"SPO2", 1, "pp_odd", 340u, 0x58f22f588abec743ull},
      {"SPO2", 2, "default", 9462u, 0xd8d066d2db42ee05ull},
      {"SPO2", 2, "no_seq", 30u, 0x03bbf963a6ff1365ull},
      {"SPO2", 2, "no_spg", 6846u, 0xd0ea262874ee2dfdull},
      {"SPO2", 2, "no_spo", 9288u, 0x4870e59df87efb23ull},
      {"SPO2", 2, "no_pp", 8592u, 0x16274118b79d4dabull},
      {"SPO2", 2, "pp_half", 8882u, 0xe3f008f31aeb862bull},
      {"SPO2", 2, "pp_none", 8592u, 0x16274118b79d4dabull},
      {"SPO2", 2, "util0", 9462u, 0xd8d066d2db42ee05ull},
      {"SPO2", 2, "util1", 9462u, 0xd8d066d2db42ee05ull},
      {"SPO2", 2, "pp_odd", 9462u, 0xa32b0ab07eb4022dull},
      {"SPO2", 16, "default", 294522u, 0x692a9560b3b3cbcbull},
      {"SPO2", 16, "no_seq", 222u, 0xf9d21f6cc0bbf407ull},
      {"SPO2", 16, "no_spg", 237408u, 0x638ba5da5545d0dfull},
      {"SPO2", 16, "no_spo", 293760u, 0x4495ef4683825993ull},
      {"SPO2", 16, "no_pp", 185958u, 0x466d11c6ed7691e3ull},
      {"SPO2", 16, "pp_half", 230070u, 0xedf63b1da175ac67ull},
      {"SPO2", 16, "pp_none", 185958u, 0x466d11c6ed7691e3ull},
      {"SPO2", 16, "util0", 294522u, 0x692a9560b3b3cbcbull},
      {"SPO2", 16, "util1", 230070u, 0xedf63b1da175ac67ull},
      {"SPO2", 16, "pp_odd", 281550u, 0x69fdae0e5a424d77ull},
      {"SPO2", 256, "default", 6414u, 0x117c4008c851ba1full},
      {"SPO2", 256, "no_seq", 6u, 0xd65ded993f430b3full},
      {"SPO2", 256, "no_spg", 6126u, 0x1650f3e445a0723full},
      {"SPO2", 256, "no_spo", 6408u, 0x849af0ebcdb06de3ull},
      {"SPO2", 256, "no_pp", 936u, 0xcacde654e5c87103ull},
      {"SPO2", 256, "pp_half", 2088u, 0x15e72fc5905ff463ull},
      {"SPO2", 256, "pp_none", 936u, 0xcacde654e5c87103ull},
      {"SPO2", 256, "util0", 6414u, 0x117c4008c851ba1full},
      {"SPO2", 256, "util1", 2520u, 0x4b8173902b6ccc83ull},
      {"SPO2", 256, "pp_odd", 7422u, 0x7f31ad2ffddd2effull},
      {"GCN2", 1, "default", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 1, "no_seq", 0u, 0x14650fb0739d0383ull},
      {"GCN2", 1, "no_spg", 1516u, 0xc4077e8bb5ba870bull},
      {"GCN2", 1, "no_spo", 2224u, 0xb155f805d53410e3ull},
      {"GCN2", 1, "no_pp", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 1, "pp_half", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 1, "pp_none", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 1, "util0", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 1, "util1", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 1, "pp_odd", 2524u, 0x4178277c1f6b40cbull},
      {"GCN2", 2, "default", 213256u, 0xc116d1ef3ddbd2afull},
      {"GCN2", 2, "no_seq", 0u, 0x14650fb0739d0383ull},
      {"GCN2", 2, "no_spg", 133192u, 0x4617086a020da45full},
      {"GCN2", 2, "no_spo", 207504u, 0xb1f893279df5d603ull},
      {"GCN2", 2, "no_pp", 185488u, 0x8941d522da289c73ull},
      {"GCN2", 2, "pp_half", 194616u, 0x5bce414604efd977ull},
      {"GCN2", 2, "pp_none", 185488u, 0x8941d522da289c73ull},
      {"GCN2", 2, "util0", 213256u, 0xc116d1ef3ddbd2afull},
      {"GCN2", 2, "util1", 213256u, 0xc116d1ef3ddbd2afull},
      {"GCN2", 2, "pp_odd", 213256u, 0x825751e983a6bf13ull},
  };
  const GnnWorkload w = parity_workload();
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string(row.chain) + " pes=" + std::to_string(row.pes) +
                 " " + row.variant);
    const PipelineChainSpec chain = parity_chain(row.chain);
    const PipelineSearchOptions o = parity_options(row.variant);
    EXPECT_EQ(CandidateSpace(chain, 0, w, row.pes, o).size(), row.size);
    const std::vector<PipelineCandidate> all =
        enumerate_pipeline_candidates(chain, 0, w, row.pes, o);
    EXPECT_EQ(all.size(), row.size);
    EXPECT_EQ(key_digest(all), row.digest);
  }
}

bool same_candidate(const PipelineCandidate& a, const PipelineCandidate& b) {
  if (a.chain_index != b.chain_index || a.key() != b.key() ||
      a.boundaries != b.boundaries || a.pe_fractions != b.pe_fractions ||
      a.phases.size() != b.phases.size() ||
      a.legacy.has_value() != b.legacy.has_value()) {
    return false;
  }
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    if (a.phases[i].phase != b.phases[i].phase ||
        a.phases[i].to_string() != b.phases[i].to_string()) {
      return false;
    }
  }
  return !a.legacy ||
         (a.legacy->to_string() == b.legacy->to_string() &&
          a.legacy->pp_agg_pe_fraction == b.legacy->pp_agg_pe_fraction);
}

TEST(CandidateSpaceTest, DecodeMatchesDecodeAllAtRandomIndices) {
  const GnnWorkload w = parity_workload();
  std::mt19937_64 rng(20261017);
  for (const char* name : {"AC", "CA", "GAT", "SPO2", "GCN2"}) {
    const std::size_t pes = std::string(name) == "GCN2" ? 2 : 16;
    const CandidateSpace space(parity_chain(name), 3, w, pes, {});
    const std::vector<PipelineCandidate> all = space.decode_all();
    ASSERT_EQ(all.size(), space.size());
    ASSERT_FALSE(all.empty());
    std::uniform_int_distribution<std::size_t> pick(0, all.size() - 1);
    for (int k = 0; k < 256; ++k) {
      const std::size_t i = k == 0 ? all.size() - 1 : pick(rng);
      const PipelineCandidate c = space.decode(i);
      EXPECT_EQ(c.chain_index, 3u);
      EXPECT_TRUE(same_candidate(c, all[i])) << name << " index " << i;
    }
    EXPECT_THROW((void)space.decode(all.size()), Error);
  }
}

TEST(CandidateSpaceTest, DecodeIntoADirtyCandidateMatchesDecode) {
  // One candidate reused across spaces of different shapes, as a sweep
  // block reuses it: whatever it held (another chain's phases, a legacy
  // descriptor, PP fractions), decode_into must leave exactly decode(i).
  const GnnWorkload w = parity_workload();
  std::mt19937_64 rng(20261020);
  std::vector<std::unique_ptr<const CandidateSpace>> spaces;
  for (const char* name : {"AC", "CA", "GAT", "SPO2", "GCN2"}) {
    const std::size_t pes = std::string(name) == "GCN2" ? 2 : 16;
    spaces.push_back(std::make_unique<const CandidateSpace>(
        parity_chain(name), spaces.size(), w, pes, PipelineSearchOptions{}));
    ASSERT_GT(spaces.back()->size(), 0u) << name;
  }
  PipelineCandidate buf = spaces[0]->decode(spaces[0]->size() - 1);
  ASSERT_TRUE(buf.legacy.has_value());
  for (int k = 0; k < 2000; ++k) {
    const CandidateSpace& space = *spaces[rng() % spaces.size()];
    const std::size_t i = rng() % space.size();
    space.decode_into(i, buf);
    ASSERT_TRUE(same_candidate(buf, space.decode(i))) << "draw " << k;
    if (!buf.legacy) continue;
    // A classic candidate holds the binding of the spec the scalar oracle
    // lowers its descriptor to.
    const PipelineSpec spec = two_phase_pipeline(*buf.legacy, {}, 16);
    ASSERT_EQ(buf.phases.size(), spec.phases.size());
    for (std::size_t p = 0; p < spec.phases.size(); ++p) {
      EXPECT_EQ(buf.phases[p].to_string(), spec.phases[p].dataflow.to_string());
    }
    EXPECT_EQ(buf.boundaries, spec.boundaries);
    EXPECT_EQ(buf.pe_fractions, spec.pe_fractions);
  }
}

TEST(CandidateSpaceTest, LegacyEnumeratorDecodesTheAcThenCaSpaces) {
  const GnnWorkload w = parity_workload();
  const LayerSpec layer{4};
  const WorkloadDims dims = dims_of(w, layer);
  SearchOptions so;
  so.include_ca = true;
  std::vector<std::string> want;
  for (const PhaseOrder po : {PhaseOrder::kAC, PhaseOrder::kCA}) {
    for (const PipelineCandidate& c : enumerate_pipeline_candidates(
             two_phase_chain(po, layer), 0, w, 16, {})) {
      want.push_back(c.key());
    }
  }
  std::vector<std::string> got;
  for (const DataflowDescriptor& df :
       enumerate_search_candidates(so, dims, 16)) {
    got.push_back(df.to_string());
  }
  EXPECT_EQ(got, want);
}

/// A 5-phase dense chain on a 300-vertex graph: with Seq boundaries only,
/// its space is the product of per-phase (orders x maximal tilings).
PipelineChainSpec dense_chain(std::size_t phases) {
  PipelineChainSpec c;
  for (std::size_t i = 0; i < phases; ++i) {
    c.phases.push_back({.name = "d" + std::to_string(i),
                        .engine = PhaseEngine::kDenseDense,
                        .out_features = 64});
  }
  return c;
}

GnnWorkload wide_workload() {
  Rng rng(11);
  GnnWorkload w;
  w.name = "space-wide";
  w.adjacency = erdos_renyi(300, 1200, rng).with_self_loops().gcn_normalized();
  w.in_features = 64;
  return w;
}

PipelineSearchOptions seq_only() {
  PipelineSearchOptions o;
  o.include_sp_generic = false;
  o.include_sp_optimized = false;
  o.include_pp = false;
  o.seed_table5 = false;
  return o;
}

TEST(CandidateSpaceTest, CappedSearchOverAHugeSpaceCostsItsBudget) {
  // Walking this space (>= 1e10 candidates) to keep 64 of them would not
  // finish within a test timeout; the counted space decodes only the 64.
  AcceleratorConfig hw;
  hw.num_pes = 256;
  const Omega omega(hw);
  const GnnWorkload w = wide_workload();
  const PipelineChainSpec chain = dense_chain(5);

  const std::size_t per_phase =
      6 * enumerate_tile_triples(256, 512, 64, 64, 0.5).size();
  std::size_t expected = 1;
  for (std::size_t i = 0; i < chain.phases.size(); ++i) expected *= per_phase;
  ASSERT_GE(expected, std::size_t{10'000'000'000});

  PipelineSearchOptions opt = seq_only();
  opt.max_candidates = 64;
  opt.top_k = 64;
  const PipelineSearchResult r = search_pipeline_mappings(omega, w, chain, opt);
  EXPECT_EQ(r.generated, expected);
  EXPECT_EQ(r.evaluated, 64u);
  EXPECT_EQ(r.ranked.size(), 64u);
}

TEST(CandidateSpaceTest, SpacesPastSizeTThrowInsteadOfSaturating) {
  AcceleratorConfig hw;
  hw.num_pes = 256;
  const Omega omega(hw);
  const GnnWorkload w = wide_workload();
  const PipelineChainSpec chain = dense_chain(16);  // ~270^16 candidates
  PipelineSearchOptions opt = seq_only();
  opt.max_candidates = 64;
  EXPECT_THROW(CandidateSpace(chain, 0, w, 256, opt), InvalidArgumentError);
  EXPECT_THROW((void)search_pipeline_mappings(omega, w, chain, opt),
               InvalidArgumentError);
}

TEST(CandidateSpaceTest, StrideSampleIndexIsExactPast64Bits) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // 63 * (2^64 - 1) / 64 = 63 * 2^58 - 63/64, floored.
  static_assert(stride_sample_index(63, kMax, 64) ==
                63 * (std::size_t{1} << 58) - 1);
  static_assert(stride_sample_index(1, kMax, 2) == kMax / 2);
  static_assert(stride_sample_index(5, 1000, 96) == 5 * 1000 / 96);
  static_assert(stride_sample_index(0, 0, 0) == 0);
  // Strictly increasing over a capped sample of a huge population.
  std::size_t prev = 0;
  for (std::size_t i = 1; i < 64; ++i) {
    const std::size_t g = stride_sample_index(i, kMax - 7, 64);
    EXPECT_GT(g, prev);
    prev = g;
  }
}

// ---- the rank stage against its reference ---------------------------------

double reference_score(Objective obj, std::uint64_t cycles, double pj) {
  switch (obj) {
    case Objective::kRuntime: return static_cast<double>(cycles);
    case Objective::kEnergy: return pj;
    case Objective::kEnergyDelayProduct:
      return static_cast<double>(cycles) * pj;
  }
  return static_cast<double>(cycles);
}

/// The rank stage as search_pipeline_mappings ran it before it ranked on
/// compact rows (a key per feasible candidate, a full sort of the ranked
/// structs, a deep copy re-sorted for the frontier), kept verbatim as the
/// reference the row ranking must reproduce.
PipelineRanking reference_rank(std::vector<PipelineCandidate> cands,
                               const std::vector<EvalOutcome>& outcomes,
                               Objective objective, std::size_t top_k) {
  PipelineRanking result;
  const std::size_t selected = cands.size();
  std::vector<RankedPipelineCandidate> valid;
  valid.reserve(selected);
  for (std::size_t i = 0; i < selected; ++i) {
    if (!outcomes[i].ok) continue;
    RankedPipelineCandidate rc;
    rc.key = cands[i].key();
    rc.cycles = outcomes[i].cycles;
    rc.on_chip_pj = outcomes[i].on_chip_pj;
    rc.score = reference_score(objective, rc.cycles, rc.on_chip_pj);
    rc.candidate = std::move(cands[i]);
    valid.push_back(std::move(rc));
  }
  result.evaluated = valid.size();

  std::sort(valid.begin(), valid.end(), pipeline_candidate_order);
  valid.erase(
      std::unique(valid.begin(), valid.end(),
                  [](const RankedPipelineCandidate& a,
                     const RankedPipelineCandidate& b) {
                    return a.cycles == b.cycles &&
                           a.on_chip_pj == b.on_chip_pj && a.key == b.key;
                  }),
      valid.end());

  std::vector<RankedPipelineCandidate> by_cycles = valid;
  std::sort(by_cycles.begin(), by_cycles.end(),
            [](const RankedPipelineCandidate& a,
               const RankedPipelineCandidate& b) {
              if (a.cycles != b.cycles) return a.cycles < b.cycles;
              if (a.on_chip_pj != b.on_chip_pj) {
                return a.on_chip_pj < b.on_chip_pj;
              }
              return a.key < b.key;
            });
  double best_energy = std::numeric_limits<double>::infinity();
  for (const RankedPipelineCandidate& c : by_cycles) {
    if (c.on_chip_pj < best_energy) {
      best_energy = c.on_chip_pj;
      result.pareto.push_back(c);
    }
  }

  if (valid.size() > top_k) valid.resize(top_k);
  result.ranked = std::move(valid);
  return result;
}

/// rank_pipeline_candidates over a materialized population: the feasible
/// outcomes as metric rows, the population itself as the accessor.
PipelineRanking rank_population(const std::vector<PipelineCandidate>& cands,
                                const std::vector<EvalOutcome>& outcomes,
                                Objective objective, std::size_t top_k) {
  std::vector<PipelineMetricRow> rows;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const EvalOutcome& o = outcomes[i];
    if (!o.ok) continue;
    rows.push_back({reference_score(objective, o.cycles, o.on_chip_pj),
                    o.cycles, o.on_chip_pj, i});
  }
  return rank_pipeline_candidates(
      std::move(rows),
      [&](std::size_t i, PipelineCandidate& out) { out = cands[i]; }, top_k);
}

void expect_same_entries(const std::vector<RankedPipelineCandidate>& got,
                         const std::vector<RankedPipelineCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("entry " + std::to_string(i) + " " + want[i].key);
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].cycles, want[i].cycles);
    EXPECT_EQ(got[i].on_chip_pj, want[i].on_chip_pj);
    EXPECT_EQ(got[i].score, want[i].score);
    EXPECT_TRUE(same_candidate(got[i].candidate, want[i].candidate));
  }
}

/// The first `n` candidates of a chain's space (decoded, not enumerated).
std::vector<PipelineCandidate> leading_candidates(
    const PipelineChainSpec& chain, std::size_t chain_index,
    const GnnWorkload& w, std::size_t n) {
  const CandidateSpace space(chain, chain_index, w, 64, {});
  std::vector<PipelineCandidate> out;
  for (std::size_t i = 0; i < std::min(n, space.size()); ++i) {
    out.push_back(space.decode(i));
  }
  return out;
}

constexpr Objective kObjectives[] = {Objective::kRuntime, Objective::kEnergy,
                                     Objective::kEnergyDelayProduct};

TEST(RankStageTest, MatchesTheReferenceOnRandomTiedMetrics) {
  // Real candidates of both key kinds (classic chains key by the legacy
  // descriptor, general chains by the chain notation), plus copies of a
  // random subset. Metrics come from tiny value sets, so score, cycles and
  // pj tie often; for EDP, cycles x pj ties across unequal pairs too.
  const GnnWorkload w = toy_workload();
  std::vector<PipelineCandidate> base =
      leading_candidates(gat_chain(), 0, w, 300);
  for (PipelineCandidate& c : leading_candidates(
           classic_chains(LayerSpec{8}, false)[0], 1, w, 300)) {
    base.push_back(std::move(c));
  }
  ASSERT_EQ(base.size(), 600u);

  std::mt19937_64 rng(1234);
  constexpr std::uint64_t kCycles[] = {100, 200, 400};
  constexpr double kPj[] = {0.5, 1.0, 2.0};
  for (int round = 0; round < 24; ++round) {
    std::vector<PipelineCandidate> cands = base;
    std::vector<EvalOutcome> outs(cands.size());
    for (EvalOutcome& o : outs) {
      o.ok = rng() % 8 != 0;
      if (!o.ok) continue;
      o.cycles = kCycles[rng() % 3];
      o.on_chip_pj = kPj[rng() % 3];
    }
    // Duplicates: a copy with its original's metrics (the ranking drops
    // it), or with fresh metrics (a distinct point that must stay).
    for (int d = 0; d < 40; ++d) {
      const std::size_t from = rng() % base.size();
      cands.push_back(cands[from]);
      EvalOutcome o = outs[from];
      if (rng() % 3 == 0) {
        o.ok = true;
        o.cycles = kCycles[rng() % 3];
        o.on_chip_pj = kPj[rng() % 3];
      }
      outs.push_back(o);
    }
    for (const Objective obj : kObjectives) {
      for (const std::size_t top_k :
           {std::size_t{0}, std::size_t{1}, std::size_t{16},
            cands.size() + 1}) {
        SCOPED_TRACE("round " + std::to_string(round) + " objective " +
                     std::to_string(static_cast<int>(obj)) + " top_k " +
                     std::to_string(top_k));
        const PipelineRanking want = reference_rank(cands, outs, obj, top_k);
        const PipelineRanking got =
            rank_population(cands, outs, obj, top_k);
        EXPECT_EQ(got.evaluated, want.evaluated);
        expect_same_entries(got.ranked, want.ranked);
        expect_same_entries(got.pareto, want.pareto);
        // Keys are built for ties and returned entries only.
        EXPECT_LE(got.keys_built, got.evaluated);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(RankStageTest, DistinctMetricsBuildOnlyTheReturnedKeys) {
  const GnnWorkload w = toy_workload();
  const std::vector<PipelineCandidate> cands =
      leading_candidates(gat_chain(), 0, w, 100);
  ASSERT_EQ(cands.size(), 100u);
  std::vector<EvalOutcome> outs(cands.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    outs[i] = {1000 + i, static_cast<double>(cands.size() - i), true};
  }
  const PipelineRanking got =
      rank_population(cands, outs, Objective::kRuntime, 4);
  ASSERT_EQ(got.ranked.size(), 4u);
  // Every point is on the frontier (cycles up, energy down).
  EXPECT_EQ(got.pareto.size(), cands.size());
  EXPECT_EQ(got.keys_built, cands.size());
  for (EvalOutcome& o : outs) o.on_chip_pj = 1.0;
  const PipelineRanking flat =
      rank_population(cands, outs, Objective::kRuntime, 4);
  EXPECT_EQ(flat.pareto.size(), 1u);
  EXPECT_EQ(flat.keys_built, 4u);  // ranked entries; the frontier's is one
}

/// The population search_pipeline_mappings evaluates for one chain: the
/// stride sample of the counted space, the extras, then the Table V seeds.
std::vector<PipelineCandidate> search_population(
    const Omega& omega, const GnnWorkload& w, const PipelineChainSpec& chain,
    const PipelineSearchOptions& opt) {
  const CandidateSpace space(chain, 0, w, omega.config().num_pes, opt);
  const std::size_t total = space.size();
  const bool capped = opt.max_candidates > 0 && total > opt.max_candidates;
  const std::size_t sampled = capped ? opt.max_candidates : total;
  std::vector<PipelineCandidate> out;
  for (std::size_t i = 0; i < sampled; ++i) {
    out.push_back(space.decode(capped ? stride_sample_index(i, total, sampled)
                                      : i));
  }
  out.insert(out.end(), opt.extra_candidates.begin(),
             opt.extra_candidates.end());
  if (opt.seed_table5) {
    for (PipelineCandidate& s : table5_pipeline_seeds(omega, w, chain, 0)) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

TEST(RankStageTest, SearchesMatchTheReferenceRanking) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();
  const WorkloadContext ctx(w.adjacency);
  const auto plan = PipelineEvalPlan::obtain(omega, w, chain, ctx);

  PipelineSearchOptions opt;
  opt.max_candidates = 200;
  // Extras that duplicate sampled candidates (and one another); the Table V
  // seeds ride along as well.
  const std::vector<PipelineCandidate> sample =
      search_population(omega, w, chain, opt);
  for (const std::size_t i : {0, 3, 3, 57, 199}) {
    opt.extra_candidates.push_back(sample[i]);
  }
  ASSERT_TRUE(opt.seed_table5);
  const std::vector<PipelineCandidate> population =
      search_population(omega, w, chain, opt);
  std::vector<EvalOutcome> outs;
  PipelineDeltaState state;
  for (const PipelineCandidate& c : population) {
    outs.push_back(plan->evaluate(c.view(), state));
  }

  for (const Objective obj : kObjectives) {
    for (const std::size_t top_k : {std::size_t{0}, std::size_t{1},
                                    std::size_t{16}, population.size() + 1}) {
      const PipelineRanking want =
          reference_rank(population, outs, obj, top_k);
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE("objective " + std::to_string(static_cast<int>(obj)) +
                     " top_k " + std::to_string(top_k) + " threads " +
                     std::to_string(threads));
        opt.objective = obj;
        opt.top_k = top_k;
        opt.threads = threads;
        const PipelineSearchResult got =
            search_pipeline_mappings(omega, w, chain, opt, &ctx);
        EXPECT_EQ(got.evaluated, want.evaluated);
        expect_same_entries(got.ranked, want.ranked);
        expect_same_entries(got.pareto, want.pareto);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// ---- the streamed search against a serial reference ----------------------

/// What a search reports, computed serially over a materialized population.
struct ReferenceSearch {
  PipelineRanking ranking;
  std::size_t generated = 0;
  std::size_t pruned = 0;
  std::uint64_t term_requests = 0;
  std::uint64_t term_builds = 0;
  /// L1 hits of a single-block sweep: one state per chain and pass.
  std::uint64_t delta_hits = 0;
};

/// The concatenated populations of the chains a search enumerates, each
/// decoded whole.
std::vector<PipelineCandidate> decode_enumerated(
    const Omega& omega, const GnnWorkload& w,
    const std::vector<PipelineChainSpec>& chains,
    const PipelineSearchOptions& opt) {
  const std::size_t enumerated =
      opt.enumerate_chains == 0 ? chains.size()
                                : std::min(opt.enumerate_chains, chains.size());
  std::vector<PipelineCandidate> all;
  for (std::size_t c = 0; c < enumerated; ++c) {
    for (PipelineCandidate& cand :
         CandidateSpace(chains[c], c, w, omega.config().num_pes, opt)
             .decode_all()) {
      all.push_back(std::move(cand));
    }
  }
  return all;
}

/// search_pipeline_mappings written out serially over `all` (what
/// decode_enumerated returns for these options): stride-sample it, append
/// the extras and the Table V seeds, order by lower bound and cull when
/// pruning, evaluate each candidate on a fresh state over a fresh context
/// (and again on its pass's state per chain, for the L1 hits), and rank
/// with reference_rank.
ReferenceSearch reference_search(const Omega& omega, const GnnWorkload& w,
                                 const std::vector<PipelineChainSpec>& chains,
                                 const PipelineSearchOptions& opt,
                                 const std::vector<PipelineCandidate>& all) {
  const std::size_t pes = omega.config().num_pes;
  std::vector<PipelineCandidate> extras = opt.extra_candidates;
  if (opt.seed_table5) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      for (PipelineCandidate& s : table5_pipeline_seeds(omega, w, chains[c], c)) {
        extras.push_back(std::move(s));
      }
    }
  }
  ReferenceSearch ref;
  ref.generated = all.size() + extras.size();
  const std::size_t total = all.size();
  const bool capped = opt.max_candidates > 0 && total > opt.max_candidates;
  const std::size_t sampled = capped ? opt.max_candidates : total;
  std::vector<PipelineCandidate> population;
  for (std::size_t i = 0; i < sampled; ++i) {
    population.push_back(
        all[capped ? stride_sample_index(i, total, sampled) : i]);
  }
  population.insert(population.end(), extras.begin(), extras.end());
  const std::size_t selected = population.size();

  std::vector<std::size_t> order(selected);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> bounds(selected, 0.0);
  if (opt.prune) {
    for (std::size_t i = 0; i < sampled; ++i) {
      const PipelineCandidate& c = population[i];
      const std::vector<PipelinePhaseWork> work =
          pipeline_phase_work(chains[c.chain_index], w);
      const double cycles_lb =
          static_cast<double>(pipeline_mac_cycle_bound(work, c, pes));
      const double energy_lb =
          pipeline_energy_lower_bound(work, omega.energy_model());
      switch (opt.objective) {
        case Objective::kRuntime: bounds[i] = cycles_lb; break;
        case Objective::kEnergy: bounds[i] = energy_lb; break;
        case Objective::kEnergyDelayProduct:
          bounds[i] = cycles_lb * energy_lb;
          break;
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return bounds[a] < bounds[b];
                     });
  }

  const WorkloadContext ctx(w.adjacency);
  std::vector<std::shared_ptr<const PipelineEvalPlan>> plans;
  for (const PipelineChainSpec& chain : chains) {
    plans.push_back(PipelineEvalPlan::obtain(omega, w, chain, ctx));
  }
  std::vector<EvalOutcome> outcomes(selected);
  std::vector<PipelineDeltaState> pass(chains.size());
  const auto evaluate = [&](std::size_t i) {
    PipelineDeltaState fresh;
    const PipelineCandidate& c = population[i];
    outcomes[i] = plans[c.chain_index]->evaluate(c.view(), fresh);
    ref.term_requests += fresh.tally.requests;
    ref.term_builds += fresh.tally.builds;
    PipelineDeltaState& st = pass[c.chain_index];
    const std::uint64_t hits = st.tally.delta_hits;
    (void)plans[c.chain_index]->evaluate(c.view(), st);
    ref.delta_hits += st.tally.delta_hits - hits;
  };
  std::size_t keep = selected;
  if (opt.prune && selected > 0) {
    const std::size_t seed =
        std::min(std::max<std::size_t>(opt.prune_seed, 1), selected);
    double incumbent = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < seed; ++j) {
      evaluate(order[j]);
      const EvalOutcome& o = outcomes[order[j]];
      if (o.ok) {
        incumbent = std::min(
            incumbent, reference_score(opt.objective, o.cycles, o.on_chip_pj));
      }
    }
    keep = seed;
    pass.assign(chains.size(), PipelineDeltaState{});  // the cull's pass
    while (keep < selected && bounds[order[keep]] <= incumbent) {
      evaluate(order[keep++]);
    }
  } else {
    for (std::size_t i = 0; i < selected; ++i) evaluate(i);
  }
  ref.pruned = selected - keep;
  ref.ranking = reference_rank(population, outcomes, opt.objective, opt.top_k);
  return ref;
}

void expect_same_points(const std::vector<RankedPipelineCandidate>& got,
                        const std::vector<RankedPipelineCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "entry " << i;
    EXPECT_EQ(got[i].cycles, want[i].cycles) << "entry " << i;
    EXPECT_EQ(got[i].on_chip_pj, want[i].on_chip_pj) << "entry " << i;
  }
}

void expect_same_points(const std::vector<Candidate>& got,
                        const std::vector<RankedPipelineCandidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].dataflow.to_string(), want[i].key) << "entry " << i;
    EXPECT_EQ(got[i].cycles, want[i].cycles) << "entry " << i;
    EXPECT_EQ(got[i].on_chip_pj, want[i].on_chip_pj) << "entry " << i;
  }
}

TEST(StreamedSearchTest, MatchesTheSerialReference) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const LayerSpec layer{8};

  // Extras for the GAT chain: copies of sampled candidates (one twice), so
  // extras duplicate the sample and one another.
  PipelineSearchOptions gat_base;
  gat_base.max_candidates = 250;
  std::vector<PipelineCandidate> gat_extras;
  {
    const CandidateSpace space(gat_chain(), 0, w, hw.num_pes, gat_base);
    for (const std::size_t i : {std::size_t{0}, std::size_t{7},
                                std::size_t{7}, space.size() - 1}) {
      gat_extras.push_back(space.decode(
          stride_sample_index(i % 250, space.size(), 250)));
    }
  }

  struct Case {
    const char* name;
    std::vector<PipelineChainSpec> chains;
    PipelineSearchOptions opt;
  };
  std::vector<Case> cases;
  {
    Case c{"AC+CA", classic_chains(layer, true), {}};
    c.opt.max_candidates = 300;
    c.opt.seed_table5 = false;
    cases.push_back(c);
    c.name = "AC+CA with seeds and a CA extra";
    c.opt.seed_table5 = true;
    const CandidateSpace ca(c.chains[1], 1, w, hw.num_pes, c.opt);
    c.opt.extra_candidates = {ca.decode(ca.size() / 3)};
    cases.push_back(c);
  }
  {
    Case c{"GAT extras+seeds", {gat_chain()}, gat_base};
    c.opt.extra_candidates = gat_extras;
    c.opt.objective = Objective::kEnergyDelayProduct;
    cases.push_back(c);
  }

  std::size_t culled = 0;  // the prune legs must cull something
  for (Case& c : cases) {
    const std::vector<PipelineCandidate> all =
        decode_enumerated(omega, w, c.chains, c.opt);
    for (const bool prune : {false, true}) {
      for (const std::size_t top_k :
           {std::size_t{0}, std::size_t{1}, std::size_t{16}}) {
        PipelineSearchOptions opt = c.opt;
        opt.prune = prune;
        opt.top_k = top_k;
        const ReferenceSearch want =
            reference_search(omega, w, c.chains, opt, all);
        culled += want.pruned;
        for (const std::size_t threads : {1, 2, 4, 8}) {
          SCOPED_TRACE(std::string(c.name) + " prune " +
                       std::to_string(prune) + " top_k " +
                       std::to_string(top_k) + " threads " +
                       std::to_string(threads));
          opt.threads = threads;
          const PipelineSearchResult got =
              search_pipeline_mappings(omega, w, c.chains, opt);
          EXPECT_EQ(got.generated, want.generated);
          EXPECT_EQ(got.evaluated, want.ranking.evaluated);
          EXPECT_EQ(got.pruned, want.pruned);
          EXPECT_EQ(got.eval.term_requests, want.term_requests);
          EXPECT_EQ(got.eval.term_builds, want.term_builds);
          // One thread runs each pass as one block.
          if (threads == 1) {
            EXPECT_EQ(got.eval.delta_hits, want.delta_hits);
          }
          expect_same_points(got.ranked, want.ranking.ranked);
          expect_same_points(got.pareto, want.ranking.pareto);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(culled, 0u);
}

TEST(StreamedSearchTest, SearchMappingsMatchesTheSerialReference) {
  // The two-phase adapter over AC+CA (include_ca) and with a CA extra on
  // the bind-only CA chain, against the reference over the chains and
  // options the adapter hands to the pipeline search.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const LayerSpec layer{8};
  const std::vector<PipelineChainSpec> chains = classic_chains(layer, true);

  const CandidateSpace ca_space(chains[1], 1, w, hw.num_pes, {});
  const DataflowDescriptor ca_extra = *ca_space.decode(ca_space.size() / 2).legacy;
  const CandidateSpace ac_space(chains[0], 0, w, hw.num_pes, {});
  const DataflowDescriptor ac_extra = *ac_space.decode(3).legacy;

  for (const bool include_ca : {true, false}) {
    for (const bool prune : {false, true}) {
      for (const std::size_t top_k :
           {std::size_t{0}, std::size_t{1}, std::size_t{16}}) {
        SearchOptions so;
        so.include_ca = include_ca;
        so.max_candidates = 300;
        so.prune = prune;
        so.top_k = top_k;
        PipelineSearchOptions po;
        po.max_candidates = 300;
        po.prune = prune;
        po.top_k = top_k;
        po.seed_table5 = false;
        if (!include_ca) {
          // Extras only: an AC copy of a sampled point, and a CA point
          // evaluated on the bind-only CA chain.
          so.extra_candidates = {ac_extra, ca_extra};
          po.enumerate_chains = 1;
          po.extra_candidates = {
              lower_two_phase_candidate(ac_extra, 0, hw.num_pes),
              lower_two_phase_candidate(ca_extra, 1, hw.num_pes)};
        }
        const ReferenceSearch want = reference_search(
            omega, w, chains, po, decode_enumerated(omega, w, chains, po));
        for (const std::size_t threads : {1, 2, 4, 8}) {
          SCOPED_TRACE("include_ca " + std::to_string(include_ca) +
                       " prune " + std::to_string(prune) + " top_k " +
                       std::to_string(top_k) + " threads " +
                       std::to_string(threads));
          so.threads = threads;
          const SearchResult got = search_mappings(omega, w, layer, so);
          EXPECT_EQ(got.generated, want.generated);
          EXPECT_EQ(got.evaluated, want.ranking.evaluated);
          EXPECT_EQ(got.pruned, want.pruned);
          EXPECT_EQ(got.eval.term_requests, want.term_requests);
          EXPECT_EQ(got.eval.term_builds, want.term_builds);
          // One thread runs each pass as one block.
          if (threads == 1) {
            EXPECT_EQ(got.eval.delta_hits, want.delta_hits);
          }
          expect_same_points(got.ranked, want.ranking.ranked);
          expect_same_points(got.pareto, want.ranking.pareto);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace omega
