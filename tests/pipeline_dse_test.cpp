// Pipeline-space DSE tests (dse/pipeline_search.hpp): the two-phase adapter
// contract (search_mappings == search_pipeline_mappings on classic chains,
// bit-identical), Table V seeds never losing to the searched best, lossless
// EDP pruning, thread-count determinism on a 3-phase chain, and the
// phase/boundary-indexed validation messages the searcher relies on; the
// counted candidate space (pinned populations, random-access decode, an
// O(budget) capped search, checked sizes) and per-sweep eval counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dse/candidate_space.hpp"
#include "dse/pipeline_search.hpp"
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

}  // namespace
}  // namespace omega
