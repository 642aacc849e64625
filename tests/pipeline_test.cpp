// Phase-pipeline API tests: the legacy two-phase Omega::run must be
// bit-identical to run_pipeline over the explicit two-phase adapter across
// every inter-phase mode, phase order and walk direction; N-phase pipelines
// must evaluate end-to-end; the sparse-weight Combination engine must track
// the weight density monotonically; and spec/bind-time validation must
// reject the documented traps.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "dse/search.hpp"
#include "engine/eval_core.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "omega/pipeline.hpp"

namespace omega {
namespace {

GnnWorkload cora_workload() {
  SynthesisOptions so;
  so.scale = 0.25;
  return synthesize_workload(dataset_by_name("Cora"), so);
}

GnnWorkload rmat_workload() {
  Rng rng(23);
  GnnWorkload w;
  w.name = "rmat";
  w.adjacency = rmat(9, 4000, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

AcceleratorConfig small_hw() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return hw;
}

void expect_phase_identical(const PhaseResult& x, const PhaseResult& y) {
  EXPECT_EQ(x.cycles, y.cycles);
  EXPECT_EQ(x.issue_steps, y.issue_steps);
  EXPECT_EQ(x.load_cycles, y.load_cycles);
  EXPECT_EQ(x.stall_cycles, y.stall_cycles);
  EXPECT_EQ(x.psum_cycles, y.psum_cycles);
  EXPECT_EQ(x.fill_cycles, y.fill_cycles);
  EXPECT_EQ(x.macs, y.macs);
  EXPECT_EQ(x.active_pe_cycles, y.active_pe_cycles);
  EXPECT_EQ(x.chunk_cycles, y.chunk_cycles);
  EXPECT_EQ(x.chunk_completion, y.chunk_completion);
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    EXPECT_EQ(x.traffic.gb[c].reads, y.traffic.gb[c].reads);
    EXPECT_EQ(x.traffic.gb[c].writes, y.traffic.gb[c].writes);
  }
  EXPECT_EQ(x.traffic.rf.reads, y.traffic.rf.reads);
  EXPECT_EQ(x.traffic.rf.writes, y.traffic.rf.writes);
  EXPECT_EQ(x.traffic.dram.reads, y.traffic.dram.reads);
  EXPECT_EQ(x.traffic.dram.writes, y.traffic.dram.writes);
  EXPECT_EQ(x.traffic.intermediate_partition.reads,
            y.traffic.intermediate_partition.reads);
  EXPECT_EQ(x.traffic.intermediate_partition.writes,
            y.traffic.intermediate_partition.writes);
}

void expect_run_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.pes_agg, b.pes_agg);
  EXPECT_EQ(a.pes_cmb, b.pes_cmb);
  EXPECT_EQ(a.granularity, b.granularity);
  EXPECT_EQ(a.pipeline_chunks, b.pipeline_chunks);
  EXPECT_EQ(a.pipeline_elements, b.pipeline_elements);
  EXPECT_EQ(a.intermediate_buffer_elements, b.intermediate_buffer_elements);
  EXPECT_EQ(a.intermediate_spilled, b.intermediate_spilled);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.in_features, b.in_features);
  EXPECT_EQ(a.out_features, b.out_features);
  expect_phase_identical(a.agg, b.agg);
  expect_phase_identical(a.cmb, b.cmb);
  EXPECT_DOUBLE_EQ(a.energy.gb_pj, b.energy.gb_pj);
  EXPECT_DOUBLE_EQ(a.energy.rf_pj, b.energy.rf_pj);
  EXPECT_DOUBLE_EQ(a.energy.partition_pj, b.energy.partition_pj);
  EXPECT_DOUBLE_EQ(a.energy.dram_pj, b.energy.dram_pj);
  EXPECT_DOUBLE_EQ(a.agg_static_utilization, b.agg_static_utilization);
  EXPECT_DOUBLE_EQ(a.cmb_static_utilization, b.cmb_static_utilization);
}

/// Sweeps the full candidate generator (all four inter-phase modes, AC and
/// CA, gather and scatter aggregation orders) and checks the legacy
/// Omega::run against the explicit pipeline path:
///   run_pipeline(two_phase_pipeline(df, layer, pes)) |> to_run_result.
void check_adapter_parity(const GnnWorkload& w) {
  SCOPED_TRACE(w.name);
  const Omega omega(small_hw());
  const LayerSpec layer{16};
  SearchOptions opt;
  opt.include_ca = true;
  const auto candidates = enumerate_search_candidates(
      opt, dims_of(w, layer), omega.config().num_pes);
  ASSERT_GT(candidates.size(), 100u);

  const WorkloadContext context(w.adjacency);
  // Coverage over (inter, phase order, gather/scatter).
  std::array<std::array<std::array<bool, 2>, 2>, 4> seen{};
  std::size_t compared = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const DataflowDescriptor& df = candidates[i];
    // Broad stride sample, plus every candidate whose (inter, phase order)
    // cell has not been compared yet — rare cells (e.g. SP-Optimized CA)
    // must not depend on the stride landing on them.
    const auto& cell = seen[static_cast<std::size_t>(df.inter)]
                           [static_cast<std::size_t>(df.phase_order)];
    if (i % 11 != 0 && (cell[0] || cell[1])) continue;
    RunResult legacy;
    try {
      legacy = omega.run(w, layer, df, context);
    } catch (const Error&) {
      continue;  // infeasible on this substrate either way
    }
    SCOPED_TRACE(df.to_string());
    const PipelineSpec spec =
        two_phase_pipeline(df, layer, omega.config().num_pes);
    PipelineResult pr = omega.run_pipeline(w, spec, &context);
    const RunResult via_pipeline = to_run_result(std::move(pr), df);
    expect_run_identical(legacy, via_pipeline);

    const bool gather = df.agg.order.depth_of(Dim::kV) <
                        df.agg.order.depth_of(Dim::kN);
    seen[static_cast<std::size_t>(df.inter)]
        [static_cast<std::size_t>(df.phase_order)][gather ? 0 : 1] = true;
    ++compared;
  }
  // The tile enumerator never emits SP-Optimized CA candidates (its
  // matched-tile constraints fall outside the power-of-two sweep), so that
  // cell of the mode x order cube is pinned by hand: (NFV, VGF) with the
  // Table II CA constraints T_F_CMB = T_V_AGG = 1, T_N = T_V_CMB,
  // T_F_AGG = T_G.
  {
    DataflowDescriptor sp_ca =
        DataflowDescriptor::parse("SP_CA(NsFsVt, VsGsFt)");
    sp_ca.agg.tiles = {.v = 1, .n = 4, .f = 8, .g = 1};
    sp_ca.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 8};
    SCOPED_TRACE(sp_ca.to_string());
    const RunResult legacy = omega.run(w, layer, sp_ca, context);
    PipelineResult pr = omega.run_pipeline(
        w, two_phase_pipeline(sp_ca, layer, omega.config().num_pes),
        &context);
    expect_run_identical(legacy, to_run_result(std::move(pr), sp_ca));
    seen[static_cast<std::size_t>(InterPhase::kSPOptimized)][1][1] = true;
    ++compared;
  }
  EXPECT_GE(compared, 40u);
  // Every mode must be covered for both phase orders, and each phase order
  // must be covered in both walk directions somewhere in the sweep. (Not
  // every cell of the cube is feasible — e.g. a scatter Aggregation cannot
  // PRODUCE a pipelined intermediate under AC — so the assertions follow
  // the taxonomy.)
  for (std::size_t m = 0; m < 4; ++m) {
    SCOPED_TRACE("mode " + std::string(to_string(static_cast<InterPhase>(m))));
    EXPECT_TRUE(seen[m][0][0] || seen[m][0][1]);  // AC
    EXPECT_TRUE(seen[m][1][0] || seen[m][1][1]);  // CA
  }
  const auto walk_covered = [&](std::size_t po, std::size_t walk) {
    for (std::size_t m = 0; m < 4; ++m) {
      if (seen[m][po][walk]) return true;
    }
    return false;
  };
  EXPECT_TRUE(walk_covered(0, 0));  // AC gather
  EXPECT_TRUE(walk_covered(0, 1));  // AC scatter
  EXPECT_TRUE(walk_covered(1, 0));  // CA gather
  EXPECT_TRUE(walk_covered(1, 1));  // CA scatter
}

TEST(PipelineParityTest, AdapterMatchesLegacyOnCora) {
  check_adapter_parity(cora_workload());
}

TEST(PipelineParityTest, AdapterMatchesLegacyOnRmat) {
  check_adapter_parity(rmat_workload());
}

TEST(PipelineParityTest, CaRoundingTieResolvesLikeLegacy) {
  // 10 PEs at fraction 0.25 puts llround on a .5 tie: the legacy model
  // rounds the AGGREGATION share (2.5 -> 3) and hands Combination the
  // remainder. A CA pair naively fed share 0.75 would round 7.5 -> 8 and
  // drift by one PE; two_phase_pipeline(df, layer, num_pes) must resolve
  // the split exactly.
  GnnWorkload w = cora_workload();
  AcceleratorConfig hw;
  hw.num_pes = 10;
  const Omega omega(hw);
  const LayerSpec layer{16};
  DataflowDescriptor df = DataflowDescriptor::parse("PP_CA(NtFtVt, VtGtFt)");
  df.pp_agg_pe_fraction = 0.25;
  const RunResult legacy = omega.run(w, layer, df);
  EXPECT_EQ(legacy.pes_agg, 3u);
  EXPECT_EQ(legacy.pes_cmb, 7u);
  PipelineResult pr =
      omega.run_pipeline(w, two_phase_pipeline(df, layer, hw.num_pes));
  const RunResult via = to_run_result(std::move(pr), df);
  expect_run_identical(legacy, via);
}

// ---- N-phase pipelines ------------------------------------------------------

PhaseSpec make_phase(const char* name, PhaseEngine engine, const char* order,
                     TileSizes tiles, std::size_t out_features = 0,
                     double density = 1.0) {
  PhaseSpec p;
  p.name = name;
  p.engine = engine;
  p.dataflow = IntraPhaseDataflow::parse(order, taxonomy_phase(engine));
  p.dataflow.tiles = tiles;
  p.out_features = out_features;
  p.weight_density = density;
  return p;
}

/// GAT-style 3-phase chain: dense score transform -> sparse aggregate ->
/// sparse-weight output transform.
PipelineSpec gat_pipeline(double density, InterPhase b0, InterPhase b1) {
  PipelineSpec s;
  // Tiles stay small enough (16 spatial PEs max) that a PP split of the
  // 64-PE test substrate still fits every phase.
  s.phases = {
      make_phase("score", PhaseEngine::kDenseDense, "VsFtGs",
                 {.v = 4, .n = 1, .f = 1, .g = 4}, 16),
      make_phase("agg", PhaseEngine::kSparseDense, "NtFsVt",
                 {.v = 1, .n = 2, .f = 8, .g = 1}),
      make_phase("xform", PhaseEngine::kSparseSparse, "GsVtFt",
                 {.v = 1, .n = 1, .f = 1, .g = 8}, 8, density),
  };
  s.boundaries = {b0, b1};
  return s;
}

TEST(PipelineRunTest, ThreePhaseSequentialEvaluatesEndToEnd) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  const PipelineSpec spec = gat_pipeline(0.5, InterPhase::kSequential,
                                         InterPhase::kSequential);
  const PipelineResult r = omega.run_pipeline(w, spec);
  ASSERT_EQ(r.phases.size(), 3u);
  ASSERT_EQ(r.boundaries.size(), 2u);
  // Width chain: F -> 16 -> 16 -> 8.
  EXPECT_EQ(r.in_features, w.in_features);
  EXPECT_EQ(r.phases[0].out_features, 16u);
  EXPECT_EQ(r.phases[1].in_features, 16u);
  EXPECT_EQ(r.phases[1].out_features, 16u);
  EXPECT_EQ(r.phases[2].in_features, 16u);
  EXPECT_EQ(r.out_features, 8u);
  // Sequential boundaries: total is the sum of the phase cycles.
  std::uint64_t sum = 0;
  for (const auto& p : r.phases) {
    EXPECT_GT(p.result.cycles, 0u);
    EXPECT_GT(p.pes, 0u);
    sum += p.result.cycles;
  }
  EXPECT_EQ(r.cycles, sum);
  // Boundary extents follow the intermediate shapes.
  EXPECT_EQ(r.boundaries[0].rows, w.num_vertices());
  EXPECT_EQ(r.boundaries[0].cols, 16u);
  EXPECT_EQ(r.boundaries[1].cols, 16u);
  // The sparse-weight phase does V * nnz(W) * out-rows MACs: at density 0.5
  // that is half the dense contraction.
  EXPECT_EQ(r.phases[2].result.macs,
            static_cast<std::uint64_t>(w.num_vertices()) * 8 * 8);
}

TEST(PipelineRunTest, ThreePhaseChunkedBoundaryComposes) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  // Chunked hand-off between score (row-major producer) and the scatter
  // aggregate (row-major consumer through its N loop).
  const PipelineSpec spg = gat_pipeline(0.5, InterPhase::kSPGeneric,
                                        InterPhase::kSequential);
  const PipelineResult r = omega.run_pipeline(w, spg);
  EXPECT_GT(r.boundaries[0].pipeline_chunks, 1u);
  EXPECT_GT(r.boundaries[0].pipeline_elements, 0u);
  EXPECT_EQ(r.boundaries[0].granularity, Granularity::kRow);
  EXPECT_FALSE(r.boundaries[0].overlapped);

  const PipelineSpec pp = gat_pipeline(0.5, InterPhase::kParallelPipeline,
                                       InterPhase::kSequential);
  const PipelineResult rp = omega.run_pipeline(w, pp);
  EXPECT_TRUE(rp.boundaries[0].overlapped);
  // The PP pair splits the array and overlaps: the composed pair runs no
  // longer than the serialized pair on the same split, and the makespan is
  // at least each member's own cycles.
  EXPECT_LT(rp.phases[0].pes + rp.phases[1].pes,
            omega.config().num_pes + 1);
  EXPECT_EQ(rp.phases[0].pes + rp.phases[1].pes, omega.config().num_pes);
  EXPECT_GE(rp.cycles, rp.phases[2].result.cycles);
  const std::uint64_t serialized = rp.phases[0].result.cycles +
                                   rp.phases[1].result.cycles +
                                   rp.phases[2].result.cycles;
  EXPECT_LE(rp.cycles, serialized);
}

TEST(PipelineRunTest, SingleDensePhasePipeline) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  PipelineSpec s;
  s.phases = {make_phase("mlp", PhaseEngine::kDenseDense, "VsGsFt",
                         {.v = 8, .n = 1, .f = 1, .g = 8}, 32)};
  const PipelineResult r = omega.run_pipeline(w, s);
  ASSERT_EQ(r.phases.size(), 1u);
  EXPECT_TRUE(r.boundaries.empty());
  EXPECT_EQ(r.cycles, r.phases[0].result.cycles);
  EXPECT_EQ(r.out_features, 32u);
}

// ---- Sparse-weight Combination engine ---------------------------------------

TEST(SparseWeightTest, CsrShapeFollowsDensity) {
  const CSRGraph w1 = sparse_weight_csr(64, 16, 1.0);
  EXPECT_EQ(w1.num_vertices(), 16u);
  EXPECT_EQ(w1.num_edges(), 64u * 16u);
  const CSRGraph w2 = sparse_weight_csr(64, 16, 0.25);
  EXPECT_EQ(w2.num_edges(), 16u * 16u);
  // Density so small it rounds to zero still keeps one nonzero per row.
  const CSRGraph w3 = sparse_weight_csr(64, 16, 0.001);
  EXPECT_EQ(w3.num_edges(), 16u);
}

TEST(SparseWeightTest, CyclesMonotoneNonIncreasingInDensity) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t densest = 0;
  std::uint64_t sparsest = 0;
  for (const double d : {1.0, 0.75, 0.5, 0.25, 0.1, 0.05}) {
    PipelineSpec s = gat_pipeline(d, InterPhase::kSequential,
                                  InterPhase::kSequential);
    const PipelineResult r = omega.run_pipeline(w, s);
    const std::uint64_t xform = r.phases[2].result.cycles;
    EXPECT_LE(xform, prev) << "density " << d;
    prev = xform;
    if (d == 1.0) densest = xform;
    if (d == 0.05) sparsest = xform;
  }
  // The sweep must actually move, not just not-regress.
  EXPECT_LT(sparsest, densest);
}

TEST(SparseWeightTest, FullDensityMatchesDenseMacCount) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  PipelineSpec sparse;
  sparse.phases = {make_phase("xform", PhaseEngine::kSparseSparse, "GsVtFt",
                              {.v = 1, .n = 1, .f = 1, .g = 8}, 8, 1.0)};
  PipelineSpec dense;
  dense.phases = {make_phase("xform", PhaseEngine::kDenseDense, "VtGsFt",
                             {.v = 1, .n = 1, .f = 1, .g = 8}, 8)};
  const PipelineResult rs = omega.run_pipeline(w, sparse);
  const PipelineResult rd = omega.run_pipeline(w, dense);
  // Same contraction work at density 1.0: V * F * G MACs.
  EXPECT_EQ(rs.phases[0].result.macs, rd.phases[0].result.macs);
}

// ---- Validation -------------------------------------------------------------

TEST(PipelineSpecTest, ValidationRejectsTheDocumentedTraps) {
  const auto err = [](PipelineSpec s) {
    const auto e = s.validation_error();
    return e.value_or("");
  };

  PipelineSpec empty;
  EXPECT_NE(err(empty).find("at least one phase"), std::string::npos);

  PipelineSpec wrong_vocab;
  wrong_vocab.phases = {make_phase("agg", PhaseEngine::kSparseDense, "VtNtFt",
                                   {})};
  wrong_vocab.phases[0].dataflow.phase = GnnPhase::kCombination;
  EXPECT_NE(err(wrong_vocab).find("vocabulary"), std::string::npos);

  PipelineSpec no_width;
  no_width.phases = {make_phase("mlp", PhaseEngine::kDenseDense, "VtFtGt", {})};
  EXPECT_NE(err(no_width).find("out_features"), std::string::npos);

  PipelineSpec agg_width;
  agg_width.phases = {make_phase("agg", PhaseEngine::kSparseDense, "VtNtFt",
                                 {})};
  agg_width.phases[0].out_features = 8;
  EXPECT_NE(err(agg_width).find("preserve"), std::string::npos);

  PipelineSpec bad_density;
  bad_density.phases = {make_phase("x", PhaseEngine::kSparseSparse, "GtVtFt",
                                   {}, 8, 0.0)};
  EXPECT_NE(err(bad_density).find("weight_density"), std::string::npos);
  bad_density.phases[0].weight_density =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(err(bad_density).find("weight_density"), std::string::npos);

  PipelineSpec stray_density;
  stray_density.phases = {make_phase("mlp", PhaseEngine::kDenseDense,
                                     "VtFtGt", {}, 8, 0.5)};
  EXPECT_NE(err(stray_density).find("only applies"), std::string::npos);

  // Sparse-weight phases walk W rows G-major: F outside G is rejected.
  PipelineSpec scatter_w;
  scatter_w.phases = {make_phase("x", PhaseEngine::kSparseSparse, "VtFtGt",
                                 {}, 8, 0.5)};
  EXPECT_NE(err(scatter_w).find("G outside F"), std::string::npos);

  // A sparse-weight phase cannot consume a chunked intermediate, even when
  // the hand-off orders themselves are compatible (gather producer, VGF
  // consumer — both row-major).
  PipelineSpec chunked_into_sw;
  chunked_into_sw.phases = {
      make_phase("agg", PhaseEngine::kSparseDense, "VtFsNt",
                 {.v = 1, .n = 1, .f = 16, .g = 1}),
      make_phase("xform", PhaseEngine::kSparseSparse, "VtGsFt",
                 {.v = 1, .n = 1, .f = 1, .g = 8}, 8, 0.5),
  };
  chunked_into_sw.boundaries = {InterPhase::kSPGeneric};
  EXPECT_NE(err(chunked_into_sw).find("sparse-weight"), std::string::npos);

  // A phase may stage chunks through at most one adjacent boundary. All
  // three phases traverse column-major so BOTH hand-offs are individually
  // feasible — the middle phase's single chunk grid is the blocker.
  PipelineSpec both_chunked;
  both_chunked.phases = {
      make_phase("score", PhaseEngine::kDenseDense, "GsVtFt",
                 {.v = 1, .n = 1, .f = 1, .g = 8}, 16),
      make_phase("agg", PhaseEngine::kSparseDense, "FsVtNt",
                 {.v = 1, .n = 1, .f = 8, .g = 1}),
      make_phase("mlp", PhaseEngine::kDenseDense, "FtVtGs",
                 {.v = 1, .n = 1, .f = 1, .g = 8}, 8),
  };
  both_chunked.boundaries = {InterPhase::kSPGeneric, InterPhase::kSPGeneric};
  EXPECT_NE(err(both_chunked).find("at most one"), std::string::npos);

  // Boundary count and pe_fractions arity.
  PipelineSpec arity = gat_pipeline(0.5, InterPhase::kSequential,
                                    InterPhase::kSequential);
  arity.boundaries.pop_back();
  EXPECT_NE(err(arity).find("boundary"), std::string::npos);
  PipelineSpec fracs = gat_pipeline(0.5, InterPhase::kSequential,
                                    InterPhase::kSequential);
  fracs.pe_fractions = {0.5, 0.5};
  EXPECT_NE(err(fracs).find("pe_fractions"), std::string::npos);
  fracs.pe_fractions = {0.5, 0.5, 0.0};
  EXPECT_NE(err(fracs).find("pe_fractions"), std::string::npos);
}

TEST(PipelineSpecTest, InfeasibleChunkedHandoffNamesThePair) {
  // A gather aggregate (V outside N) revisits nothing as a producer but its
  // CONSUMER role places V outermost — SP-Generic from a dense producer
  // into a gather aggregate is infeasible, and the error names both phases.
  PipelineSpec s;
  s.phases = {
      make_phase("score", PhaseEngine::kDenseDense, "VsFtGs",
                 {.v = 8, .n = 1, .f = 1, .g = 8}, 16),
      make_phase("agg", PhaseEngine::kSparseDense, "VtNtFs",
                 {.v = 1, .n = 1, .f = 16, .g = 1}),
  };
  s.boundaries = {InterPhase::kSPGeneric};
  const auto e = s.validation_error();
  ASSERT_TRUE(e.has_value());
  EXPECT_NE(e->find("score"), std::string::npos);
  EXPECT_NE(e->find("agg"), std::string::npos);
  EXPECT_THROW(s.validate(), InvalidDataflowError);
}

TEST(BindTimeValidationTest, PpFractionTrapsRejectedAtBind) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  const LayerSpec layer{16};

  // NaN passes DataflowDescriptor::validate's range checks (NaN fails both
  // comparisons) and used to reach llround — UB. Omega::run now rejects it.
  DataflowDescriptor df = DataflowDescriptor::parse("PP_AC(VtFsNt, VsGsFt)");
  df.agg.tiles = {.v = 1, .n = 1, .f = 16, .g = 1};
  df.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 8};
  df.pp_agg_pe_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)omega.run(w, layer, df), ResourceError);

  // Pattern bind time: 0 / 1 / NaN starve a phase of its tile budget in
  // bind_tiles before any allocation clamp.
  for (const double bad :
       {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    DataflowPattern p = pattern_by_name("PP1");
    p.pp_agg_pe_fraction = bad;
    EXPECT_THROW((void)omega.run_pattern(w, layer, p), ResourceError)
        << "fraction " << bad;
  }

  // Outside PP the fraction stays documented-ignored (the candidate
  // generator passes 1.0 for Seq/SP descriptors).
  DataflowDescriptor seq = DataflowDescriptor::parse("Seq_AC(VtNtFt, VtFtGt)");
  seq.pp_agg_pe_fraction = 1.0;
  EXPECT_NO_THROW((void)omega.run(w, layer, seq));
}

TEST(BindTimeValidationTest, ZeroOutputWidthStaysACleanThrow) {
  // The pre-validated adapter path trusts the lowered spec's widths, so the
  // legacy dims guard must keep G == 0 from reaching the GEMM engine's
  // tile math (min(tiles.g, 0) == 0 would divide by zero in ceil_div).
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  const DataflowDescriptor df =
      DataflowDescriptor::parse("Seq_AC(VtNtFt, VtFtGt)");
  EXPECT_THROW((void)omega.run(w, LayerSpec{0}, df), InvalidArgumentError);
}

TEST(PipelineSpecTest, PpShareTrapsRejectedAtRun) {
  const GnnWorkload w = cora_workload();
  const Omega omega(small_hw());
  PipelineSpec s = gat_pipeline(0.5, InterPhase::kParallelPipeline,
                                InterPhase::kSequential);
  s.pe_fractions = {0.5, 0.5, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)omega.run_pipeline(w, s), InvalidDataflowError);
  s.pe_fractions = {0.5, 0.0, 0.5};
  EXPECT_THROW((void)omega.run_pipeline(w, s), InvalidDataflowError);

  AcceleratorConfig one_pe;
  one_pe.num_pes = 1;
  const Omega tiny(one_pe);
  PipelineSpec pp = gat_pipeline(0.5, InterPhase::kParallelPipeline,
                                 InterPhase::kSequential);
  // Shrink tiles so validation passes and the PE check is what fires.
  for (auto& p : pp.phases) p.dataflow.tiles = TileSizes{};
  pp.phases[1].dataflow.tiles.f = 1;
  EXPECT_THROW((void)tiny.run_pipeline(w, pp), ResourceError);
}

TEST(PipelineSpecTest, EngineNamesRoundTrip) {
  EXPECT_EQ(phase_engine_from_string("spmm"), PhaseEngine::kSparseDense);
  EXPECT_EQ(phase_engine_from_string("sparse_dense"),
            PhaseEngine::kSparseDense);
  EXPECT_EQ(phase_engine_from_string("GEMM"), PhaseEngine::kDenseDense);
  EXPECT_EQ(phase_engine_from_string("dense"), PhaseEngine::kDenseDense);
  EXPECT_EQ(phase_engine_from_string("spgemm"), PhaseEngine::kSparseSparse);
  EXPECT_EQ(phase_engine_from_string("sparse_weight"),
            PhaseEngine::kSparseSparse);
  EXPECT_THROW(phase_engine_from_string("dyn"), InvalidArgumentError);
  for (const PhaseEngine e :
       {PhaseEngine::kSparseDense, PhaseEngine::kDenseDense,
        PhaseEngine::kSparseSparse}) {
    EXPECT_EQ(phase_engine_from_string(to_string(e)), e);
  }
}

TEST(TwoPhaseAdapterTest, SpecShapeFollowsPhaseOrder) {
  DataflowDescriptor ac = DataflowDescriptor::parse("Seq_AC(VtNtFt, VtFtGt)");
  const PipelineSpec sac = two_phase_pipeline(ac, LayerSpec{16});
  ASSERT_EQ(sac.phases.size(), 2u);
  EXPECT_EQ(sac.phases[0].engine, PhaseEngine::kSparseDense);
  EXPECT_EQ(sac.phases[1].engine, PhaseEngine::kDenseDense);
  EXPECT_EQ(sac.phases[1].out_features, 16u);
  ASSERT_EQ(sac.boundaries.size(), 1u);
  EXPECT_EQ(sac.boundaries[0], InterPhase::kSequential);
  EXPECT_FALSE(sac.validation_error().has_value());

  DataflowDescriptor ca = DataflowDescriptor::parse("Seq_CA(VtNtFt, VtFtGt)");
  const PipelineSpec sca = two_phase_pipeline(ca, LayerSpec{16});
  EXPECT_EQ(sca.phases[0].engine, PhaseEngine::kDenseDense);
  EXPECT_EQ(sca.phases[1].engine, PhaseEngine::kSparseDense);
  EXPECT_FALSE(sca.validation_error().has_value());
}

// The Table III sizes saturate in the one boundary plan (DESIGN.md
// "Overflow contract"): once a size product passes 2^64 it reads UINT64_MAX
// instead of wrapping to a small number, a PP partition that large is
// priced at the GB rate, and the eval plan still agrees with run_pipeline.
TEST(OverflowTest, BoundaryPlanSizesSaturate) {
  Rng rng(29);
  GnnWorkload w;
  w.name = "rmat";
  w.adjacency = rmat(7, 800, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  const EnergyModel& em = omega.energy_model();
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  const auto expect_plan_matches = [&](const PipelineSpec& spec,
                                       const PipelineResult& r) {
    const PipelineChainSpec chain = PipelineChainSpec::of(spec);
    std::vector<IntraPhaseDataflow> dfs;
    for (const PhaseSpec& p : spec.phases) dfs.push_back(p.dataflow);
    PipelineDeltaState state;
    const EvalOutcome o =
        PipelineEvalPlan::obtain(omega, w, chain, context)
            ->evaluate({dfs, spec.boundaries, spec.pe_fractions}, state);
    ASSERT_TRUE(o.ok);
    EXPECT_EQ(o.cycles, r.cycles);
    EXPECT_EQ(o.on_chip_pj, r.energy.on_chip_pj());
  };

  // agg(VNF, T_V = T_F = 4) ->PP-> agg2(NVF) hands off whole rows, so
  // Pel = T_Vmax * F = 4 * 2^62 = 2^64.
  PipelineSpec pp;
  pp.in_features = std::size_t{1} << 62;
  pp.phases.resize(2);
  pp.phases[0].name = "agg";
  pp.phases[1].name = "agg2";
  for (PhaseSpec& p : pp.phases) {
    p.engine = PhaseEngine::kSparseDense;
    p.dataflow.phase = GnnPhase::kAggregation;
  }
  pp.phases[0].dataflow.order = LoopOrder(Dim::kV, Dim::kN, Dim::kF);
  pp.phases[0].dataflow.tiles = {.v = 4, .n = 1, .f = 4, .g = 1};
  pp.phases[1].dataflow.order = LoopOrder(Dim::kN, Dim::kV, Dim::kF);
  pp.boundaries = {InterPhase::kParallelPipeline};
  const PipelineResult rp = omega.run_pipeline(w, pp, &context);
  const BoundaryOutcome& bp = rp.boundaries[0];
  EXPECT_EQ(bp.granularity, Granularity::kRow);
  EXPECT_EQ(bp.pipeline_elements, kMax);
  EXPECT_EQ(bp.buffer_elements, kMax);
  const std::uint64_t partition_accesses =
      rp.traffic.intermediate_partition.total();
  ASSERT_GT(partition_accesses, 0u);
  EXPECT_EQ(rp.energy.partition_pj,
            static_cast<double>(partition_accesses) * em.gb_access_pj);
  expect_plan_matches(pp, rp);

  // A Seq gemm producer with G = 2^60 buffers V * G = 2^67 elements, and
  // the intermediate spills.
  PipelineSpec seq;
  seq.phases.resize(2);
  seq.phases[0].name = "score";
  seq.phases[0].engine = PhaseEngine::kDenseDense;
  seq.phases[0].dataflow.phase = GnnPhase::kCombination;
  seq.phases[0].dataflow.order = LoopOrder(Dim::kV, Dim::kG, Dim::kF);
  seq.phases[0].out_features = std::size_t{1} << 60;
  seq.phases[1].name = "agg";
  seq.phases[1].engine = PhaseEngine::kSparseDense;
  seq.phases[1].dataflow.order = LoopOrder(Dim::kV, Dim::kF, Dim::kN);
  seq.boundaries = {InterPhase::kSequential};
  const PipelineResult rs = omega.run_pipeline(w, seq, &context);
  EXPECT_EQ(rs.boundaries[0].buffer_elements, kMax);
  EXPECT_TRUE(rs.boundaries[0].spilled);
  expect_plan_matches(seq, rs);
}

}  // namespace
}  // namespace omega
