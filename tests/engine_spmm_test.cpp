// SpMM cost-engine tests: ragged lockstep ("evil rows"), CSR metadata
// traffic, psum behaviour, and the scatter (CA-style) traversal family.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <vector>

#include "util/error.hpp"

#include "engine/schedule_cache.hpp"
#include "engine/spmm_engine.hpp"
#include "graph/generators.hpp"
#include "omega/omega.hpp"
#include "util/saturate.hpp"

namespace omega {
namespace {

SpmmPhaseConfig base_config(const CSRGraph& g, const char* order,
                            TileSizes tiles, std::size_t feat) {
  SpmmPhaseConfig cfg;
  cfg.graph = &g;
  cfg.feat = feat;
  cfg.order = LoopOrder::parse(order, GnnPhase::kAggregation);
  cfg.tiles = tiles;
  cfg.pes = 512;
  return cfg;
}

TEST(SpmmEngineTest, MacsEqualEdgesTimesFeatures) {
  const CSRGraph g = paper_example_graph();
  for (const char* order : {"VFN", "VNF", "FVN", "NVF", "NFV", "FNV"}) {
    const auto r = run_spmm_phase(
        base_config(g, order, {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
    EXPECT_EQ(r.macs, g.num_edges() * 4) << order;
  }
}

TEST(SpmmEngineTest, InputReadsEqualEdgesTimesFeatures) {
  const CSRGraph g = paper_example_graph();
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kInput).reads,
            g.num_edges() * 4);
}

TEST(SpmmEngineTest, LockstepImbalanceOnStarGraph) {
  // Star: hub degree 8, leaves degree 1. With T_V = 3 and T_N = 1, the tile
  // containing the hub takes 8 steps while its leaves idle.
  const CSRGraph g = star_graph(8);  // 9 vertices, 16 edges
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 3, .n = 1, .f = 1, .g = 1}, 2));
  // Tiles {0,1,2}: max deg 8; {3,4,5}: 1; {6,7,8}: 1. C_F = 2.
  EXPECT_EQ(r.issue_steps, 2u * (8 + 1 + 1));
  // Dynamic utilization is dominated by idle leaf lanes.
  EXPECT_LT(r.utilization(3), 0.7);
}

TEST(SpmmEngineTest, SpatialNeighborsReduceSteps) {
  const CSRGraph g = star_graph(8);
  const auto temporal = run_spmm_phase(
      base_config(g, "VFN", {.v = 1, .n = 1, .f = 1, .g = 1}, 2));
  const auto spatial = run_spmm_phase(
      base_config(g, "VFN", {.v = 1, .n = 4, .f = 1, .g = 1}, 2));
  // ceil(8/4) + 8*ceil(1/4) vs 8 + 8 per feature tile.
  EXPECT_LT(spatial.issue_steps, temporal.issue_steps);
  EXPECT_EQ(temporal.issue_steps, 2u * (8 + 8));
  EXPECT_EQ(spatial.issue_steps, 2u * (2 + 8));
}

TEST(SpmmEngineTest, AdjacencyReadsScaleWithFRevisits) {
  const CSRGraph g = paper_example_graph();  // E = 11, V = 5
  const std::size_t feat = 4;
  // VFN: F outside N -> edge ids re-fetched per feature tile (C_F = 2).
  const auto vfn = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, feat));
  // VNF: F inside N -> ids fetched once.
  const auto vnf = run_spmm_phase(
      base_config(g, "VNF", {.v = 2, .n = 1, .f = 2, .g = 1}, feat));
  const std::uint64_t vfn_adj =
      vfn.traffic.gb_for(TrafficCategory::kAdjacency).reads;
  const std::uint64_t vnf_adj =
      vnf.traffic.gb_for(TrafficCategory::kAdjacency).reads;
  EXPECT_GT(vfn_adj, vnf_adj);
  // VFN: E ids per f-tile (2) + V row pointers; VNF: E ids + V pointers.
  EXPECT_EQ(vfn_adj, 11u * 2 + 5);
  EXPECT_EQ(vnf_adj, 11u + 5);
}

TEST(SpmmEngineTest, WeightedGraphDoublesMetadata) {
  const CSRGraph g = paper_example_graph().gcn_normalized();
  const auto r = run_spmm_phase(
      base_config(g, "VNF", {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
  // id + value per edge, plus V row pointers.
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kAdjacency).reads, 2u * 11 + 5);
}

TEST(SpmmEngineTest, VnfSpillsPsumsAcrossNeighborChunks) {
  // VNF with multiple F tiles and an RF too small to hold the feature row:
  // the F sweep inside each neighbor step evicts accumulators between
  // neighbor chunks.
  const CSRGraph g = paper_example_graph();
  auto cfg = base_config(g, "VNF", {.v = 1, .n = 1, .f = 2, .g = 1}, 4);
  cfg.rf_elements = 2;  // live set is feat/(T_N*T_F) = 2 psums; only 1 fits
  const auto r = run_spmm_phase(cfg);
  // Per vertex: F * (deg - 1) spill pairs; total = F * (E - V).
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kPsum).writes, 4u * (11 - 5));
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kPsum).reads, 4u * (11 - 5));
  // VFN (N innermost) must not spill even with the tiny RF.
  auto vfn_cfg = base_config(g, "VFN", {.v = 1, .n = 1, .f = 2, .g = 1}, 4);
  vfn_cfg.rf_elements = 2;
  const auto vfn = run_spmm_phase(vfn_cfg);
  EXPECT_EQ(vfn.traffic.gb_for(TrafficCategory::kPsum).writes, 0u);
  // With the default 16-element RF the whole 4-feature row stays live.
  const auto roomy = run_spmm_phase(
      base_config(g, "VNF", {.v = 1, .n = 1, .f = 2, .g = 1}, 4));
  EXPECT_EQ(roomy.traffic.gb_for(TrafficCategory::kPsum).writes, 0u);
}

TEST(SpmmEngineTest, OutputWritesOncePerElement) {
  const CSRGraph g = paper_example_graph();
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).writes, 5u * 4);
}

TEST(SpmmEngineTest, OutToRfSuppressesDrains) {
  const CSRGraph g = paper_example_graph();
  auto cfg = base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4);
  cfg.bw_red = 1;  // make output drains visible in the throughput bound
  cfg.out_to_rf = true;
  const auto r = run_spmm_phase(cfg);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).writes, 0u);
  auto gb_cfg = base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4);
  gb_cfg.bw_red = 1;
  const auto gb = run_spmm_phase(gb_cfg);
  EXPECT_LT(r.cycles, gb.cycles);
  EXPECT_GT(gb.traffic.gb_for(TrafficCategory::kIntermediate).writes, 0u);
}

TEST(SpmmEngineTest, ScatterMacsMatchGather) {
  Rng rng(31);
  const CSRGraph g = erdos_renyi(40, 200, rng).with_self_loops();
  const auto gather = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 6));
  const auto scatter = run_spmm_phase(
      base_config(g, "NFV", {.v = 1, .n = 2, .f = 2, .g = 1}, 6));
  EXPECT_EQ(gather.macs, scatter.macs);
}

TEST(SpmmEngineTest, ScatterAccumulatesThroughPsumRmw) {
  const CSRGraph g = paper_example_graph();
  const auto r = run_spmm_phase(
      base_config(g, "NFV", {.v = 1, .n = 1, .f = 2, .g = 1}, 4));
  const std::uint64_t updates = 11u * 4;   // one RMW per (edge, feature)
  const std::uint64_t out = 5u * 4;
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kPsum).writes, updates - out);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kOutput).writes +
                r.traffic.gb_for(TrafficCategory::kIntermediate).writes,
            out);
}

TEST(SpmmEngineTest, BFromRfRemovesGbInputReads) {
  const CSRGraph g = paper_example_graph();
  auto cfg = base_config(g, "NFV", {.v = 1, .n = 1, .f = 2, .g = 1}, 4);
  cfg.b_category = TrafficCategory::kIntermediate;
  cfg.b_from_rf = true;
  const auto r = run_spmm_phase(cfg);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).reads, 0u);
  EXPECT_GT(r.traffic.rf.reads, 0u);
}

TEST(SpmmEngineTest, ChunkCyclesSumToTotalRowGranularity) {
  const CSRGraph g = star_graph(8);
  auto cfg = base_config(g, "VFN", {.v = 3, .n = 1, .f = 1, .g = 1}, 2);
  cfg.chunks.rows = g.num_vertices();
  cfg.chunks.cols = 2;
  cfg.chunks.row_block = 3;
  cfg.chunk_target = ChunkTarget::kMatrixOut;
  const auto r = run_spmm_phase(cfg);
  ASSERT_EQ(r.chunk_cycles.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto c : r.chunk_cycles) sum += c;
  EXPECT_EQ(sum, r.cycles);
  // The hub chunk must be the slowest.
  EXPECT_GT(r.chunk_cycles[0], r.chunk_cycles[1]);
}

TEST(SpmmEngineTest, LowBandwidthStallsGatherStreams) {
  Rng rng(37);
  const CSRGraph g = erdos_renyi(64, 512, rng).with_self_loops();
  auto cfg = base_config(g, "VFN", {.v = 8, .n = 1, .f = 16, .g = 1}, 32);
  const auto fast = run_spmm_phase(cfg);
  cfg.bw_dist = 8;
  const auto slow = run_spmm_phase(cfg);
  EXPECT_GT(slow.cycles, fast.cycles);
  EXPECT_GT(slow.stall_cycles, fast.stall_cycles);
}

TEST(SpmmEngineTest, EmptyRowsStillAdvance) {
  // Graph with an isolated vertex: the engine must not divide by zero or
  // skip the row (it still occupies a lockstep slot).
  const CSRGraph g = CSRGraph::from_rows({{1}, {0}, {}});
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 1, .n = 1, .f = 1, .g = 1}, 2));
  EXPECT_EQ(r.macs, 2u * 2);
  EXPECT_GT(r.cycles, 0u);
}

TEST(SpmmEngineTest, VeryWideFeaturesSaturateInsteadOfWrapping) {
  // One PE walks a 64-vertex graph feature by feature (FVN, unit tiles), so
  // the critical path is the walk times feat: past 2^58 it exceeds 64 bits
  // and must saturate (DESIGN.md "Overflow contract") instead of wrapping
  // to a small count that ranks the workload as cheap.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(41);
  const CSRGraph g = erdos_renyi(64, 512, rng).with_self_loops();
  std::uint64_t prev = 0;
  for (const int log2_feat : {40, 58, 60, 62}) {
    SCOPED_TRACE("feat 2^" + std::to_string(log2_feat));
    const std::size_t feat = std::size_t{1} << log2_feat;
    auto cfg = base_config(g, "FVN", {.v = 1, .n = 1, .f = 1, .g = 1}, feat);
    cfg.pes = 1;
    cfg.chunk_target = ChunkTarget::kMatrixOut;
    cfg.chunks.rows = g.num_vertices();
    cfg.chunks.cols = feat;
    cfg.chunks.col_block = feat / 4;
    cfg.chunks.major = TraversalMajor::kColumnMajor;
    const auto r = run_spmm_phase(cfg);
    EXPECT_GE(r.cycles, prev);
    prev = r.cycles;
    if (log2_feat >= 58) {
      EXPECT_EQ(r.cycles, kMax);
    }
    ASSERT_EQ(r.chunk_cycles.size(), 4u);
    ASSERT_EQ(r.chunk_completion.size(), 4u);
    EXPECT_TRUE(std::is_sorted(r.chunk_completion.begin(),
                               r.chunk_completion.end()));
    EXPECT_EQ(r.chunk_completion.back(), r.cycles);
    for (const std::uint64_t c : r.chunk_cycles) EXPECT_GT(c, 1u);
    if (log2_feat >= 58) {
      EXPECT_EQ(compose_parallel_pipeline(r.chunk_completion, r.chunk_cycles),
                kMax);
    }
  }
}

// ---- Chunk timelines against the two-vector reference ----------------------

/// Reference chunk timeline, in its direct form: a cumulative step profile
/// per chunk (uniform passes: floor(cp * (i+1) / n); row-major: the lane
/// schedule's prefix max per row block), proportioned onto the total cycles
/// by one 128-bit division per entry into a second vector, an even split of
/// each row block over its column chunks, then a prefix-sum pass for the
/// completions. The engine steps the same floors in one pass and must match
/// this element for element.
std::vector<std::uint64_t> reference_scale_chunks(
    const std::vector<std::uint64_t>& cum_steps, std::uint64_t critical_path,
    std::uint64_t total_cycles) {
  std::vector<std::uint64_t> out(cum_steps.size(), 0);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < cum_steps.size(); ++i) {
    const std::uint64_t cum =
        critical_path == 0
            ? total_cycles
            : static_cast<std::uint64_t>(
                  static_cast<unsigned __int128>(cum_steps[i]) * total_cycles /
                  critical_path);
    const std::uint64_t clamped = std::min(cum, total_cycles);
    out[i] = clamped - prev;
    prev = clamped;
  }
  if (!out.empty()) out.back() += total_cycles - prev;
  return out;
}

struct Timeline {
  std::vector<std::uint64_t> cycles;
  std::vector<std::uint64_t> completion;
};

/// Reference timeline of `cfg`, whose engine result is `r` (only its total
/// cycles are read; the critical path is rederived from a fresh lane
/// schedule and checked against r.issue_steps).
Timeline reference_timeline(const SpmmPhaseConfig& cfg, const PhaseResult& r) {
  const CSRGraph& g = *cfg.graph;
  const std::size_t v = g.num_vertices();
  const bool gather = cfg.order.depth_of(Dim::kV) < cfg.order.depth_of(Dim::kN);
  const std::size_t lanes = std::min(
      std::max<std::size_t>(gather ? cfg.tiles.v : cfg.tiles.n, 1),
      std::max<std::size_t>(v, 1));
  const std::size_t lane_width =
      std::max<std::size_t>(gather ? cfg.tiles.n : cfg.tiles.v, 1);
  const std::size_t tf =
      std::min(std::max<std::size_t>(cfg.tiles.f, 1), cfg.feat);
  const std::uint64_t c_f = ceil_div(cfg.feat, tf);
  const LaneSchedule sched = build_lane_schedule(
      gather ? g : g.transposed(), lanes, lane_width);
  const std::uint64_t cp = sat_mul_u64(sched.critical_path, c_f);
  EXPECT_EQ(cp, r.issue_steps) << "reference rederived another schedule";

  Timeline t;
  const std::size_t n = cfg.chunk_target == ChunkTarget::kNone
                            ? 1
                            : cfg.chunks.num_chunks();
  if (n <= 1) {
    t.cycles.assign(1, r.cycles);
  } else if (cfg.chunks.major == TraversalMajor::kColumnMajor ||
             cfg.chunks.row_blocks() == 1) {
    std::vector<std::uint64_t> cum(n);
    for (std::size_t i = 0; i < n; ++i) {
      cum[i] = static_cast<std::uint64_t>(
          static_cast<unsigned __int128>(cp) * (i + 1) / n);
    }
    t.cycles = reference_scale_chunks(cum, cp, r.cycles);
  } else {
    const std::size_t row_blocks = cfg.chunks.row_blocks();
    const std::size_t col_blocks = cfg.chunks.col_blocks();
    const std::size_t row_block =
        std::min(cfg.chunks.row_block, std::max<std::size_t>(v, 1));
    std::vector<std::uint64_t> block_cum(row_blocks, 0);
    for (std::size_t b = 0; b < row_blocks && v > 0; ++b) {
      const std::size_t last = std::min((b + 1) * row_block, v) - 1;
      block_cum[b] = sat_mul_u64(
          sched.row_finish_prefix[b + 1 == row_blocks ? v - 1 : last], c_f);
    }
    const std::vector<std::uint64_t> block_cycles =
        reference_scale_chunks(block_cum, cp, r.cycles);
    t.cycles.assign(n, 0);
    for (std::size_t b = 0; b < row_blocks; ++b) {
      const std::uint64_t q = block_cycles[b] / col_blocks;
      const std::size_t rmd =
          static_cast<std::size_t>(block_cycles[b] % col_blocks);
      for (std::size_t c = 0; c < col_blocks; ++c) {
        t.cycles[b * col_blocks + c] = q + (c >= col_blocks - rmd ? 1 : 0);
      }
    }
  }
  t.completion.resize(t.cycles.size());
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < t.cycles.size(); ++i) {
    cum += t.cycles[i];
    t.completion[i] = cum;
  }
  return t;
}

/// Runs `cfg` and compares both timelines with the reference element-wise,
/// reporting the first differing chunk. Returns the engine result.
PhaseResult expect_reference_timeline(const SpmmPhaseConfig& cfg) {
  const PhaseResult r = run_spmm_phase(cfg);
  const Timeline ref = reference_timeline(cfg, r);
  EXPECT_EQ(r.chunk_cycles.size(), ref.cycles.size());
  EXPECT_EQ(r.chunk_completion.size(), ref.completion.size());
  if (r.chunk_cycles.size() != ref.cycles.size() ||
      r.chunk_completion.size() != ref.completion.size()) {
    return r;
  }
  const auto first_diff = [](const std::vector<std::uint64_t>& a,
                             const std::vector<std::uint64_t>& b) {
    return static_cast<std::size_t>(
        std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
  };
  const std::size_t dc = first_diff(r.chunk_cycles, ref.cycles);
  EXPECT_EQ(dc, ref.cycles.size())
      << "chunk_cycles[" << dc << "] = " << r.chunk_cycles[dc]
      << ", reference " << ref.cycles[dc] << " (of " << ref.cycles.size()
      << " chunks, total " << r.cycles << ", critical path "
      << r.issue_steps << ")";
  const std::size_t dk = first_diff(r.chunk_completion, ref.completion);
  EXPECT_EQ(dk, ref.completion.size())
      << "chunk_completion[" << dk << "] = " << r.chunk_completion[dk]
      << ", reference " << ref.completion[dk] << " (of "
      << ref.completion.size() << " chunks)";
  return r;
}

/// Chunk grid over the V x F produced intermediate. `col_block == feat` is
/// row granularity (one column block); anything smaller is element
/// granularity.
void set_chunks(SpmmPhaseConfig& cfg, std::size_t row_block,
                std::size_t col_block, TraversalMajor major) {
  cfg.chunk_target = ChunkTarget::kMatrixOut;
  cfg.chunks.rows = cfg.graph->num_vertices();
  cfg.chunks.cols = cfg.feat;
  cfg.chunks.row_block = row_block;
  cfg.chunks.col_block = col_block;
  cfg.chunks.major = major;
}

TEST(SpmmEngineTest, ChunkTimelinesMatchReferenceOnRandomGraphs) {
  constexpr std::array<const char*, 6> kOrders = {"VFN", "VNF", "FVN",
                                                  "NVF", "NFV", "FNV"};
  enum class Grid { kColumnMajor, kSingleRowBlock, kRowMajor };
  Rng rng(2027);
  std::array<std::size_t, 3> grids_seen = {0, 0, 0};
  std::size_t element_seen = 0;
  std::size_t row_seen = 0;
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool use_rmat = trial % 2 == 1;
    const std::size_t scale = 4 + rng.next_below(4);  // 16..128 vertices
    const std::size_t v = std::size_t{1} << scale;
    const CSRGraph g =
        use_rmat ? rmat(scale, v * (2 + rng.next_below(8)), rng)
                 : erdos_renyi(v, v * (1 + rng.next_below(8)), rng);
    const std::size_t feat = 1 + rng.next_below(96);
    auto cfg = base_config(
        g, kOrders[rng.next_below(kOrders.size())],
        {.v = 1 + rng.next_below(8), .n = 1 + rng.next_below(4),
         .f = 1 + rng.next_below(feat), .g = 1},
        feat);
    cfg.pes = std::size_t{1} << 20;
    // Stalls, drains and psum spills make the total differ from the
    // critical path, so the proportioning is not the identity.
    cfg.bw_dist = 1 + rng.next_below(64);
    cfg.bw_red = 1 + rng.next_below(64);
    cfg.rf_elements = 1 + rng.next_below(32);

    const auto grid = static_cast<Grid>(trial % 3);
    const bool element = rng.next_below(2) == 0;
    const std::size_t col_block = element ? 1 + rng.next_below(feat) : feat;
    std::size_t row_block = 1 + rng.next_below(v);
    TraversalMajor major = TraversalMajor::kRowMajor;
    if (grid == Grid::kColumnMajor) major = TraversalMajor::kColumnMajor;
    if (grid == Grid::kSingleRowBlock) row_block = v + rng.next_below(v);
    if (grid == Grid::kRowMajor) row_block = 1 + rng.next_below(v / 2);
    set_chunks(cfg, row_block, col_block, major);
    const PhaseResult r = expect_reference_timeline(cfg);
    if (r.chunk_cycles.size() > 1) {
      ++grids_seen[static_cast<std::size_t>(grid)];
      ++(cfg.chunks.col_blocks() > 1 ? element_seen : row_seen);
    }
    if (HasFailure()) return;
  }
  // Every grid shape and both granularities ran with a real chunk grid.
  for (const std::size_t seen : grids_seen) EXPECT_GE(seen, 20u);
  EXPECT_GE(element_seen, 20u);
  EXPECT_GE(row_seen, 20u);
}

TEST(SpmmEngineTest, ChunkTimelineWithZeroCriticalPath) {
  // No rows, so no lane ever steps: the critical path is 0 and the first
  // chunk carries the whole (fill-only) phase.
  const CSRGraph g = CSRGraph::from_rows({});
  auto cfg = base_config(g, "VFN", {.v = 1, .n = 1, .f = 1, .g = 1}, 8);
  set_chunks(cfg, 1, 1, TraversalMajor::kColumnMajor);
  const PhaseResult r = expect_reference_timeline(cfg);
  EXPECT_EQ(r.issue_steps, 0u);
  ASSERT_EQ(r.chunk_cycles.size(), 8u);
  EXPECT_EQ(r.chunk_cycles.front(), r.cycles);
  EXPECT_EQ(r.chunk_completion.front(), r.cycles);
}

TEST(SpmmEngineTest, SaturatedChunkTimelinesMatchReference) {
  // The 64-vertex probe graph of VeryWideFeaturesSaturateInsteadOfWrapping
  // at feat 2^58 and 2^62. With unit feature tiles the walk saturates the
  // critical path (cp == T == 2^64 - 1); with 1024-wide feature tiles the
  // critical path stays near 2^54..2^58 while the starved stream pushes
  // the total toward 2^62, so the 128-bit proportioning runs near the top
  // of its range with carries in play.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(41);
  const CSRGraph g = erdos_renyi(64, 512, rng).with_self_loops();
  std::size_t unsaturated = 0;
  for (const int log2_feat : {58, 62}) {
    for (const std::size_t tf : {std::size_t{1}, std::size_t{1024}}) {
      const std::size_t feat = std::size_t{1} << log2_feat;
      SCOPED_TRACE("feat 2^" + std::to_string(log2_feat) + ", T_F " +
                   std::to_string(tf));
      auto cfg = base_config(g, "FVN", {.v = 8, .n = 1, .f = tf, .g = 1},
                             feat);
      cfg.pes = 8 * tf;
      cfg.bw_dist = 3;
      set_chunks(cfg, 64, feat / 1024, TraversalMajor::kColumnMajor);
      const PhaseResult col = expect_reference_timeline(cfg);
      ASSERT_EQ(col.chunk_completion.size(), 1024u);
      EXPECT_EQ(col.chunk_completion.back(), col.cycles);
      if (col.issue_steps < col.cycles && col.cycles < kMax) ++unsaturated;
      set_chunks(cfg, 64, feat / 7, TraversalMajor::kRowMajor);  // 1 block
      expect_reference_timeline(cfg);
      set_chunks(cfg, 5, feat / 16, TraversalMajor::kRowMajor);
      const PhaseResult row = expect_reference_timeline(cfg);
      EXPECT_EQ(row.chunk_completion.size(), 13u * 16u);
      set_chunks(cfg, 3, feat, TraversalMajor::kRowMajor);
      expect_reference_timeline(cfg);
    }
  }
  EXPECT_EQ(unsaturated, 2u);
}

TEST(SpmmEngineTest, RejectsMissingGraph) {
  SpmmPhaseConfig cfg;
  cfg.feat = 4;
  cfg.order = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  EXPECT_THROW(run_spmm_phase(cfg), Error);
}

}  // namespace
}  // namespace omega
