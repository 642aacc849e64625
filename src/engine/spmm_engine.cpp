#include "engine/spmm_engine.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

/// Splits `total_cycles` across the row blocks of a row-major grid so that
/// partial sums follow the cumulative step profile `cum_steps` (monotone,
/// last == critical path).
/// Exact integer proportioning (128-bit multiply, then divide): chunk
/// timelines are bit-identical across platforms and never drop cycles to
/// floating-point rounding; the final chunk absorbs the division remainder.
std::vector<std::uint64_t> scale_chunks(
    const std::vector<std::uint64_t>& cum_steps, std::uint64_t critical_path,
    std::uint64_t total_cycles) {
  std::vector<std::uint64_t> out(cum_steps.size(), 0);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < cum_steps.size(); ++i) {
    const std::uint64_t cum =
        critical_path == 0
            ? total_cycles
            : static_cast<std::uint64_t>(
                  // omega-lint: allow(raw-arith): exact 128-bit proportioning, quotient <= total_cycles
                  static_cast<unsigned __int128>(cum_steps[i]) * total_cycles /
                  critical_path);
    const std::uint64_t clamped = std::min(cum, total_cycles);
    out[i] = clamped - prev;
    prev = clamped;
  }
  if (!out.empty()) out.back() += total_cycles - prev;
  return out;
}

}  // namespace

void SpmmPhaseConfig::validate() const {
  OMEGA_CHECK(graph != nullptr, "SpMM phase needs a graph");
  order.validate(GnnPhase::kAggregation);
  OMEGA_CHECK(feat >= 1, "feature width must be >= 1");
  OMEGA_CHECK(pes >= 1, "phase needs at least one PE");
  OMEGA_CHECK(bw_dist >= 1 && bw_red >= 1, "bandwidth must be >= 1");
  const std::size_t v = graph->num_vertices();
  const std::size_t spatial = std::min(tiles.v, std::max<std::size_t>(v, 1)) *
                              tiles.n * std::min(tiles.f, feat);
  OMEGA_CHECK(spatial <= pes,
              "spatial tile footprint exceeds the PEs allocated to the phase");
}

PhaseResult run_spmm_phase(const SpmmPhaseConfig& cfg) {
  // The lane schedules come from the context's graph, so a mis-bound
  // context must fail loudly rather than time another graph's walk.
  OMEGA_CHECK(cfg.context == nullptr || &cfg.context->graph() == cfg.graph,
              "WorkloadContext is bound to a different graph");
  cfg.validate();
  const CSRGraph& g = *cfg.graph;
  const std::size_t v_extent = g.num_vertices();
  const std::uint64_t edges = g.num_edges();

  const std::size_t dv = cfg.order.depth_of(Dim::kV);
  const std::size_t dn = cfg.order.depth_of(Dim::kN);
  const std::size_t df = cfg.order.depth_of(Dim::kF);
  const bool gather = dv < dn;  // vertex lanes walk their own rows
  // Scatter orders walk the reverse adjacency and push into outputs.
  const bool f_outside_lanes = gather ? df < dn : df < dv;
  const bool f_outside_rows = gather ? df < dv : df < dn;

  // In gather mode T_V spans walked rows and T_N the in-row lanes; scatter
  // swaps the roles (T_N spans intermediate rows, T_V the push lanes).
  const std::size_t lanes =
      std::min(gather ? std::max<std::size_t>(cfg.tiles.v, 1)
                      : std::max<std::size_t>(cfg.tiles.n, 1),
               std::max<std::size_t>(v_extent, 1));
  const std::size_t lane_width =
      gather ? std::max<std::size_t>(cfg.tiles.n, 1)
             : std::max<std::size_t>(cfg.tiles.v, 1);
  const std::size_t tf = std::min(std::max<std::size_t>(cfg.tiles.f, 1), cfg.feat);
  const std::uint64_t c_f = ceil_div(cfg.feat, tf);

  // Resolve the walked adjacency and its base (c_f == 1) lane schedule —
  // through the per-workload memo when a context is attached, fresh
  // otherwise. Schedule quantities are scaled by c_f at their use sites;
  // the scaling is exact, so both paths produce identical results.
  LaneSchedule local_sched;
  std::shared_ptr<const LaneSchedule> cached_sched;
  std::shared_ptr<const CSRGraph> local_transpose;
  const LaneSchedule* base = nullptr;
  if (cfg.context != nullptr) {
    cached_sched = cfg.context->lane_schedule(gather, lanes, lane_width);
    base = cached_sched.get();
  } else {
    const CSRGraph* walk = &g;
    if (!gather) {
      local_transpose = std::make_shared<const CSRGraph>(g.transposed());
      walk = local_transpose.get();
    }
    local_sched = build_lane_schedule(*walk, lanes, lane_width);
    base = &local_sched;
  }
  const std::uint64_t critical_path = sat_mul_u64(base->critical_path, c_f);
  const std::uint64_t base_total_steps = base->total_steps;  // c_f == 1

  const bool weighted = g.has_values();
  const std::uint64_t id_words = weighted ? 2 : 1;

  const std::size_t b_bw = cfg.b_stream_bw > 0 ? cfg.b_stream_bw : cfg.bw_dist;
  const std::size_t out_bw =
      cfg.out_drain_bw > 0 ? cfg.out_drain_bw : cfg.bw_red;

  PhaseResult r;
  const std::size_t tree_in = gather && lane_width > 1 ? lane_width : 1;
  r.fill_cycles = 2 + static_cast<std::uint64_t>(std::bit_width(tree_in) - 1);
  r.issue_steps = critical_path;
  r.macs = sat_mul_u64(edges, cfg.feat);
  r.active_pe_cycles = r.macs;

  // ---- Traffic (exact totals; see DESIGN.md cost-model semantics) --------

  // B matrix: gather fetches one element per (edge, feature); scatter
  // multicasts each walked row slice once per lane-chunk step.
  std::uint64_t b_elems = 0;
  if (gather) {
    b_elems = r.macs;
  } else {
    b_elems = sat_mul_u64(base_total_steps, cfg.feat);  // sum of trips * Feat
  }
  if (cfg.b_from_rf) {
    r.traffic.rf.reads += b_elems;
  } else if (cfg.b_in_dram) {
    r.traffic.dram.reads += b_elems;
    r.traffic.rf.writes += b_elems;
  } else if (cfg.b_via_partition) {
    r.traffic.intermediate_partition.reads += b_elems;
    r.traffic.rf.writes += b_elems;
  } else {
    r.traffic.gb_for(cfg.b_category).reads += b_elems;
    r.traffic.rf.writes += b_elems;
  }

  // CSR metadata: edge ids (+ values) per row walk; rewalked per feature
  // tile when the F loop encloses the lane loop. Row pointers per walk.
  const std::uint64_t id_elems =
      sat_mul_u64(sat_mul_u64(edges, id_words), f_outside_lanes ? c_f : 1);
  const std::uint64_t ptr_elems =
      sat_mul_u64(v_extent, f_outside_rows ? c_f : 1);
  r.traffic.gb_for(TrafficCategory::kAdjacency).reads += id_elems + ptr_elems;

  // Outputs.
  const std::uint64_t out_total = sat_mul_u64(v_extent, cfg.feat);
  std::uint64_t psum_pairs = 0;  // spill+reload pairs (elements)
  std::uint64_t scatter_rmw = 0;
  if (gather) {
    // RF-resident partial sums: with F inside the lane loop (VNF) each lane
    // must keep the whole feature row live between neighbor chunks.
    const std::uint64_t covered_f = f_outside_lanes ? tf : cfg.feat;
    const std::uint64_t live_per_pe =
        ceil_div(covered_f, static_cast<std::uint64_t>(lane_width) * tf);
    const bool psums_fit =
        live_per_pe <= std::max<std::size_t>(cfg.rf_elements / 2, 1);
    if (!f_outside_lanes && !psums_fit) {
      // One spill+reload per non-final neighbor chunk per feature element.
      psum_pairs = sat_mul_u64(
          base_total_steps - static_cast<std::uint64_t>(v_extent), cfg.feat);
      r.traffic.gb_for(TrafficCategory::kPsum).writes += psum_pairs;
      r.traffic.gb_for(TrafficCategory::kPsum).reads += psum_pairs;
      r.traffic.rf.reads += psum_pairs;
      r.traffic.rf.writes += psum_pairs;
    }
    if (cfg.out_to_rf) {
      r.traffic.rf.writes += out_total;
    } else if (cfg.out_in_dram) {
      r.traffic.dram.writes += out_total;
    } else if (cfg.out_via_partition) {
      r.traffic.intermediate_partition.writes += out_total;
    } else {
      r.traffic.gb_for(cfg.out_category).writes += out_total;
    }
  } else {
    // Scatter accumulation: every (edge, feature) update is a GB
    // read-modify-write except each element's first touch; the final value
    // is the output write.
    scatter_rmw = r.macs > out_total ? r.macs - out_total : 0;
    r.traffic.gb_for(TrafficCategory::kPsum).reads += scatter_rmw;
    r.traffic.gb_for(TrafficCategory::kPsum).writes += scatter_rmw;
    if (cfg.out_in_dram) r.traffic.dram.writes += out_total;
    else if (cfg.out_via_partition)
      r.traffic.intermediate_partition.writes += out_total;
    else r.traffic.gb_for(cfg.out_category).writes += out_total;
  }

  // RF accounting: operand reads + accumulator read-modify-write per MAC.
  r.traffic.rf.reads += sat_mul_u64(3, r.macs);
  r.traffic.rf.writes += r.macs;

  // ---- Cycles: critical path vs throughput bounds -------------------------

  std::uint64_t gb_stream = sat_add_u64(id_elems, ptr_elems);
  if (!cfg.b_from_rf && !cfg.b_in_dram) {
    gb_stream = sat_add_u64(gb_stream, b_elems);
  }
  std::uint64_t red_volume = sat_mul_u64(scatter_rmw, 2);
  if (!gather) red_volume = sat_add_u64(red_volume, out_total);
  std::uint64_t drain_volume = gather && !cfg.out_to_rf ? out_total : 0;

  std::uint64_t cycles = critical_path;
  cycles = std::max(cycles, ceil_div(gb_stream, cfg.bw_dist));
  if (cfg.b_in_dram) cycles = std::max(cycles, ceil_div(b_elems, b_bw));
  cycles = std::max(cycles, ceil_div(red_volume, cfg.bw_red));
  if (drain_volume > 0) {
    cycles = std::max(
        cycles, ceil_div(drain_volume, cfg.out_in_dram ? out_bw : cfg.bw_red));
  }
  r.stall_cycles = cycles - critical_path;

  // Partial-sum spills serialize on top of the streaming steady state.
  r.psum_cycles = sat_add_u64(ceil_div(psum_pairs, cfg.bw_red),
                              ceil_div(psum_pairs, cfg.bw_dist));
  cycles = sat_add_u64(cycles, sat_add_u64(r.psum_cycles, r.fill_cycles));
  r.cycles = cycles;

  // ---- Chunk timeline ------------------------------------------------------

  // Lane traversal produces chunks in grid order, so each chunk's
  // completion is the prefix sum of the durations; both timelines are
  // written in the one pass that produces the durations.
  const std::size_t num_chunks =
      cfg.chunk_target == ChunkTarget::kNone ? 1 : cfg.chunks.num_chunks();
  if (num_chunks <= 1) {
    r.chunk_cycles.assign(1, r.cycles);
    r.chunk_completion.assign(1, r.cycles);
    return r;
  }
  r.chunk_cycles.resize(num_chunks);
  r.chunk_completion.resize(num_chunks);

  const std::size_t row_blocks = cfg.chunks.row_blocks();
  const std::size_t col_blocks = cfg.chunks.col_blocks();
  if (cfg.chunks.major == TraversalMajor::kColumnMajor || row_blocks == 1) {
    // Column-granular (or single row block): each of the n passes covers
    // the same rows, so chunk i ends at step s_i = floor(cp * (i+1) / n)
    // of the critical path cp and at cycle done_i = floor(s_i * T / cp)
    // of the total T (DESIGN.md "Chunk-grid contract").
    const std::uint64_t total = r.cycles;
    const std::uint64_t cp = critical_path;
    if (cp == 0) {
      // Nothing to proportion against: the first chunk carries it all.
      r.chunk_cycles[0] = total;
      std::fill(r.chunk_completion.begin(), r.chunk_completion.end(), total);
      return r;
    }
    // Both floors are stepped exactly by quotient and remainder. s_i grows
    // by q0 = cp / n, plus one whenever the step remainder
    // (cp * (i+1) mod n) wraps. Each of the two increments q0 + w
    // (w = 0, 1; q0 + 1 <= cp since n >= 2) splits once against T as
    // (q0 + w) * T = quot[w] * cp + (cp - rem_gap[w]), and done_i grows by
    // quot[w], plus one whenever the cycle remainder (s_i * T mod cp)
    // wraps. Both remainders stay below their moduli, and each wrap test
    // compares against the gap to the modulus, so no sum can overflow. The
    // last chunk lands on s = cp and done = T exactly.
    const std::uint64_t n = num_chunks;
    const std::uint64_t q0 = cp / n;
    const std::uint64_t step_gap = n - cp % n;  // wrap when step_rem >= gap
    std::uint64_t quot[2];
    std::uint64_t rem_gap[2];
    for (std::uint64_t w = 0; w < 2; ++w) {
      const unsigned __int128 dt =
          static_cast<unsigned __int128>(q0 + w) * total;
      quot[w] = static_cast<std::uint64_t>(dt / cp);
      rem_gap[w] = cp - static_cast<std::uint64_t>(dt % cp);
    }
    std::uint64_t step_rem = 0;   // cp * (i+1) mod n
    std::uint64_t cycle_rem = 0;  // s_i * T mod cp
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < num_chunks; ++i) {
      const bool wide = step_rem >= step_gap;
      step_rem = wide ? step_rem - step_gap : step_rem + (n - step_gap);
      const std::uint64_t gap = rem_gap[wide];
      const bool carry = cycle_rem >= gap;
      // omega-lint: allow(raw-arith): remainder step mod cp, stays below cp
      cycle_rem = carry ? cycle_rem - gap : cycle_rem + (cp - gap);
      const std::uint64_t dur = quot[wide] + (carry ? 1 : 0);
      done += dur;
      r.chunk_cycles[i] = dur;
      r.chunk_completion[i] = done;
    }
    return r;
  }

  // Row-major chunks: completion of a row block is the slowest lane's
  // finish over its rows — the schedule's prefix max at the block's last
  // row, O(row_blocks) instead of a rescan of all V rows per candidate.
  // Element granularity splits each row block evenly across its column
  // chunks. Blocks past the last row complete with their predecessor (the
  // prefix max is monotone, so the clamp covers them).
  const std::size_t row_block =
      std::min(cfg.chunks.row_block, std::max<std::size_t>(v_extent, 1));
  std::vector<std::uint64_t> block_cum(row_blocks, 0);
  for (std::size_t b = 0; b < row_blocks && v_extent > 0; ++b) {
    const std::size_t last =
        std::min((b + 1) * row_block, std::size_t{v_extent}) - 1;
    block_cum[b] = sat_mul_u64(
        base->row_finish_prefix[b + 1 == row_blocks ? v_extent - 1 : last],
        c_f);
  }
  const std::vector<std::uint64_t> block_cycles =
      scale_chunks(block_cum, critical_path, r.cycles);
  // Split each row block's cycles evenly over its column chunks: the first
  // col_blocks - r chunks get q, the rest q + 1 (q, r = divmod), which is
  // exactly the successive floor(rem / remaining) distribution.
  std::uint64_t done = 0;
  for (std::size_t b = 0; b < row_blocks; ++b) {
    const std::uint64_t q = block_cycles[b] / col_blocks;
    const std::size_t rmd = static_cast<std::size_t>(block_cycles[b] % col_blocks);
    for (std::size_t c = 0; c < col_blocks; ++c) {
      const std::uint64_t dur = q + (c >= col_blocks - rmd ? 1 : 0);
      done += dur;
      r.chunk_cycles[b * col_blocks + c] = dur;
      r.chunk_completion[b * col_blocks + c] = done;
    }
  }
  return r;
}

}  // namespace omega
