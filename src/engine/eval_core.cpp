#include "engine/eval_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dataflow/descriptor.hpp"
#include "omega/pipeline.hpp"
#include "util/error.hpp"
#include "util/once.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

bool chunked_inter(InterPhase ip) {
  return ip == InterPhase::kSPGeneric || ip == InterPhase::kParallelPipeline;
}

std::uint64_t pack_order(const LoopOrder& order) {
  return static_cast<std::uint64_t>(order.at(0)) << 8 |
         static_cast<std::uint64_t>(order.at(1)) << 4 |
         static_cast<std::uint64_t>(order.at(2));
}

std::uint64_t pack_chunk_kind(ChunkTarget target, const ChunkSpec& chunks) {
  return static_cast<std::uint64_t>(target) << 8 |
         static_cast<std::uint64_t>(chunks.major);
}

/// Field->term dependency map, spmm side. Mirrors the spmm engine's string
/// memo key field-for-field (everything that determines the PhaseResult
/// besides the graph, which the plan tags in w[19]); see DESIGN.md
/// "Batched evaluation".
EvalTermKey key_of(const SpmmPhaseConfig& cfg) {
  EvalTermKey k;
  k.w = {1ull,  // engine tag
         pack_order(cfg.order),
         cfg.feat,
         cfg.tiles.v,
         cfg.tiles.n,
         cfg.tiles.f,
         cfg.pes,
         cfg.bw_dist,
         cfg.bw_red,
         cfg.rf_elements,
         cfg.b_stream_bw,
         cfg.out_drain_bw,
         static_cast<std::uint64_t>(cfg.out_to_rf) << 5 |
             static_cast<std::uint64_t>(cfg.b_from_rf) << 4 |
             static_cast<std::uint64_t>(cfg.b_in_dram) << 3 |
             static_cast<std::uint64_t>(cfg.out_in_dram) << 2 |
             static_cast<std::uint64_t>(cfg.b_via_partition) << 1 |
             static_cast<std::uint64_t>(cfg.out_via_partition),
         static_cast<std::uint64_t>(cfg.b_category) << 8 |
             static_cast<std::uint64_t>(cfg.out_category),
         pack_chunk_kind(cfg.chunk_target, cfg.chunks),
         cfg.chunks.rows,
         cfg.chunks.cols,
         cfg.chunks.row_block,
         cfg.chunks.col_block,
         0,
         0,
         0};
  return k;
}

/// Field->term dependency map, gemm side.
EvalTermKey key_of(const GemmPhaseConfig& cfg) {
  EvalTermKey k;
  k.w = {2ull,  // engine tag
         pack_order(cfg.order),
         cfg.rows,
         cfg.inner,
         cfg.cols,
         cfg.tiles.v,
         cfg.tiles.f,
         cfg.tiles.g,
         cfg.pes,
         cfg.bw_dist,
         cfg.bw_red,
         cfg.rf_elements,
         cfg.a_stream_bw,
         cfg.out_drain_bw,
         static_cast<std::uint64_t>(cfg.a_from_rf) << 5 |
             static_cast<std::uint64_t>(cfg.out_to_rf) << 4 |
             static_cast<std::uint64_t>(cfg.a_in_dram) << 3 |
             static_cast<std::uint64_t>(cfg.out_in_dram) << 2 |
             static_cast<std::uint64_t>(cfg.a_via_partition) << 1 |
             static_cast<std::uint64_t>(cfg.out_via_partition),
         static_cast<std::uint64_t>(cfg.a_category) << 16 |
             static_cast<std::uint64_t>(cfg.b_category) << 8 |
             static_cast<std::uint64_t>(cfg.out_category),
         pack_chunk_kind(cfg.chunk_target, cfg.chunks),
         cfg.chunks.rows,
         cfg.chunks.cols,
         cfg.chunks.row_block,
         cfg.chunks.col_block,
         0};
  return k;
}

// Estimated timeline footprint a term would pin in the shared map: zero for
// small grids (admitted unconditionally, matching the legacy engine memo's
// policy), else the two per-chunk u64 vectors a PhaseResult carries.
std::size_t term_timeline_footprint(ChunkTarget target,
                                    const ChunkSpec& chunks) {
  if (target == ChunkTarget::kNone ||
      chunks.num_chunks() <= kPhaseMemoMaxChunks) {
    return 0;
  }
  return chunks.num_chunks() * 2 * sizeof(std::uint64_t);
}

}  // namespace

std::shared_ptr<const PhaseResult> TermStore::resolve(
    const EvalTermKey& key, Slot& slot,
    const std::function<std::shared_ptr<const PhaseResult>()>& build,
    std::size_t timeline_bytes, Tally& tally) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ++tally.requests;
  if (slot.valid && slot.key == key) {
    ++tally.delta_hits;
    return slot.term;
  }
  std::shared_ptr<TermEntry> entry;
  bool overflow = false;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = terms_.find(key);
    if (it != terms_.end()) {
      entry = it->second;
    } else if (terms_.size() >= kPhaseMemoMaxEntries ||
               timeline_bytes_ + timeline_bytes > kTermTimelineBudgetBytes) {
      // Entry ceiling (same policy as the context phase memo) or the
      // chunked-timeline byte budget is exhausted: build uncached. The
      // results are identical either way — only revisit cost differs.
      overflow = true;
    } else {
      auto& fresh = terms_[key];
      fresh = std::make_shared<TermEntry>();
      entry = fresh;
      timeline_bytes_ += timeline_bytes;
    }
  }
  std::shared_ptr<const PhaseResult> term;
  if (overflow) {
    builds_.fetch_add(1, std::memory_order_relaxed);
    ++tally.builds;
    try {
      term = build();
    } catch (const Error&) {
      term = nullptr;
    }
  } else {
    call_once_caching(entry->once, entry->error, [&] {
      builds_.fetch_add(1, std::memory_order_relaxed);
      ++tally.builds;
      try {
        entry->result = build();
      } catch (const Error&) {
        // Leave result null: the config is infeasible (engine validate
        // threw), cached so revisits fail without re-simulating. Exactly
        // the candidates on which the scalar oracle throws. Anything else
        // (bad_alloc, logic bugs) is memoized by call_once_caching and
        // rethrown to every caller.
      }
    });
    term = entry->result;
  }
  slot.key = key;
  slot.term = term;
  slot.valid = true;
  return term;
}

std::size_t TermStore::size() const {
  const std::scoped_lock lock(mutex_);
  return terms_.size();
}

std::size_t TermStore::timeline_bytes() const {
  const std::scoped_lock lock(mutex_);
  return timeline_bytes_;
}

// SoA batch scratch for N-phase evaluation: flat row-major arrays, one row
// of phase_count() entries per candidate of the block.
struct PipelineDeltaState::Scratch {
  std::vector<PipelineEvalPlan::PhaseTerm> terms;
  std::vector<std::shared_ptr<const PhaseResult>> results;
  std::vector<PipelineEvalPlan::CandidateMeta> meta;
};

std::shared_ptr<const PipelineEvalPlan> PipelineEvalPlan::obtain(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, const WorkloadContext& context) {
  OMEGA_CHECK(&context.graph() == &workload.adjacency,
              "WorkloadContext is bound to a different graph");
  const AcceleratorConfig& hw = omega.config();
  const EnergyModel& em = omega.energy_model();
  const std::size_t f =
      chain.in_features > 0 ? chain.in_features : workload.in_features;

  // Everything the plan depends on besides the graph (which is the
  // context's own): substrate dims/flags, energy coefficients (hex floats —
  // exact round trip), the resolved first-phase width, and the chain shape.
  // Phase names are excluded — they never affect costs.
  char head[512];
  std::snprintf(head, sizeof(head),
                "pplan|%zu|%zu|%zu|%zu|%zu|%zu|%zu|%zu|%d|%d|%a|%a|%a|%zu|%zu",
                hw.num_pes, hw.rf_bytes_per_pe, hw.gb_bytes, hw.gb_bank_bytes,
                hw.distribution_bandwidth, hw.reduction_bandwidth,
                hw.dram_bandwidth, hw.element_bytes,
                hw.supports_spatial_reduction ? 1 : 0,
                hw.supports_temporal_reduction ? 1 : 0, em.gb_access_pj,
                em.rf_access_pj, em.dram_access_pj, em.reference_bank_bytes, f);
  std::string sig = head;
  for (const PhaseChainSpec& p : chain.phases) {
    char pb[96];
    std::snprintf(pb, sizeof(pb), "|%d:%zu:%a", static_cast<int>(p.engine),
                  p.out_features, p.weight_density);
    sig += pb;
  }

  return context.eval_plan(
      sig, [&]() -> std::shared_ptr<const PipelineEvalPlan> {
        auto plan = std::shared_ptr<PipelineEvalPlan>(new PipelineEvalPlan());
        plan->graph_ = &workload.adjacency;
        plan->context_ = &context;
        plan->hw_ = hw;
        plan->em_ = em;
        plan->v_ = workload.num_vertices();
        plan->chain_ok_ =
            !chain.chain_error().has_value() && plan->v_ >= 1 && f >= 1;
        if (plan->chain_ok_) {
          // Chain-fixed facts: the width chain and, for sparse-weight
          // phases, the W^T CSR built ONCE here instead of once per
          // candidate as in run_pipeline (chain_error already pinned
          // out_features >= 1 and density in (0, 1], so this cannot throw).
          const std::size_t n = chain.phases.size();
          plan->statics_.resize(n);
          std::size_t width = f;
          for (std::size_t i = 0; i < n; ++i) {
            const PhaseChainSpec& p = chain.phases[i];
            PhaseStatic& ps = plan->statics_[i];
            ps.engine = p.engine;
            ps.in_w = width;
            ps.out_w = p.engine == PhaseEngine::kSparseDense ? width
                                                             : p.out_features;
            width = ps.out_w;
            if (p.engine == PhaseEngine::kSparseSparse) {
              ps.graph_tag = 1 + static_cast<std::uint64_t>(i);
              ps.wcsr = std::make_shared<const CSRGraph>(
                  sparse_weight_csr(ps.in_w, ps.out_w, p.weight_density));
            }
          }
        }
        return plan;
      });
}

bool PipelineEvalPlan::derive(const PipelineBindingView& b, PhaseTerm* terms,
                              CandidateMeta* meta) const {
  // Precheck: exactly the throws Omega::run_pipeline performs before the
  // engines run (spec validation, substrate capability, PP sanity). Any
  // failure means the oracle throws on the bound spec -> ok == false.
  meta->feasible = false;
  meta->partition_bytes = 0;
  if (!chain_ok_) return false;
  const std::size_t n = statics_.size();
  if (b.phases.size() != n || b.boundaries.size() + 1 != n) return false;
  if (!b.pe_fractions.empty() && b.pe_fractions.size() != n) return false;
  for (const double frac : b.pe_fractions) {
    if (!std::isfinite(frac) || frac <= 0.0) return false;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const IntraPhaseDataflow& df = b.phases[i];
    const PhaseStatic& ps = statics_[i];
    if (df.phase != taxonomy_phase(ps.engine)) return false;
    try {
      df.validate();
    } catch (const Error&) {
      return false;
    }
    if (ps.engine == PhaseEngine::kSparseSparse &&
        df.order.depth_of(Dim::kG) > df.order.depth_of(Dim::kF)) {
      return false;
    }
    // Substrate capability (Table II NoC/PE support column).
    const Dim contraction =
        ps.engine == PhaseEngine::kSparseDense ? Dim::kN : Dim::kF;
    const bool spatial = df.tiles.get(contraction) > 1;
    if (spatial && !hw_.supports_spatial_reduction) return false;
    if (!spatial && !hw_.supports_temporal_reduction) return false;
  }
  const auto first_share = [&](std::size_t bi) {
    if (b.pe_fractions.size() != n) return 0.5;
    return b.pe_fractions[bi] / (b.pe_fractions[bi] + b.pe_fractions[bi + 1]);
  };
  for (std::size_t bi = 0; bi + 1 < n; ++bi) {
    const InterPhase ip = b.boundaries[bi];
    switch (ip) {
      case InterPhase::kSequential:
        break;
      case InterPhase::kSPOptimized:
        if (!sp_optimized_pair_ok(statics_[bi].engine, b.phases[bi],
                                  statics_[bi + 1].engine, b.phases[bi + 1])) {
          return false;
        }
        break;
      case InterPhase::kSPGeneric:
      case InterPhase::kParallelPipeline: {
        const PipelineAnalysis a = analyze_handoff(
            phase_producer_role(statics_[bi].engine, b.phases[bi].order),
            phase_consumer_role(statics_[bi + 1].engine,
                                b.phases[bi + 1].order));
        if (!a.feasible) return false;
        break;
      }
    }
    if (chunked_inter(ip) &&
        statics_[bi + 1].engine == PhaseEngine::kSparseSparse) {
      return false;
    }
    if (bi > 0 && chunked_inter(b.boundaries[bi - 1]) && chunked_inter(ip)) {
      return false;
    }
    if (ip == InterPhase::kParallelPipeline) {
      if (hw_.num_pes < 2) return false;
      const double share = first_share(bi);
      if (!(share > 0.0 && share < 1.0)) return false;
    }
  }

  // Per-boundary plan (Table III generalized), mirroring run_pipeline_impl
  // field-for-field; each boundary is derived once and handed to both
  // adjacent phases.
  struct BoundaryPlan {
    InterPhase inter = InterPhase::kSequential;
    ChunkSpec grid;
    std::size_t buffer_elements = 0;
    bool chunked = false;
    bool spilled = false;
  };
  const auto plan_boundary = [&](std::size_t bi) {
    BoundaryPlan bp;
    bp.inter = b.boundaries[bi];
    const std::size_t rows = v_;
    const std::size_t cols = statics_[bi].out_w;
    bp.grid = ChunkSpec::whole(rows, cols);
    std::size_t pel = 0;
    if (bp.inter != InterPhase::kSequential &&
        bp.inter != InterPhase::kSPOptimized) {
      const HandoffRole prod_role =
          phase_producer_role(statics_[bi].engine, b.phases[bi].order);
      const HandoffRole cons_role = phase_consumer_role(
          statics_[bi + 1].engine, b.phases[bi + 1].order);
      const PipelineAnalysis a = analyze_handoff(prod_role, cons_role);
      bp.grid.major = a.major;
      const std::size_t t_row =
          std::min(std::max(b.phases[bi].tiles.get(prod_role.row),
                            b.phases[bi + 1].tiles.get(cons_role.row)),
                   rows);
      const std::size_t t_col =
          std::min(std::max(b.phases[bi].tiles.get(prod_role.col),
                            b.phases[bi + 1].tiles.get(cons_role.col)),
                   cols);
      switch (a.granularity) {
        case Granularity::kElement:
          bp.grid.row_block = t_row;
          bp.grid.col_block = t_col;
          pel = t_row * t_col;
          break;
        case Granularity::kRow:
          bp.grid.row_block = t_row;
          pel = t_row * cols;
          break;
        case Granularity::kColumn:
          bp.grid.col_block = t_col;
          pel = rows * t_col;
          break;
        case Granularity::kNone:
          break;
      }
    }
    switch (bp.inter) {
      case InterPhase::kSequential: bp.buffer_elements = rows * cols; break;
      case InterPhase::kSPGeneric: bp.buffer_elements = pel; break;
      case InterPhase::kSPOptimized: bp.buffer_elements = 0; break;
      case InterPhase::kParallelPipeline: bp.buffer_elements = 2 * pel; break;
    }
    bp.chunked = chunked_inter(bp.inter);
    const std::uint64_t int_bytes =
        sat_mul_u64(sat_mul_u64(rows, cols), hw_.element_bytes);
    bp.spilled =
        bp.inter == InterPhase::kSequential && int_bytes > hw_.gb_bytes;
    return bp;
  };

  BoundaryPlan up;
  bool has_up = false;
  for (std::size_t i = 0; i < n; ++i) {
    BoundaryPlan down;
    const bool has_down = i + 1 < n;
    if (has_down) {
      down = plan_boundary(i);
      if (down.inter == InterPhase::kParallelPipeline) {
        meta->partition_bytes = std::max(
            meta->partition_bytes, down.buffer_elements * hw_.element_bytes);
      }
    }

    // PE / bandwidth allocation: the phase's PP pair or the whole array.
    // Validation caps every phase at one chunked boundary, so PP pairs
    // never overlap and at most one side is PP.
    std::size_t pes = hw_.num_pes;
    std::size_t bwd = hw_.distribution_bandwidth;
    std::size_t bwr = hw_.reduction_bandwidth;
    const bool pp_second = has_up && up.inter == InterPhase::kParallelPipeline;
    const bool pp_first =
        has_down && down.inter == InterPhase::kParallelPipeline;
    if (pp_first || pp_second) {
      const std::size_t bi = pp_first ? i : i - 1;
      const std::size_t first = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::llround(
              static_cast<double>(hw_.num_pes) * first_share(bi))),
          1, hw_.num_pes - 1);
      pes = pp_first ? first : hw_.num_pes - first;
      bwd = scaled_bandwidth(hw_.distribution_bandwidth, pes, hw_.num_pes);
      bwr = scaled_bandwidth(hw_.reduction_bandwidth, pes, hw_.num_pes);
    }

    const bool in_from_rf = has_up && up.inter == InterPhase::kSPOptimized;
    const bool in_dram = has_up && up.spilled;
    const bool in_via_partition = pp_second;
    const bool out_to_rf = has_down && down.inter == InterPhase::kSPOptimized;
    const bool out_in_dram = has_down && down.spilled;
    const bool out_via_partition = pp_first;
    const TrafficCategory in_cat =
        has_up ? TrafficCategory::kIntermediate : TrafficCategory::kInput;
    const TrafficCategory out_cat =
        has_down ? TrafficCategory::kIntermediate : TrafficCategory::kOutput;
    const bool up_chunked = has_up && up.chunked;
    const bool down_chunked = has_down && down.chunked;

    const PhaseStatic& ps = statics_[i];
    PhaseTerm& t = terms[i];
    t = PhaseTerm{};
    t.graph_tag = ps.graph_tag;
    switch (ps.engine) {
      case PhaseEngine::kSparseDense: {
        SpmmPhaseConfig& cfg = t.spmm;
        cfg.graph = graph_;
        cfg.context = context_;
        cfg.order = b.phases[i].order;
        cfg.tiles = b.phases[i].tiles;
        cfg.feat = ps.in_w;
        cfg.pes = pes;
        cfg.bw_dist = bwd;
        cfg.bw_red = bwr;
        cfg.rf_elements = hw_.rf_elements_per_pe();
        cfg.b_category = in_cat;
        cfg.b_from_rf = in_from_rf;
        cfg.b_in_dram = in_dram;
        cfg.b_stream_bw = in_dram ? hw_.dram_bandwidth : 0;
        cfg.b_via_partition = in_via_partition;
        cfg.out_category = out_cat;
        cfg.out_to_rf = out_to_rf;
        cfg.out_in_dram = out_in_dram;
        cfg.out_drain_bw = out_in_dram ? hw_.dram_bandwidth : 0;
        cfg.out_via_partition = out_via_partition;
        if (up_chunked) {
          cfg.chunks = up.grid;
          cfg.chunk_target = ChunkTarget::kMatrixA;
        } else if (down_chunked) {
          cfg.chunks = down.grid;
          cfg.chunk_target = ChunkTarget::kMatrixOut;
        }
        break;
      }
      case PhaseEngine::kDenseDense: {
        t.is_gemm = true;
        GemmPhaseConfig& cfg = t.gemm;
        cfg.context = context_;
        cfg.rows = v_;
        cfg.inner = ps.in_w;
        cfg.cols = ps.out_w;
        cfg.order = b.phases[i].order;
        cfg.tiles = b.phases[i].tiles;
        cfg.pes = pes;
        cfg.bw_dist = bwd;
        cfg.bw_red = bwr;
        cfg.rf_elements = hw_.rf_elements_per_pe();
        cfg.a_category = in_cat;
        cfg.a_from_rf = in_from_rf;
        cfg.a_in_dram = in_dram;
        cfg.a_stream_bw = in_dram ? hw_.dram_bandwidth : 0;
        cfg.a_via_partition = in_via_partition;
        cfg.out_category = out_cat;
        cfg.out_to_rf = out_to_rf;
        cfg.out_in_dram = out_in_dram;
        cfg.out_drain_bw = out_in_dram ? hw_.dram_bandwidth : 0;
        cfg.out_via_partition = out_via_partition;
        if (up_chunked) {
          cfg.chunks = up.grid;
          cfg.chunk_target = ChunkTarget::kMatrixA;
        } else if (down_chunked) {
          cfg.chunks = down.grid;
          cfg.chunk_target = ChunkTarget::kMatrixOut;
        }
        break;
      }
      case PhaseEngine::kSparseSparse: {
        // Transposed problem Out^T[G,V] = W^T[G,F] x X^T[F,V] on the
        // plan-owned W^T pattern; loop dims translate G->V, F->N, V->Feat
        // (the vocabulary check above rules out kN).
        SpmmPhaseConfig& cfg = t.spmm;
        cfg.graph = ps.wcsr.get();
        cfg.context = nullptr;  // the workload context is bound to the graph
        const auto translate = [](Dim d) {
          if (d == Dim::kG) return Dim::kV;
          if (d == Dim::kF) return Dim::kN;
          return Dim::kF;
        };
        cfg.order = LoopOrder(translate(b.phases[i].order.at(0)),
                              translate(b.phases[i].order.at(1)),
                              translate(b.phases[i].order.at(2)));
        cfg.tiles.v = b.phases[i].tiles.g;
        cfg.tiles.n = b.phases[i].tiles.f;
        cfg.tiles.f = b.phases[i].tiles.v;
        cfg.feat = v_;
        cfg.pes = pes;
        cfg.bw_dist = bwd;
        cfg.bw_red = bwr;
        cfg.rf_elements = hw_.rf_elements_per_pe();
        cfg.b_category = in_cat;
        cfg.b_from_rf = in_from_rf;
        cfg.b_in_dram = in_dram;
        cfg.b_stream_bw = in_dram ? hw_.dram_bandwidth : 0;
        cfg.b_via_partition = in_via_partition;
        cfg.out_category = out_cat;
        cfg.out_to_rf = out_to_rf;
        cfg.out_in_dram = out_in_dram;
        cfg.out_drain_bw = out_in_dram ? hw_.dram_bandwidth : 0;
        cfg.out_via_partition = out_via_partition;
        // A chunked upstream boundary is rejected above (sparse-weight
        // phases cannot consume chunked intermediates), so only the
        // producer side can stage chunks — through the transposed grid.
        if (down_chunked) {
          cfg.chunks = transpose_chunks(down.grid);
          cfg.chunk_target = ChunkTarget::kMatrixOut;
        }
        break;
      }
    }
    up = down;
    has_up = has_down;
  }
  meta->feasible = true;
  return true;
}

std::shared_ptr<const PhaseResult> PipelineEvalPlan::resolve_phase(
    const PhaseTerm& term, std::size_t phase_idx,
    PipelineDeltaState& state) const {
  if (term.is_gemm) {
    return store_.resolve(
        key_of(term.gemm), state.slots[phase_idx],
        [&] { return run_gemm_phase_shared(term.gemm); },
        term_timeline_footprint(term.gemm.chunk_target, term.gemm.chunks),
        state.tally);
  }
  EvalTermKey key = key_of(term.spmm);
  key.w[19] = term.graph_tag;  // which graph: adjacency vs a phase's W^T
  return store_.resolve(
      key, state.slots[phase_idx],
      [&] { return run_spmm_phase_shared(term.spmm); },
      term_timeline_footprint(term.spmm.chunk_target, term.spmm.chunks),
      state.tally);
}

EvalOutcome PipelineEvalPlan::compose(
    const PipelineBindingView& binding,
    const std::shared_ptr<const PhaseResult>* results,
    std::size_t partition_bytes) const {
  const std::size_t n = statics_.size();
  EvalOutcome out;
  // PP pairs overlap chunk-by-chunk (the consumer starts chunk i once the
  // producer completed it); everything else serializes.
  out.cycles = 0;
  for (std::size_t i = 0; i < n;) {
    if (i + 1 < n && binding.boundaries[i] == InterPhase::kParallelPipeline) {
      out.cycles = sat_add_u64(
          out.cycles, compose_parallel_pipeline(results[i]->chunk_completion,
                                                results[i + 1]->chunk_cycles));
      i += 2;
    } else {
      out.cycles = sat_add_u64(out.cycles, results[i]->cycles);
      i += 1;
    }
  }
  TrafficCounters traffic = results[0]->traffic;
  for (std::size_t i = 1; i < n; ++i) traffic += results[i]->traffic;
  const EnergyBreakdown e = compute_energy(traffic, em_, partition_bytes);
  out.on_chip_pj = e.on_chip_pj();
  out.ok = true;
  return out;
}

void PipelineEvalPlan::ensure_state(PipelineDeltaState& state) const {
  if (state.slots.size() != statics_.size()) {
    state.slots.assign(statics_.size(), TermStore::Slot{});
  }
  if (state.scratch == nullptr) {
    state.scratch = std::make_shared<PipelineDeltaState::Scratch>();
  }
}

void PipelineEvalPlan::evaluate_batch(
    std::span<const PipelineBindingView> bindings, EvalOutcome* out,
    PipelineDeltaState& state) const {
  const std::size_t nb = bindings.size();
  const std::size_t n = statics_.size();
  ensure_state(state);
  PipelineDeltaState::Scratch& s = *state.scratch;
  s.terms.resize(std::max<std::size_t>(nb * n, 1));
  s.results.assign(std::max<std::size_t>(nb * n, 1), nullptr);
  s.meta.resize(std::max<std::size_t>(nb, 1));

  // Pass 1 (derive, SoA): precheck + PE split + boundary plans + N engine
  // configs per candidate, no simulation.
  for (std::size_t i = 0; i < nb; ++i) {
    out[i] = EvalOutcome{};
    (void)derive(bindings[i], s.terms.data() + i * n, &s.meta[i]);
  }
  // Pass 2 (resolve): term lookups over the block. Consecutive candidates
  // that share phase p's config hit delta slot p without hashing; one
  // candidate's terms resolve in execution order so an infeasible phase
  // still skips the later builds.
  for (std::size_t i = 0; i < nb; ++i) {
    if (!s.meta[i].feasible) continue;
    for (std::size_t p = 0; p < n; ++p) {
      s.results[i * n + p] = resolve_phase(s.terms[i * n + p], p, state);
      if (s.results[i * n + p] == nullptr) break;
    }
  }
  // Pass 3 (compose): tight loop over the resolved arrays (a null last
  // phase marks a candidate whose resolve pass short-circuited).
  for (std::size_t i = 0; i < nb; ++i) {
    if (!s.meta[i].feasible || n == 0) continue;
    if (s.results[i * n + n - 1] == nullptr) continue;
    out[i] = compose(bindings[i], s.results.data() + i * n,
                     s.meta[i].partition_bytes);
  }
}

}  // namespace omega
