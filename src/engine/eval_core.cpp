#include "engine/eval_core.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "dataflow/descriptor.hpp"
#include "omega/pipeline.hpp"
#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

bool chunked_inter(InterPhase ip) {
  return ip == InterPhase::kSPGeneric || ip == InterPhase::kParallelPipeline;
}

// The first phase's share of the PP pair at boundary `bi`: the ratio of
// the pair's PE fractions, or an even split when the binding gives none.
double first_share(const PipelineBindingView& b, std::size_t bi) {
  if (b.pe_fractions.size() != b.phases.size()) return 0.5;
  return b.pe_fractions[bi] / (b.pe_fractions[bi] + b.pe_fractions[bi + 1]);
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

/// Field->term dependency map, spmm side: everything that determines the
/// PhaseResult besides the graph, which is the context's adjacency here
/// (sparse_weight_key tags the W^T case); see DESIGN.md "Batched
/// evaluation".
EvalTermKey key_of(const SpmmPhaseConfig& cfg) {
  EvalTermKey k;
  k.w = {1ull,  // engine tag: spmm over the workload adjacency
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

/// A sparse-weight phase's key: spmm over the W^T pattern
/// sparse_weight_csr(in_w, out_w, density), identified by what fixes it —
/// out_w rows of nnz_per_row ids spread over in_w — so chains that share a
/// context share a W^T term exactly when they walk one pattern.
EvalTermKey sparse_weight_key(const SpmmPhaseConfig& cfg, std::size_t in_w,
                              std::size_t out_w, std::size_t nnz_per_row) {
  EvalTermKey k = key_of(cfg);
  k.w[0] = 3;  // engine tag: spmm over a W^T pattern
  k.w[19] = out_w;
  k.w[20] = nnz_per_row;
  k.w[21] = in_w;
  return k;
}

// The timeline footprint a term would pin in the store: the two per-chunk
// u64 vectors of a chunked PhaseResult, none for a grid-free one.
std::size_t term_timeline_footprint(ChunkTarget target,
                                    const ChunkSpec& chunks) {
  if (target == ChunkTarget::kNone) return 0;
  return sat_mul_u64(chunks.num_chunks(), 2 * sizeof(std::uint64_t));
}

// One run-path term through `context`'s store (a fresh L1 slot: run calls
// share no block state), or `simulate()` without a context. The store
// caches an infeasible config as a null term, so a null term is simulated
// again uncached, which rethrows the engine's Error.
template <typename Simulate>
PhaseResult run_through_store(const WorkloadContext* context,
                              const EvalTermKey& key,
                              std::size_t timeline_bytes,
                              const Simulate& simulate) {
  if (context == nullptr) return simulate();
  TermStore::Slot slot;
  TermStore::Tally tally;
  const std::shared_ptr<const PhaseResult> term = context->terms().resolve(
      key, slot,
      [&] { return std::make_shared<const PhaseResult>(simulate()); },
      timeline_bytes, tally);
  if (term == nullptr) (void)simulate();
  OMEGA_CHECK(term != nullptr, "an infeasible phase config simulated on rerun");
  return *term;
}

}  // namespace

namespace {

// Adds `amount` to `counter` unless that would pass `limit`; the
// compare-exchange loop never lets a concurrent reservation overshoot.
bool reserve(std::atomic<std::size_t>& counter, std::size_t amount,
             std::size_t limit) {
  std::size_t cur = counter.load(std::memory_order_relaxed);
  do {
    if (amount > limit || cur > limit - amount) return false;
  } while (!counter.compare_exchange_weak(cur, cur + amount,
                                          std::memory_order_relaxed));
  return true;
}

}  // namespace

std::shared_ptr<TermStore::TermEntry> TermStore::find_or_admit(
    const EvalTermKey& key, std::size_t timeline_bytes) const {
  Shard& shard = shard_of(EvalTermKeyHash{}(key));
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.terms.find(key);
  if (it != shard.terms.end()) return it->second;
  // Entry ceiling or chunked-timeline byte budget exhausted: the caller
  // builds uncached.
  if (!admit(timeline_bytes)) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto entry = std::make_shared<TermEntry>();
  shard.terms.emplace(key, entry);
  return entry;
}

bool TermStore::admit(std::size_t timeline_bytes) const {
  if (!reserve(size_, 1, kPhaseMemoMaxEntries)) return false;
  if (!reserve(timeline_bytes_, timeline_bytes, kTermTimelineBudgetBytes)) {
    size_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

std::uint64_t TermStore::compose_pp(const Slot& producer, const Slot& consumer,
                                    Tally& tally) const {
  ++tally.pp_lookups;
  const EvalPairKey key{producer.key, consumer.key};
  Shard& shard = shard_of(EvalTermKeyHash{}(key));
  {
    const std::scoped_lock lock(shard.mutex);
    const auto it = shard.pairs.find(key);
    if (it != shard.pairs.end()) return it->second;
  }
  pp_compositions_.fetch_add(1, std::memory_order_relaxed);
  ++tally.pp_compositions;
  const std::uint64_t cycles = compose_parallel_pipeline(
      producer.term->chunk_completion, consumer.term->chunk_cycles);
  const std::scoped_lock lock(shard.mutex);
  if (!shard.pairs.contains(key) && reserve(pairs_, 1, kPhaseMemoMaxEntries)) {
    shard.pairs.emplace(key, cycles);
  }
  return cycles;
}

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
              ps.nnz_per_row =
                  sparse_weight_nnz_per_row(ps.in_w, p.weight_density);
              ps.wcsr = std::make_shared<const CSRGraph>(
                  sparse_weight_csr(ps.in_w, ps.out_w, p.weight_density));
            }
          }
        }
        return plan;
      });
}

bool PipelineEvalPlan::precheck(const PipelineBindingView& b) const {
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
      const double share = first_share(b, bi);
      if (!(share > 0.0 && share < 1.0)) return false;
    }
  }
  return true;
}

EvalOutcome PipelineEvalPlan::evaluate(const PipelineBindingView& b,
                                       PipelineDeltaState& state) const {
  if (!precheck(b)) return {};
  const std::size_t n = statics_.size();
  if (state.slots.size() != n) state.slots.assign(n, TermStore::Slot{});
  std::size_t partition_bytes = 0;

  // Per-boundary plan (Table III generalized), mirroring run_pipeline_impl
  // for every field a term or the composition reads; each boundary is
  // derived once and handed to both adjacent phases. Only a PP boundary
  // gets a chunk grid: the composition reads no other timeline, and the
  // engines' cycles and traffic do not depend on the grid, so an SP-Generic
  // phase resolves to its grid-free term (see the header).
  struct BoundaryPlan {
    InterPhase inter = InterPhase::kSequential;
    ChunkSpec grid;  // PP only: the grid both phases of the pair stage
    std::size_t partition_bytes = 0;  // PP only: the ping-pong partition
    bool spilled = false;
  };
  const auto plan_boundary = [&](std::size_t bi) {
    BoundaryPlan bp;
    bp.inter = b.boundaries[bi];
    const std::size_t rows = v_;
    const std::size_t cols = statics_[bi].out_w;
    if (bp.inter == InterPhase::kParallelPipeline) {
      bp.grid = ChunkSpec::whole(rows, cols);
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
      std::size_t pel = 0;
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
      bp.partition_bytes = 2 * pel * hw_.element_bytes;
    }
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
      partition_bytes = std::max(partition_bytes, down.partition_bytes);
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
              static_cast<double>(hw_.num_pes) * first_share(b, bi))),
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

    // The phase's engine config, resolved at once: phases resolve in
    // execution order, so an infeasible phase skips the later builds.
    const PhaseStatic& ps = statics_[i];
    bool resolved = false;
    switch (ps.engine) {
      case PhaseEngine::kSparseDense: {
        SpmmPhaseConfig cfg;
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
        if (pp_second) {
          cfg.chunks = up.grid;
          cfg.chunk_target = ChunkTarget::kMatrixA;
        } else if (pp_first) {
          cfg.chunks = down.grid;
          cfg.chunk_target = ChunkTarget::kMatrixOut;
        }
        resolved = resolve(cfg, ps, i, state);
        break;
      }
      case PhaseEngine::kDenseDense: {
        GemmPhaseConfig cfg;
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
        if (pp_second) {
          cfg.chunks = up.grid;
          cfg.chunk_target = ChunkTarget::kMatrixA;
        } else if (pp_first) {
          cfg.chunks = down.grid;
          cfg.chunk_target = ChunkTarget::kMatrixOut;
        }
        resolved = resolve(cfg, i, state);
        break;
      }
      case PhaseEngine::kSparseSparse: {
        // Transposed problem Out^T[G,V] = W^T[G,F] x X^T[F,V] on the
        // plan-owned W^T pattern; loop dims translate G->V, F->N, V->Feat
        // (the vocabulary check above rules out kN).
        SpmmPhaseConfig cfg;
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
        if (pp_first) {
          cfg.chunks = transpose_chunks(down.grid);
          cfg.chunk_target = ChunkTarget::kMatrixOut;
        }
        resolved = resolve(cfg, ps, i, state);
        break;
      }
    }
    if (!resolved) return {};
    up = down;
    has_up = has_down;
  }
  return compose(b, state, partition_bytes);
}

bool PipelineEvalPlan::resolve(const SpmmPhaseConfig& cfg,
                               const PhaseStatic& ps, std::size_t phase_idx,
                               PipelineDeltaState& state) const {
  const EvalTermKey key =
      ps.wcsr == nullptr
          ? key_of(cfg)
          : sparse_weight_key(cfg, ps.in_w, ps.out_w, ps.nnz_per_row);
  return context_->terms().resolve(
             key, state.slots[phase_idx],
             [&] {
               return std::make_shared<const PhaseResult>(run_spmm_phase(cfg));
             },
             term_timeline_footprint(cfg.chunk_target, cfg.chunks),
             state.tally) != nullptr;
}

bool PipelineEvalPlan::resolve(const GemmPhaseConfig& cfg,
                               std::size_t phase_idx,
                               PipelineDeltaState& state) const {
  return context_->terms().resolve(
             key_of(cfg), state.slots[phase_idx],
             [&] {
               return std::make_shared<const PhaseResult>(run_gemm_phase(cfg));
             },
             term_timeline_footprint(cfg.chunk_target, cfg.chunks),
             state.tally) != nullptr;
}

EvalOutcome PipelineEvalPlan::compose(const PipelineBindingView& binding,
                                      PipelineDeltaState& state,
                                      std::size_t partition_bytes) const {
  const std::size_t n = statics_.size();
  const std::vector<TermStore::Slot>& slots = state.slots;
  const auto result = [&](std::size_t i) -> const PhaseResult& {
    return *slots[i].term;
  };
  EvalOutcome out;
  // PP pairs overlap chunk-by-chunk (the consumer starts chunk i once the
  // producer completed it), through the store's pair memo; everything else
  // serializes.
  out.cycles = 0;
  for (std::size_t i = 0; i < n;) {
    if (i + 1 < n && binding.boundaries[i] == InterPhase::kParallelPipeline) {
      out.cycles = sat_add_u64(
          out.cycles,
          context_->terms().compose_pp(slots[i], slots[i + 1], state.tally));
      i += 2;
    } else {
      out.cycles = sat_add_u64(out.cycles, result(i).cycles);
      i += 1;
    }
  }
  TrafficCounters traffic = result(0).traffic;
  for (std::size_t i = 1; i < n; ++i) traffic += result(i).traffic;
  const EnergyBreakdown e = compute_energy(traffic, em_, partition_bytes);
  out.on_chip_pj = e.on_chip_pj();
  out.ok = true;
  return out;
}

PhaseResult resolve_phase(const GemmPhaseConfig& cfg,
                          const WorkloadContext* context) {
  return run_through_store(
      context, key_of(cfg),
      term_timeline_footprint(cfg.chunk_target, cfg.chunks),
      [&] { return run_gemm_phase(cfg); });
}

PhaseResult resolve_phase(const SpmmPhaseConfig& cfg,
                          const WorkloadContext* context) {
  // The key carries no graph identity: a mis-bound context must fail
  // loudly rather than return another graph's term.
  OMEGA_CHECK(context == nullptr || &context->graph() == cfg.graph,
              "WorkloadContext is bound to a different graph");
  return run_through_store(
      context, key_of(cfg),
      term_timeline_footprint(cfg.chunk_target, cfg.chunks),
      [&] { return run_spmm_phase(cfg); });
}

PhaseResult resolve_sparse_weight_phase(SpmmPhaseConfig cfg, std::size_t in_w,
                                        std::size_t out_w, double density,
                                        const WorkloadContext* context) {
  return run_through_store(
      context,
      sparse_weight_key(cfg, in_w, out_w,
                        sparse_weight_nnz_per_row(in_w, density)),
      term_timeline_footprint(cfg.chunk_target, cfg.chunks), [&] {
        const CSRGraph wcsr = sparse_weight_csr(in_w, out_w, density);
        cfg.graph = &wcsr;
        return run_spmm_phase(cfg);
      });
}

}  // namespace omega
