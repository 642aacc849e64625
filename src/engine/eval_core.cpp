#include "engine/eval_core.hpp"

#include <cstdio>

#include "omega/pipeline.hpp"
#include "util/error.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

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
        plan->chain_ = chain;
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

EvalOutcome PipelineEvalPlan::evaluate(const PipelineBindingView& b,
                                       PipelineDeltaState& state) const {
  const std::size_t n = statics_.size();
  if (!chain_ok_ || b.phases.size() != n ||
      pipeline_violation(chain_, b, &hw_).rule != PipelineRule::kNone) {
    return {};
  }
  if (state.slots.size() != n) state.slots.assign(n, TermStore::Slot{});
  state.boundaries.resize(n - 1);
  const PipelineLowering lower{hw_, em_, graph_, context_, v_,
                               /*stage_sp_generic=*/false};
  // Per phase in execution order: the boundary below it, its engine config
  // and its term, resolved at once, so an infeasible phase skips the later
  // builds.
  for (std::size_t i = 0; i < n; ++i) {
    const PhaseEngine engine = chain_.phases[i].engine;
    const PhaseStatic& ps = statics_[i];
    if (i + 1 < n) {
      state.boundaries[i] = lower.boundary(
          b.boundaries[i], engine, b.phases[i], chain_.phases[i + 1].engine,
          b.phases[i + 1], ps.out_w);
    }
    const BoundaryOutcome* up = i > 0 ? &state.boundaries[i - 1] : nullptr;
    const BoundaryOutcome* down = i + 1 < n ? &state.boundaries[i] : nullptr;
    const PhaseSplit share = lower.split(b.boundaries, b.pe_fractions, i);
    if (engine == PhaseEngine::kDenseDense) {
      if (!resolve(lower.phase<GemmPhaseConfig>(engine, b.phases[i], ps.in_w,
                                                ps.out_w, up, down, share),
                   i, state)) {
        return {};
      }
      continue;
    }
    SpmmPhaseConfig cfg = lower.phase<SpmmPhaseConfig>(
        engine, b.phases[i], ps.in_w, ps.out_w, up, down, share);
    if (ps.wcsr != nullptr) cfg.graph = ps.wcsr.get();  // the plan's W^T
    if (!resolve(cfg, ps, i, state)) return {};
  }
  const std::vector<TermStore::Slot>& slots = state.slots;
  const PipelineCost cost = lower.compose(
      state.boundaries,
      [&](std::size_t i) -> const PhaseResult& { return *slots[i].term; },
      [&](std::size_t bi) {
        return context_->terms().compose_pp(slots[bi], slots[bi + 1],
                                            state.tally);
      });
  return {cost.cycles, cost.energy.on_chip_pj(), true};
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
