#include "dse/pipeline_search.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "dataflow/patterns.hpp"
#include "dse/candidate_space.hpp"
#include "obs/trace.hpp"
#include "engine/eval_core.hpp"
#include "engine/schedule_cache.hpp"
#include "omega/tiler.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace omega {

namespace {

constexpr bool is_chunked(InterPhase k) {
  return k == InterPhase::kSPGeneric || k == InterPhase::kParallelPipeline;
}

std::uint64_t ceil_div_u64(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? a : (a + b - 1) / b;
}

double score_of(Objective obj, std::uint64_t cycles, double pj) {
  switch (obj) {
    case Objective::kRuntime: return static_cast<double>(cycles);
    case Objective::kEnergy: return pj;
    case Objective::kEnergyDelayProduct:
      return static_cast<double>(cycles) * pj;
  }
  return static_cast<double>(cycles);
}

struct ChainInfo {
  ChainShape shape;
  std::vector<PipelinePhaseWork> work;
  double energy_lb = 0.0;
};

ChainInfo make_chain_info(const PipelineChainSpec& chain,
                          const GnnWorkload& workload, std::size_t index) {
  ChainInfo ci;
  ci.shape = ChainShape::of(chain, index, workload.in_features);
  ci.work = pipeline_phase_work(chain, workload);
  return ci;
}

}  // namespace

std::string PipelineCandidate::key() const {
  if (legacy) return legacy->to_string();
  std::string s = "c";
  s += std::to_string(chain_index);
  s += "|";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0 && i - 1 < boundaries.size()) {
      s += "->";
      s += to_string(boundaries[i - 1]);
      s += "->";
    }
    s += phases[i].to_string();
  }
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    if (boundaries[b] != InterPhase::kParallelPipeline) continue;
    double share = 0.5;
    if (pe_fractions.size() == phases.size() && b + 1 < pe_fractions.size()) {
      const double a = pe_fractions[b];
      const double bb = pe_fractions[b + 1];
      if (std::isfinite(a) && std::isfinite(bb) && a > 0.0 && bb > 0.0) {
        share = a / (a + bb);
      }
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "|pp%zu=%.6g", b, share);
    s += buf;
  }
  return s;
}

bool pipeline_candidate_order(const RankedPipelineCandidate& a,
                              const RankedPipelineCandidate& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  if (a.on_chip_pj != b.on_chip_pj) return a.on_chip_pj < b.on_chip_pj;
  return a.key < b.key;
}

const RankedPipelineCandidate& PipelineSearchResult::best() const {
  OMEGA_CHECK(!ranked.empty(), "pipeline search produced no feasible mapping");
  return ranked.front();
}

std::vector<PipelinePhaseWork> pipeline_phase_work(
    const PipelineChainSpec& chain, const GnnWorkload& workload) {
  {
    const auto err = chain.chain_error();
    OMEGA_CHECK(!err,
                "pipeline_phase_work: " + (err ? *err : std::string{}));
  }
  std::vector<PipelinePhaseWork> out;
  out.reserve(chain.phases.size());
  const std::uint64_t edges = workload.num_edges();
  const std::uint64_t vertices = workload.num_vertices();
  std::size_t width =
      chain.in_features > 0 ? chain.in_features : workload.in_features;
  for (const PhaseChainSpec& p : chain.phases) {
    PipelinePhaseWork w;
    switch (p.engine) {
      case PhaseEngine::kSparseDense:
        w.macs = edges * static_cast<std::uint64_t>(width);
        w.meta_gb_elems = edges + vertices;
        w.sparse = true;
        break;
      case PhaseEngine::kDenseDense:
        w.macs = vertices * static_cast<std::uint64_t>(width) *
                 p.out_features;
        width = p.out_features;
        break;
      case PhaseEngine::kSparseSparse: {
        // W^T walked transposed: out_features rows of nnz_per_row ids, one
        // MAC per (row nonzero, vertex) — see sparse_weight_csr.
        const std::uint64_t nnz =
            sparse_weight_nnz_per_row(width, p.weight_density);
        w.macs = p.out_features * nnz * vertices;
        w.meta_gb_elems = p.out_features * nnz + p.out_features;
        w.sparse = true;
        width = p.out_features;
        break;
      }
    }
    out.push_back(w);
  }
  return out;
}

std::uint64_t pipeline_mac_cycle_bound(std::span<const PipelinePhaseWork> work,
                                       const PipelineCandidate& c,
                                       std::size_t pes) {
  const std::size_t n = std::min(work.size(), c.phases.size());
  std::uint64_t total = 0;
  std::size_t i = 0;
  while (i < n) {
    const bool pp = i < c.boundaries.size() &&
                    c.boundaries[i] == InterPhase::kParallelPipeline &&
                    i + 1 < n && pes >= 2;
    if (pp) {
      // Same llround-then-clamp split the evaluator performs (the pair's
      // first phase anchors the rounding).
      double share = 0.5;
      if (c.pe_fractions.size() == c.phases.size()) {
        const double a = c.pe_fractions[i];
        const double b = c.pe_fractions[i + 1];
        if (std::isfinite(a) && std::isfinite(b) && a > 0.0 && b > 0.0) {
          share = a / (a + b);
        }
      } else if (c.legacy) {
        share = c.legacy->pp_agg_pe_fraction;
      }
      const std::size_t first = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              std::llround(static_cast<double>(pes) * share)),
          1, pes - 1);
      total += std::max(ceil_div_u64(work[i].macs, first),
                        ceil_div_u64(work[i + 1].macs, pes - first));
      i += 2;
    } else {
      total += ceil_div_u64(work[i].macs, pes);
      i += 1;
    }
  }
  return total;
}

double pipeline_energy_lower_bound(std::span<const PipelinePhaseWork> work,
                                   const EnergyModel& em) {
  double pj = 0.0;
  for (const PipelinePhaseWork& w : work) {
    // Sparse walks charge 3 RF reads + 1 accumulator write per MAC and one
    // GB read per CSR id/pointer element regardless of the binding; dense
    // phases charge 2 RF reads per MAC. Everything else (spills, partition
    // traffic, output movement) is binding-dependent and >= 0, so this is a
    // true lower bound on on_chip_pj.
    const double rf_per_mac = w.sparse ? 4.0 : 2.0;
    // omega-lint: allow(float-accum): phase order is fixed; two terms per phase, deterministic
    pj += static_cast<double>(w.macs) * rf_per_mac * em.rf_access_pj;
    // omega-lint: allow(float-accum): phase order is fixed; two terms per phase, deterministic
    pj += static_cast<double>(w.meta_gb_elems) * em.gb_access_pj;
  }
  return pj;
}

PipelineChainSpec two_phase_chain(PhaseOrder order, const LayerSpec& layer) {
  // The probe descriptor only fixes engines and widths — Seq with
  // all-temporal unit tiles is valid for any workload, and only its chain
  // projection survives.
  DataflowDescriptor probe;
  probe.inter = InterPhase::kSequential;
  probe.phase_order = order;
  probe.agg.phase = GnnPhase::kAggregation;
  probe.agg.order = LoopOrder(Dim::kV, Dim::kN, Dim::kF);
  probe.cmb.phase = GnnPhase::kCombination;
  probe.cmb.order = LoopOrder(Dim::kV, Dim::kF, Dim::kG);
  return PipelineChainSpec::of(two_phase_pipeline(probe, layer));
}

PipelineCandidate lower_two_phase_candidate(const DataflowDescriptor& df,
                                            std::size_t chain_index,
                                            const LayerSpec& layer,
                                            std::size_t num_pes) {
  PipelineSpec spec = two_phase_pipeline(df, layer, num_pes);
  PipelineCandidate c;
  c.chain_index = chain_index;
  c.phases.reserve(spec.phases.size());
  for (const PhaseSpec& p : spec.phases) c.phases.push_back(p.dataflow);
  c.boundaries = std::move(spec.boundaries);
  c.pe_fractions = std::move(spec.pe_fractions);
  c.legacy = df;
  return c;
}

std::vector<PipelineCandidate> enumerate_pipeline_candidates(
    const PipelineChainSpec& chain, std::size_t chain_index,
    const GnnWorkload& workload, std::size_t pes,
    const PipelineSearchOptions& options) {
  return CandidateSpace(chain, chain_index, workload, pes, options)
      .decode_all();
}

std::vector<PipelineCandidate> table5_pipeline_seeds(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, std::size_t chain_index) {
  std::vector<PipelineCandidate> out;
  const ChainShape shape =
      ChainShape::of(chain, chain_index, workload.in_features);
  const AcceleratorConfig& hw = omega.config();
  const std::size_t pes = hw.num_pes;

  if (shape.classic) {
    const WorkloadDims dims = dims_of(workload, shape.classic_layer);
    for (const DataflowPattern& pattern : table5_patterns()) {
      if (pattern.phase_order != *shape.classic) continue;
      try {
        const DataflowDescriptor df = bind_tiles(pattern, dims, hw);
        if (df.validation_error()) continue;
        out.push_back(lower_two_phase_candidate(df, chain_index,
                                                shape.classic_layer, pes));
      } catch (const Error&) {
        // Pattern does not fit this workload/substrate; skip.
      }
    }
    return out;
  }

  const std::size_t n = shape.phases.size();
  const WorkloadDims base = dims_of(
      workload, LayerSpec{.out_features = 1, .in_features = chain.in_features});
  const std::size_t nb = n > 0 ? n - 1 : 0;
  for (const DataflowPattern& pattern : table5_patterns()) {
    // Per-boundary strategy: the pattern's, demoted to Seq wherever the
    // chain cannot admit it (single-PE arrays, sparse-weight consumers,
    // adjacent chunked boundaries).
    std::vector<InterPhase> kinds(nb, InterPhase::kSequential);
    for (std::size_t b = 0; b < nb; ++b) {
      InterPhase k = pattern.inter;
      if (k == InterPhase::kParallelPipeline && pes < 2) {
        k = InterPhase::kSequential;
      }
      if (is_chunked(k) &&
          shape.phases[b + 1].engine == PhaseEngine::kSparseSparse) {
        k = InterPhase::kSequential;
      }
      if (is_chunked(k) && b > 0 && is_chunked(kinds[b - 1])) {
        k = InterPhase::kSequential;
      }
      kinds[b] = k;
    }
    double frac = pattern.pp_agg_pe_fraction;
    if (!(std::isfinite(frac) && frac > 0.0 && frac < 1.0)) frac = 0.5;
    std::vector<std::size_t> budgets(n, pes);
    bool has_pp = false;
    for (std::size_t b = 0; b < nb; ++b) {
      if (kinds[b] != InterPhase::kParallelPipeline) continue;
      has_pp = true;
      const std::size_t first = pp_budget_first(pes, frac);
      budgets[b] = first;
      budgets[b + 1] = pes - first;
    }

    // Bind each phase by the pattern's style at the phase's PE budget.
    DataflowPattern bp = pattern;
    bp.inter = InterPhase::kSequential;
    bp.phase_order = PhaseOrder::kAC;
    std::vector<IntraPhaseDataflow> phases(n);
    bool bound_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      const ChainShape::Phase& sh = shape.phases[i];
      WorkloadDims pd = base;
      pd.in_features = std::max<std::size_t>(sh.in_w, 1);
      pd.out_features = std::max<std::size_t>(sh.out_w, 1);
      if (sh.engine == PhaseEngine::kSparseSparse) {
        const std::size_t nnz = sparse_weight_nnz_per_row(
            sh.in_w, chain.phases[i].weight_density);
        pd.avg_degree = static_cast<double>(nnz);
        pd.max_degree = nnz;
      }
      AcceleratorConfig phw = hw;
      phw.num_pes = budgets[i];
      try {
        const DataflowDescriptor b = bind_tiles(bp, pd, phw);
        phases[i] = sh.engine == PhaseEngine::kSparseDense ? b.agg : b.cmb;
      } catch (const Error&) {
        bound_ok = false;
        break;
      }
      if (sh.engine == PhaseEngine::kSparseSparse &&
          phases[i].order.depth_of(Dim::kG) >
              phases[i].order.depth_of(Dim::kF)) {
        bound_ok = false;  // pattern's dense order walks G after F
        break;
      }
    }
    if (!bound_ok) continue;

    const auto build = [&](const std::vector<InterPhase>& ks, bool with_pp) {
      PipelineCandidate c;
      c.chain_index = chain_index;
      c.phases = phases;
      c.boundaries = ks;
      if (with_pp) {
        c.pe_fractions.assign(n, 1.0);
        for (std::size_t b = 0; b < nb; ++b) {
          if (ks[b] != InterPhase::kParallelPipeline) continue;
          c.pe_fractions[b] = frac;
          c.pe_fractions[b + 1] = 1.0 - frac;
        }
      }
      return c;
    };
    const auto valid = [&](const PipelineCandidate& c) {
      try {
        return !chain.bind(c.view()).validation_error().has_value();
      } catch (const Error&) {
        return false;
      }
    };
    PipelineCandidate seeded = build(kinds, has_pp);
    if (valid(seeded)) {
      out.push_back(std::move(seeded));
      continue;
    }
    // The pattern's boundary strategy does not validate on this chain
    // (e.g. SPO tile tying across unlike engines); fall back to the pure
    // sequential composition of its per-phase mappings.
    PipelineCandidate seq =
        build(std::vector<InterPhase>(nb, InterPhase::kSequential), false);
    if (valid(seq)) out.push_back(std::move(seq));
  }
  return out;
}

PipelineSearchResult search_pipeline_mappings(
    const Omega& omega, const GnnWorkload& workload,
    std::span<const PipelineChainSpec> chains,
    const PipelineSearchOptions& options,
    const WorkloadContext* shared_context) {
  OMEGA_CHECK(!chains.empty(), "pipeline search needs at least one chain");
  const std::size_t pes = omega.config().num_pes;
  const std::size_t enumerated =
      options.enumerate_chains == 0
          ? chains.size()
          : std::min(options.enumerate_chains, chains.size());

  // Stage spans (enumerate / prune / evaluate / rank) — no-ops when
  // options.trace is null; optional<> gives each stage RAII close points
  // inside this straight-line function.
  std::optional<obs::ScopedSpan> span;
  span.emplace(options.trace, "enumerate", "dse");

  std::vector<ChainInfo> infos;
  infos.reserve(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    infos.push_back(make_chain_info(chains[c], workload, c));
    infos.back().energy_lb =
        pipeline_energy_lower_bound(infos.back().work, omega.energy_model());
  }

  // Per-chain candidate spaces, counted without walking them; only the
  // sampled indices are decoded below.
  std::vector<std::optional<CandidateSpace>> spaces(chains.size());
  std::vector<std::size_t> prefix(chains.size() + 1, 0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    std::size_t population = 0;
    if (c < enumerated) {
      spaces[c].emplace(chains[c], c, workload, pes, options);
      population = spaces[c]->size();
    }
    if (__builtin_add_overflow(prefix[c], population, &prefix[c + 1])) {
      throw InvalidArgumentError(
          "pipeline search space is larger than size_t; narrow the options");
    }
  }
  const std::size_t total = prefix.back();

  std::vector<PipelineCandidate> extras;
  for (const PipelineCandidate& e : options.extra_candidates) {
    OMEGA_CHECK(e.chain_index < chains.size(),
                "extra candidate chain_index " +
                    std::to_string(e.chain_index) + " out of range");
    extras.push_back(e);
  }
  if (options.seed_table5) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      for (PipelineCandidate& s :
           table5_pipeline_seeds(omega, workload, chains[c], c)) {
        extras.push_back(std::move(s));
      }
    }
  }

  PipelineSearchResult result;
  if (__builtin_add_overflow(total, extras.size(), &result.generated)) {
    throw InvalidArgumentError(
        "pipeline search space is larger than size_t; narrow the options");
  }

  // Deterministic stride subsampling under a candidate cap, over the
  // concatenated per-chain populations; extras ride along after the sample,
  // outside the cap.
  const bool capped =
      options.max_candidates > 0 && total > options.max_candidates;
  const std::size_t sampled = capped ? options.max_candidates : total;
  const std::size_t selected = sampled + extras.size();
  if (selected == 0) return result;

  std::vector<PipelineCandidate> cands(selected);
  for (std::size_t i = 0; i < sampled; ++i) {
    const std::size_t g = capped ? stride_sample_index(i, total, sampled) : i;
    const std::size_t c = static_cast<std::size_t>(
        std::upper_bound(prefix.begin(), prefix.end(), g) - prefix.begin() -
        1);
    cands[i] = spaces[c]->decode(g - prefix[c]);
  }
  for (std::size_t e = 0; e < extras.size(); ++e) {
    cands[sampled + e] = std::move(extras[e]);
  }
  span->arg("generated", result.generated);
  span->arg("selected", selected);
  span.reset();

  std::optional<WorkloadContext> own_context;
  if (shared_context == nullptr) own_context.emplace(workload.adjacency);
  const WorkloadContext& context =
      shared_context != nullptr ? *shared_context : *own_context;
  // Pre-warm the reverse adjacency if any selected sparse phase scatters,
  // so sweep threads do not race to build it on first touch.
  for (std::size_t i = 0; i < selected; ++i) {
    const ChainInfo& ci = infos[cands[i].chain_index];
    bool scatter = false;
    const std::size_t n = std::min(cands[i].phases.size(), ci.shape.phases.size());
    for (std::size_t p = 0; p < n && !scatter; ++p) {
      if (ci.shape.phases[p].engine == PhaseEngine::kDenseDense) continue;
      const LoopOrder& order = cands[i].phases[p].order;
      scatter = order.contains(Dim::kV) && order.contains(Dim::kN) &&
                order.depth_of(Dim::kV) > order.depth_of(Dim::kN);
    }
    if (scatter) {
      (void)context.reverse_graph();
      break;
    }
  }

  // Evaluation order: identity without pruning; with pruning, ascending
  // objective lower bound with index tie-break. The bounds are true lower
  // bounds for every objective (see the header comment), so the cull below
  // is lossless for runtime, energy, and EDP alike.
  const bool prune = options.prune && selected > 0;
  std::vector<std::size_t> eval_order(selected);
  std::iota(eval_order.begin(), eval_order.end(), std::size_t{0});
  std::vector<double> bounds;
  if (prune) {
    span.emplace(options.trace, "prune", "dse");
    span->arg("candidates", selected);
    bounds.resize(selected);
    for (std::size_t i = 0; i < selected; ++i) {
      if (i >= sampled) {
        // Extras sort to the front and can never be culled
        // (bound <= incumbent always holds for 0).
        bounds[i] = 0.0;
        continue;
      }
      const ChainInfo& ci = infos[cands[i].chain_index];
      const std::uint64_t cycle_lb =
          pipeline_mac_cycle_bound(ci.work, cands[i], pes);
      switch (options.objective) {
        case Objective::kRuntime:
          bounds[i] = static_cast<double>(cycle_lb);
          break;
        case Objective::kEnergy: bounds[i] = ci.energy_lb; break;
        case Objective::kEnergyDelayProduct:
          bounds[i] = static_cast<double>(cycle_lb) * ci.energy_lb;
          break;
      }
    }
    std::sort(eval_order.begin(), eval_order.end(),
              [&](std::size_t a, std::size_t b) {
                if (bounds[a] != bounds[b]) return bounds[a] < bounds[b];
                return a < b;
              });
    span.reset();
  }

  // One eval plan per chain, cached in the context and shared with any
  // concurrent sweep; this sweep's term counters are the sums of its own
  // blocks' tallies, never deltas of the plan-wide atomics.
  std::vector<std::shared_ptr<const PipelineEvalPlan>> plans(chains.size());
  if (options.eval_path != EvalPath::kScalar) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      plans[c] = PipelineEvalPlan::obtain(omega, workload, chains[c], context);
    }
  }
  std::atomic<std::uint64_t> term_requests{0};
  std::atomic<std::uint64_t> term_builds{0};
  std::atomic<std::uint64_t> delta_hits{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_candidates{0};
  std::atomic<std::uint64_t> max_batch{0};

  struct Metrics {
    std::uint64_t cycles = 0;
    double pj = 0.0;
  };
  std::vector<Metrics> metrics(selected);
  std::vector<char> ok(selected, 0);
  const auto evaluate_range = [&](std::size_t from, std::size_t to) {
    parallel_blocks(
        to - from,
        [&](std::size_t begin, std::size_t end) {
          if (options.eval_path == EvalPath::kScalar) {
            for (std::size_t j = begin; j < end; ++j) {
              const std::size_t i = eval_order[from + j];
              try {
                const PipelineSpec spec =
                    chains[cands[i].chain_index].bind(cands[i].view());
                const PipelineResult r =
                    omega.run_pipeline(workload, spec, &context);
                metrics[i] = {r.cycles, r.energy.on_chip_pj()};
                ok[i] = 1;
              } catch (const Error&) {
                ok[i] = 0;  // infeasible under this substrate; skip
              }
            }
            return;
          }
          // Per-block states (L1 slots never cross threads), one per chain
          // so multi-chain sweeps keep per-position reuse. Maximal runs of
          // same-chain candidates flow through one evaluate_batch call.
          std::vector<PipelineDeltaState> states(chains.size());
          std::vector<PipelineBindingView> views;
          std::vector<EvalOutcome> outs;
          std::size_t j = begin;
          while (j < end) {
            const std::size_t run_begin = j;
            const std::size_t c = cands[eval_order[from + j]].chain_index;
            while (j < end && cands[eval_order[from + j]].chain_index == c) {
              ++j;
            }
            const std::size_t m = j - run_begin;
            views.clear();
            views.reserve(m);
            for (std::size_t k = 0; k < m; ++k) {
              views.push_back(cands[eval_order[from + run_begin + k]].view());
            }
            outs.assign(m, EvalOutcome{});
            plans[c]->evaluate_batch({views.data(), m}, outs.data(),
                                     states[c]);
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t i = eval_order[from + run_begin + k];
              if (outs[k].ok) {
                metrics[i] = {outs[k].cycles, outs[k].on_chip_pj};
                ok[i] = 1;
              }
            }
            batches.fetch_add(1, std::memory_order_relaxed);
            batched_candidates.fetch_add(m, std::memory_order_relaxed);
            std::uint64_t cur = max_batch.load(std::memory_order_relaxed);
            while (cur < m && !max_batch.compare_exchange_weak(
                                  cur, m, std::memory_order_relaxed)) {
            }
          }
          for (const PipelineDeltaState& s : states) {
            term_requests.fetch_add(s.tally.requests,
                                    std::memory_order_relaxed);
            term_builds.fetch_add(s.tally.builds, std::memory_order_relaxed);
            delta_hits.fetch_add(s.tally.delta_hits,
                                 std::memory_order_relaxed);
          }
        },
        options.threads);
  };

  span.emplace(options.trace, "evaluate", "dse");
  if (!prune) {
    evaluate_range(0, selected);
  } else {
    // Seed pass, incumbent reduced after the barrier in index order (thread
    // schedule independent), then the bound-ascending cull. Ties with the
    // incumbent survive, so tie-breaking matches the unpruned search.
    const std::size_t seed =
        std::min(std::max<std::size_t>(options.prune_seed, 1), selected);
    evaluate_range(0, seed);
    double incumbent = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < seed; ++j) {
      const std::size_t i = eval_order[j];
      if (ok[i]) {
        incumbent = std::min(
            incumbent,
            score_of(options.objective, metrics[i].cycles, metrics[i].pj));
      }
    }
    std::size_t keep = seed;
    while (keep < selected && bounds[eval_order[keep]] <= incumbent) ++keep;
    result.pruned = selected - keep;
    evaluate_range(seed, keep);
  }

  if (options.eval_path != EvalPath::kScalar) {
    result.eval.term_requests = term_requests.load(std::memory_order_relaxed);
    result.eval.term_builds = term_builds.load(std::memory_order_relaxed);
    result.eval.delta_hits = delta_hits.load(std::memory_order_relaxed);
    result.eval.batches = batches.load(std::memory_order_relaxed);
    result.eval.batched_candidates =
        batched_candidates.load(std::memory_order_relaxed);
    result.eval.max_batch = max_batch.load(std::memory_order_relaxed);
  }
  span->arg("pruned", result.pruned);
  span->arg("term_builds", result.eval.term_builds);
  span.reset();

  span.emplace(options.trace, "rank", "dse");
  std::vector<RankedPipelineCandidate> valid;
  valid.reserve(selected);
  for (std::size_t i = 0; i < selected; ++i) {
    if (!ok[i]) continue;
    RankedPipelineCandidate rc;
    rc.key = cands[i].key();
    rc.cycles = metrics[i].cycles;
    rc.on_chip_pj = metrics[i].pj;
    rc.score = score_of(options.objective, rc.cycles, rc.on_chip_pj);
    rc.candidate = std::move(cands[i]);
    valid.push_back(std::move(rc));
  }
  result.evaluated = valid.size();

  std::sort(valid.begin(), valid.end(), pipeline_candidate_order);
  // An extra/seed may duplicate a sampled candidate; identical bindings
  // produce identical metrics and sort adjacent, so one unique pass drops
  // the copies from the ranked list and the frontier.
  valid.erase(
      std::unique(valid.begin(), valid.end(),
                  [](const RankedPipelineCandidate& a,
                     const RankedPipelineCandidate& b) {
                    return a.cycles == b.cycles &&
                           a.on_chip_pj == b.on_chip_pj && a.key == b.key;
                  }),
      valid.end());

  // Pareto frontier over (cycles, energy); key tie-break keeps the frontier
  // representative deterministic across platforms.
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

  if (valid.size() > options.top_k) valid.resize(options.top_k);
  result.ranked = std::move(valid);
  span->arg("evaluated", result.evaluated);
  span->arg("pareto", result.pareto.size());
  return result;
}

PipelineSearchResult search_pipeline_mappings(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, const PipelineSearchOptions& options,
    const WorkloadContext* shared_context) {
  return search_pipeline_mappings(omega, workload, {&chain, 1}, options,
                                  shared_context);
}

}  // namespace omega
