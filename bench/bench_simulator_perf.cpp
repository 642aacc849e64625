// Microbenchmarks of the OMEGA framework itself: cost-model evaluation
// throughput is what makes design-space exploration practical (trillions of
// mappings exist; a mapper needs fast evaluations).
//
// Besides the google-benchmark micro benches, this binary runs a DSE sweep
// benchmark on an R-MAT graph: the same candidate population is evaluated
// through the pre-reuse code path (no WorkloadContext — every candidate
// re-transposes / re-schedules), through the scalar memoized path
// (Omega::run with a shared context, the oracle), and through the batched
// eval core every search drives (candidates lowered onto the AC/CA chains,
// PipelineEvalPlan::evaluate per candidate, one state per block and chain),
// reporting candidates/sec for each, then times the same capped
// search_mappings cold (each timed repeat on a fresh WorkloadContext) and
// warm (through its own enumerate/evaluate/rank stage spans), and writes
// BENCH_dse.json. A work gate with no wall clock fails the run
// if a warm repeat search runs a PP recurrence, or a phase simulation while
// the term store refused nothing.
//
// Knobs: OMEGA_DSE_SCALE (R-MAT scale, default 16 => 65536 vertices),
//        OMEGA_DSE_EDGES (edge budget, default 524288),
//        OMEGA_DSE_CANDIDATES (sweep size, default 16384),
//        OMEGA_DSE_BASELINE (uncached-baseline sample size, default 1024),
//        OMEGA_DSE_JSON (output path, default BENCH_dse.json),
//        --dse-only (DSE + model sweeps only; skip the micro benches),
//        --dse-skip (micro benches only; skip both sweeps),
//        --repeat N (timed repeats per sweep path, median-of-N after one
//        warmup run; default 1),
//        OMEGA_DSE_GATE_MIN_SPEEDUP (fail unless batched beats the scalar
//        context path by this factor, quickest timed repeat against
//        quickest; 0/unset = report only).
//
// The model sweep (run_model_sweep) measures model-level DSE: a multi-layer
// GCN searched with a per-layer mapping (one shared WorkloadContext,
// ideal-MAC pruning) against the best single fixed Table V pattern replayed
// over all layers, reporting candidates/sec, the pruning win, and the
// heterogeneous-vs-fixed cycle speedup. Knobs: OMEGA_MODEL_DATASET
// (default Citeseer), OMEGA_MODEL_SCALE_PCT (workload scale in percent,
// default 25), OMEGA_MODEL_WIDTHS (hidden widths, default "128,32,8"),
// OMEGA_MODEL_CANDIDATES (per-layer cap, default 4096), OMEGA_MODEL_JSON
// (default BENCH_model_dse.json), --model-only / --model-skip.
//
// --pipeline-dse runs the N-phase search sweep (run_pipeline_dse_sweep): an
// EDP search over a 3-phase GAT-style chain and a spgemm-first chain,
// gating prune-parity (pruned best == unpruned best) and scalar/batched
// path parity on both, writing
// BENCH_pipeline_dse.json. Knobs: OMEGA_PDSE_SCALE_PCT, OMEGA_PDSE_CANDIDATES,
// OMEGA_PDSE_JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "dataflow/enumerate.hpp"
#include "engine/eval_core.hpp"
#include "dse/model_search.hpp"
#include "dse/pipeline_search.hpp"
#include "dse/search.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "omega/pipeline.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace omega;
using namespace omega::bench;

const GnnWorkload& citeseer() {
  static const GnnWorkload w = [] {
    SynthesisOptions opt;
    opt.scale = 0.25;  // keep per-iteration cost benchmarkable
    return synthesize_workload(dataset_by_name("Citeseer"), opt);
  }();
  return w;
}

void BM_RunPattern(benchmark::State& state) {
  const Omega omega(default_accelerator());
  const auto& pattern = table5_patterns()[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(pattern.name);
  for (auto _ : state) {
    const RunResult r = omega.run_pattern(citeseer(), eval_layer(), pattern);
    benchmark::DoNotOptimize(r.cycles);
  }
}
BENCHMARK(BM_RunPattern)->DenseRange(0, 8)->Unit(benchmark::kMillisecond);

void BM_TaxonomyEnumeration(benchmark::State& state) {
  for (auto _ : state) {
    const auto counts = enumerate_design_space();
    benchmark::DoNotOptimize(counts.total());
  }
}
BENCHMARK(BM_TaxonomyEnumeration)->Unit(benchmark::kMillisecond);

void BM_SynthesizeWorkload(benchmark::State& state) {
  SynthesisOptions opt;
  opt.scale = 0.25;
  for (auto _ : state) {
    const GnnWorkload w =
        synthesize_workload(dataset_by_name("Citeseer"), opt);
    benchmark::DoNotOptimize(w.num_edges());
  }
}
BENCHMARK(BM_SynthesizeWorkload)->Unit(benchmark::kMillisecond);

void BM_MappingSearch(benchmark::State& state) {
  const Omega omega(default_accelerator());
  SearchOptions opt;
  opt.max_candidates = static_cast<std::size_t>(state.range(0));
  opt.threads = 0;
  for (auto _ : state) {
    const SearchResult r =
        search_mappings(omega, citeseer(), eval_layer(), opt);
    benchmark::DoNotOptimize(r.evaluated);
  }
  state.counters["evaluated"] = static_cast<double>(opt.max_candidates);
}
BENCHMARK(BM_MappingSearch)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// ---- DSE sweep: uncached / scalar / batched candidates/sec ------------------

struct SweepTiming {
  double seconds = 0.0;      // median over the timed repeats
  double p99_seconds = 0.0;  // tail repeat (== median when repeat is small)
  double min_seconds = 0.0;  // quickest timed repeat
  double candidates_per_sec = 0.0;
  std::size_t evaluated = 0;
};

/// Runs `pass` once as warmup (also filling *cycles_out with the parity
/// fingerprint), then `repeat` timed times, reporting the median. The
/// warmup run warms whatever memo layer the pass uses, so every path is
/// measured warm under the same protocol — and every timed repeat must
/// reproduce the warmup fingerprint bit-for-bit (caching may change
/// timing, never results).
template <typename Pass>
SweepTiming time_sweep(std::size_t n, std::size_t repeat,
                       std::vector<std::uint64_t>* cycles_out, Pass&& pass) {
  cycles_out->assign(n, 0);
  pass(*cycles_out);
  std::vector<double> secs;
  secs.reserve(repeat);
  std::vector<std::uint64_t> scratch(n);
  for (std::size_t r = 0; r < repeat; ++r) {
    std::fill(scratch.begin(), scratch.end(), 0);
    const auto t0 = std::chrono::steady_clock::now();
    pass(scratch);
    const auto t1 = std::chrono::steady_clock::now();
    if (scratch != *cycles_out) {
      throw Error("sweep repeat diverged from its warmup results");
    }
    secs.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  const bench::RepeatSummary summary = bench::summarize_samples(secs);
  SweepTiming t;
  t.evaluated = n;
  t.seconds = summary.median;
  t.p99_seconds = summary.p99;
  t.min_seconds = summary.min;
  t.candidates_per_sec =
      t.seconds > 0.0 ? static_cast<double>(n) / t.seconds : 0.0;
  return t;
}

/// A warm capped search_mappings (AC + CA) timed whole and per stage
/// through its own dse trace spans: one untimed warmup on `context`, then
/// `repeat` timed searches; every figure is the median over them. The work
/// counters sum over the timed searches: on a warm context they must all
/// be served from the term store and the PP pair memo.
struct SearchTiming {
  double wall_ms = 0.0;
  double enumerate_ms = 0.0;
  double evaluate_ms = 0.0;
  double rank_ms = 0.0;
  std::size_t evaluated = 0;
  std::uint64_t term_builds = 0;
  std::uint64_t pp_lookups = 0;
  std::uint64_t pp_compositions = 0;
};

SearchTiming time_warm_search(const Omega& omega, const GnnWorkload& w,
                              const LayerSpec& layer, std::size_t cap,
                              std::size_t repeat,
                              const WorkloadContext& context) {
  SearchOptions opt;
  opt.include_ca = true;
  opt.max_candidates = cap;
  SearchTiming t;
  t.evaluated = search_mappings(omega, w, layer, opt, &context).evaluated;
  std::vector<double> wall, enumerate, evaluate, rank;
  for (std::size_t r = 0; r < std::max<std::size_t>(repeat, 1); ++r) {
    obs::TraceCollector trace;
    opt.trace = &trace;
    const auto t0 = std::chrono::steady_clock::now();
    const SearchResult result = search_mappings(omega, w, layer, opt, &context);
    const auto t1 = std::chrono::steady_clock::now();
    if (result.evaluated != t.evaluated) {
      throw Error("warm search repeat diverged from its warmup");
    }
    t.term_builds += result.eval.term_builds;
    t.pp_lookups += result.eval.pp_lookups;
    t.pp_compositions += result.eval.pp_compositions;
    wall.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    double stage[3] = {0.0, 0.0, 0.0};
    for (const obs::TraceEvent& e : trace.events()) {
      const double ms = static_cast<double>(e.dur_us) / 1000.0;
      if (e.name == "enumerate") stage[0] += ms;
      if (e.name == "evaluate") stage[1] += ms;
      if (e.name == "rank") stage[2] += ms;
    }
    enumerate.push_back(stage[0]);
    evaluate.push_back(stage[1]);
    rank.push_back(stage[2]);
  }
  t.wall_ms = bench::summarize_samples(wall).median;
  t.enumerate_ms = bench::summarize_samples(enumerate).median;
  t.evaluate_ms = bench::summarize_samples(evaluate).median;
  t.rank_ms = bench::summarize_samples(rank).median;
  return t;
}

/// The same capped search_mappings cold: one untimed warmup, then `repeat`
/// timed searches, each on its own fresh WorkloadContext, so every one
/// builds its whole term store (the sweep a mapper runs on a layer it has
/// not seen). Times are the median, p99 and quickest over the repeats.
struct ColdSearchTiming {
  bench::RepeatSummary wall_ms;
  std::uint64_t term_builds = 0;  // of one cold search
};

ColdSearchTiming time_cold_search(const Omega& omega, const GnnWorkload& w,
                                  const LayerSpec& layer, std::size_t cap,
                                  std::size_t repeat) {
  SearchOptions opt;
  opt.include_ca = true;
  opt.max_candidates = cap;
  const auto cold_search = [&] {
    const WorkloadContext fresh(w.adjacency);
    const auto t0 = std::chrono::steady_clock::now();
    SearchResult result = search_mappings(omega, w, layer, opt, &fresh);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair<SearchResult, double>(
        std::move(result),
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  };
  const std::size_t evaluated = cold_search().first.evaluated;
  ColdSearchTiming t;
  std::vector<double> wall;
  for (std::size_t r = 0; r < std::max<std::size_t>(repeat, 1); ++r) {
    const auto [result, ms] = cold_search();
    if (result.evaluated != evaluated) {
      throw Error("cold search repeat diverged from its warmup");
    }
    if (r == 0) t.term_builds = result.eval.term_builds;
    wall.push_back(ms);
  }
  t.wall_ms = bench::summarize_samples(wall);
  return t;
}

int run_dse_sweep(std::size_t repeat) {
  const std::size_t scale = env_or("OMEGA_DSE_SCALE", 16);
  const std::size_t edge_budget = env_or("OMEGA_DSE_EDGES", 524288);
  const std::size_t max_candidates = env_or("OMEGA_DSE_CANDIDATES", 16384);
  const std::size_t baseline_n = env_or("OMEGA_DSE_BASELINE", 1024);
  const char* json_path = std::getenv("OMEGA_DSE_JSON");
  if (json_path == nullptr) json_path = "BENCH_dse.json";

  std::cout << "\n== DSE sweep: evaluation-reuse layer ==\n";
  Rng rng(42);
  GnnWorkload w;
  w.name = "rmat-s" + std::to_string(scale);
  w.adjacency =
      rmat(scale, edge_budget, rng).with_self_loops().gcn_normalized();
  w.in_features = 64;
  const LayerSpec layer = eval_layer();
  std::cout << "graph: " << w.num_vertices() << " vertices, " << w.num_edges()
            << " edges (R-MAT scale " << scale << ")\n";

  const Omega omega(default_accelerator());
  SearchOptions opt;
  opt.include_ca = true;
  std::vector<DataflowDescriptor> candidates = enumerate_search_candidates(
      opt, dims_of(w, layer), omega.config().num_pes);
  const std::size_t population = candidates.size();
  if (candidates.size() > max_candidates) {
    // The deterministic stride subsample search_mappings uses.
    std::vector<DataflowDescriptor> sampled;
    sampled.reserve(max_candidates);
    for (std::size_t i = 0; i < max_candidates; ++i) {
      sampled.push_back(
          candidates[stride_sample_index(i, candidates.size(), max_candidates)]);
    }
    candidates = std::move(sampled);
  }
  // The pre-PR (uncached) path pays a fixed cost per candidate, so its rate
  // is estimated on a stride subsample of the same population; the cached
  // rate is measured over the full sweep, where its memo reuse actually
  // operates (a real sweep is dense by definition).
  const std::size_t baseline_count = std::min(baseline_n, candidates.size());
  std::vector<DataflowDescriptor> baseline;
  baseline.reserve(baseline_count);
  for (std::size_t i = 0; i < baseline_count; ++i) {
    baseline.push_back(
        candidates[stride_sample_index(i, candidates.size(), baseline_count)]);
  }
  std::cout << "candidates: " << candidates.size() << " (of " << population
            << " generated; uncached baseline on " << baseline.size()
            << "; median of " << repeat << " after warmup)\n";

  // Pre-PR code path: every candidate pays its own transpose + schedule +
  // full phase simulations.
  std::vector<std::uint64_t> uncached_cycles;
  const SweepTiming uncached = time_sweep(
      baseline.size(), repeat, &uncached_cycles,
      [&](std::vector<std::uint64_t>& out) {
        parallel_blocks(baseline.size(),
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            try {
                              out[i] = omega.run(w, layer, baseline[i]).cycles;
                            } catch (const Error&) {
                              out[i] = 0;  // infeasible still counts
                            }
                          }
                        });
      });

  // Cold searches first, while no other term store is resident.
  const ColdSearchTiming cold =
      time_cold_search(omega, w, layer, max_candidates, repeat);

  // Scalar through the reuse layer: one context shared by the whole sweep
  // (the pre-eval-core hot path, kept as the oracle).
  const WorkloadContext context(w.adjacency);
  std::vector<std::uint64_t> scalar_cycles;
  const SweepTiming scalar = time_sweep(
      candidates.size(), repeat, &scalar_cycles,
      [&](std::vector<std::uint64_t>& out) {
        parallel_blocks(candidates.size(),
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            try {
                              out[i] =
                                  omega.run(w, layer, candidates[i], context)
                                      .cycles;
                            } catch (const Error&) {
                              out[i] = 0;
                            }
                          }
                        });
      });

  // Batched core: the path every search drives. Each candidate is lowered
  // onto its phase order's chain (AC = 0, CA = 1) exactly as
  // search_mappings lowers it and evaluated on its block's state for that
  // chain.
  const std::size_t pes = omega.config().num_pes;
  const std::array<std::shared_ptr<const PipelineEvalPlan>, 2> plans = {
      PipelineEvalPlan::obtain(omega, w,
                               two_phase_chain(PhaseOrder::kAC, layer),
                               context),
      PipelineEvalPlan::obtain(omega, w,
                               two_phase_chain(PhaseOrder::kCA, layer),
                               context)};
  std::vector<PipelineCandidate> lowered;
  lowered.reserve(candidates.size());
  for (const DataflowDescriptor& df : candidates) {
    lowered.push_back(lower_two_phase_candidate(
        df, df.phase_order == PhaseOrder::kCA ? 1 : 0, pes));
  }
  std::vector<std::uint64_t> batched_cycles;
  const SweepTiming batched = time_sweep(
      candidates.size(), repeat, &batched_cycles,
      [&](std::vector<std::uint64_t>& out) {
        parallel_blocks(
            lowered.size(), [&](std::size_t begin, std::size_t end) {
              std::array<PipelineDeltaState, 2> states;
              for (std::size_t j = begin; j < end; ++j) {
                const std::size_t c = lowered[j].chain_index;
                const EvalOutcome o =
                    plans[c]->evaluate(lowered[j].view(), states[c]);
                out[j] = o.ok ? o.cycles : 0;
              }
            });
      });

  // The search every caller runs over the same capped population, warm on
  // the context the sweeps above filled.
  const SearchTiming search =
      time_warm_search(omega, w, layer, max_candidates, repeat, context);

  // Parity gates: the scalar results on the baseline indices must be
  // bit-identical to the context-free runs, and batched must be
  // bit-identical to scalar over the full sweep.
  std::vector<std::uint64_t> scalar_on_baseline;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    scalar_on_baseline.push_back(scalar_cycles[stride_sample_index(
        i, candidates.size(), baseline.size())]);
  }
  const bool identical = uncached_cycles == scalar_on_baseline &&
                         batched_cycles == scalar_cycles;
  const double speedup = uncached.candidates_per_sec > 0.0
                             ? scalar.candidates_per_sec /
                                   uncached.candidates_per_sec
                             : 0.0;
  const double batched_vs_scalar =
      scalar.candidates_per_sec > 0.0
          ? batched.candidates_per_sec / scalar.candidates_per_sec
          : 0.0;
  // The gate's ratio: both paths sweep the same candidates, so the rate
  // ratio of the quickest repeats is the time ratio. Noise only ever adds
  // time, so the quickest repeat is the least noisy estimate of each path.
  const double batched_vs_scalar_quickest =
      batched.min_seconds > 0.0 ? scalar.min_seconds / batched.min_seconds
                                : 0.0;
  const auto report = [](const char* name, const SweepTiming& t,
                         std::size_t n) {
    std::cout << name << fixed(t.candidates_per_sec, 1)
              << " candidates/sec (" << n << " in " << fixed(t.seconds, 3)
              << " s median, " << fixed(t.p99_seconds, 3) << " s p99)\n";
  };
  report("uncached: ", uncached, baseline.size());
  report("scalar:   ", scalar, candidates.size());
  report("batched:  ", batched, candidates.size());
  std::cout << "search:   " << fixed(search.wall_ms, 2)
            << " ms warm search_mappings (" << search.evaluated
            << " evaluated; enumerate " << fixed(search.enumerate_ms, 2)
            << " ms, evaluate " << fixed(search.evaluate_ms, 2)
            << " ms, rank " << fixed(search.rank_ms, 2) << " ms median)\n"
            << "          " << fixed(cold.wall_ms.median, 2)
            << " ms cold search_mappings (" << fixed(cold.wall_ms.p99, 2)
            << " ms p99, " << fixed(cold.wall_ms.min, 2)
            << " ms quickest over " << std::max<std::size_t>(repeat, 1)
            << " fresh contexts; " << cold.term_builds << " term builds)\n";
  const ContextEvalStats eval = context.eval_stats();
  std::cout << "  (" << eval.terms << " terms ("
            << eval.term_bytes / (1024 * 1024)
            << " MiB chunked timelines), " << eval.pp_pairs << " PP pairs ("
            << eval.pp_compositions << " compositions), "
            << context.schedule_cache_size() << " schedules)\n"
            << "speedup:  " << fixed(speedup, 2)
            << "x scalar vs uncached, " << fixed(batched_vs_scalar, 2)
            << "x batched vs scalar (median), "
            << fixed(batched_vs_scalar_quickest, 2) << "x (quickest)\n"
            << "parity:   " << (identical ? "bit-identical" : "MISMATCH")
            << "\n";

  // Work gate (deterministic, no wall clock): the timed warm searches
  // must run no PP recurrence, and no phase simulation unless the term
  // store refused terms at its timeline budget (those rebuild on every
  // visit; which ones is schedule-dependent, so their count is reported).
  const std::uint64_t refusals = context.phase_memo_overflow();
  bool gate_ok = search.pp_compositions == 0 &&
                 (search.term_builds == 0 || refusals > 0);
  std::cout << "work:     warm search " << search.term_builds
            << " term builds (" << refusals << " store refusals), "
            << search.pp_compositions << " of " << search.pp_lookups
            << " PP lookups composed"
            << (gate_ok ? "" : " -- WORK GATE FAILED") << "\n";

  // CI perf gate: the batched core's quickest repeat must beat the scalar
  // context path's quickest by at least this factor (unset/0 = report only).
  const std::size_t gate = env_or("OMEGA_DSE_GATE_MIN_SPEEDUP", 0);
  if (gate > 0 && batched_vs_scalar_quickest < static_cast<double>(gate)) {
    std::cout << "PERF GATE FAILED: batched "
              << fixed(batched_vs_scalar_quickest, 2)
              << "x (quickest) < required " << gate << "x\n";
    gate_ok = false;
  }

  std::ofstream json(json_path);
  if (json) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("bench", "dse_sweep");
    jw.key("graph").begin_object();
    jw.member("generator", "rmat");
    jw.member("scale", static_cast<std::uint64_t>(scale));
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.end_object();
    jw.member("population", static_cast<std::uint64_t>(population));
    jw.member("candidates", static_cast<std::uint64_t>(candidates.size()));
    jw.member("baseline_candidates",
              static_cast<std::uint64_t>(baseline.size()));
    jw.member("repeat", static_cast<std::uint64_t>(repeat));
    jw.member("terms", eval.terms);
    jw.member("term_timeline_bytes", eval.term_bytes);
    jw.member("term_refusals", refusals);
    jw.member("pp_pairs", eval.pp_pairs);
    jw.member("pp_compositions", eval.pp_compositions);
    jw.member("threads", static_cast<std::uint64_t>(default_thread_count()));
    const auto emit_timing = [&](const char* name, const SweepTiming& t) {
      jw.key(name).begin_object();
      jw.member("seconds", t.seconds);
      jw.member("p99_seconds", t.p99_seconds);
      jw.member("min_seconds", t.min_seconds);
      jw.member("candidates_per_sec", t.candidates_per_sec);
      jw.end_object();
    };
    emit_timing("uncached", uncached);
    emit_timing("cached", scalar);  // historical key: the scalar context path
    emit_timing("batched", batched);
    jw.member("search_warm_ms", search.wall_ms);
    jw.key("search_stage_ms").begin_object();
    jw.member("enumerate", search.enumerate_ms);
    jw.member("evaluate", search.evaluate_ms);
    jw.member("rank", search.rank_ms);
    jw.end_object();
    jw.key("search_cold_ms").begin_object();
    jw.member("median", cold.wall_ms.median);
    jw.member("p99", cold.wall_ms.p99);
    jw.member("min", cold.wall_ms.min);
    jw.member("term_builds", cold.term_builds);
    jw.end_object();
    jw.key("search_warm_work").begin_object();
    jw.member("term_builds", search.term_builds);
    jw.member("pp_lookups", search.pp_lookups);
    jw.member("pp_compositions", search.pp_compositions);
    jw.end_object();
    jw.member("speedup", speedup);
    jw.member("batched_speedup_vs_scalar", batched_vs_scalar);
    jw.member("batched_speedup_vs_scalar_quickest",
              batched_vs_scalar_quickest);
    jw.member("parity", identical ? "bit-identical" : "mismatch");
    jw.end_object();
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return identical && gate_ok ? 0 : 1;
}

// ---- Model sweep: per-layer heterogeneous mappings vs best fixed pattern ----

std::string env_or_str(const char* name, const char* fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : fallback;
}

int run_model_sweep() {
  const std::string dataset = env_or_str("OMEGA_MODEL_DATASET", "Citeseer");
  const double scale =
      static_cast<double>(env_or("OMEGA_MODEL_SCALE_PCT", 25)) / 100.0;
  const std::string widths_csv = env_or_str("OMEGA_MODEL_WIDTHS", "128,32,8");
  const std::size_t per_layer_cap = env_or("OMEGA_MODEL_CANDIDATES", 4096);
  const std::string json_path =
      env_or_str("OMEGA_MODEL_JSON", "BENCH_model_dse.json");

  std::cout << "\n== model sweep: per-layer mapping search ==\n";
  SynthesisOptions so;
  so.scale = scale;
  const GnnWorkload w = synthesize_workload(dataset_by_name(dataset), so);
  GnnModelSpec spec;
  spec.model = GnnModel::kGCN;
  spec.feature_widths.push_back(w.in_features);
  for (const auto& part : split(widths_csv, ',')) {
    spec.feature_widths.push_back(
        static_cast<std::size_t>(std::atoll(part.c_str())));
  }
  std::cout << "workload: " << w.name << " (V=" << w.num_vertices()
            << ", E=" << w.num_edges() << "), " << spec.num_layers()
            << "-layer GCN, widths";
  for (const std::size_t width : spec.feature_widths) {
    std::cout << " " << width;
  }
  std::cout << ", per-layer cap " << per_layer_cap << "\n";

  const Omega omega(default_accelerator());
  ModelSearchOptions opt;
  opt.layer.max_candidates = per_layer_cap;
  opt.prune = false;

  const auto timed = [&](const ModelSearchOptions& o,
                         const WorkloadContext* ctx) {
    const auto t0 = std::chrono::steady_clock::now();
    ModelSearchResult r = search_model_mappings(omega, w, spec, o, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair<ModelSearchResult, double>(
        std::move(r), std::chrono::duration<double>(t1 - t0).count());
  };

  // Each timed sweep gets its own cold context, preserving the historical
  // timing semantics (a self-contained search pays its own warm-up).
  const WorkloadContext full_context(w.adjacency);
  const WorkloadContext pruned_context(w.adjacency);
  const auto [full, full_s] = timed(opt, &full_context);
  opt.prune = true;
  const auto [pruned, pruned_s] = timed(opt, &pruned_context);

  // Cross-layer composition over the general design space: the pipelined
  // ranking can never report a worse model than the sequential one (its
  // composed makespan is <= every candidate's layer sum), which the exit
  // code enforces. Untimed, so it rides the pruned sweep's warmed context
  // instead of paying a third cold sweep.
  opt.compose = ModelCompose::kPipelined;
  const ModelSearchResult piped =
      search_model_mappings(omega, w, spec, opt, &pruned_context);

  const bool same_best = full.best().to_string() == pruned.best().to_string() &&
                         full.best().total_cycles == pruned.best().total_cycles;
  const double full_rate =
      full_s > 0.0 ? static_cast<double>(full.evaluated) / full_s : 0.0;
  // The pruned rate counts every *decided* candidate (evaluated or culled):
  // that is the sweep's useful throughput.
  const double pruned_rate =
      pruned_s > 0.0
          ? static_cast<double>(pruned.evaluated + pruned.pruned) / pruned_s
          : 0.0;

  std::cout << "unpruned: " << fixed(full_rate, 1) << " candidates/sec ("
            << full.evaluated << " evaluated in " << fixed(full_s, 3)
            << " s)\n"
            << "pruned:   " << fixed(pruned_rate, 1) << " candidates/sec ("
            << pruned.evaluated << " evaluated + " << pruned.pruned
            << " culled in " << fixed(pruned_s, 3) << " s; "
            << fixed(pruned_s > 0.0 ? full_s / pruned_s : 0.0, 2)
            << "x sweep speedup)\n"
            << "best:     " << (same_best ? "bit-identical" : "MISMATCH")
            << " across prune on/off\n";

  for (std::size_t l = 0; l < pruned.layers.size(); ++l) {
    const Candidate& c = pruned.layers[l].search.best();
    std::cout << "  layer " << l << " (" << pruned.layers[l].spec.in_features
              << "->" << pruned.layers[l].spec.out_features
              << "): " << c.dataflow.to_string() << ", "
              << with_commas(c.cycles) << " cycles\n";
  }

  const auto fixed_run = best_fixed_pattern(omega, w, spec);
  double speedup = 0.0;
  if (fixed_run) {
    speedup = static_cast<double>(fixed_run->result.total_cycles) /
              static_cast<double>(
                  std::max<std::uint64_t>(pruned.best().total_cycles, 1));
    std::cout << "heterogeneous " << with_commas(pruned.best().total_cycles)
              << " cycles vs best fixed (" << fixed_run->name << ") "
              << with_commas(fixed_run->result.total_cycles) << " -> "
              << fixed(speedup, 3) << "x\n";
  }

  const bool pipe_ok =
      piped.best().composed_cycles <= pruned.best().total_cycles;
  const double pipe_speedup =
      static_cast<double>(pruned.best().total_cycles) /
      static_cast<double>(
          std::max<std::uint64_t>(piped.best().composed_cycles, 1));
  std::cout << "pipelined composition: " << with_commas(
                   piped.best().composed_cycles)
            << " composed cycles (" << piped.best().overlapped_boundaries
            << " overlapped boundaries, " << fixed(pipe_speedup, 3)
            << "x vs sequential best" << (pipe_ok ? "" : "; REGRESSION")
            << ")\n";

  // PP-restricted composition study: a banded adjacency (the RCM-reordered
  // mesh archetype) with the search confined to the Parallel-Pipeline
  // corner — the VersaGNN-style systolic substrate where cross-layer
  // overlap is reachable. The model alternates a wide layer (64->64,
  // Combination-bound: long second-phase tail) with a narrow one (64->8,
  // Aggregation-bound at this degree: a first-phase head the intra-layer
  // pipeline cannot hide) — the shape where chunk-chained boundaries pay.
  // The pipelined ranking must *strictly* beat the sequential sum here;
  // both that gate and the general-space never-worse gate feed the exit
  // code.
  const std::size_t band_v = env_or("OMEGA_MODEL_BAND_V", 2048);
  const std::size_t band_half = env_or("OMEGA_MODEL_BAND_HALF", 16);
  GnnWorkload band;
  band.name = "band-" + std::to_string(band_v) + "x" +
              std::to_string(band_half);
  band.adjacency = banded_graph(band_v, band_half).gcn_normalized();
  band.in_features = 64;
  GnnModelSpec band_spec;
  band_spec.model = GnnModel::kGCN;
  band_spec.feature_widths = {64, 64, 8};
  ModelSearchOptions band_opt;
  band_opt.layer.max_candidates = std::min<std::size_t>(per_layer_cap, 800);
  band_opt.prune = true;
  band_opt.layer.include_seq = false;
  band_opt.layer.include_sp_generic = false;
  band_opt.layer.include_sp_optimized = false;
  band_opt.seed_table5 = false;  // Table V seeds include non-PP patterns
  const WorkloadContext band_context(band.adjacency);
  const ModelSearchResult band_seq =
      search_model_mappings(omega, band, band_spec, band_opt, &band_context);
  band_opt.compose = ModelCompose::kPipelined;
  const ModelSearchResult band_pipe =
      search_model_mappings(omega, band, band_spec, band_opt, &band_context);
  const bool band_ok =
      band_pipe.best().composed_cycles < band_seq.best().total_cycles;
  const double band_speedup =
      static_cast<double>(band_seq.best().total_cycles) /
      static_cast<double>(
          std::max<std::uint64_t>(band_pipe.best().composed_cycles, 1));
  std::cout << "PP-only banded study (" << band.name << "): sequential "
            << with_commas(band_seq.best().total_cycles) << " vs composed "
            << with_commas(band_pipe.best().composed_cycles) << " ("
            << band_pipe.best().overlapped_boundaries
            << " overlapped boundaries) -> " << fixed(band_speedup, 3)
            << "x" << (band_ok ? "" : "  NO STRICT IMPROVEMENT") << "\n";

  std::ofstream json(json_path);
  if (json) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("bench", "model_dse_sweep");
    jw.member("workload", w.name);
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.member("layers", static_cast<std::uint64_t>(spec.num_layers()));
    jw.member("per_layer_cap", static_cast<std::uint64_t>(per_layer_cap));
    jw.key("unpruned").begin_object();
    jw.member("seconds", full_s);
    jw.member("evaluated", static_cast<std::uint64_t>(full.evaluated));
    jw.member("candidates_per_sec", full_rate);
    jw.end_object();
    jw.key("pruned").begin_object();
    jw.member("seconds", pruned_s);
    jw.member("evaluated", static_cast<std::uint64_t>(pruned.evaluated));
    jw.member("culled", static_cast<std::uint64_t>(pruned.pruned));
    jw.member("candidates_per_sec", pruned_rate);
    jw.end_object();
    jw.member("prune_sweep_speedup", pruned_s > 0.0 ? full_s / pruned_s : 0.0);
    jw.member("best_parity", same_best ? "bit-identical" : "mismatch");
    jw.member("heterogeneous_cycles", pruned.best().total_cycles);
    if (fixed_run) {
      jw.key("best_fixed").begin_object();
      jw.member("name", fixed_run->name);
      jw.member("cycles", fixed_run->result.total_cycles);
      jw.end_object();
      jw.member("speedup_vs_fixed", speedup);
    }
    jw.key("pipelined").begin_object();
    jw.member("composed_cycles", piped.best().composed_cycles);
    jw.member("sequential_best_cycles", pruned.best().total_cycles);
    jw.member("overlapped_boundaries",
              static_cast<std::uint64_t>(piped.best().overlapped_boundaries));
    jw.member("speedup_vs_sequential", pipe_speedup);
    jw.member("never_worse", pipe_ok);
    jw.end_object();
    jw.key("pipelined_banded_pp").begin_object();
    jw.member("workload", band.name);
    jw.member("sequential_cycles", band_seq.best().total_cycles);
    jw.member("composed_cycles", band_pipe.best().composed_cycles);
    jw.member("overlapped_boundaries",
              static_cast<std::uint64_t>(
                  band_pipe.best().overlapped_boundaries));
    jw.member("speedup_vs_sequential", band_speedup);
    jw.member("strict_improvement", band_ok);
    jw.end_object();
    jw.end_object();
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return same_best && pipe_ok && band_ok ? 0 : 1;
}

// ---- Pipeline study: N-phase core + sparse-weight Combination ---------------

/// Gates (exit code): Omega::run and the explicit
/// two_phase_pipeline -> run_pipeline -> to_run_result path must agree
/// bit-for-bit on every Table V pattern (run() shares the pipeline core, so
/// this pins the adapter lowering and the RunResult view staying coherent —
/// the absolute legacy numbers are pinned separately by the v1 lines of the
/// service goldens and the pre-existing suites); a 3-phase pipeline must
/// evaluate end-to-end with a chunked boundary; and the sparse-weight
/// Combination cycles must be monotonically non-increasing as the weight
/// density drops. The dense-GEMM phase cycles are recorded alongside in
/// BENCH_pipeline.json as context (the two engines price the same MACs
/// through different models, so dense-vs-sparse is reported, not gated).
int run_pipeline_study() {
  const std::size_t scale_pct = env_or("OMEGA_PIPELINE_SCALE_PCT", 50);
  const char* json_path = std::getenv("OMEGA_PIPELINE_JSON");
  if (json_path == nullptr) json_path = "BENCH_pipeline.json";

  std::cout << "\n== Pipeline study: N-phase core + sparse-weight "
               "Combination ==\n";
  SynthesisOptions so;
  so.scale = static_cast<double>(scale_pct) / 100.0;
  const GnnWorkload w = synthesize_workload(dataset_by_name("Cora"), so);
  const Omega omega(default_accelerator());
  const LayerSpec layer{16};
  std::cout << "workload: " << w.name << " (" << w.num_vertices()
            << " vertices, " << w.num_edges() << " edges, F="
            << w.in_features << ")\n";

  // --- Gate 1: two-phase adapter parity over the Table V patterns ---------
  bool parity_ok = true;
  for (const DataflowPattern& pattern : table5_patterns()) {
    const DataflowDescriptor df =
        bind_tiles(pattern, dims_of(w, layer), omega.config());
    const RunResult legacy = omega.run(w, layer, df);
    PipelineResult pr = omega.run_pipeline(
        w, two_phase_pipeline(df, layer, omega.config().num_pes));
    const RunResult via = to_run_result(std::move(pr), df);
    const bool same = legacy.cycles == via.cycles &&
                      legacy.agg.cycles == via.agg.cycles &&
                      legacy.cmb.cycles == via.cmb.cycles &&
                      legacy.traffic.gb_total() == via.traffic.gb_total() &&
                      legacy.energy.total_pj() == via.energy.total_pj();
    if (!same) {
      std::cout << "PARITY MISMATCH on " << pattern.name << " ("
                << df.to_string() << "): legacy " << legacy.cycles
                << " vs pipeline " << via.cycles << "\n";
      parity_ok = false;
    }
  }
  std::cout << "two-phase adapter parity over Table V: "
            << (parity_ok ? "bit-identical" : "MISMATCH") << "\n";

  // --- Gate 2 + 3: 3-phase pipeline and the sparse-weight density sweep ---
  const auto gat_spec = [&](double density, bool sparse_w) {
    PipelineSpec s;
    PhaseSpec score;
    score.name = "score";
    score.engine = PhaseEngine::kDenseDense;
    score.dataflow =
        IntraPhaseDataflow::parse("VsFtGs", GnnPhase::kCombination);
    score.dataflow.tiles = {.v = 16, .n = 1, .f = 1, .g = 16};
    score.out_features = 16;
    PhaseSpec agg;
    agg.name = "agg";
    agg.engine = PhaseEngine::kSparseDense;
    agg.dataflow = IntraPhaseDataflow::parse("NtFsVt", GnnPhase::kAggregation);
    agg.dataflow.tiles = {.v = 1, .n = 8, .f = 16, .g = 1};
    PhaseSpec xform;
    xform.name = "xform";
    if (sparse_w) {
      xform.engine = PhaseEngine::kSparseSparse;
      xform.dataflow =
          IntraPhaseDataflow::parse("GsVtFt", GnnPhase::kCombination);
      xform.weight_density = density;
    } else {
      xform.engine = PhaseEngine::kDenseDense;
      xform.dataflow =
          IntraPhaseDataflow::parse("VtGsFt", GnnPhase::kCombination);
    }
    xform.dataflow.tiles = {.v = 1, .n = 1, .f = 1, .g = 8};
    xform.out_features = 8;
    s.phases = {score, agg, xform};
    s.boundaries = {InterPhase::kSPGeneric, InterPhase::kSequential};
    return s;
  };

  const PipelineResult three = omega.run_pipeline(w, gat_spec(1.0, true));
  const bool three_ok = three.phases.size() == 3 &&
                        three.boundaries[0].pipeline_chunks > 1 &&
                        three.cycles > 0;
  std::cout << "3-phase GAT pipeline: " << three.cycles << " cycles, "
            << three.boundaries[0].pipeline_chunks
            << " chunks across the score->agg boundary ("
            << (three_ok ? "ok" : "FAILED") << ")\n";

  const PipelineResult dense_run = omega.run_pipeline(w, gat_spec(1.0, false));
  const std::uint64_t dense_cycles = dense_run.phases[2].result.cycles;
  const std::vector<double> densities = {1.0, 0.5, 0.1};
  std::vector<std::uint64_t> sparse_cycles;
  std::vector<std::uint64_t> sparse_totals;
  bool monotone_ok = true;
  std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
  for (const double d : densities) {
    const PipelineResult r = omega.run_pipeline(w, gat_spec(d, true));
    const std::uint64_t c = r.phases[2].result.cycles;
    if (c > prev) monotone_ok = false;
    prev = c;
    sparse_cycles.push_back(c);
    sparse_totals.push_back(r.cycles);
    std::cout << "  sparse-W density " << d << ": xform " << c
              << " cycles (dense-W " << dense_cycles << ")\n";
  }
  if (!monotone_ok) {
    std::cout << "DENSITY SWEEP NOT MONOTONE\n";
  }

  {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("workload", w.name);
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.member("adapter_parity_bit_identical", parity_ok);
    jw.key("three_phase").begin_object();
    jw.member("pipeline", gat_spec(1.0, true).to_string());
    jw.member("cycles", three.cycles);
    jw.member("boundary_chunks",
              static_cast<std::uint64_t>(three.boundaries[0].pipeline_chunks));
    jw.end_object();
    jw.member("dense_w_cycles", dense_cycles);
    jw.key("sparse_w").begin_array();
    for (std::size_t i = 0; i < densities.size(); ++i) {
      jw.begin_object();
      jw.member("density", densities[i]);
      jw.member("xform_cycles", sparse_cycles[i]);
      jw.member("total_cycles", sparse_totals[i]);
      jw.end_object();
    }
    jw.end_array();
    jw.member("monotone_non_increasing", monotone_ok);
    jw.end_object();
    std::ofstream json(json_path);
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return parity_ok && three_ok && monotone_ok ? 0 : 1;
}

// ---- Pipeline DSE sweep: N-phase search path --------------------------------

/// Gates (exit code): on a 3-phase GAT-style chain (dense score ->
/// sparse-dense aggregation -> sparse-weight transform), the EDP-pruned
/// search must return the same best candidate (key, cycles, energy, score)
/// as the unpruned one — the lossless-pruning contract of
/// dse/pipeline_search.hpp — and the scalar and batched evaluation paths
/// must produce bit-identical ranked + Pareto sets. Both checks run again
/// on a chain that leads with the sparse-weight phase (spgemm -> spmm ->
/// gemm). Throughput of the two paths and the pruning win on the GAT chain,
/// each timed cold on its own fresh context, are reported and written to
/// BENCH_pipeline_dse.json. Knobs: OMEGA_PDSE_SCALE_PCT (Cora scale in
/// percent, default 25), OMEGA_PDSE_CANDIDATES (cap, default 512),
/// OMEGA_PDSE_JSON (output path).
int run_pipeline_dse_sweep() {
  const std::size_t scale_pct = env_or("OMEGA_PDSE_SCALE_PCT", 25);
  const std::size_t cap = env_or("OMEGA_PDSE_CANDIDATES", 512);
  const std::string json_path =
      env_or_str("OMEGA_PDSE_JSON", "BENCH_pipeline_dse.json");

  std::cout << "\n== pipeline DSE sweep: N-phase mapping search ==\n";
  SynthesisOptions so;
  so.scale = static_cast<double>(scale_pct) / 100.0;
  const GnnWorkload w = synthesize_workload(dataset_by_name("Cora"), so);
  const Omega omega(default_accelerator());

  PipelineChainSpec chain;
  chain.phases = {{.name = "score",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "agg", .engine = PhaseEngine::kSparseDense},
                  {.name = "xform",
                   .engine = PhaseEngine::kSparseSparse,
                   .out_features = 8,
                   .weight_density = 0.5}};
  std::cout << "workload: " << w.name << " (V=" << w.num_vertices()
            << ", E=" << w.num_edges() << ")\nchain: " << chain.to_string()
            << "\ncap: " << cap << " candidates, objective EDP\n";

  PipelineSearchOptions base;
  base.objective = Objective::kEnergyDelayProduct;
  base.max_candidates = cap;
  // Each timed path searches on its own fresh context, so all three are
  // cold passes over the same work.
  const auto timed = [&](const PipelineSearchOptions& o) {
    const WorkloadContext fresh(w.adjacency);
    const auto t0 = std::chrono::steady_clock::now();
    PipelineSearchResult r = search_pipeline_mappings(omega, w, chain, o,
                                                      &fresh);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair<PipelineSearchResult, double>(
        std::move(r), std::chrono::duration<double>(t1 - t0).count());
  };

  PipelineSearchOptions scalar_opt = base;
  scalar_opt.eval_path = EvalPath::kScalar;
  PipelineSearchOptions pruned_opt = base;
  pruned_opt.prune = true;

  // One untimed pass first, so the graph's cached transpose and the pool's
  // first wake-up land on no timed path.
  timed(base);
  const auto [batched, batched_s] = timed(base);
  const auto [scalar, scalar_s] = timed(scalar_opt);
  const auto [pruned, pruned_s] = timed(pruned_opt);

  // Path parity: the two evaluation cores must agree bit-for-bit on the
  // ranked list and the Pareto frontier.
  const auto same_sets = [](const PipelineSearchResult& a,
                            const PipelineSearchResult& b) {
    const auto same_entry = [](const RankedPipelineCandidate& x,
                               const RankedPipelineCandidate& y) {
      return x.key == y.key && x.cycles == y.cycles &&
             x.on_chip_pj == y.on_chip_pj && x.score == y.score;
    };
    if (a.ranked.size() != b.ranked.size() ||
        a.pareto.size() != b.pareto.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
      if (!same_entry(a.ranked[i], b.ranked[i])) return false;
    }
    for (std::size_t i = 0; i < a.pareto.size(); ++i) {
      if (!same_entry(a.pareto[i], b.pareto[i])) return false;
    }
    return true;
  };
  const bool path_parity = same_sets(batched, scalar);

  // Prune parity: the lossless-bound contract — same best, fewer
  // evaluations.
  const auto same_best = [](const PipelineSearchResult& unpruned,
                            const PipelineSearchResult& p) {
    const RankedPipelineCandidate& u = unpruned.best();
    const RankedPipelineCandidate& b = p.best();
    return u.key == b.key && u.cycles == b.cycles &&
           u.on_chip_pj == b.on_chip_pj && u.score == b.score;
  };
  const RankedPipelineCandidate& pb = pruned.best();
  const bool prune_parity = same_best(batched, pruned);

  // The same two checks on a chain that leads with its sparse-weight phase,
  // whose PP and SP-Generic first boundaries stage the transposed chunk
  // grid (the GAT chain's sparse-weight phase is last and produces none).
  PipelineChainSpec spgemm_first;
  spgemm_first.phases = {{.name = "xform",
                          .engine = PhaseEngine::kSparseSparse,
                          .out_features = 8,
                          .weight_density = 0.5},
                         {.name = "agg", .engine = PhaseEngine::kSparseDense},
                         {.name = "cmb",
                          .engine = PhaseEngine::kDenseDense,
                          .out_features = 16}};
  const WorkloadContext context(w.adjacency);
  const PipelineSearchResult sf_batched =
      search_pipeline_mappings(omega, w, spgemm_first, base, &context);
  const bool sf_path_parity = same_sets(
      sf_batched,
      search_pipeline_mappings(omega, w, spgemm_first, scalar_opt, &context));
  const bool sf_prune_parity = same_best(
      sf_batched,
      search_pipeline_mappings(omega, w, spgemm_first, pruned_opt, &context));

  const auto rate = [](const PipelineSearchResult& r, double s) {
    return s > 0.0
               ? static_cast<double>(r.evaluated + r.pruned) / s
               : 0.0;
  };
  std::cout << "batched: " << fixed(rate(batched, batched_s), 1)
            << " candidates/sec (" << batched.evaluated << " in "
            << fixed(batched_s, 3) << " s)\n"
            << "scalar:  " << fixed(rate(scalar, scalar_s), 1)
            << " candidates/sec\n"
            << "pruned:  " << fixed(rate(pruned, pruned_s), 1)
            << " candidates/sec (" << pruned.evaluated << " evaluated + "
            << pruned.pruned << " culled)\n"
            << "path parity:  "
            << (path_parity ? "bit-identical" : "MISMATCH")
            << " across scalar/batched\n"
            << "prune parity: " << (prune_parity ? "same best" : "MISMATCH")
            << " (best " << pb.key << ", " << with_commas(pb.cycles)
            << " cycles)\n"
            << "eval core: " << with_commas(batched.eval.term_requests)
            << " term requests (" << with_commas(batched.eval.term_builds)
            << " built)\n"
            << "chain: " << spgemm_first.to_string() << " ("
            << sf_batched.evaluated << " evaluated)\n"
            << "path parity:  "
            << (sf_path_parity ? "bit-identical" : "MISMATCH")
            << " across scalar/batched\n"
            << "prune parity: "
            << (sf_prune_parity ? "same best" : "MISMATCH") << "\n";

  std::ofstream json(json_path);
  if (json) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("bench", "pipeline_dse_sweep");
    jw.member("workload", w.name);
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.member("chain", chain.to_string());
    jw.member("cap", static_cast<std::uint64_t>(cap));
    jw.member("generated", static_cast<std::uint64_t>(batched.generated));
    const auto emit_path = [&](const char* name,
                               const PipelineSearchResult& r, double s) {
      jw.key(name).begin_object();
      jw.member("seconds", s);
      jw.member("evaluated", static_cast<std::uint64_t>(r.evaluated));
      jw.member("culled", static_cast<std::uint64_t>(r.pruned));
      jw.member("candidates_per_sec", rate(r, s));
      jw.end_object();
    };
    emit_path("batched", batched, batched_s);
    emit_path("scalar", scalar, scalar_s);
    emit_path("pruned", pruned, pruned_s);
    jw.member("path_parity", path_parity ? "bit-identical" : "mismatch");
    jw.member("prune_parity", prune_parity ? "same best" : "mismatch");
    jw.key("best").begin_object();
    jw.member("pipeline", pb.key);
    jw.member("cycles", pb.cycles);
    jw.member("on_chip_pj", pb.on_chip_pj);
    jw.member("score", pb.score);
    jw.end_object();
    jw.key("eval").begin_object();
    jw.member("term_requests", batched.eval.term_requests);
    jw.member("term_builds", batched.eval.term_builds);
    jw.end_object();
    jw.key("spgemm_first").begin_object();
    jw.member("chain", spgemm_first.to_string());
    jw.member("evaluated", static_cast<std::uint64_t>(sf_batched.evaluated));
    jw.member("path_parity", sf_path_parity ? "bit-identical" : "mismatch");
    jw.member("prune_parity", sf_prune_parity ? "same best" : "mismatch");
    jw.end_object();
    jw.end_object();
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return path_parity && prune_parity && sf_path_parity && sf_prune_parity
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool dse_only = false;
  bool dse_skip = false;    // micro benches only (fast iteration)
  bool model_only = false;  // model sweep only
  bool model_skip = false;
  const auto consume_flag = [&](const char* flag, bool* value) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], flag) == 0) {
        *value = true;
        for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
        --argc;
        return;
      }
    }
  };
  // Timed repeats per sweep path (median-of-N after one warmup run).
  std::size_t repeat = 1;
  const auto consume_value_flag = [&](const char* flag, std::size_t* value) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], flag) == 0) {
        *value = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::atoll(argv[i + 1])));
        for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
        argc -= 2;
        return;
      }
    }
  };
  bool pipeline_only = false;  // N-phase core study only (CI pipeline-smoke)
  bool pipeline_dse = false;   // N-phase search sweep only (CI pipeline-DSE)
  consume_flag("--dse-only", &dse_only);
  consume_flag("--dse-skip", &dse_skip);
  consume_flag("--model-only", &model_only);
  consume_flag("--model-skip", &model_skip);
  consume_flag("--pipeline-only", &pipeline_only);
  consume_flag("--pipeline-dse", &pipeline_dse);
  consume_value_flag("--repeat", &repeat);
  if (pipeline_only) {
    try {
      return run_pipeline_study();
    } catch (const std::exception& e) {
      std::cerr << "pipeline study failed: " << e.what() << "\n";
      return 1;
    }
  }
  if (pipeline_dse) {
    try {
      return run_pipeline_dse_sweep();
    } catch (const std::exception& e) {
      std::cerr << "pipeline DSE sweep failed: " << e.what() << "\n";
      return 1;
    }
  }
  int rc = 0;
  if (!dse_skip && !model_only) {
    try {
      rc = run_dse_sweep(repeat);
    } catch (const std::exception& e) {
      std::cerr << "dse sweep failed: " << e.what() << "\n";
      rc = 1;
    }
  }
  if (rc == 0 && !dse_skip && !model_skip) {
    try {
      rc = run_model_sweep();
    } catch (const std::exception& e) {
      std::cerr << "model sweep failed: " << e.what() << "\n";
      rc = 1;
    }
  }
  if (rc != 0 || dse_only || model_only) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
