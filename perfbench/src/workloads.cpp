#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "check.hpp"
#include "closed_loop.hpp"
#include "dse/pipeline_search.hpp"
#include "dse/search.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "lines.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace obs = omega::obs;
namespace svc = omega::service;

namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 7;

/// Repeats of the same work (windows of a line loop, warm-ups, sweep pairs)
/// a run's end-to-end figures are taken from: its quietest (see quietest).
constexpr std::size_t kQuietest = 3;

/// Share of a traced line run spent in the TCP closed loop (the transport
/// and scheduler metrics); the rest replays lines in-process.
constexpr double kTraceTcpShare = 0.3;

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// ---- metric emission --------------------------------------------------------

/// `rss_mb` is read when the timed phase ends, before verification work.
void emit_end_to_end(Report& rep, const LatencySummary& warm,
                     const LatencySummary& cold, double requests_per_s,
                     double candidates_per_s, double rss_mb, double setup_s) {
  rep.metric("warm_p50_ms", warm.p50_ms, "ms");
  rep.metric("warm_p90_ms", warm.p90_ms, "ms");
  rep.metric("cold_p50_ms", cold.p50_ms, "ms");
  rep.metric("cold_p90_ms", cold.p90_ms, "ms");
  rep.metric("requests_per_s", requests_per_s, "1/s");
  rep.metric("candidates_per_s", candidates_per_s, "1/s");
  rep.metric("peak_rss_mb", rss_mb, "MB");
  rep.metric("setup_s", setup_s, "s");
  rep.latency_facts("warm", warm);
  rep.latency_facts("cold", cold);
}

/// Every per-layer metric; a layer a workload never calls reads 0.
struct LayerMetrics {
  double synthesize_ms = 0, miss_ms = 0, hit_us = 0, hit_frac = 0;
  double evictions = 0;
  double parse_us = 0, serialize_us = 0, tcp_overhead_us = 0;
  double queue_p50_us = 0, queue_p90_us = 0, shed = 0;
  double enumerate_ms = 0, prune_ms = 0, evaluate_ms = 0, rank_ms = 0;
  double generated = 0, evaluated = 0, pruned = 0;
  double term_requests = 0, term_builds = 0, term_bytes = 0, terms = 0;
  double memo_entries = 0, memo_overflow = 0;
  double run_us = 0, run_pipeline_us = 0;
  double overhead_frac = 0, unattributed_frac = 0;
};

void emit_layers(Report& rep, const LayerMetrics& m) {
  rep.metric("graph.synthesize_ms", m.synthesize_ms, "ms");
  rep.metric("registry.miss_ms", m.miss_ms, "ms");
  rep.metric("registry.hit_us", m.hit_us, "us");
  rep.metric("registry.hit_frac", m.hit_frac, "fraction");
  rep.metric("registry.evictions", m.evictions, "count");
  rep.metric("protocol.parse_us", m.parse_us, "us");
  rep.metric("protocol.serialize_us", m.serialize_us, "us");
  rep.metric("tcp.overhead_us", m.tcp_overhead_us, "us");
  rep.metric("sched.queue_us.p50", m.queue_p50_us, "us");
  rep.metric("sched.queue_us.p90", m.queue_p90_us, "us");
  rep.metric("sched.shed", m.shed, "count");
  rep.metric("dse.enumerate_ms", m.enumerate_ms, "ms");
  rep.metric("dse.prune_ms", m.prune_ms, "ms");
  rep.metric("dse.evaluate_ms", m.evaluate_ms, "ms");
  rep.metric("dse.rank_ms", m.rank_ms, "ms");
  rep.metric("dse.generated", m.generated, "count");
  rep.metric("dse.evaluated", m.evaluated, "count");
  rep.metric("dse.pruned", m.pruned, "count");
  rep.metric("engine.term_requests", m.term_requests, "count");
  rep.metric("engine.term_builds", m.term_builds, "count");
  rep.metric("engine.term_build_frac",
             m.term_requests > 0 ? m.term_builds / m.term_requests : 0.0,
             "fraction");
  rep.metric("engine.term_bytes", m.term_bytes, "bytes");
  rep.metric("engine.terms", m.terms, "count");
  rep.metric("engine.phase_memo_entries", m.memo_entries, "count");
  rep.metric("engine.phase_memo_overflow", m.memo_overflow, "count");
  rep.metric("omega.run_us", m.run_us, "us");
  rep.metric("omega.run_pipeline_us", m.run_pipeline_us, "us");
  rep.metric("trace.overhead_frac", m.overhead_frac, "fraction");
  rep.metric("trace.unattributed_frac", m.unattributed_frac, "fraction");
}

/// DSE stage self times (p50 per search) of `s`.
void fill_dse_stages(const LayerSamples& s, LayerMetrics& m) {
  m.enumerate_ms = percentile_or_zero(s.enumerate_ms, 50);
  m.prune_ms = percentile_or_zero(s.prune_ms, 50);
  m.evaluate_ms = percentile_or_zero(s.evaluate_ms, 50);
  m.rank_ms = percentile_or_zero(s.rank_ms, 50);
}

/// Exact DSE and eval-core counts of `s`.
void fill_dse_counts(const LayerSamples& s, LayerMetrics& m) {
  m.generated = static_cast<double>(s.generated);
  m.evaluated = static_cast<double>(s.evaluated);
  m.pruned = static_cast<double>(s.pruned);
  m.term_requests = static_cast<double>(s.term_requests);
  m.term_builds = static_cast<double>(s.term_builds);
}

/// The exact counts of `s` that must repeat from one replay round or sweep
/// iteration to the next.
std::string counts_key(const LayerSamples& s) {
  return std::to_string(s.generated) + "/" + std::to_string(s.evaluated) +
         "/" + std::to_string(s.pruned) + "/" +
         std::to_string(s.term_requests) + "/" + std::to_string(s.term_builds);
}

/// Appends the per-layer samples of one replay round to `into`.
void append_samples(const LayerSamples& from, LayerSamples& into) {
  const auto append = [](std::vector<double>& to,
                          const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  append(into.parse_us, from.parse_us);
  append(into.serialize_us, from.serialize_us);
  append(into.hit_us, from.hit_us);
  append(into.miss_ms, from.miss_ms);
  append(into.run_us, from.run_us);
  append(into.run_pipeline_us, from.run_pipeline_us);
  append(into.enumerate_ms, from.enumerate_ms);
  append(into.prune_ms, from.prune_ms);
  append(into.evaluate_ms, from.evaluate_ms);
  append(into.rank_ms, from.rank_ms);
  into.request_s += from.request_s;
  into.attributed_s += from.attributed_s;
}

// ---- response checks --------------------------------------------------------

struct RegistryExpectation {
  std::uint64_t hits = 0, misses = 0;
  void add(const GeneratedLine& g) {
    if (g.registry == RegistryEffect::kHit) ++hits;
    if (g.registry == RegistryEffect::kMiss) ++misses;
  }
};

void check_registry(Report& rep, const char* where,
                    const RegistryExpectation& want, std::uint64_t hits,
                    std::uint64_t misses) {
  if (hits != want.hits || misses != want.misses) {
    rep.fail(std::string(where) + ": registry hits/misses " +
             std::to_string(hits) + "/" + std::to_string(misses) +
             ", expected " + std::to_string(want.hits) + "/" +
             std::to_string(want.misses));
  }
}

// ---- metrics snapshots ------------------------------------------------------

/// Bucket-wise difference of the histograms whose name starts with
/// `prefix`, merged into one.
obs::Histogram histogram_delta(const obs::MetricsSnapshot& before,
                               const obs::MetricsSnapshot& after,
                               const std::string& prefix) {
  std::map<std::uint64_t, std::int64_t> counts;
  const auto add = [&](const obs::MetricsSnapshot& snap, std::int64_t sign) {
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind(prefix, 0) != 0) continue;
      for (const obs::Histogram::Bucket& b : h.nonzero_buckets()) {
        counts[b.lower_bound] += sign * static_cast<std::int64_t>(b.count);
      }
    }
  };
  add(after, 1);
  add(before, -1);
  obs::Histogram out;
  for (const auto& [value, n] : counts) {
    for (std::int64_t i = 0; i < n; ++i) out.record(value);
  }
  return out;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto get = [&](const obs::MetricsSnapshot& s) -> std::uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

/// Exact mean of one histogram's samples between two snapshots (sums are
/// exact; bucket bounds are not).
double histogram_mean_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const std::string& name) {
  const auto find =
      [&](const obs::MetricsSnapshot& s) -> const obs::Histogram* {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? nullptr : &it->second;
  };
  const obs::Histogram* a = find(after);
  if (a == nullptr) return 0.0;
  const obs::Histogram* b = find(before);
  const std::uint64_t n = a->count() - (b != nullptr ? b->count() : 0);
  const std::uint64_t sum = a->sum() - (b != nullptr ? b->sum() : 0);
  return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

// ---- line workloads: search_warm, evaluate_churn ----------------------------

struct LineWorkload {
  std::size_t connections = 1;  // for the TCP closed loop
  TrafficPlan (*plan)(std::uint64_t seed) = nullptr;
  /// Cold latency comes from the set-ups' warm-up lines (search_warm, whose
  /// timed loop is all warm) rather than from cold lines of the loop: from
  /// the kQuietest warm-ups of set-ups 2 onwards. The first set-up is left
  /// out: it also pays the process's one-time start-up (first page faults,
  /// pool threads), which setup_s already reports.
  bool cold_from_warmup = false;
  /// Check the response digest at one search/service thread as well.
  bool single_thread_digest = false;
  /// Cycles the traced run replays after the warm-up.
  std::size_t replay_cycles = 1;
  /// If not 0 (one connection only), the timed loop is cut into windows of
  /// this many cycles, and the loop's metrics come from the kQuietest
  /// windows whose requests took least time in all; if 0, from the whole
  /// loop.
  std::size_t window_cycles = 0;
};

TrafficPlan search_warm_default(std::uint64_t seed) {
  return search_warm_plan(seed);
}

const LineWorkload kSearchWarm{.connections = 2,
                               .plan = &search_warm_default,
                               .cold_from_warmup = true,
                               .single_thread_digest = true,
                               .replay_cycles = 1};
const LineWorkload kEvaluateChurn{.connections = 1,
                                  .plan = &evaluate_churn_plan,
                                  .cold_from_warmup = false,
                                  .single_thread_digest = false,
                                  .replay_cycles = 2,
                                  .window_cycles = 5};

struct SampleCheck {
  std::uint64_t bad = 0;        // unanswered or unexpected responses
  std::uint64_t crosstalk = 0;  // Verdict::kCounterCrosstalk
};

/// Checks every sample against the reference and records the first few
/// failures.
SampleCheck check_samples(Report& rep, const char* where,
                          const std::vector<GeneratedLine>& lines,
                          const LoopResult& result,
                          const std::vector<std::string>& reference) {
  SampleCheck out;
  for (const LoopSample& s : result.samples) {
    std::string why;
    Verdict v = Verdict::kBad;
    if (s.answered()) {
      v = verdict(lines[s.index], result.response(s), reference[s.index], why);
    } else {
      why = "no response";
    }
    if (v == Verdict::kCounterCrosstalk) ++out.crosstalk;
    if (v != Verdict::kBad) continue;
    if (++out.bad <= 3) {
      rep.fail(std::string(where) + " line " + std::to_string(s.index) + ": " +
               why);
    }
  }
  return out;
}

/// The samples of the `k` windows of `window` consecutive samples of a
/// one-connection loop (complete windows only) whose latencies sum least;
/// every sample when the loop holds fewer than `k` windows.
std::vector<LoopSample> quietest_windows(Report& rep,
                                         const std::vector<LoopSample>& samples,
                                         std::size_t window, std::size_t k) {
  const std::size_t n = window > 0 ? samples.size() / window : 0;
  rep.fact("windows", static_cast<double>(n));
  rep.fact("window_requests", static_cast<double>(window));
  if (n < k || k == 0) {
    rep.fact("quiet_windows", 0.0);
    return samples;
  }
  std::vector<double> busy(n, 0.0);
  for (std::size_t i = 0; i < n * window; ++i) {
    busy[i / window] += samples[i].ms;
  }
  std::vector<LoopSample> out;
  for (const std::size_t w : quietest(busy, k)) {
    const auto begin =
        samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    out.insert(out.end(), begin, begin + static_cast<std::ptrdiff_t>(window));
  }
  rep.fact("quiet_windows", static_cast<double>(k));
  return out;
}

/// The untraced run of a line workload through `Harness` (TcpHarness or
/// DirectHarness).
template <typename Harness>
Report run_lines(const LineWorkload& wl, const RunArgs& args) {
  Report rep;
  std::vector<double> setup_s;
  std::vector<LoopResult> warmups;
  std::unique_ptr<Harness> harness;
  TrafficPlan plan;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = k == 0 ? args.process_start : Clock::now();
    plan = wl.plan(args.seed);
    if constexpr (std::is_same_v<Harness, TcpHarness>) {
      harness = std::make_unique<Harness>(wl.connections);
    } else {
      harness = std::make_unique<Harness>();
    }
    warmups.push_back(harness->exchange(plan.warmup));
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (k + 1 < kSetups) harness->close();
  }
  const obs::MetricsSnapshot before = harness->service().metrics().snapshot();
  const StealMeter steal;
  const LoopResult loop = harness->closed_loop(plan.cycle, args.seconds);
  rep.fact("host_steal_share", steal.share());
  harness->close();
  const double rss_mb = peak_rss_mb();
  const obs::MetricsSnapshot after = harness->service().metrics().snapshot();
  const svc::RegistryStats reg = harness->service().registry().stats();

  // Verification, outside the timed window: every response against an
  // in-order, in-process replay of the same lines.
  std::vector<GeneratedLine> in_order = plan.warmup;
  in_order.insert(in_order.end(), plan.cycle.begin(), plan.cycle.end());
  const std::vector<std::string> reference =
      replay_plain(line_texts(in_order)).responses;
  const auto split = static_cast<std::ptrdiff_t>(plan.warmup.size());
  const std::vector<std::string> ref_warmup(reference.begin(),
                                            reference.begin() + split);
  const std::vector<std::string> ref_cycle(reference.begin() + split,
                                           reference.end());
  std::uint64_t warmup_bad = 0;
  for (const LoopResult& w : warmups) {
    warmup_bad += check_samples(rep, "warm-up", plan.warmup, w, ref_warmup).bad;
  }
  const SampleCheck timed =
      check_samples(rep, "timed loop", plan.cycle, loop, ref_cycle);
  rep.fact("eval_counter_crosstalk", static_cast<double>(timed.crosstalk));
  const std::uint64_t digest = digest_lines(reference);
  rep.fact("digest", hex64(digest));
  if (wl.single_thread_digest) {
    const std::uint64_t one =
        digest_lines(replay_plain(line_texts(in_order, true)).responses);
    rep.fact("digest_1thread", hex64(one));
    if (one != digest) rep.fail("response digest differs at 1 thread");
  }
  RegistryExpectation want;
  for (const GeneratedLine& g : plan.warmup) want.add(g);
  for (const LoopSample& s : loop.samples) want.add(plan.cycle[s.index]);
  check_registry(rep, "daemon", want, reg.hits, reg.misses);
  const std::uint64_t shed = counter_delta(before, after, "service.sched.shed");
  if (shed > 0) {
    rep.fail("scheduler shed " + std::to_string(shed) + " requests");
  }

  // Metrics of the timed loop, or of its quietest windows.
  const bool windowed = wl.window_cycles > 0;
  if (windowed && harness->connections() != 1) {
    throw std::logic_error("quiet windows need a one-connection loop");
  }
  const std::vector<LoopSample> timed_samples =
      windowed ? quietest_windows(rep, loop.samples,
                                  wl.window_cycles * plan.cycle.size(),
                                  kQuietest)
               : loop.samples;
  std::vector<double> evaluated(loop.responses.size());
  for (std::size_t r = 0; r < loop.responses.size(); ++r) {
    const Inspected in = inspect(loop.responses[r]);
    evaluated[r] = in.evaluated > 0 ? static_cast<double>(in.evaluated) : 1.0;
  }
  std::vector<double> warm_ms, cold_ms;
  double candidates = 0.0, busy_s = 0.0;
  std::size_t answered = 0;
  for (const LoopSample& s : timed_samples) {
    busy_s += 1e-3 * s.ms;
    if (!s.answered()) continue;
    ++answered;
    const GeneratedLine& g = plan.cycle[s.index];
    if (g.cls == LineClass::kError) continue;
    (g.cls == LineClass::kWarm ? warm_ms : cold_ms).push_back(s.ms);
    candidates += evaluated[s.response];
  }
  if (wl.cold_from_warmup) {
    std::vector<double> busy;
    for (std::size_t k = 1; k < warmups.size(); ++k) {
      busy.push_back(0.0);
      for (const LoopSample& s : warmups[k].samples) busy.back() += s.ms;
    }
    for (const std::size_t k : quietest(busy, kQuietest)) {
      for (const LoopSample& s : warmups[k + 1].samples) {
        cold_ms.push_back(s.ms);
      }
    }
  }
  if (windowed) {
    std::vector<double> all_warm;
    for (const LoopSample& s : loop.samples) {
      if (s.answered() && plan.cycle[s.index].cls == LineClass::kWarm) {
        all_warm.push_back(s.ms);
      }
    }
    const LatencySummary whole = summarize_latency(all_warm);
    rep.fact("whole_run.warm_p50_ms", whole.p50_ms);
    rep.fact("whole_run.warm_p90_ms", whole.p90_ms);
    rep.fact("whole_run.requests_per_s",
             static_cast<double>(loop.samples.size()) /
                 std::max(loop.window_s, 1e-9));
  }
  rep.attempted = loop.samples.size();
  rep.failed = timed.bad + shed;
  // Windows: with one caller the service is busy for the sum of the
  // latencies.
  const double per_s =
      1.0 / std::max(windowed ? busy_s : loop.window_s, 1e-9);
  emit_end_to_end(rep, summarize_latency(warm_ms), summarize_latency(cold_ms),
                  static_cast<double>(answered) * per_s, candidates * per_s,
                  rss_mb, percentile_or_zero(setup_s, 50));
  rep.fact("warmup_failed", static_cast<double>(warmup_bad));
  rep.fact("connections", static_cast<double>(harness->connections()));
  rep.fact("transport", std::is_same_v<Harness, TcpHarness>
                            ? "tcp loopback"
                            : "in-process handle_line");
  rep.fact("scheduler_threads", static_cast<double>(nproc()));
  rep.fact("window_s", loop.window_s);
  rep.fact("registry.evictions", static_cast<double>(reg.evictions));
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    rep.fact("setup_s." + std::to_string(k), setup_s[k]);
  }
  return rep;
}

Report trace_lines(const LineWorkload& wl, const RunArgs& args) {
  Report rep;
  obs::TraceCollector collector;
  const TrafficPlan plan = wl.plan(args.seed);
  const Clock::time_point start = Clock::now();
  LayerMetrics m;

  // Transport and scheduler: a short closed loop over TCP, as untraced.
  TcpHarness harness(wl.connections);
  (void)harness.exchange(plan.warmup);
  const obs::MetricsSnapshot before = harness.service().metrics().snapshot();
  const LoopResult loop =
      harness.closed_loop(plan.cycle, kTraceTcpShare * args.seconds);
  harness.close();
  const obs::MetricsSnapshot after = harness.service().metrics().snapshot();
  double client_us = 0.0;
  std::size_t answered = 0;
  for (const LoopSample& s : loop.samples) {
    if (!s.answered()) continue;
    client_us += 1e3 * s.ms;
    ++answered;
  }
  m.tcp_overhead_us =
      (answered > 0 ? client_us / static_cast<double>(answered) : 0.0) -
      histogram_mean_delta(before, after, "service.latency_us");
  const obs::Histogram queue =
      histogram_delta(before, after, "service.sched.queue_us.band");
  m.queue_p50_us = static_cast<double>(queue.value_at_percentile(50));
  m.queue_p90_us = static_cast<double>(queue.value_at_percentile(90));
  m.shed = static_cast<double>(
      counter_delta(before, after, "service.sched.shed"));
  if (m.shed > 0) rep.fail("scheduler shed requests");

  // In-process replays of the same lines, plain then traced, until the run
  // time is spent (at least one round). Counts must repeat every round.
  std::vector<GeneratedLine> lines = plan.warmup;
  for (std::size_t c = 0; c < wl.replay_cycles; ++c) {
    lines.insert(lines.end(), plan.cycle.begin(), plan.cycle.end());
  }
  const std::vector<std::string> line_text = line_texts(lines);
  const Clock::time_point deadline = deadline_after(start, args.seconds);
  double plain_s = 0.0, traced_s = 0.0;
  LayerSamples all;
  std::unique_ptr<TracedReplayer> last;
  std::optional<std::string> first_counts;
  std::vector<std::string> reference;
  std::size_t rounds = 0;
  do {
    PlainReplay plain = replay_plain(line_text);
    plain_s += plain.wall_s;
    auto traced = std::make_unique<TracedReplayer>(&collector);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < line_text.size(); ++i) {
      if (traced->handle(line_text[i]) != plain.responses[i]) {
        rep.fail("traced replay differs from the plain replay at line " +
                 std::to_string(i));
        break;
      }
    }
    traced_s += seconds_between(t0, Clock::now());
    const LayerSamples& s = traced->samples();
    const svc::RegistryStats reg = traced->registry().stats();
    const std::string counts =
        std::to_string(reg.hits) + "/" + std::to_string(reg.misses) + "/" +
        std::to_string(reg.evictions) + "/" + counts_key(s);
    if (!first_counts) {
      first_counts = counts;
      reference = std::move(plain.responses);
      RegistryExpectation want;
      for (const GeneratedLine& g : lines) want.add(g);
      check_registry(rep, "traced replay", want, reg.hits, reg.misses);
      fill_dse_counts(s, m);
      m.hit_frac = static_cast<double>(reg.hits) /
                   static_cast<double>(
                       std::max<std::uint64_t>(1, reg.hits + reg.misses));
      m.evictions = static_cast<double>(reg.evictions);
      all.missed = s.missed;
    } else if (counts != *first_counts) {
      rep.fail("replay counts changed between rounds: " + *first_counts +
               " vs " + counts);
    }
    append_samples(s, all);
    last = std::move(traced);
    ++rounds;
  } while (Clock::now() < deadline);

  // The closed loop's responses must match the replayed bytes too.
  const auto cycle_begin =
      reference.begin() + static_cast<std::ptrdiff_t>(plan.warmup.size());
  const std::vector<std::string> ref_cycle(
      cycle_begin,
      cycle_begin + static_cast<std::ptrdiff_t>(plan.cycle.size()));
  const SampleCheck timed =
      check_samples(rep, "timed loop", plan.cycle, loop, ref_cycle);
  rep.failed = timed.bad;
  rep.fact("eval_counter_crosstalk", static_cast<double>(timed.crosstalk));
  rep.attempted = loop.samples.size() + rounds * line_text.size();

  // graph: synthesize_workload for every miss of the first round, timed
  // apart from the replay so it does not count twice.
  std::vector<double> synth_ms;
  for (const svc::WorkloadRef& ref : all.missed) {
    omega::SynthesisOptions so;
    so.seed = ref.seed;
    so.scale = ref.scale;
    so.add_self_loops = ref.add_self_loops;
    so.gcn_normalize = ref.gcn_normalize;
    const obs::ScopedSpan span(&collector, "graph.synthesize_workload",
                               "bench");
    const Clock::time_point t0 = Clock::now();
    const omega::GnnWorkload w =
        omega::synthesize_workload(omega::dataset_by_name(ref.dataset), so);
    synth_ms.push_back(ms_since(t0));
    if (w.num_vertices() == 0) rep.fail("synthesized an empty graph");
  }

  m.synthesize_ms = percentile_or_zero(synth_ms, 50);
  m.miss_ms = percentile_or_zero(all.miss_ms, 50);
  m.hit_us = percentile_or_zero(all.hit_us, 50);
  m.parse_us = percentile_or_zero(all.parse_us, 50);
  m.serialize_us = percentile_or_zero(all.serialize_us, 50);
  m.run_us = percentile_or_zero(all.run_us, 50);
  m.run_pipeline_us = percentile_or_zero(all.run_pipeline_us, 50);
  // Stage self times over every round (counts above are per round).
  fill_dse_stages(all, m);
  const omega::ContextEvalStats eval = last->registry().eval_stats();
  m.term_bytes = static_cast<double>(eval.term_bytes);
  m.terms = static_cast<double>(eval.terms);
  for (const auto& entry : last->resident_entries()) {
    m.memo_entries += static_cast<double>(entry->context.phase_cache_size());
    m.memo_overflow +=
        static_cast<double>(entry->context.phase_memo_overflow());
  }
  m.overhead_frac = plain_s > 0 ? traced_s / plain_s - 1.0 : 0.0;
  m.unattributed_frac =
      all.request_s > 0 ? 1.0 - all.attributed_s / all.request_s : 0.0;
  emit_layers(rep, m);
  rep.fact("replay_rounds", static_cast<double>(rounds));
  rep.fact("replay_lines", static_cast<double>(line_text.size()));
  rep.fact("tcp_requests", static_cast<double>(answered));
  rep.fact("connections", static_cast<double>(wl.connections));
  rep.fact("digest", hex64(digest_lines(reference)));
  if (!args.trace_path.empty()) collector.write_file(args.trace_path);
  return rep;
}

// ---- dse_sweep --------------------------------------------------------------

constexpr std::size_t kRmatScale = 14;
constexpr std::size_t kRmatEdges = 131072;
constexpr std::size_t kSweepCap = 16384;

omega::GnnWorkload rmat_workload(std::uint64_t seed) {
  omega::Rng rng(seed);
  omega::GnnWorkload w;
  w.name = "rmat-s14";
  w.adjacency = omega::rmat(kRmatScale, kRmatEdges, rng)
                    .with_self_loops()
                    .gcn_normalized();
  w.in_features = 64;
  return w;
}

omega::PipelineChainSpec gat_chain() {
  omega::PipelineChainSpec chain;
  chain.phases = {{.name = "score",
                   .engine = omega::PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "agg", .engine = omega::PhaseEngine::kSparseDense},
                  {.name = "xform",
                   .engine = omega::PhaseEngine::kSparseSparse,
                   .out_features = 8,
                   .weight_density = 0.5}};
  return chain;
}

struct SweepPair {
  omega::SearchResult mappings;
  omega::PipelineSearchResult pipeline;
  double seconds = 0.0;
  double stage_s = 0.0;  // covered by DSE stage spans (traced pairs)
};

/// search_mappings (include_ca, runtime) then the 3-phase GAT pipeline
/// search (EDP), both capped at 16,384 candidates at `nproc` threads, on
/// `ctx`. With `samples`, each search emits its stage spans.
SweepPair run_pair(const omega::Omega& omega, const omega::GnnWorkload& w,
                   const omega::WorkloadContext& ctx,
                   obs::TraceCollector* trace, LayerSamples* samples) {
  omega::SearchOptions mo;
  mo.include_ca = true;
  mo.max_candidates = kSweepCap;
  mo.threads = nproc();
  omega::PipelineSearchOptions po;
  po.objective = omega::Objective::kEnergyDelayProduct;
  po.max_candidates = kSweepCap;
  po.threads = nproc();
  SweepPair p;
  const Clock::time_point t0 = Clock::now();
  obs::TraceCollector local_m, local_p;
  const std::uint64_t offset_m = trace != nullptr ? trace->now_us() : 0;
  if (samples != nullptr) mo.trace = &local_m;
  p.mappings = omega::search_mappings(omega, w, omega::LayerSpec{16}, mo, &ctx);
  const std::uint64_t offset_p = trace != nullptr ? trace->now_us() : 0;
  if (samples != nullptr) po.trace = &local_p;
  p.pipeline = omega::search_pipeline_mappings(omega, w, gat_chain(), po, &ctx);
  p.seconds = seconds_between(t0, Clock::now());
  if (samples != nullptr) {
    p.stage_s += fold_dse_trace(local_m, offset_m, trace, *samples);
    p.stage_s += fold_dse_trace(local_p, offset_p, trace, *samples);
  }
  return p;
}

/// Ranked + Pareto keys with cycles and on-chip pJ, and the best of each
/// search: what must not change between sweeps of one graph.
std::string fingerprint(const SweepPair& p) {
  std::string out;
  char buf[96];
  const auto add = [&](const std::string& key, std::uint64_t cycles,
                       double pj) {
    std::snprintf(buf, sizeof(buf), "|%" PRIu64 "|%.17g;", cycles, pj);
    out += key;
    out += buf;
  };
  for (const omega::Candidate& c : p.mappings.ranked) {
    add(c.dataflow.to_string(), c.cycles, c.on_chip_pj);
  }
  out += "#";
  for (const omega::Candidate& c : p.mappings.pareto) {
    add(c.dataflow.to_string(), c.cycles, c.on_chip_pj);
  }
  out += "#best:";
  add("", p.mappings.best().cycles, p.mappings.best().on_chip_pj);
  for (const auto& c : p.pipeline.ranked) add(c.key, c.cycles, c.on_chip_pj);
  out += "#";
  for (const auto& c : p.pipeline.pareto) add(c.key, c.cycles, c.on_chip_pj);
  out += "#best:";
  add("", p.pipeline.best().cycles, p.pipeline.best().on_chip_pj);
  return out;
}

Report run_sweep(const RunArgs& args) {
  Report rep;
  std::vector<double> setup_s;
  std::optional<omega::GnnWorkload> w;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = k == 0 ? args.process_start : Clock::now();
    w = rmat_workload(args.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const omega::Omega omega(omega::default_accelerator());
  std::vector<double> cold_ms, warm_ms, candidates;
  std::optional<std::string> reference;
  std::size_t iterations = 0, mismatches = 0;
  const StealMeter steal;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(start, args.seconds);
  do {
    const omega::WorkloadContext ctx(w->adjacency);
    const SweepPair cold = run_pair(omega, *w, ctx, nullptr, nullptr);
    const SweepPair warm = run_pair(omega, *w, ctx, nullptr, nullptr);
    cold_ms.push_back(1e3 * cold.seconds);
    warm_ms.push_back(1e3 * warm.seconds);
    candidates.push_back(static_cast<double>(cold.mappings.evaluated +
                                             cold.pipeline.evaluated));
    const std::string fc = fingerprint(cold);
    if (!reference) reference = fc;
    if (fc != *reference) ++mismatches;
    if (fingerprint(warm) != *reference) ++mismatches;
    ++iterations;
  } while (Clock::now() < deadline);
  const double rss_mb = peak_rss_mb();
  rep.fact("host_steal_share", steal.share());
  if (mismatches > 0) {
    rep.fail(std::to_string(mismatches) + " sweeps differ from the first");
  }
  rep.attempted = 4 * iterations;
  rep.failed = mismatches;

  // Metrics of the run's kQuietest quickest cold pairs and, apart, its
  // kQuietest quickest warm pairs.
  std::vector<double> quiet_cold, quiet_warm;
  double cold_s = 0.0, warm_s = 0.0, quiet_candidates = 0.0;
  for (const std::size_t i : quietest(cold_ms, kQuietest)) {
    quiet_cold.push_back(cold_ms[i]);
    cold_s += 1e-3 * cold_ms[i];
    quiet_candidates += candidates[i];
  }
  for (const std::size_t i : quietest(warm_ms, kQuietest)) {
    quiet_warm.push_back(warm_ms[i]);
    warm_s += 1e-3 * warm_ms[i];
  }
  emit_end_to_end(rep, summarize_latency(quiet_warm),
                  summarize_latency(quiet_cold),
                  2.0 * static_cast<double>(quiet_cold.size() +
                                            quiet_warm.size()) /
                      std::max(cold_s + warm_s, 1e-9),
                  quiet_candidates / std::max(cold_s, 1e-9), rss_mb,
                  percentile_or_zero(setup_s, 50));
  rep.fact("quiet_pairs", static_cast<double>(quiet_cold.size()));
  rep.fact("whole_run.cold_p50_ms", percentile_or_zero(cold_ms, 50));
  rep.fact("whole_run.warm_p50_ms", percentile_or_zero(warm_ms, 50));
  rep.fact("iterations", static_cast<double>(iterations));
  rep.fact("search_threads", static_cast<double>(nproc()));
  rep.fact("vertices", static_cast<double>(w->num_vertices()));
  rep.fact("edges", static_cast<double>(w->num_edges()));
  rep.fact("digest", hex64(omega::service::fnv1a64(*reference)));
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    rep.fact("setup_s." + std::to_string(k), setup_s[k]);
  }
  return rep;
}

Report trace_sweep(const RunArgs& args) {
  Report rep;
  obs::TraceCollector collector;
  LayerMetrics m;
  std::optional<omega::GnnWorkload> w;
  {
    const obs::ScopedSpan span(&collector, "graph.rmat", "bench");
    const Clock::time_point t0 = Clock::now();
    w = rmat_workload(args.seed);
    m.synthesize_ms = ms_since(t0);
  }
  const omega::Omega omega(omega::default_accelerator());
  LayerSamples all;
  double plain_s = 0.0, traced_s = 0.0, stage_s = 0.0;
  std::optional<std::string> reference, first_counts;
  std::size_t iterations = 0;
  const Clock::time_point deadline = deadline_after(Clock::now(), args.seconds);
  do {
    std::string plain_print;
    {
      const omega::WorkloadContext ctx(w->adjacency);
      const SweepPair plain = run_pair(omega, *w, ctx, nullptr, nullptr);
      plain_s += plain.seconds;
      plain_print = fingerprint(plain);
    }
    const omega::WorkloadContext ctx(w->adjacency);
    LayerSamples s;
    SweepPair traced;
    {
      const obs::ScopedSpan span(&collector, "dse.cold_sweep_pair", "bench");
      traced = run_pair(omega, *w, ctx, &collector, &s);
    }
    traced_s += traced.seconds;
    stage_s += traced.stage_s;
    if (fingerprint(traced) != plain_print) {
      rep.fail("traced sweep differs from the untraced sweep");
    }
    if (!reference) reference = plain_print;
    if (plain_print != *reference) rep.fail("sweeps differ between iterations");
    add_counts(traced.mappings, s);
    add_counts(traced.pipeline, s);
    const std::string counts = counts_key(s);
    if (!first_counts) {
      first_counts = counts;
      fill_dse_counts(s, m);
      const omega::ContextEvalStats eval = ctx.eval_stats();
      m.term_bytes = static_cast<double>(eval.term_bytes);
      m.terms = static_cast<double>(eval.terms);
      m.memo_entries = static_cast<double>(ctx.phase_cache_size());
      m.memo_overflow = static_cast<double>(ctx.phase_memo_overflow());
    } else if (counts != *first_counts) {
      rep.fail("sweep counts changed between iterations: " + *first_counts +
               " vs " + counts);
    }
    append_samples(s, all);
    ++iterations;
  } while (Clock::now() < deadline);
  fill_dse_stages(all, m);
  m.overhead_frac = plain_s > 0 ? traced_s / plain_s - 1.0 : 0.0;
  m.unattributed_frac = traced_s > 0 ? 1.0 - stage_s / traced_s : 0.0;
  emit_layers(rep, m);
  rep.attempted = 4 * iterations;
  rep.fact("iterations", static_cast<double>(iterations));
  rep.fact("search_threads", static_cast<double>(nproc()));
  if (!args.trace_path.empty()) collector.write_file(args.trace_path);
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"search_warm", "evaluate_churn",
                                              "dse_sweep"};
  return names;
}

Report run_workload(const RunArgs& args) {
  Report rep;
  if (args.workload == "search_warm") {
    rep = args.trace ? trace_lines(kSearchWarm, args)
                     : run_lines<TcpHarness>(kSearchWarm, args);
  } else if (args.workload == "evaluate_churn") {
    rep = args.trace ? trace_lines(kEvaluateChurn, args)
                     : run_lines<DirectHarness>(kEvaluateChurn, args);
  } else if (args.workload == "dse_sweep") {
    rep = args.trace ? trace_sweep(args) : run_sweep(args);
  } else {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  rep.fact("workload", args.workload);
  rep.fact("seed", static_cast<double>(args.seed));
  rep.fact("seconds", args.seconds);
  rep.fact("trace", args.trace ? 1.0 : 0.0);
  rep.fact("nproc", static_cast<double>(nproc()));
  return rep;
}

}  // namespace perfbench
