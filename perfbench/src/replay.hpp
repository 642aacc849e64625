// In-process replays of generated lines.
//
//  * plain: the server's own entry point (MappingService::handle_line or
//    handle_batch) with tracing off — the reference bytes and the untraced
//    wall time;
//  * traced: the same request decomposed into the calls the server makes —
//    parse_request -> WorkloadRegistry::acquire -> the layer call (Omega::run
//    / run_pipeline, or a search with its `trace` option set) -> the
//    response builder — each under a span from this file. Its bytes must
//    equal the plain replay's, which shows it makes the server's calls.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "lines.hpp"
#include "service/registry.hpp"

namespace perfbench {

/// handle_line over a fresh default service, one line at a time. Search
/// responses report the state their request built, so a response is a
/// function of the lines before it: this in-order replay is the reference
/// every other way of serving the same lines is checked against.
struct PlainReplay {
  std::vector<std::string> responses;
  double wall_s = 0.0;
};
[[nodiscard]] PlainReplay replay_plain(const std::vector<std::string>& lines);

/// Per-layer samples and exact counts of a traced replay.
struct LayerSamples {
  std::vector<double> parse_us, serialize_us;
  std::vector<double> hit_us, miss_ms;
  std::vector<double> run_us, run_pipeline_us;
  // Per search request, the summed self time of each DSE stage span.
  std::vector<double> enumerate_ms, prune_ms, evaluate_ms, rank_ms;
  double request_s = 0.0;     // sum of request span durations
  double attributed_s = 0.0;  // sum of the layer spans inside them
  std::uint64_t generated = 0, evaluated = 0, pruned = 0;
  std::uint64_t term_requests = 0, term_builds = 0;
  std::vector<omega::service::WorkloadRef> missed;  // refs built on a miss
};

/// Adds a search result's exact counts (SearchResult, PipelineSearchResult
/// or ModelSearchResult) into `s`.
template <typename Result>
void add_counts(const Result& r, LayerSamples& s) {
  s.generated += r.generated;
  s.evaluated += r.evaluated;
  s.pruned += r.pruned;
  s.term_requests += r.eval.term_requests;
  s.term_builds += r.eval.term_builds;
}

/// Folds the DSE stage spans ("dse" category) that one search emitted into
/// `local` into per-stage samples (the spans are leaves, so their durations
/// are self times), and forwards them to `trace` on the calling thread's
/// track, shifted by `offset_us` (trace->now_us() when `local` was made).
/// Returns the seconds the stage spans cover.
double fold_dse_trace(const omega::obs::TraceCollector& local,
                      std::uint64_t offset_us,
                      omega::obs::TraceCollector* trace, LayerSamples& into);

class TracedReplayer {
 public:
  /// `trace` receives every span (may be null: the decomposition still
  /// runs and times itself). Registry capacity matches the daemon's.
  explicit TracedReplayer(omega::obs::TraceCollector* trace);

  /// Serves one line exactly as MappingService::handle_line would.
  [[nodiscard]] std::string handle(const std::string& line);

  [[nodiscard]] const LayerSamples& samples() const { return samples_; }
  [[nodiscard]] const omega::service::WorkloadRegistry& registry() const {
    return registry_;
  }

  /// Resident entries (by signature) — the contexts whose phase memos the
  /// per-layer table reports.
  [[nodiscard]] std::vector<
      std::shared_ptr<const omega::service::WorkloadEntry>>
  resident_entries() const;

 private:
  [[nodiscard]] std::string dispatch(const omega::service::Request& request);

  omega::obs::TraceCollector* trace_;
  omega::service::WorkloadRegistry registry_;
  LayerSamples samples_;
  double attributed_in_request_ = 0.0;
  std::map<std::string, std::weak_ptr<const omega::service::WorkloadEntry>>
      seen_;
};

}  // namespace perfbench
