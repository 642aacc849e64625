#include "replay.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "dataflow/patterns.hpp"
#include "dse/model_search.hpp"
#include "dse/pipeline_search.hpp"
#include "dse/search.hpp"
#include "omega/tiler.hpp"
#include "service/server.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace obs = omega::obs;
namespace svc = omega::service;

PlainReplay replay_plain(const std::vector<std::string>& lines) {
  svc::MappingService service;
  PlainReplay out;
  out.responses.reserve(lines.size());
  const Clock::time_point t0 = Clock::now();
  for (const std::string& line : lines) {
    out.responses.push_back(service.handle_line(line));
  }
  out.wall_s = seconds_between(t0, Clock::now());
  return out;
}

double fold_dse_trace(const obs::TraceCollector& local, std::uint64_t offset_us,
                      obs::TraceCollector* trace, LayerSamples& into) {
  double enumerate = 0.0, prune = 0.0, evaluate = 0.0, rank = 0.0;
  bool any_prune = false;
  std::uint64_t covered_us = 0;
  const std::vector<obs::TraceEvent> events = local.events();
  for (const obs::TraceEvent& e : events) {
    if (e.ph != 'X' || e.cat != "dse") continue;
    covered_us += e.dur_us;
    const double ms = static_cast<double>(e.dur_us) / 1e3;
    if (e.name == "enumerate") enumerate += ms;
    if (e.name == "prune") {
      prune += ms;
      any_prune = true;
    }
    if (e.name == "evaluate") evaluate += ms;
    if (e.name == "rank") rank += ms;
  }
  into.enumerate_ms.push_back(enumerate);
  if (any_prune) into.prune_ms.push_back(prune);
  into.evaluate_ms.push_back(evaluate);
  into.rank_ms.push_back(rank);
  if (trace != nullptr) {
    const std::uint32_t tid = trace->thread_id();
    for (obs::TraceEvent e : events) {
      e.ts_us += offset_us;
      e.tid = tid;
      trace->add(std::move(e));
    }
  }
  return static_cast<double>(covered_us) / 1e6;
}

namespace {

/// Times one layer call: a span in the trace, its duration added to the
/// request's attributed time, and optionally kept as a sample. The
/// destructor records, so a call that throws is still accounted for.
class LayerTimer {
 public:
  LayerTimer(obs::TraceCollector* trace, std::string_view name,
             double* attributed, double* out_s = nullptr)
      : span_(trace, name, "bench"),
        attributed_(attributed),
        out_s_(out_s),
        t0_(Clock::now()) {}
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;
  ~LayerTimer() {
    const double s = seconds_between(t0_, Clock::now());
    *attributed_ += s;
    if (out_s_ != nullptr) *out_s_ = s;
  }

 private:
  obs::ScopedSpan span_;
  double* attributed_;
  double* out_s_;
  Clock::time_point t0_;
};

/// Runs `call` with a private collector wired into the search options and
/// folds the DSE stage spans it emitted (see fold_dse_trace).
template <typename Call>
auto with_dse_trace(obs::TraceCollector* trace, LayerSamples& samples,
                    Call&& call) {
  obs::TraceCollector local;
  const std::uint64_t offset = trace != nullptr ? trace->now_us() : 0;
  auto result = call(&local);
  (void)fold_dse_trace(local, offset, trace, samples);
  return result;
}

}  // namespace

TracedReplayer::TracedReplayer(obs::TraceCollector* trace)
    : trace_(trace), registry_(kDaemonRegistryCapacity) {}

std::string TracedReplayer::handle(const std::string& line) {
  double request_s = 0.0;
  attributed_in_request_ = 0.0;
  std::string response;
  {
    double unused = 0.0;
    const LayerTimer whole(trace_, "request", &unused, &request_s);
    const std::uint64_t version = svc::peek_request_version(line);
    std::uint64_t id = 0;
    std::optional<std::pair<std::string, std::string>> error;
    try {
      svc::Request request;
      {
        double s = 0.0;
        {
          const LayerTimer t(trace_, "protocol.parse", &attributed_in_request_,
                             &s);
          request = svc::parse_request(line);
        }
        samples_.parse_us.push_back(1e6 * s);
      }
      id = request.id;
      response = dispatch(request);
    } catch (const omega::InvalidDataflowError& e) {
      error.emplace("InvalidDataflowError", e.what());
    } catch (const omega::ResourceError& e) {
      error.emplace("ResourceError", e.what());
    } catch (const omega::InvalidArgumentError& e) {
      error.emplace("InvalidArgumentError", e.what());
    } catch (const omega::Error& e) {
      error.emplace("Error", e.what());
    } catch (const std::exception& e) {
      error.emplace("Internal", e.what());
    }
    if (error) {
      double s = 0.0;
      {
        const LayerTimer t(trace_, "protocol.serialize",
                           &attributed_in_request_, &s);
        response = svc::error_response(
            id > 0 ? id : svc::peek_request_id(line), error->first,
            error->second, version);
      }
      samples_.serialize_us.push_back(1e6 * s);
    }
  }
  samples_.request_s += request_s;
  samples_.attributed_s += attributed_in_request_;
  return response;
}

std::string TracedReplayer::dispatch(const svc::Request& request) {
  using svc::RequestKind;
  if (request.kind == RequestKind::kStats ||
      request.kind == RequestKind::kMetrics) {
    throw std::logic_error("the benchmark generates no barrier requests");
  }

  std::shared_ptr<const svc::WorkloadEntry> entry;
  {
    const svc::RegistryStats before = registry_.stats();
    double s = 0.0;
    {
      const LayerTimer t(trace_, "registry.acquire", &attributed_in_request_,
                         &s);
      entry = registry_.acquire(request.workload);
    }
    if (registry_.stats().misses > before.misses) {
      samples_.miss_ms.push_back(1e3 * s);
      samples_.missed.push_back(request.workload);
    } else {
      samples_.hit_us.push_back(1e6 * s);
    }
    seen_[request.workload.signature()] = entry;
  }
  const omega::GnnWorkload& workload = entry->workload;

  // The substrate, exactly as MappingService::handle builds it.
  omega::AcceleratorConfig hw;
  hw.num_pes = request.pes;
  if (request.bandwidth > 0) {
    hw.distribution_bandwidth = request.bandwidth;
    hw.reduction_bandwidth = request.bandwidth;
  }
  const omega::Omega omega(hw);

  double* attributed = &attributed_in_request_;
  const auto serialize = [&](auto&& build) {
    double s = 0.0;
    std::string out;
    {
      const LayerTimer t(trace_, "protocol.serialize", attributed, &s);
      out = build();
    }
    samples_.serialize_us.push_back(1e6 * s);
    return out;
  };

  switch (request.kind) {
    case RequestKind::kEvaluate: {
      if (request.has_pipeline) {
        double s = 0.0;
        omega::PipelineResult pr;
        {
          const LayerTimer t(trace_, "omega.run_pipeline", attributed, &s);
          pr = omega.run_pipeline(workload, request.pipeline, &entry->context);
        }
        samples_.run_pipeline_us.push_back(1e6 * s);
        return serialize([&] {
          return svc::evaluate_pipeline_response(
              request.id, workload, request.pipeline, pr, request.version);
        });
      }
      const omega::LayerSpec layer{request.out_features};
      omega::RunResult r;
      double s = 0.0;
      {
        const LayerTimer t(trace_, "omega.run", attributed, &s);
        if (!request.pattern.empty()) {
          omega::DataflowPattern p = omega::pattern_by_name(request.pattern);
          p.pp_agg_pe_fraction = request.pp_fraction;
          const omega::DataflowDescriptor df =
              omega::bind_tiles(p, omega::dims_of(workload, layer), hw);
          r = omega.run(workload, layer, df, entry->context);
          r.config_name = p.name;
        } else {
          omega::DataflowDescriptor df =
              omega::DataflowDescriptor::parse(request.dataflow);
          df.pp_agg_pe_fraction = request.pp_fraction;
          if (!request.tiles.empty()) {
            df.agg.tiles = {.v = request.tiles[0],
                            .n = request.tiles[1],
                            .f = request.tiles[2],
                            .g = 1};
            df.cmb.tiles = {.v = request.tiles[3],
                            .n = 1,
                            .f = request.tiles[5],
                            .g = request.tiles[4]};
          }
          r = omega.run(workload, layer, df, entry->context);
        }
      }
      samples_.run_us.push_back(1e6 * s);
      return serialize([&] {
        return svc::evaluate_response(request.id, workload, r, request.version);
      });
    }
    case RequestKind::kSearchMappings: {
      omega::SearchResult r;
      {
        const LayerTimer t(trace_, "dse.search_mappings", attributed);
        r = with_dse_trace(trace_, samples_, [&](obs::TraceCollector* local) {
          omega::SearchOptions options = request.search;
          options.trace = local;
          return omega::search_mappings(omega, workload,
                                        omega::LayerSpec{request.out_features},
                                        options, &entry->context);
        });
      }
      add_counts(r, samples_);
      return serialize([&] {
        return svc::search_mappings_response(request.id, workload, r,
                                             request.version);
      });
    }
    case RequestKind::kSearchPipeline: {
      omega::PipelineSearchResult r;
      {
        const LayerTimer t(trace_, "dse.search_pipeline", attributed);
        r = with_dse_trace(trace_, samples_, [&](obs::TraceCollector* local) {
          omega::PipelineSearchOptions options = request.pipeline_search;
          options.trace = local;
          return omega::search_pipeline_mappings(omega, workload, request.chain,
                                                 options, &entry->context);
        });
      }
      add_counts(r, samples_);
      return serialize([&] {
        return svc::search_pipeline_response(request.id, workload,
                                             request.chain, r, request.version);
      });
    }
    case RequestKind::kSearchModel: {
      omega::GnnModelSpec spec;
      spec.model = request.model;
      spec.feature_widths.push_back(workload.in_features);
      spec.feature_widths.insert(spec.feature_widths.end(),
                                 request.widths.begin(), request.widths.end());
      omega::ModelSearchResult r;
      {
        const LayerTimer t(trace_, "dse.search_model", attributed);
        r = with_dse_trace(trace_, samples_, [&](obs::TraceCollector* local) {
          omega::ModelSearchOptions options = request.model_options;
          options.layer.trace = local;
          return omega::search_model_mappings(omega, workload, spec, options,
                                              &entry->context);
        });
      }
      add_counts(r, samples_);
      return serialize([&] {
        return svc::search_model_response(request.id, workload, spec, r,
                                          request.version);
      });
    }
    case RequestKind::kStats:
    case RequestKind::kMetrics: break;
  }
  throw std::logic_error("unreachable request kind");
}

std::vector<std::shared_ptr<const svc::WorkloadEntry>>
TracedReplayer::resident_entries() const {
  std::vector<std::shared_ptr<const svc::WorkloadEntry>> out;
  for (const svc::RegistryEntryStats& row : registry_.entry_stats()) {
    const auto it = seen_.find(row.signature);
    if (it == seen_.end()) continue;
    if (auto entry = it->second.lock()) out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace perfbench
