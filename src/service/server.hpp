// Long-lived mapping service: answers batched NDJSON requests from the
// warmed workload registry (see DESIGN.md "Mapping service").
//
// Dispatch model: requests accumulate until a batch boundary (a blank line,
// or end of input / connection write-shutdown), then the whole batch is
// dispatched concurrently on the persistent ThreadPool and the responses
// are emitted strictly in request order. Every individual response is a
// deterministic function of its request (the underlying searches are
// thread-count-invariant by construction), so a batch's output bytes are
// identical across thread counts and across warm/cold registry states.
//
// Errors never tear down the service: engine ResourceError, taxonomy
// violations and malformed requests all map to {"ok":false,"error":{...}}
// responses carrying the request id.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "service/shard.hpp"

namespace omega::obs {
class TraceCollector;
}  // namespace omega::obs

namespace omega::service {

struct ServiceOptions {
  /// Workloads kept warm; 0 disables caching (cold per-request builds).
  std::size_t registry_capacity = 8;
  /// Independent registry partitions (consistent-hash on the workload
  /// signature; see shard.hpp). 1 = the classic single registry, with
  /// byte-identical stats responses.
  std::size_t registry_shards = 1;
  /// Concurrent in-flight requests per batch (0 = pool default). Each
  /// request's internal sweep additionally parallelizes on the same pool.
  std::size_t threads = 0;
  /// When non-null, every request emits parse / registry_lookup / evaluate /
  /// serialize spans (wall-clock, category "service") into this collector,
  /// and search requests add their sweep's enumerate / prune / evaluate /
  /// rank spans (category "dse"). Null = zero instrumentation cost.
  obs::TraceCollector* trace = nullptr;
};

class MappingService {
 public:
  explicit MappingService(ServiceOptions options = {});

  /// Handles one request line; always returns a single-line JSON response
  /// (never throws — failures become structured error responses).
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Handles a batch concurrently; responses are in request order.
  [[nodiscard]] std::vector<std::string> handle_batch(
      const std::vector<std::string>& lines);

  /// NDJSON loop: reads request lines from `in`, flushes a batch of
  /// responses at every blank line and at EOF. Returns the number of
  /// requests served.
  std::size_t serve(std::istream& in, std::ostream& out);

  [[nodiscard]] const ShardedRegistry& registry() const { return registry_; }

  /// Service-level metrics (request/response counters, latency histograms;
  /// naming convention in DESIGN.md "Observability"). The v2 `metrics`
  /// request snapshots this together with registry and eval-core counters.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  /// Mutable sink for transport-level instrumentation (the request
  /// scheduler records its service.sched.* series here so one metrics
  /// response covers the whole serving core).
  [[nodiscard]] obs::MetricsRegistry& metrics_mut() { return metrics_; }

 private:
  [[nodiscard]] std::string handle(const Request& request);
  [[nodiscard]] std::string metrics_response(const Request& request);

  ServiceOptions options_;
  ShardedRegistry registry_;
  obs::MetricsRegistry metrics_;
};

/// Serves streaming NDJSON over a Unix domain socket at `path` (a provably
/// stale socket file is replaced; a live server there is an error).
/// Connections are concurrent and responses stream incrementally in
/// per-connection per-band request order — the full contract, and the
/// tunable ServeOptions overload, live in tcp.hpp (this wrapper keeps the
/// legacy signature: default options, accept `max_connections` then
/// return, 0 = loop until the process is killed). Returns 0 on orderly
/// shutdown; throws Error when the socket cannot be created.
int serve_unix_socket(MappingService& service, const std::string& path,
                      std::size_t max_connections = 0);

/// Client half of the socket protocol: connects to a `serve --socket`
/// daemon, sends `requests` (NDJSON), half-closes the write side, and
/// returns every response byte the daemon sends back.
[[nodiscard]] std::string send_to_unix_socket(const std::string& path,
                                              const std::string& requests);

}  // namespace omega::service
