// The daemon under test, in-process, driven by closed loops (each client
// keeps exactly one request in flight):
//
//  * TcpHarness: a MappingService behind a loopback TCP listener
//    (service::serve_on) and N StreamClient connections;
//  * DirectHarness: the same service with one caller invoking
//    MappingService::handle_line — the daemon's per-line request path
//    without the socket transport and the scheduler. Requests that take
//    microseconds are timed this way: over loopback TCP their latency is
//    dominated by thread wake-ups, which on a shared virtual machine swing
//    2-3x with host contention (see NOTES.md "Noise").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "lines.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"

namespace perfbench {

/// Marks a LoopSample whose request got no response.
inline constexpr std::uint32_t kUnanswered = 0xffffffffu;

/// One request of a closed loop, as its client saw it. Samples are kept
/// small (the responses live in LoopResult) so that a run's peak RSS does
/// not grow with the number of requests it timed.
struct LoopSample {
  std::uint32_t index = 0;              // position in the line list sent
  std::uint32_t response = kUnanswered;  // into LoopResult::responses
  float ms = 0.0f;                       // send -> full response line
  [[nodiscard]] bool answered() const { return response != kUnanswered; }
};

struct LoopResult {
  /// Every request, in send order per connection, connection after
  /// connection.
  std::vector<LoopSample> samples;
  /// The distinct responses each line index got (usually one per index:
  /// a repeated response is stored once).
  std::vector<std::string> responses;
  double window_s = 0.0;  // first send -> last response

  [[nodiscard]] const std::string& response(const LoopSample& s) const {
    return responses[s.response];
  }
  /// Appends `s` with `response` (nullopt: unanswered), storing the
  /// response only if its line index has not had these bytes before.
  void add(LoopSample s, std::optional<std::string> response);
  /// Appends every sample and response of `other`.
  void append(LoopResult&& other);

 private:
  std::vector<std::vector<std::uint32_t>> by_index_;  // index -> responses
};

class TcpHarness {
 public:
  /// Starts the server on an ephemeral loopback port (daemon defaults:
  /// registry capacity 8, one scheduler thread per hardware thread) and
  /// opens `connections` clients.
  explicit TcpHarness(std::size_t connections);
  TcpHarness(const TcpHarness&) = delete;
  TcpHarness& operator=(const TcpHarness&) = delete;
  ~TcpHarness();

  /// Sends every line once, in order, on the first connection (one request
  /// in flight): the warm-up, whose responses report how much state each
  /// request built and so depend on the order requests ran in.
  [[nodiscard]] LoopResult exchange(const std::vector<GeneratedLine>& lines);

  /// Closed loop for `seconds`: connection c walks `cycle` round-robin from
  /// offset c * cycle.size() / N and sends its next line only after the
  /// previous response arrived. No request starts after the deadline.
  [[nodiscard]] LoopResult closed_loop(const std::vector<GeneratedLine>& cycle,
                                       double seconds);

  [[nodiscard]] omega::service::MappingService& service() { return service_; }
  [[nodiscard]] std::size_t connections() const { return connections_; }

  /// Half-closes every client, drains it and joins the server. Idempotent.
  void close();

 private:
  std::size_t connections_;
  omega::service::MappingService service_;
  omega::service::Listener listener_;
  std::vector<omega::service::StreamClient> clients_;
  std::thread server_;  // declared last: it uses the members above
};

class DirectHarness {
 public:
  DirectHarness() = default;
  DirectHarness(const DirectHarness&) = delete;
  DirectHarness& operator=(const DirectHarness&) = delete;

  /// As TcpHarness::exchange.
  [[nodiscard]] LoopResult exchange(const std::vector<GeneratedLine>& lines);
  /// As TcpHarness::closed_loop with one caller.
  [[nodiscard]] LoopResult closed_loop(const std::vector<GeneratedLine>& cycle,
                                       double seconds);

  [[nodiscard]] omega::service::MappingService& service() { return service_; }
  [[nodiscard]] static std::size_t connections() { return 1; }
  void close() {}

 private:
  /// One request through handle_line, timed like a client would.
  void call(const std::string& line, std::size_t index, LoopResult& out);

  omega::service::MappingService service_;
};

}  // namespace perfbench
