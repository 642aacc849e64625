#include "closed_loop.hpp"

#include <algorithm>
#include <exception>
#include <optional>

#include "common.hpp"

namespace perfbench {

namespace svc = omega::service;

namespace {

svc::ServeOptions serve_options(std::size_t connections) {
  svc::ServeOptions so;
  so.max_connections = connections;
  return so;
}

/// One closed-loop request on `client`; false if it got no response.
bool round_trip(svc::StreamClient& client, const std::string& line,
                std::size_t index, LoopResult& out) {
  LoopSample s;
  s.index = static_cast<std::uint32_t>(index);
  const Clock::time_point t0 = Clock::now();
  client.send_line(line);
  std::optional<std::string> response = client.read_line();
  s.ms = static_cast<float>(ms_since(t0));
  const bool answered = response.has_value();
  out.add(s, std::move(response));
  return answered;
}

/// Runs `body(c)` on one thread per connection and rethrows the first
/// failure after all of them have finished.
template <typename Body>
void per_connection(std::size_t connections, Body&& body) {
  std::vector<std::exception_ptr> errors(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void LoopResult::add(LoopSample s, std::optional<std::string> response) {
  if (response) {
    if (by_index_.size() <= s.index) by_index_.resize(s.index + 1);
    std::vector<std::uint32_t>& seen = by_index_[s.index];
    const auto same = std::find_if(seen.begin(), seen.end(),
                                   [&](std::uint32_t r) {
                                     return responses[r] == *response;
                                   });
    if (same != seen.end()) {
      s.response = *same;
    } else {
      s.response = static_cast<std::uint32_t>(responses.size());
      seen.push_back(s.response);
      responses.push_back(std::move(*response));
    }
  } else {
    s.response = kUnanswered;
  }
  samples.push_back(s);
}

void LoopResult::append(LoopResult&& other) {
  const auto base = static_cast<std::uint32_t>(responses.size());
  for (LoopSample s : other.samples) {
    if (s.answered()) s.response += base;
    samples.push_back(s);
  }
  std::move(other.responses.begin(), other.responses.end(),
            std::back_inserter(responses));
  // Responses from `other` are not deduplicated against this result's.
  by_index_.clear();
}

TcpHarness::TcpHarness(std::size_t connections)
    : connections_(connections),
      listener_(svc::Listener::tcp("127.0.0.1", 0)) {
  server_ = std::thread([this] {
    svc::serve_on(service_, listener_, serve_options(connections_));
  });
  try {
    for (std::size_t c = 0; c < connections_; ++c) {
      clients_.push_back(
          svc::StreamClient::connect_tcp("127.0.0.1", listener_.port()));
    }
  } catch (...) {
    close();
    throw;
  }
}

TcpHarness::~TcpHarness() {
  try {
    close();
  } catch (...) {
    // close() already joined the server; nothing is left to release.
  }
}

void TcpHarness::close() {
  if (!server_.joinable()) return;
  // The accept loop returns only after max_connections clients: open any
  // that a failed constructor never got to, so the join below cannot hang.
  while (clients_.size() < connections_) {
    clients_.push_back(
        svc::StreamClient::connect_tcp("127.0.0.1", listener_.port()));
  }
  for (svc::StreamClient& client : clients_) {
    client.shutdown_writes();
    while (client.read_line()) {
    }
  }
  server_.join();
}

LoopResult TcpHarness::exchange(const std::vector<GeneratedLine>& lines) {
  LoopResult out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    (void)round_trip(clients_.front(), lines[i].line, i, out);
  }
  return out;
}

LoopResult TcpHarness::closed_loop(const std::vector<GeneratedLine>& cycle,
                                   double seconds) {
  std::vector<LoopResult> per(connections_);
  std::vector<Clock::time_point> ends(connections_);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(start, seconds);
  per_connection(connections_, [&](std::size_t c) {
    std::size_t next = c * cycle.size() / connections_;
    while (Clock::now() < deadline) {
      if (!round_trip(clients_[c], cycle[next].line, next, per[c])) break;
      next = (next + 1) % cycle.size();
    }
    ends[c] = Clock::now();
  });
  LoopResult result;
  result.window_s =
      seconds_between(start, *std::max_element(ends.begin(), ends.end()));
  for (LoopResult& r : per) result.append(std::move(r));
  return result;
}

void DirectHarness::call(const std::string& line, std::size_t index,
                         LoopResult& out) {
  LoopSample s;
  s.index = static_cast<std::uint32_t>(index);
  const Clock::time_point t0 = Clock::now();
  std::string response = service_.handle_line(line);
  s.ms = static_cast<float>(ms_since(t0));
  out.add(s, std::move(response));
}

LoopResult DirectHarness::exchange(const std::vector<GeneratedLine>& lines) {
  LoopResult out;
  for (std::size_t i = 0; i < lines.size(); ++i) call(lines[i].line, i, out);
  return out;
}

LoopResult DirectHarness::closed_loop(const std::vector<GeneratedLine>& cycle,
                                      double seconds) {
  LoopResult result;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = deadline_after(start, seconds);
  for (std::size_t next = 0; Clock::now() < deadline;
       next = (next + 1) % cycle.size()) {
    call(cycle[next].line, next, result);
  }
  result.window_s = seconds_between(start, Clock::now());
  return result;
}

}  // namespace perfbench
