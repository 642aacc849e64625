// Streaming TCP transport tests: round-trip byte-identity against the
// stdio transport for legacy (v1) requests at 1 and 4 scheduler threads,
// per-connection response ordering, a stream that never sheds itself,
// registry counters that match across transports, v2 priority requests
// over the wire, structured shed/error responses, and the stale-socket-file
// recovery of Listener::unix_socket.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/server.hpp"
#include "service/tcp.hpp"
#include "util/json.hpp"

namespace omega::service {
namespace {

const char* kCoraQuarter =
    R"({"dataset":"Cora","scale":0.25})";

std::string line_evaluate(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"evaluate","workload":)" + kCoraQuarter +
         R"(,"out_features":16,"pattern":"SP2"})";
}

std::string line_search(std::uint64_t id) {
  return R"({"id":)" + std::to_string(id) +
         R"(,"kind":"search_mappings","workload":)" + kCoraQuarter +
         R"(,"out_features":16,"top_k":2})";
}

std::string line_evaluate_v2(std::uint64_t id, std::uint64_t priority) {
  return R"({"id":)" + std::to_string(id) + R"(,"version":2,"priority":)" +
         std::to_string(priority) + R"(,"kind":"evaluate","workload":)" +
         kCoraQuarter + R"(,"out_features":16,"pattern":"SP2"})";
}

/// Streams `lines` over one TCP connection against a fresh service and
/// returns the response lines in arrival order.
std::vector<std::string> tcp_exchange(const std::vector<std::string>& lines,
                                      ServeOptions so,
                                      const ServiceOptions& service = {}) {
  MappingService svc(service);
  Listener listener = Listener::tcp("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  so.max_connections = 1;
  std::thread server([&] { serve_on(svc, listener, so); });
  std::vector<std::string> responses;
  {
    StreamClient client = StreamClient::connect_tcp("127.0.0.1", port);
    for (const std::string& line : lines) client.send_line(line);
    client.shutdown_writes();
    while (std::optional<std::string> r = client.read_line()) {
      responses.push_back(std::move(*r));
    }
  }
  server.join();
  return responses;
}

TEST(TcpStreamTest, RoundTripIsByteIdenticalToStdioBatch) {
  const std::vector<std::string> lines = {
      line_evaluate(1), line_search(2), line_evaluate(3),
      R"({"id":4,"kind":"stats"})", line_evaluate(5)};
  MappingService reference;
  const std::vector<std::string> expected = reference.serve_lines(lines);
  // The streaming transport must not change a single byte for legacy
  // requests, whether the scheduler runs serial or concurrent: v1 requests
  // all share band 0 and per-band emission preserves submission order.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<std::string> got =
        tcp_exchange(lines, {.scheduler_threads = threads});
    ASSERT_EQ(got.size(), expected.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(TcpStreamTest, PerConnectionOrderHoldsAcrossThreadCounts) {
  std::vector<std::string> lines;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    lines.push_back(line_evaluate(id));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<std::string> got =
        tcp_exchange(lines, {.scheduler_threads = threads});
    ASSERT_EQ(got.size(), lines.size()) << "threads=" << threads;
    for (std::uint64_t id = 1; id <= got.size(); ++id) {
      EXPECT_EQ(JsonValue::parse(got[id - 1]).find("id")->as_u64(), id)
          << "threads=" << threads;
    }
  }
}

TEST(TcpStreamTest, StreamDeeperThanTheQueueNeverShedsItself) {
  // One stream of 32 requests against a 4-deep admission queue: the session
  // keeps at most 4 of its own requests in flight, so every request is
  // answered, in order, on stdio and on TCP alike.
  std::vector<std::string> lines;
  for (std::uint64_t id = 1; id <= 32; ++id) lines.push_back(line_evaluate(id));
  const ServeOptions so{.queue_depth = 4, .scheduler_threads = 4};
  MappingService svc;
  for (const std::vector<std::string>& got :
       {svc.serve_lines(lines, so), tcp_exchange(lines, so)}) {
    ASSERT_EQ(got.size(), lines.size());
    for (std::uint64_t id = 1; id <= got.size(); ++id) {
      const JsonValue v = JsonValue::parse(got[id - 1]);
      EXPECT_EQ(v.find("id")->as_u64(), id);
      EXPECT_TRUE(v.find("ok")->as_bool()) << got[id - 1];
    }
  }
}

TEST(TcpStreamTest, RegistryCountersMatchAcrossTransports) {
  // Capacity 1 and two workloads alternating across blank-line barriers:
  // each segment touches one workload, so hits, misses, evictions and the
  // epoch are fixed by the stream, whatever the transport or thread count.
  const auto evaluate = [](std::uint64_t id, const char* workload) {
    return R"({"id":)" + std::to_string(id) +
           R"(,"kind":"evaluate","workload":)" + workload +
           R"(,"out_features":16,"pattern":"SP2"})";
  };
  const char* other = R"({"dataset":"Citeseer","scale":0.2})";
  const std::vector<std::string> lines = {
      evaluate(1, kCoraQuarter), evaluate(2, kCoraQuarter), "",
      evaluate(3, other),        evaluate(4, other),        "",
      evaluate(5, kCoraQuarter), evaluate(6, kCoraQuarter), "",
      evaluate(7, other),        "",
      R"({"id":8,"version":2,"kind":"stats"})"};
  const ServiceOptions capacity_one{.registry_capacity = 1};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    MappingService svc(capacity_one);
    const ServeOptions so{.scheduler_threads = threads};
    for (const std::vector<std::string>& got :
         {svc.serve_lines(lines, so), tcp_exchange(lines, so, capacity_one)}) {
      ASSERT_EQ(got.size(), 8u) << "threads=" << threads;
      const JsonValue stats = JsonValue::parse(got.back());
      const JsonValue* registry = stats.find("registry");
      EXPECT_EQ(registry->find("hits")->as_u64(), 3u) << "threads=" << threads;
      EXPECT_EQ(registry->find("misses")->as_u64(), 4u);
      EXPECT_EQ(registry->find("evictions")->as_u64(), 3u);
      EXPECT_EQ(stats.find("epoch")->as_u64(), 1u);
    }
  }
}

TEST(TcpStreamTest, VersionTwoPriorityRequestsRoundTrip) {
  const std::vector<std::string> got = tcp_exchange(
      {line_evaluate_v2(1, 7), line_evaluate_v2(2, 0)},
      {.scheduler_threads = 2});
  ASSERT_EQ(got.size(), 2u);
  for (const std::string& line : got) {
    const JsonValue v = JsonValue::parse(line);
    EXPECT_TRUE(v.find("ok")->as_bool());
    EXPECT_EQ(v.find("version")->as_u64(), 2u);
  }
}

TEST(TcpStreamTest, SchedulingFieldsOnV1LineYieldStructuredError) {
  // priority without "version":2 is a protocol violation — the server must
  // answer with a structured error on the stream, not drop the connection.
  const std::string bad = R"({"id":9,"priority":3,"kind":"evaluate",)"
                          R"("workload":)" +
                          std::string(kCoraQuarter) +
                          R"(,"out_features":16,"pattern":"SP2"})";
  const std::vector<std::string> got =
      tcp_exchange({bad, line_evaluate(10)}, {.scheduler_threads = 1});
  ASSERT_EQ(got.size(), 2u);
  const JsonValue err = JsonValue::parse(got[0]);
  EXPECT_EQ(err.find("id")->as_u64(), 9u);
  EXPECT_FALSE(err.find("ok")->as_bool());
  EXPECT_EQ(err.find("error")->find("type")->as_string(),
            "InvalidArgumentError");
  EXPECT_TRUE(JsonValue::parse(got[1]).find("ok")->as_bool());
}

TEST(TcpStreamTest, BatchClientMatchesStreamingClient) {
  MappingService svc;
  Listener listener = Listener::tcp("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  ServeOptions so;
  so.max_connections = 1;
  so.scheduler_threads = 1;
  std::thread server([&] { serve_on(svc, listener, so); });
  const std::string responses =
      send_to_tcp("127.0.0.1", port, line_evaluate(31) + "\n");
  server.join();
  MappingService reference;
  EXPECT_EQ(responses, reference.handle_line(line_evaluate(31)) + "\n");
}

TEST(TcpStreamTest, StaleUnixSocketFileIsReplaced) {
  const std::string path = ::testing::TempDir() + "omega_tcp_test_stale.sock";
  std::remove(path.c_str());
  {
    // Bind and immediately drop the listener WITHOUT unlinking by leaking
    // the file: simulate a crashed server by binding, closing via dtor…
    Listener first = Listener::unix_socket(path);
  }
  // …the dtor unlinks, so recreate a dead socket file the hard way: bind,
  // then move the listener into a scope we abandon after dup'ing nothing.
  // Simplest reliable stale state: create the file via a listener whose
  // unlink is defeated by renaming a fresh socket over the path.
  const std::string tmp = path + ".tmp";
  {
    Listener doomed = Listener::unix_socket(tmp);
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  }  // doomed's dtor unlinks tmp (already renamed away): `path` is now a
     // socket file with no listener behind it — exactly the crash leftover.
  Listener recovered = Listener::unix_socket(path);  // must not throw
  EXPECT_GE(recovered.fd(), 0);
}

TEST(TcpStreamTest, LiveUnixSocketIsNotStolen) {
  const std::string path = ::testing::TempDir() + "omega_tcp_test_live.sock";
  std::remove(path.c_str());
  Listener live = Listener::unix_socket(path);
  EXPECT_THROW(Listener::unix_socket(path), Error);
}

}  // namespace
}  // namespace omega::service
