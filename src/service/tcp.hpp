// Streaming transports of the serving core (see DESIGN.md "Serving core").
//
// Every transport runs one request loop, the session: it reads one NDJSON
// line at a time, submits it to the shared request scheduler, and each
// response streams back the moment it is next in order. Stdio
// (MappingService::serve), Unix sockets and TCP differ only in where lines
// come from and where frames go.
//
// Concurrency model:
//
//  * stdio runs one session on the calling thread; a socket server runs
//    one accept loop, and every accepted connection gets its own session
//    thread (reads + submits). The scheduler's dispatch threads execute
//    requests and write responses back;
//  * a server's scheduler spans its sessions, so priority bands and the
//    admission bound apply to total load. A session reads its next line
//    only while fewer than `queue_depth` of its own requests are in
//    flight (a full window resumes once half of it has drained), so one
//    stream never sheds itself; a flood across connections still sheds.
//
// Ordering contract (pinned by tests): responses stream in **per-stream
// request order within a priority band**. Requests of one stream and band
// emit in submission order even when they execute out of order or
// concurrently; requests in different bands (or on different connections)
// may interleave freely. v1 requests carry no priority, so they all share
// band 0 and a v1 stream yields its responses in request order on every
// transport. Barriers keep counters deterministic per stream: stats/metrics
// requests drain the stream's in-flight requests before and after
// dispatch, and a blank line drains them and emits nothing.
//
// Backpressure caveat: responses are written by one scheduler thread at a
// time per session (outside the session lock, taking every frame emitted
// meanwhile in one write) while the session still reads; a peer that stops
// reading eventually blocks that writer and then the session's reader, on
// stdio pipes as on sockets.
// Well-behaved streaming clients read concurrently with sending
// (StreamClient does); the send-all-then-read exchange stays safe for
// batches that fit the socket (or pipe) buffers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace omega::service {

class MappingService;

/// Transport + scheduling knobs of a streaming server (stdio, TCP or Unix
/// socket; the connection and backlog knobs apply to sockets only).
struct ServeOptions {
  /// Accept this many connections then return (0 = serve until killed).
  std::size_t max_connections = 0;
  /// listen() backlog (pending-accept queue length).
  int backlog = 64;
  /// Scheduler admission bound: requests waiting across all streams. Also
  /// each stream's in-flight window.
  std::size_t queue_depth = 256;
  /// Scheduler dispatch threads (0 = one per hardware thread).
  std::size_t scheduler_threads = 0;
  /// Deadlines below this are shed at admission (0 = disabled).
  std::uint64_t min_feasible_deadline_ms = 0;
};

/// A bound+listening server socket (RAII: closes, and unlinks a Unix socket
/// path, on destruction). Two-step construction — bind first, serve_on
/// later — lets in-process callers bind TCP port 0 and read the resolved
/// port before any client races the server.
class Listener {
 public:
  /// Binds and listens on `bind_addr:port` (IPv4 dotted quad; port 0 picks
  /// an ephemeral port, readable via port()). Throws Error on failure.
  static Listener tcp(const std::string& bind_addr, std::uint16_t port,
                      int backlog = 64);

  /// Binds and listens on a Unix-domain socket at `path`. A stale socket
  /// file (no listener behind it) is detected by a connect probe and
  /// replaced; a live server at `path` is an error — the unlink-then-bind
  /// of the legacy path silently stole live sockets. Throws Error on
  /// failure.
  static Listener unix_socket(const std::string& path, int backlog = 64);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// The bound TCP port (resolved — meaningful after tcp() with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  Listener() = default;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string unlink_path_;  // non-empty: unix socket file to remove
};

/// Runs the streaming accept loop on an already-bound listener: concurrent
/// per-connection sessions feeding one shared request scheduler. Returns 0
/// after `options.max_connections` connections have been accepted and fully
/// served (0 = loops until the process is killed). The listener's backlog
/// was fixed at bind time; options.backlog is ignored here.
int serve_on(MappingService& service, Listener& listener,
             const ServeOptions& options = {});

/// Binds `bind_addr:port` and runs serve_on. Convenience for the CLI.
int serve_tcp(MappingService& service, const std::string& bind_addr,
              std::uint16_t port, const ServeOptions& options = {});

/// Binds a Unix-domain socket at `path` (see Listener::unix_socket) and
/// runs serve_on.
int serve_unix_socket(MappingService& service, const std::string& path,
                      const ServeOptions& options);

/// Streaming client: sends request lines and reads response lines
/// incrementally on one connection — responses arrive as the server
/// completes them, concurrently with further sends.
class StreamClient {
 public:
  static StreamClient connect_tcp(const std::string& host,
                                  std::uint16_t port);
  static StreamClient connect_unix(const std::string& path);

  StreamClient(StreamClient&& other) noexcept;
  StreamClient& operator=(StreamClient&& other) noexcept;
  StreamClient(const StreamClient&) = delete;
  StreamClient& operator=(const StreamClient&) = delete;
  ~StreamClient();

  /// Sends one request line (the newline is appended).
  void send_line(const std::string& line);
  /// Half-closes the write side: tells the server no more requests follow.
  void shutdown_writes();
  /// Blocks for the next full response line; nullopt once the server
  /// closes the connection.
  [[nodiscard]] std::optional<std::string> read_line();

 private:
  explicit StreamClient(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string buffer_;  // framing carry-over between read_line calls
};

/// Batch-exchange clients: connect, send `requests` (NDJSON), half-close
/// the write side, and return every response byte the daemon sends back.
[[nodiscard]] std::string send_to_tcp(const std::string& host,
                                      std::uint16_t port,
                                      const std::string& requests);
[[nodiscard]] std::string send_to_unix_socket(const std::string& path,
                                              const std::string& requests);

}  // namespace omega::service
