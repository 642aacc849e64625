// Shared pieces of the benchmark runner: clocks, the percentile helper,
// response digests, peak RSS, and the run report every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return 1e3 * seconds_between(t0, Clock::now());
}
[[nodiscard]] inline Clock::time_point deadline_after(Clock::time_point from,
                                                      double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/// Samples a percentile must leave beyond it before it is reported as
/// supported (choosing-metrics: "the highest percentile that has at least
/// ten samples beyond it").
inline constexpr std::size_t kTailSamples = 10;

/// Highest percentile of the ladder {50, 75, 90, 99, 99.9} that a sample of
/// `n` values supports, i.e. with at least kTailSamples samples above it;
/// nullopt when not even the median is supported (n < 20).
[[nodiscard]] std::optional<double> highest_supported_percentile(
    std::size_t n);

/// Percentile (linear interpolation between closest ranks, the program's
/// obs::percentile convention); 0 for an empty sample.
[[nodiscard]] double percentile_or_zero(std::vector<double> values, double p);

/// Indices of the `k` smallest of `busy` (ties: the earlier), ascending;
/// every index when there are fewer than `k`.
///
/// A run's end-to-end figures come from its quietest windows: spans of the
/// run that repeat the same work (a few cycles of a line workload's traffic,
/// one sweep pair), each a complete measurement, chosen by the time their
/// work took. The host is shared, and its speed shifts for seconds at a
/// time by up to 40%; the quietest windows are the ones least slowed by
/// that. A change that slows every request slows them too; one that stalls
/// only a few windows shows in the whole-run figures of the run record.
[[nodiscard]] std::vector<std::size_t> quietest(const std::vector<double>& busy,
                                                std::size_t k);

/// FNV-1a 64 over the response lines, each followed by '\n' — the digest a
/// run records so two runs of one seed can be compared byte-for-byte.
[[nodiscard]] std::uint64_t digest_lines(const std::vector<std::string>& lines);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// getrusage(RUSAGE_SELF) maximum resident set size, in MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();

/// Host CPU time stolen from this machine's virtual CPUs (hypervisor
/// contention) as a share of all CPU time between two points, read from
/// /proc/stat; recorded with each run because it explains host-time noise.
class StealMeter {
 public:
  StealMeter() : start_(read()) {}
  /// Share since construction; -1 when /proc/stat is unreadable.
  [[nodiscard]] double share() const;

 private:
  [[nodiscard]] static std::vector<std::uint64_t> read();
  std::vector<std::uint64_t> start_;
};

/// One latency population of a run (warm, cold): its percentiles and how
/// far the sample supports them.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  bool p90_supported = false;  // >= kTailSamples samples beyond p90
};
[[nodiscard]] LatencySummary summarize_latency(
    const std::vector<double>& samples_ms);

/// What one run reports: named metrics with units, plus record-only facts
/// (sample counts, digests, thread counts) that explain the metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fact(const std::string& name, const std::string& value);
  void fact(const std::string& name, double value);
  void latency_facts(const std::string& prefix, const LatencySummary& s);

  /// A failed verification: the run's `correct` turns false and the reason
  /// is kept in the record.
  void fail(const std::string& reason);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return problems_.empty(); }
  /// One-line JSON: {"correct","attempted","failed","metrics",
  /// "record":{...},"problems":[...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> facts_str_;
  std::map<std::string, double> facts_num_;
  std::vector<std::string> problems_;
};

}  // namespace perfbench
