// Seeded request generation. The program under test receives only these
// NDJSON lines (and, for dse_sweep, the generated graph); everything a
// workload sends is a pure function of the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which latency population a line's response belongs to.
enum class LineClass : std::uint8_t {
  kWarm = 0,   // valid request served from warm state
  kCold = 1,   // valid request that builds state (registry or term store)
  kError = 2,  // deliberate error: the response must carry `expect_error`
};

/// What the line does to the workload registry; the runs check the
/// server's hit/miss counters against the sum of these.
enum class RegistryEffect : std::uint8_t { kNone = 0, kHit = 1, kMiss = 2 };

struct GeneratedLine {
  std::string line;
  LineClass cls = LineClass::kWarm;
  RegistryEffect registry = RegistryEffect::kHit;
  std::string expect_error;  // error type for kError lines
  /// Same request pinned to one search thread ("threads":1 in its options);
  /// empty when the request has no search options. The digest check runs
  /// both forms: output must not depend on thread count.
  std::string single_thread_line;
};

/// A workload's traffic: `warmup` lines are sent once per set-up before
/// timing starts; the timed closed loop then cycles through `cycle`.
/// Line ids are the line's index + 1 within its list (warm-up ids start at
/// kWarmupIdBase), so a cycle position always yields the same bytes.
struct TrafficPlan {
  std::vector<GeneratedLine> warmup;
  std::vector<GeneratedLine> cycle;
};

inline constexpr std::uint64_t kWarmupIdBase = 100000;

/// The text of each line; `single_thread` picks single_thread_line where a
/// line has one.
[[nodiscard]] std::vector<std::string> line_texts(
    const std::vector<GeneratedLine>& lines, bool single_thread = false);

/// search_warm: search_mappings (cap 96), v2 3-phase search_pipeline (cap
/// 256, EDP, prune) and search_model (gcn [16,8], budget 96) over Cora,
/// Citeseer and Proteins at `scale`. The warm-up is every (workload, kind)
/// once; the cycle is the same nine requests in a seeded order.
[[nodiscard]] TrafficPlan search_warm_plan(std::uint64_t seed,
                                           double scale = 0.5);

/// The daemon's default registry capacity, which evaluate_churn's hot set
/// and cold pool are sized around.
inline constexpr std::size_t kDaemonRegistryCapacity = 8;

/// evaluate_churn: v1 Table V pattern evaluates, v1 explicit-descriptor
/// evaluates and v2 3-phase pipeline evaluates. Groups of six valid lines
/// carry five over a round-robin hot set of 4 signatures (always resident)
/// and one over a round-robin cold pool of 16 signatures (never resident
/// with capacity 8, so always a miss). Every fourth group is followed by
/// one deliberate-error line: unknown dataset, PP on pes:1, malformed JSON,
/// or a v1 line carrying priority. The warm-up makes the hot set resident.
[[nodiscard]] TrafficPlan evaluate_churn_plan(std::uint64_t seed);

/// Number of signatures in evaluate_churn's cold pool.
inline constexpr std::size_t kChurnColdPool = 16;

}  // namespace perfbench
