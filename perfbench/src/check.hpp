// Response checks: what a run verifies about every response it receives.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "lines.hpp"

namespace perfbench {

/// The fields of a response line the checks and metrics read.
struct Inspected {
  bool parsed = false;
  bool ok = false;
  std::string error_type;
  std::uint64_t evaluated = 0;  // top-level "evaluated" of a search response
};
[[nodiscard]] Inspected inspect(const std::string& response);

/// The "eval" counters of a search_pipeline response are deltas of counters
/// shared by every search on the same workload and substrate
/// (src/dse/pipeline_search.cpp), so a search that overlaps another on the
/// same plan also counts the other's term lookups. A response split into
/// its bytes without those two counters, and the counters.
struct EvalCounters {
  std::string rest;
  std::uint64_t requests = 0, builds = 0;
};
[[nodiscard]] std::optional<EvalCounters> split_eval_counters(
    const std::string& response);

/// How a response compares with its line's expectation.
enum class Verdict : std::uint8_t {
  kOk = 0,
  /// Byte-identical to the reference except for search_pipeline eval
  /// counters inflated by a concurrent search on the same plan — a known
  /// program defect, counted in every run record.
  kCounterCrosstalk = 1,
  kBad = 2,
};

/// kOk when `response` is what `g` expects: byte-identical to the in-order
/// reference, and either ok or the expected error type. On kBad, `why` says
/// what differs.
[[nodiscard]] Verdict verdict(const GeneratedLine& g,
                              const std::string& response,
                              const std::string& reference, std::string& why);

}  // namespace perfbench
