// The three workloads of the benchmark of record (see NOTES.md):
// search_warm, evaluate_churn and dse_sweep. Each run is one process, one
// workload, one seed; with `trace` off it reports the end-to-end metrics,
// with `trace` on the per-layer ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event file of a traced run
  Clock::time_point process_start = Clock::now();
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Throws on an unknown name or when the program fails
/// in a way that leaves no result (e.g. the loopback listener cannot bind);
/// verification failures are reported through Report::fail instead.
[[nodiscard]] Report run_workload(const RunArgs& args);

}  // namespace perfbench
