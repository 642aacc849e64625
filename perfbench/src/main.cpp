// perfbench: one run of one workload of the benchmark of record.
//
//   perfbench --workload <search_warm|evaluate_churn|dse_sweep> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Progress goes to stderr; the last stdout line is one JSON object with
// "correct", "attempted", "failed", "metrics" (name -> {value, unit}) and a
// "record" of the facts behind them. run.py wraps this binary.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <";
  const char* sep = "";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << sep << name;
    sep = "|";
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;  // process_start: as early as main can take it
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-file") {
        args.trace_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return usage();
  try {
    const perfbench::Report report = perfbench::run_workload(args);
    std::cout << report.to_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
