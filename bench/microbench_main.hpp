// Shared main() body for the google-benchmark microbenches.
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace tfsim::bench {

/// Run every registered benchmark.  Unless the caller passes its own
/// --benchmark_out, the JSON report goes to `json_name` next to the CSVs
/// ($TFSIM_CSV_DIR) so CI can archive the perf trajectory per commit.
inline int microbench_main(int argc, char** argv, const char* json_name) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  if (!has_out) {
    out_flag = "--benchmark_out=" + csv_path(json_name);
    args.push_back(out_flag.data());
    args.push_back(const_cast<char*>("--benchmark_out_format=json"));
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace tfsim::bench
