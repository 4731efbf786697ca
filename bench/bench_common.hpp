// Shared helpers for the per-figure bench binaries.
//
// Experiment sizing comes from environment variables (defaults reproduce
// the paper's shapes at laptop-friendly sizes; set TFSIM_FULL=1 for the
// paper's exact workload sizes):
//   TFSIM_STREAM_ELEMENTS   STREAM array elements        (default 10000000)
//   TFSIM_GRAPH_SCALE       Graph500 scale               (default 19; paper 20)
//   TFSIM_GRAPH_EDGEFACTOR  Graph500 edgefactor          (default 16)
//   TFSIM_KV_KEYS           KV-store key space           (default 200000)
//   TFSIM_KV_REQUESTS       Memtier requests per client  (default 200; paper 10000)
//   TFSIM_CSV_DIR           where to mirror result CSVs  (default ".")
//   TFSIM_JOBS              sweep worker threads         (default 1 = serial;
//                           0 = one per hardware thread)
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "sim/sweep.hpp"
#include "workloads/graph500/graph500.hpp"
#include "workloads/kvstore/memtier.hpp"
#include "workloads/stream/stream.hpp"

namespace tfsim::bench {

/// Strict environment-variable parsing: a set-but-malformed value is a
/// configuration bug, so fail loudly instead of silently running the
/// experiment at 0 (what strtoull's "parse as far as you can" gave us).
/// An unset or empty variable falls back to the default.
inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || *v == '-') {
    std::fprintf(stderr,
                 "error: %s=\"%s\" is not a valid unsigned integer\n", name, v);
    std::exit(2);
  }
  return parsed;
}

inline bool full_size() { return env_u64("TFSIM_FULL", 0) != 0; }

inline workloads::StreamConfig stream_config() {
  workloads::StreamConfig cfg;
  cfg.elements = env_u64("TFSIM_STREAM_ELEMENTS", 10'000'000);
  return cfg;
}

inline workloads::g500::Graph500Config graph_config() {
  workloads::g500::Graph500Config cfg;
  cfg.gen.scale = static_cast<std::uint32_t>(
      env_u64("TFSIM_GRAPH_SCALE", full_size() ? 20 : 19));
  cfg.gen.edgefactor =
      static_cast<std::uint32_t>(env_u64("TFSIM_GRAPH_EDGEFACTOR", 16));
  return cfg;
}

inline workloads::kv::KvStoreConfig kv_store_config() {
  workloads::kv::KvStoreConfig cfg;
  return cfg;
}

inline workloads::kv::MemtierConfig memtier_config() {
  workloads::kv::MemtierConfig cfg;
  cfg.key_space = env_u64("TFSIM_KV_KEYS", 200'000);
  cfg.requests_per_client =
      env_u64("TFSIM_KV_REQUESTS", full_size() ? 10'000 : 200);
  return cfg;
}

inline std::string csv_path(const std::string& file) {
  std::string dir = ".";
  if (const char* v = std::getenv("TFSIM_CSV_DIR")) dir = v;
  return dir + "/" + file;
}

// --- scenario plumbing -----------------------------------------------------
//
// Benches take --scenario=<name-or-path>.  A path (contains '/' or ends in
// .json) loads directly; a bare name resolves through, in order:
//   $TFSIM_SCENARIO (explicit file override),
//   $TFSIM_SCENARIO_DIR/<name>.json,
//   ./scenarios/<name>.json,
//   <source tree>/scenarios/<name>.json (baked in at build time).
// The files are the only definition of each scenario; a name no file
// matches is an error.

inline bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

/// Resolve and load a scenario; exits with a clear error when the name is
/// unknown or the file fails to parse (a broken scenario must never run
/// the experiment with silently-default settings).
inline scenario::ScenarioSpec load_scenario(const std::string& name_or_path) {
  try {
    if (name_or_path.find('/') != std::string::npos ||
        (name_or_path.size() > 5 &&
         name_or_path.rfind(".json") == name_or_path.size() - 5)) {
      return scenario::load_file(name_or_path);
    }
    if (const char* v = std::getenv("TFSIM_SCENARIO")) {
      if (*v != '\0') return scenario::load_file(v);
    }
    const std::string file = name_or_path + ".json";
    if (const char* v = std::getenv("TFSIM_SCENARIO_DIR")) {
      if (*v != '\0' && file_exists(std::string(v) + "/" + file)) {
        return scenario::load_file(std::string(v) + "/" + file);
      }
    }
    if (file_exists("scenarios/" + file)) {
      return scenario::load_file("scenarios/" + file);
    }
#ifdef TFSIM_SCENARIO_SOURCE_DIR
    if (file_exists(std::string(TFSIM_SCENARIO_SOURCE_DIR) + "/" + file)) {
      return scenario::load_file(std::string(TFSIM_SCENARIO_SOURCE_DIR) + "/" +
                                 file);
    }
#endif
    std::fprintf(stderr, "error: unknown scenario \"%s\"\n",
                 name_or_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  std::exit(2);
}

/// Pick a sweep axis with the standard precedence: command-line override >
/// the scenario's pinned axis > the bench's built-in default.
template <typename T>
inline std::vector<T> axis_values(const std::vector<std::int64_t>& cli,
                                  const std::vector<T>& spec_axis,
                                  std::vector<T> fallback) {
  if (!cli.empty()) {
    std::vector<T> out;
    for (const auto v : cli) out.push_back(static_cast<T>(v));
    return out;
  }
  if (!spec_axis.empty()) return spec_axis;
  return fallback;
}

/// Echo the fully-resolved spec (defaults filled in, overrides applied)
/// next to a result CSV, so every CSV states exactly what produced it.
inline void echo_scenario(const scenario::ScenarioSpec& spec,
                          const std::string& csv_file) {
  std::string stem = csv_file;
  if (stem.size() > 4 && stem.rfind(".csv") == stem.size() - 4) {
    stem.resize(stem.size() - 4);
  }
  const std::string path = csv_path(stem + ".scenario.json");
  std::ofstream out(path);
  out << scenario::resolved_json(spec);
  std::printf("resolved scenario -> %s\n", path.c_str());
}

/// Run one independent simulation per element of `inputs` across
/// $TFSIM_JOBS worker threads (serial when unset), returning results in
/// input order — byte-identical to a serial loop, so tables and CSVs do
/// not depend on the worker count.  Prints the sweep wall-clock so the
/// speedup is visible next to the tables.
template <typename T, typename Fn>
auto run_sweep(const char* name, const std::vector<T>& inputs, Fn&& fn) {
  const sim::SweepRunner runner;
  const auto t0 = std::chrono::steady_clock::now();
  auto results = runner.map(inputs, std::forward<Fn>(fn));
  const auto wall =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0);
  std::printf("[%s] %zu points, %u job(s), wall %lld ms\n", name,
              inputs.size(), runner.jobs(),
              static_cast<long long>(wall.count()));
  return results;
}

}  // namespace tfsim::bench
