// Cycle-throughput microbenchmark for the AXI testbench settle schedulers
// (DESIGN.md section 10).
//
// Drives the paper's egress shape (saturating source -> router -> RateGate
// -> round-robin mux -> sink + monitor) under SettleMode::kNaive and
// SettleMode::kActivity across the PERIOD range of Fig. 4.  The activity
// scheduler's advantage scales with PERIOD: at PERIOD=1000 a saturated
// pipeline is quiescent for ~998 of every 1000 cycles, all of which the
// naive loop steps and the activity scheduler jumps -- the ISSUE's
// acceptance bar is >= 10x cycles/second there.
//
// Emits BENCH_axi.json (google-benchmark JSON, mirrored into
// $TFSIM_CSV_DIR) unless the caller passes its own --benchmark_out, so CI
// can archive the scheduler's perf trajectory from PR to PR.
#include <benchmark/benchmark.h>

#include <vector>

#include "axi/endpoints.hpp"
#include "axi/monitor.hpp"
#include "axi/mux.hpp"
#include "axi/rate_gate.hpp"
#include "axi/router.hpp"
#include "axi/testbench.hpp"
#include "microbench_main.hpp"

namespace {

using namespace tfsim::axi;

constexpr std::uint64_t kCycles = 1 << 16;

void build_egress(Testbench& tb, std::uint64_t period) {
  Wire& src = tb.wire("src");
  Wire& r0 = tb.wire("r0");
  Wire& g0 = tb.wire("g0");
  Wire& out = tb.wire("out");
  Source::Config scfg;
  scfg.saturate = true;
  tb.add<Source>("source", src, scfg);
  tb.add<Router>("router", src, std::vector<Wire*>{&r0});
  tb.add<RateGate>("gate", r0, g0, period);
  tb.add<RoundRobinMux>("mux", std::vector<Wire*>{&g0}, out);
  tb.add<Sink>("sink", out);
  tb.add<Monitor>("mon", out, /*check_id_order=*/true);
}

// items_per_second == simulated cycles per wall-clock second; compare the
// naive/activity pair at equal PERIOD for the scheduler speedup.
void BM_GatedEgress(benchmark::State& state) {
  const auto period = static_cast<std::uint64_t>(state.range(0));
  const auto mode =
      state.range(1) ? SettleMode::kActivity : SettleMode::kNaive;
  std::uint64_t skipped = 0;
  std::uint64_t evals = 0;
  for (auto _ : state) {
    Testbench tb(CheckMode::kStrict, mode);
    build_egress(tb, period);
    tb.run(kCycles);
    skipped = tb.skipped_cycles();
    evals = tb.eval_calls();
    benchmark::DoNotOptimize(tb.cycle());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kCycles) *
                          state.iterations());
  state.counters["skipped_cycles"] = static_cast<double>(skipped);
  state.counters["eval_calls"] = static_cast<double>(evals);
}
BENCHMARK(BM_GatedEgress)
    ->ArgNames({"period", "activity"})
    ->ArgsProduct({{1, 10, 100, 1000, 10000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Sensitivity-list settle with no fast-forward: a probabilistic sink flips
// READY every cycle, so every cycle steps in both modes and the win comes
// purely from re-evaluating only the modules whose inputs changed.
void BM_StallingSinkNoSkip(benchmark::State& state) {
  const auto mode =
      state.range(0) ? SettleMode::kActivity : SettleMode::kNaive;
  for (auto _ : state) {
    Testbench tb(CheckMode::kStrict, mode);
    Wire& src = tb.wire("src");
    Wire& g0 = tb.wire("g0");
    Wire& out = tb.wire("out");
    Source::Config scfg;
    scfg.saturate = true;
    tb.add<Source>("source", src, scfg);
    tb.add<RateGate>("gate", src, g0, 3);
    tb.add<RoundRobinMux>("mux", std::vector<Wire*>{&g0}, out);
    Sink::Config kcfg;
    kcfg.ready_probability = 0.5;
    tb.add<Sink>("sink", out, kcfg);
    tb.run(kCycles);
    benchmark::DoNotOptimize(tb.cycle());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kCycles) *
                          state.iterations());
}
BENCHMARK(BM_StallingSinkNoSkip)
    ->ArgNames({"activity"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Fully idle bench: the upper bound of the fast-forward path (one jump per
// run() call vs kCycles settles for naive).
void BM_IdleBench(benchmark::State& state) {
  const auto mode =
      state.range(0) ? SettleMode::kActivity : SettleMode::kNaive;
  for (auto _ : state) {
    Testbench tb(CheckMode::kStrict, mode);
    Wire& w = tb.wire("w");
    tb.add<Source>("source", w);  // empty queue: idle from cycle 0
    tb.add<Sink>("sink", w);
    tb.run(kCycles);
    benchmark::DoNotOptimize(tb.cycle());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kCycles) *
                          state.iterations());
}
BENCHMARK(BM_IdleBench)
    ->ArgNames({"activity"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return tfsim::bench::microbench_main(argc, argv, "BENCH_axi.json");
}
