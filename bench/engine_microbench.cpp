// Event-engine hot-path microbenchmark: schedule/fire, cancellation, and
// nested-reschedule throughput of sim::Engine.
//
// Emits BENCH_engine.json (google-benchmark JSON, mirrored into
// $TFSIM_CSV_DIR) unless the caller passes its own --benchmark_out, so CI
// can archive the perf trajectory of the engine from PR to PR.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "microbench_main.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"

using tfsim::sim::Engine;
using tfsim::sim::Time;

namespace {

// Schedule a batch up front, then drain it: the pure calendar cost with no
// callback work.  Timestamps collide heavily (mod 64) to exercise the
// (time, seq) tie-break path.
void BM_ScheduleFire(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Engine e;
    for (std::uint64_t i = 0; i < batch; ++i) {
      e.schedule_at(i % 64, [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) * state.iterations());
}
BENCHMARK(BM_ScheduleFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Schedule, cancel every other event, then drain: the tombstone-skip path.
void BM_ScheduleCancel(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  std::vector<Engine::EventId> ids;
  for (auto _ : state) {
    Engine e;
    ids.clear();
    ids.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i) {
      ids.push_back(e.schedule_at(i % 64, [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) * state.iterations());
}
BENCHMARK(BM_ScheduleCancel)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Timer-wheel churn: a fixed population of self-rescheduling events, the
// steady-state shape of NIC/link/server models (schedule from inside a
// callback, one live event retiring per step).
void BM_NestedReschedule(benchmark::State& state) {
  const auto chains = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t hops = 256;
  for (auto _ : state) {
    Engine e;
    std::uint64_t remaining = chains * hops;
    std::function<void()> hop = [&] {
      if (remaining == 0) return;  // budget spent: let the other chains drain
      --remaining;
      e.schedule_in(1 + remaining % 7, hop);
    };
    for (std::uint64_t c = 0; c < chains; ++c) {
      e.schedule_at(c % 13, hop);
    }
    e.run();
    benchmark::DoNotOptimize(e.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(chains * hops) *
                          state.iterations());
}
BENCHMARK(BM_NestedReschedule)->Arg(16)->Arg(256);

// PDES scaling curve: 64 domains of self-rescheduling work with periodic
// cross-domain sends, run at 1/2/4/8 workers.  Per-event compute is a
// deterministic hash spin so the windows have something to parallelize
// (a bare calendar pop is too cheap to amortize one barrier per window).
// CI archives the four rows in BENCH_engine.json; the >1 speedup only
// materializes on multi-core runners — on a single hardware thread the
// extra workers just contend.
void BM_PdesScaling(benchmark::State& state) {
  using tfsim::sim::DomainId;
  using tfsim::sim::ParallelEngine;
  using tfsim::sim::PdesConfig;

  constexpr std::size_t kDomains = 64;
  constexpr Time kLookahead = 1000;
  constexpr int kHops = 64;
  constexpr int kSpin = 4000;  // hash iterations per event (~us of compute,
                               // so a window amortizes its barrier)
  const auto threads = static_cast<unsigned>(state.range(0));

  std::uint64_t sink = 0;
  for (auto _ : state) {
    PdesConfig cfg;
    cfg.threads = threads;
    cfg.lookahead = kLookahead;
    ParallelEngine pdes(kDomains, cfg);
    std::vector<std::uint64_t> fold(kDomains, 0);
    std::function<void(DomainId, int)> hop = [&](DomainId d, int depth) {
      std::uint64_t h = pdes.domain(d).now() ^ d;
      for (int i = 0; i < kSpin; ++i) h = h * 6364136223846793005ULL + 1;
      fold[d] ^= h;
      if (depth <= 0) return;
      const auto dst = static_cast<DomainId>((d + 1) % kDomains);
      pdes.post(d, dst, pdes.domain(d).now() + kLookahead,
                [&hop, dst, depth] { hop(dst, depth - 1); });
    };
    for (std::size_t d = 0; d < kDomains; ++d) {
      pdes.post(static_cast<DomainId>(d), static_cast<DomainId>(d),
                1 + (d % kLookahead), [&hop, d] {
                  hop(static_cast<DomainId>(d), kHops);
                });
    }
    pdes.run();
    for (const std::uint64_t f : fold) sink ^= f;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(kDomains * (kHops + 1)) * state.iterations());
  state.counters["threads"] = threads;
}
BENCHMARK(BM_PdesScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return tfsim::bench::microbench_main(argc, argv, "BENCH_engine.json");
}
