// Per-layer cost of the paper-path access pipeline: the domain guard, one
// cache level, the whole hierarchy and a MemContext access.  Each row is
// ns per simulated access at that layer, so an end-to-end change in the
// tfbench graph500_remote throughput can be traced to the layer that made
// it.
//
// Emits BENCH_layers.json (google-benchmark JSON, mirrored into
// $TFSIM_CSV_DIR) unless the caller passes its own --benchmark_out.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"
#include "microbench_main.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/domain.hpp"

namespace {

using tfsim::mem::Addr;
using tfsim::mem::CacheHierarchy;
using tfsim::mem::kCacheLineBytes;
using tfsim::mem::SetAssocCache;
using tfsim::sim::DomainCheckMode;

// One guard scope, as MemContext opens around every cache access.
void BM_DomainGuard(benchmark::State& state, DomainCheckMode mode) {
  tfsim::sim::DomainChecker checker;
  checker.set_mode(mode);
  const auto d = checker.add_domain("node0");
  for (auto _ : state) {
    const tfsim::sim::DomainGuard g(&checker, d, "bench:guard");
    benchmark::DoNotOptimize(checker.guard_depth());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_DomainGuard, strict, DomainCheckMode::kStrict);
BENCHMARK_CAPTURE(BM_DomainGuard, off, DomainCheckMode::kOff);

// The line after `a` in a cyclic walk over `lines` lines from `base`.
Addr next_line(Addr a, Addr base, std::uint64_t lines) {
  a += kCacheLineBytes;
  return a == base + lines * kCacheLineBytes ? base : a;
}

// Line `i` of a scrambled walk over a power-of-two number of lines: an odd
// multiplier permutes the indices, so every line is visited once per
// `lines` steps but the host prefetcher cannot follow the sets.
Addr scrambled_line(std::uint64_t i, std::uint64_t lines) {
  return ((i * 0x9E3779B97F4A7C15ULL) & (lines - 1)) * kCacheLineBytes;
}

// One level of the POWER9-like hierarchy (0 = L1D, 2 = L3) over a warm
// working set of `lines` lines (a power of two), or, for lines == 0, a
// stream that never repeats: all misses, each evicting a victim.
void BM_CacheAccess(benchmark::State& state, std::size_t level,
                    std::uint64_t lines) {
  SetAssocCache cache(tfsim::mem::power9_like_hierarchy().at(level).cache);
  for (std::uint64_t i = 0; i < lines; ++i) {
    cache.access(i * kCacheLineBytes, false);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const Addr a = lines != 0 ? scrambled_line(i, lines) : i * kCacheLineBytes;
    benchmark::DoNotOptimize(cache.access(a, false));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
// 64 lines: 8 KiB, well inside the 32 KiB L1D.
BENCHMARK_CAPTURE(BM_CacheAccess, l1_hit, 0, 64);
// 16384 lines: 2 MiB, inside the 10 MiB L3 slice; the scrambled walk
// touches its tag array as graph500's irregular reads do.
BENCHMARK_CAPTURE(BM_CacheAccess, l3_hit, 2, 16384);
BENCHMARK_CAPTURE(BM_CacheAccess, miss, 2, 0);

// The full hierarchy over a scrambled 4 MiB working set: L1 and L2 mostly
// miss, L3 hits.
void BM_HierarchyAccess(benchmark::State& state) {
  CacheHierarchy caches(tfsim::mem::power9_like_hierarchy());
  const std::uint64_t lines = 4 * tfsim::sim::kMiB / kCacheLineBytes;
  for (std::uint64_t i = 0; i < lines; ++i) {
    caches.access(i * kCacheLineBytes, false);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(caches.access(scrambled_line(i++, lines), false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

// MemContext::access on the paper's two-node cluster, L1-resident local
// data: issue cost, the strict-mode domain guard and the cache lookup.
void BM_ContextLocalHit(benchmark::State& state) {
  tfsim::node::Cluster cluster(tfsim::scenario::paper_two_node());
  cluster.domains().set_mode(DomainCheckMode::kStrict);
  tfsim::node::MemContext ctx = cluster.make_context(tfsim::node::CpuConfig{});
  const std::uint64_t lines = 64;
  const Addr base = cluster.borrower().allocate(lines * kCacheLineBytes,
                                                tfsim::node::Placement::kLocal);
  ctx.stream(base, lines * kCacheLineBytes, /*write=*/false);
  ctx.drain();
  Addr a = base;
  for (auto _ : state) {
    ctx.access(a, /*write=*/false);
    a = next_line(a, base, lines);
  }
  benchmark::DoNotOptimize(ctx.stats().accesses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContextLocalHit);

}  // namespace

int main(int argc, char** argv) {
  return tfsim::bench::microbench_main(argc, argv, "BENCH_layers.json");
}
