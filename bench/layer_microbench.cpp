// Per-layer cost of the paper-path access pipeline: the domain guard, one
// cache level, the whole hierarchy and a MemContext access.  Each row is
// ns per simulated access at that layer, so an end-to-end change in the
// tfbench graph500_remote throughput can be traced to the layer that made
// it.  The routed-fabric rows do the same for the serving workloads: a
// post_routed hop on a leaf/spine fabric, one switch admission, and one
// ParallelEngine window at the serving tier's shape (22 domains, 4 events
// per window); each reports ns per hop, admission or window as
// 1e9 / items_per_second.
//
// Emits BENCH_layers.json (google-benchmark JSON, mirrored into
// $TFSIM_CSV_DIR) unless the caller passes its own --benchmark_out.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"
#include "microbench_main.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/domain.hpp"
#include "sim/pdes.hpp"

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

// post_routed messages across an 8-leaf x 4-spine fabric with 32 hosts.
// Each iteration sends host i to host i+1 for every i (always the next
// leaf: host -> leaf -> spine -> leaf -> host, 4 hops) and runs them to
// arrival, so a window holds many hops and the row is the hop itself: a
// switch admission (all but the first hop), a link transmit, a cross-
// domain post and its event.
void BM_RoutedHop(benchmark::State& state) {
  constexpr std::size_t kHosts = 32;
  constexpr std::int64_t kHops = 4;
  tfsim::net::Network net;
  std::vector<tfsim::net::NodeId> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    hosts.push_back(net.add_node(name));
  }
  tfsim::net::LeafSpineConfig cfg;
  cfg.leaves = 8;
  cfg.spines = 4;
  tfsim::net::LeafSpineFabric::build(net, cfg, hosts);
  tfsim::sim::PdesConfig pcfg;
  pcfg.lookahead = net.min_propagation();
  tfsim::sim::ParallelEngine pdes(net.num_nodes(), pcfg);
  std::uint64_t arrived = 0;
  tfsim::sim::Time t = 0;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    t += tfsim::sim::from_us(10.0);
    for (std::size_t i = 0; i < kHosts; ++i) {
      net.post_routed(pdes, t, hosts[i], hosts[(i + 1) % kHosts], 256,
                      tfsim::sim::Priority::kBulk, ++salt,
                      [&arrived](const tfsim::net::Delivery&) { ++arrived; });
    }
    pdes.run();
  }
  benchmark::DoNotOptimize(arrived);
  state.SetItemsProcessed(state.iterations() * kHops *
                          static_cast<std::int64_t>(kHosts));
}
BENCHMARK(BM_RoutedHop);

// Switch egress admission on a resolved port: chaos-window check, queue
// occupancy from the egress link, and the port counters.
void BM_SwitchAdmit(benchmark::State& state) {
  tfsim::net::Switch sw(tfsim::net::SwitchConfig{});
  const tfsim::net::Link out(tfsim::net::LinkConfig{});
  tfsim::net::Switch::Egress port = sw.egress(1);
  tfsim::sim::Time now = 0;
  double stretch = 1.0;
  for (auto _ : state) {
    now += 100'000;
    benchmark::DoNotOptimize(sw.admit(port, now, 256, out, stretch));
  }
  benchmark::DoNotOptimize(stretch);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchAdmit);

// ParallelEngine windows at the serving_rack shape: 22 domains, 4 token
// chains moving in lockstep, so every window holds 4 events on 4 domains and
// each event posts the next one exactly at the horizon.  One item is one
// window: its open, 4 domain slices and the outbox flush.  The argument is
// the thread count: 1 is the serial loop, 2 the coordinator with one helper,
// which runs windows this small inline unless the host stretches one past a
// handoff; shared_windows counts those.
void BM_PdesWindow(benchmark::State& state) {
  constexpr std::size_t kDomains = 22;
  constexpr int kChains = 4;
  constexpr int kWindowsPerRun = 1000;
  constexpr tfsim::sim::Time kLookahead = 100;
  tfsim::sim::PdesConfig cfg;
  cfg.threads = static_cast<unsigned>(state.range(0));
  cfg.lookahead = kLookahead;
  tfsim::sim::ParallelEngine pdes(kDomains, cfg);
  struct Token {
    tfsim::sim::ParallelEngine* pdes;
    tfsim::sim::DomainId at;
    int left;
    void operator()() {
      if (--left == 0) return;
      const auto next =
          static_cast<tfsim::sim::DomainId>((at + kChains) % kDomains);
      pdes->post(at, next, pdes->horizon(), Token{pdes, next, left});
    }
  };
  tfsim::sim::Time start = 0;
  for (auto _ : state) {
    for (int c = 0; c < kChains; ++c) {
      const auto d = static_cast<tfsim::sim::DomainId>(c);
      pdes.post(d, d, start, Token{&pdes, d, kWindowsPerRun});
    }
    pdes.run();
    start += kLookahead * (kWindowsPerRun + 1);
  }
  state.SetItemsProcessed(state.iterations() * kWindowsPerRun);
  state.counters["shared_windows"] = static_cast<double>(pdes.shared_windows());
}
BENCHMARK(BM_PdesWindow)->ArgName("threads")->Arg(1)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  return tfsim::bench::microbench_main(argc, argv, "BENCH_layers.json");
}
