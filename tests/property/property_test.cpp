// Property-based tests: shadow models, metamorphic relations, and
// randomized stress across the stack.
#include <gtest/gtest.h>

#include <deque>
#include <list>
#include <map>
#include <tuple>
#include <vector>

#include "axi/endpoints.hpp"
#include "axi/fifo.hpp"
#include "axi/monitor.hpp"
#include "axi/testbench.hpp"
#include "core/session.hpp"
#include "mem/cache.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "workloads/graph500/graph500.hpp"
#include "workloads/kvstore/kvstore.hpp"
#include "workloads/kvstore/memtier.hpp"

namespace tfsim {
namespace {

// --- cache vs shadow LRU model ------------------------------------------

/// Reference cache: per-set std::list as true LRU, no clever indexing.
class ShadowLruCache {
 public:
  explicit ShadowLruCache(const mem::CacheConfig& cfg) : cfg_(cfg) {}

  bool access(mem::Addr addr, bool write, bool* wb) {
    const mem::Addr line = mem::line_base(addr, cfg_.line_bytes);
    const auto set = (line / cfg_.line_bytes) % cfg_.num_sets();
    auto& lru = sets_[set];
    *wb = false;
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->first == line) {
        it->second = it->second || write;
        lru.splice(lru.begin(), lru, it);  // move to MRU
        return true;
      }
    }
    if (lru.size() == cfg_.associativity) {
      *wb = lru.back().second;
      lru.pop_back();
    }
    lru.emplace_front(line, write);
    return false;
  }

 private:
  mem::CacheConfig cfg_;
  std::map<std::uint64_t, std::list<std::pair<mem::Addr, bool>>> sets_;
};

class CacheShadowTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

TEST_P(CacheShadowTest, MatchesReferenceLruExactly) {
  const auto [size, assoc] = GetParam();
  const mem::CacheConfig cfg{size, assoc, 128, mem::Replacement::kLru};
  mem::SetAssocCache cache(cfg);
  ShadowLruCache shadow(cfg);
  sim::Rng rng(size ^ assoc);
  for (int i = 0; i < 20000; ++i) {
    // Cluster addresses so sets conflict often.
    const mem::Addr addr = rng.uniform_u64(size * 4);
    const bool write = rng.uniform() < 0.3;
    bool shadow_wb = false;
    const bool shadow_hit = shadow.access(addr, write, &shadow_wb);
    const auto r = cache.access(addr, write);
    ASSERT_EQ(r.hit, shadow_hit) << "access " << i << " addr " << addr;
    ASSERT_EQ(r.writeback, shadow_wb) << "access " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheShadowTest,
    ::testing::Values(std::make_tuple(std::uint64_t{2048}, 2u),
                      std::make_tuple(std::uint64_t{4096}, 4u),
                      std::make_tuple(std::uint64_t{8192}, 1u),
                      std::make_tuple(std::uint64_t{16384}, 16u),
                      std::make_tuple(std::uint64_t{65536}, 8u),
                      // Set counts that are not a power of two (3 and 12)
                      // take the modulo indexing path.
                      std::make_tuple(std::uint64_t{768}, 2u),
                      std::make_tuple(std::uint64_t{6144}, 4u)));

// --- AXI FIFO vs shadow queue under random handshakes ----------------------

class FifoShadowTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, double>> {};

TEST_P(FifoShadowTest, NoLossNoDuplicationNoReorder) {
  const auto [depth, valid_p, ready_p] = GetParam();
  axi::Testbench tb;
  auto& in = tb.wire("in");
  auto& out = tb.wire("out");
  axi::Source::Config scfg;
  scfg.saturate = true;
  scfg.valid_probability = valid_p;
  scfg.seed = depth;
  tb.add<axi::Source>("src", in, scfg);
  tb.add<axi::Fifo>("fifo", in, out, depth);
  axi::Sink::Config kcfg;
  kcfg.ready_probability = ready_p;
  kcfg.seed = depth + 1;
  auto& sink = tb.add<axi::Sink>("sink", out, kcfg);
  auto& mon = tb.add<axi::Monitor>("mon", out, /*check_id_order=*/true);
  tb.run(5000);
  EXPECT_TRUE(mon.clean())
      << (mon.violations().empty() ? "" : mon.violations()[0]);
  // ids must be exactly 0..n-1.
  for (std::size_t i = 0; i < sink.arrivals().size(); ++i) {
    ASSERT_EQ(sink.arrivals()[i].beat.id, i);
  }
  EXPECT_GT(sink.received(), 100u) << "traffic actually flowed";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, FifoShadowTest,
    ::testing::Values(std::make_tuple(std::size_t{1}, 1.0, 1.0),
                      std::make_tuple(std::size_t{2}, 0.7, 0.4),
                      std::make_tuple(std::size_t{4}, 0.4, 0.7),
                      std::make_tuple(std::size_t{8}, 0.9, 0.9),
                      std::make_tuple(std::size_t{16}, 0.3, 0.3)));

// --- engine/task stress ------------------------------------------------------

sim::Task chaotic_task(sim::Engine& e, sim::Rng& rng, int hops,
                       std::vector<sim::Time>& observations) {
  for (int i = 0; i < hops; ++i) {
    co_await sim::delay(e, rng.uniform_u64(1000) + 1);
    observations.push_back(e.now());
  }
}

TEST(EngineStressTest, ManyInterleavedTasksObserveMonotoneTime) {
  sim::Engine engine;
  sim::Rng rng(99);
  std::vector<sim::Time> observations;
  std::vector<sim::Task> tasks;
  for (int t = 0; t < 64; ++t) {
    tasks.push_back(chaotic_task(engine, rng, 50, observations));
  }
  engine.run();
  ASSERT_EQ(observations.size(), 64u * 50u);
  for (std::size_t i = 1; i < observations.size(); ++i) {
    ASSERT_GE(observations[i], observations[i - 1])
        << "simulated time went backwards";
  }
  for (const auto& t : tasks) EXPECT_TRUE(t.done());
}

// --- injector metamorphic property ------------------------------------------

class PeriodMonotonicityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeriodMonotonicityTest, HigherPeriodNeverFaster) {
  const std::uint64_t period = GetParam();
  auto run = [](std::uint64_t p) {
    core::SessionConfig cfg;
    cfg.period = p;
    core::Session s(cfg);
    workloads::StreamConfig sc;
    sc.elements = 300'000;
    const auto res = s.run_stream(sc);
    return std::make_pair(res.total_elapsed, res.avg_latency_us);
  };
  const auto [t_lo, lat_lo] = run(period);
  const auto [t_hi, lat_hi] = run(period * 4);
  EXPECT_GE(t_hi, t_lo) << "more delay cannot finish sooner";
  EXPECT_GE(lat_hi, lat_lo);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodMonotonicityTest,
                         ::testing::Values(2, 8, 32, 128));

// --- determinism ------------------------------------------------------------

TEST(DeterminismTest, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    core::SessionConfig cfg;
    cfg.period = 16;
    core::Session s(cfg);
    workloads::kv::KvStoreConfig store_cfg;
    store_cfg.buckets = 1 << 10;
    workloads::kv::MemtierConfig load_cfg;
    load_cfg.threads = 1;
    load_cfg.connections = 4;
    load_cfg.requests_per_client = 50;
    load_cfg.key_space = 500;
    const auto res = s.run_memtier(store_cfg, load_cfg);
    return std::make_tuple(res.elapsed, res.hits, res.sets);
  };
  EXPECT_EQ(run(), run()) << "whole-stack runs must be bit-reproducible";
}

TEST(DeterminismTest, GraphJobsAreReproducible) {
  workloads::g500::Graph500Config gcfg;
  gcfg.gen.scale = 12;
  const auto edges = workloads::g500::kronecker_generate(gcfg.gen);
  auto run = [&] {
    core::SessionConfig cfg;
    cfg.period = 8;
    core::Session s(cfg);
    return s.run_bfs_job(gcfg, edges, 3).total();
  };
  EXPECT_EQ(run(), run());
}

// --- kv store randomized vs std::map oracle ----------------------------------

TEST(KvShadowTest, RandomOpsMatchMapOracle) {
  node::Testbed tb;
  ASSERT_TRUE(tb.attach_remote());
  workloads::kv::KvStoreConfig cfg;
  cfg.buckets = 64;  // tiny: force heavy chaining
  cfg.max_keys = 4096;
  cfg.value_size = 128;
  workloads::kv::KvStore store(tb.borrower(), cfg);
  node::MemContext ctx(tb.borrower(), node::CpuConfig{8, 100}, "kv");
  std::map<std::string, std::uint64_t> oracle;
  sim::Rng rng(2024);
  std::uint64_t version = 1;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_u64(300));
    const auto op = rng.uniform_u64(10);
    if (op < 4) {  // set
      store.set(ctx, key, version);
      oracle[key] = version;
      ++version;
    } else if (op < 5) {  // del
      ASSERT_EQ(store.del(ctx, key), oracle.erase(key) > 0) << i;
    } else {  // get
      const auto got = store.get(ctx, key);
      const auto it = oracle.find(key);
      ASSERT_EQ(got.found, it != oracle.end()) << i;
      if (got.found) {
        ASSERT_EQ(got.version, it->second) << i;
      }
    }
    ASSERT_EQ(store.size(), oracle.size());
  }
}

}  // namespace
}  // namespace tfsim
