#include <gtest/gtest.h>

#include "mem/address.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "sim/rng.hpp"

namespace tfsim::mem {
namespace {

// --- address math ------------------------------------------------------

TEST(AddressTest, LineBase) {
  EXPECT_EQ(line_base(0), 0u);
  EXPECT_EQ(line_base(127), 0u);
  EXPECT_EQ(line_base(128), 128u);
  EXPECT_EQ(line_base(300), 256u);
}

TEST(AddressTest, LinesSpanned) {
  EXPECT_EQ(lines_spanned(0, 0), 0u);
  EXPECT_EQ(lines_spanned(0, 1), 1u);
  EXPECT_EQ(lines_spanned(0, 128), 1u);
  EXPECT_EQ(lines_spanned(0, 129), 2u);
  EXPECT_EQ(lines_spanned(100, 100), 2u) << "straddles a boundary";
  EXPECT_EQ(lines_spanned(120, 8), 1u);
  EXPECT_EQ(lines_spanned(120, 9), 2u);
}

TEST(AddressTest, RangeSemantics) {
  const Range r{100, 50};
  EXPECT_TRUE(r.contains(100));
  EXPECT_TRUE(r.contains(149));
  EXPECT_FALSE(r.contains(150));
  EXPECT_FALSE(r.contains(99));
  EXPECT_TRUE(r.overlaps(Range{149, 10}));
  EXPECT_FALSE(r.overlaps(Range{150, 10}));
  EXPECT_TRUE(r.overlaps(Range{0, 101}));
  EXPECT_FALSE(r.overlaps(Range{0, 100}));
}

TEST(MemoryMapTest, FindAndRemove) {
  MemoryMap map;
  map.add_region(Region{Range{0, 1000}, Backing::kLocalDram, 0, "local"});
  map.add_region(Region{Range{5000, 1000}, Backing::kRemoteDram, 3, "remote"});
  ASSERT_NE(map.find(500), nullptr);
  EXPECT_EQ(map.find(500)->name, "local");
  ASSERT_NE(map.find(5500), nullptr);
  EXPECT_EQ(map.find(5500)->lender_id, 3u);
  EXPECT_EQ(map.find(2000), nullptr);
  EXPECT_EQ(map.find(6000), nullptr);
  EXPECT_TRUE(map.remove_region("remote"));
  EXPECT_EQ(map.find(5500), nullptr);
  EXPECT_FALSE(map.remove_region("remote"));
}

TEST(MemoryMapTest, OverlapRejected) {
  MemoryMap map;
  map.add_region(Region{Range{0, 1000}, Backing::kLocalDram, 0, "a"});
  EXPECT_THROW(
      map.add_region(Region{Range{999, 10}, Backing::kLocalDram, 0, "b"}),
      std::invalid_argument);
  EXPECT_THROW(map.add_region(Region{Range{10, 0}, Backing::kLocalDram, 0, "e"}),
               std::invalid_argument)
      << "empty region";
}

TEST(MemoryMapTest, TotalBytesByBacking) {
  MemoryMap map;
  map.add_region(Region{Range{0, 1000}, Backing::kLocalDram, 0, "a"});
  map.add_region(Region{Range{2000, 500}, Backing::kRemoteDram, 1, "b"});
  map.add_region(Region{Range{9000, 300}, Backing::kRemoteDram, 1, "c"});
  EXPECT_EQ(map.total_bytes(Backing::kLocalDram), 1000u);
  EXPECT_EQ(map.total_bytes(Backing::kRemoteDram), 800u);
}

// --- hierarchy ---------------------------------------------------------

std::vector<LevelConfig> tiny_hierarchy() {
  return {
      LevelConfig{CacheConfig{1024, 2, 128}, sim::from_ns(1), "L1"},
      LevelConfig{CacheConfig{4096, 4, 128}, sim::from_ns(5), "L2"},
  };
}

TEST(HierarchyTest, HitLevelsReported) {
  CacheHierarchy h(tiny_hierarchy());
  auto r = h.access(0x100, false);
  EXPECT_EQ(r.hit_level, -1) << "cold miss goes to memory";
  r = h.access(0x100, false);
  EXPECT_EQ(r.hit_level, 0);
  EXPECT_EQ(r.latency, sim::from_ns(1));
}

TEST(HierarchyTest, L2HitAfterL1Eviction) {
  CacheHierarchy h(tiny_hierarchy());
  // Fill L1 set 0 (2 ways) with three conflicting lines; L2 (4 ways of the
  // same set) still holds all of them.
  const Addr a = 0, b = 1024, d = 2048;
  h.access(a, false);
  h.access(b, false);
  h.access(d, false);  // evicts a from L1; L2 set has capacity 4... also maps
  const auto r = h.access(a, false);
  EXPECT_EQ(r.hit_level, 1) << "a must be an L2 hit after L1 eviction";
  EXPECT_EQ(r.latency, sim::from_ns(5));
}

TEST(HierarchyTest, WritebacksOnlyFromLastLevel) {
  CacheHierarchy h(tiny_hierarchy());
  // Dirty a line, then stream far past both caches.
  h.access(0, true);
  std::uint64_t wbs = 0;
  for (Addr a = 1 << 20; a < (1 << 20) + 64 * 1024; a += 128) {
    wbs += h.access(a, false).memory_writebacks.size();
  }
  EXPECT_GE(wbs, 1u);
}

TEST(HierarchyTest, AtMostOneWritebackPerAccess) {
  // Only the last level's victim leaves the hierarchy, so one access can
  // report at most one line; together they are every last-level writeback.
  CacheHierarchy h(tiny_hierarchy());
  sim::Rng rng(7);
  std::uint64_t wbs = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto r = h.access(rng.uniform_u64(256 * 1024), rng.uniform() < 0.5);
    ASSERT_LE(r.memory_writebacks.size(), 1u);
    for (const Addr line : r.memory_writebacks) {
      EXPECT_EQ(line, line_base(line)) << "writebacks are line addresses";
      ++wbs;
    }
  }
  EXPECT_GT(wbs, 0u);
  EXPECT_EQ(wbs, h.level(h.num_levels() - 1).stats().writebacks);
}

TEST(HierarchyTest, InvalidateRangeDropsEverywhere) {
  CacheHierarchy h(tiny_hierarchy());
  h.access(0x100, true);
  h.access(0x100, true);
  EXPECT_GT(h.invalidate_range(Range{0, 4096}), 0u);
  const auto r = h.access(0x100, false);
  EXPECT_EQ(r.hit_level, -1);
}

TEST(HierarchyTest, TotalCapacity) {
  CacheHierarchy h(tiny_hierarchy());
  EXPECT_EQ(h.total_capacity(), 1024u + 4096u);
  EXPECT_EQ(h.num_levels(), 2u);
}

TEST(HierarchyTest, Power9DefaultsSane) {
  const auto levels = power9_like_hierarchy();
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_EQ(levels[0].cache.line_bytes, kCacheLineBytes);
  CacheHierarchy h(levels);  // must construct without throwing
  EXPECT_GT(h.total_capacity(), 10 * sim::kMiB);
}

TEST(HierarchyTest, EmptyLevelsRejected) {
  EXPECT_THROW(CacheHierarchy({}), std::invalid_argument);
}

// --- dram --------------------------------------------------------------

TEST(DramTest, LatencyPlusSerialization) {
  DramConfig cfg;
  cfg.bus_bandwidth = sim::Bandwidth::from_gbyte(128.0);  // 1 ns per 128 B
  cfg.access_latency = sim::from_ns(95);
  Dram d(cfg);
  EXPECT_EQ(d.access_line(0), sim::from_ns(96));
  // Second access queues behind the first line's bus slot.
  EXPECT_EQ(d.access_line(0), sim::from_ns(97));
}

TEST(DramTest, UtilizationTracksLoad) {
  DramConfig cfg;
  cfg.bus_bandwidth = sim::Bandwidth::from_gbyte(128.0);
  Dram d(cfg);
  for (int i = 0; i < 1000; ++i) d.access_line(0);
  // 1000 ns busy; utilization over 2000 ns elapsed = 50%.
  EXPECT_NEAR(d.utilization(sim::from_ns(2000)), 0.5, 0.01);
  EXPECT_EQ(d.requests(), 1000u);
  EXPECT_EQ(d.bytes_served(), 1000u * kCacheLineBytes);
}

}  // namespace
}  // namespace tfsim::mem
