#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace tfsim::mem {
namespace {

CacheConfig small_cache() {
  // 8 sets x 2 ways x 128 B = 2 KiB.
  return CacheConfig{2048, 2, 128, Replacement::kLru};
}

TEST(CacheTest, ColdMissThenHit) {
  SetAssocCache c(small_cache());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000 + 64, false).hit) << "same line";
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, LruEvictionOrder) {
  SetAssocCache c(small_cache());
  // Three lines mapping to the same set (set stride = 8 sets * 128 B = 1 KiB).
  const Addr a = 0x0000, b = 0x0000 + 8 * 1024, d = 0x0000 + 16 * 1024;
  // Same set check: all map to set 0 (line_no % 8 == 0).
  c.access(a, false);
  c.access(b, false);
  c.access(a, false);  // a is now MRU
  c.access(d, false);  // evicts b (LRU)
  EXPECT_TRUE(c.probe(a));
  EXPECT_FALSE(c.probe(b));
  EXPECT_TRUE(c.probe(d));
}

TEST(CacheTest, DirtyVictimReportsWriteback) {
  SetAssocCache c(small_cache());
  const Addr a = 0x0000, b = 8 * 1024, d = 16 * 1024;
  c.access(a, true);   // dirty
  c.access(b, false);  // clean
  const auto r = c.access(d, false);  // evicts a (LRU, dirty)
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, a);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheTest, CleanVictimNoWriteback) {
  SetAssocCache c(small_cache());
  const Addr a = 0x0000, b = 8 * 1024, d = 16 * 1024;
  c.access(a, false);
  c.access(b, false);
  const auto r = c.access(d, false);
  EXPECT_FALSE(r.writeback);
}

TEST(CacheTest, WriteHitMarksDirty) {
  SetAssocCache c(small_cache());
  const Addr a = 0x0000, b = 8 * 1024, d = 16 * 1024;
  c.access(a, false);  // clean fill
  c.access(a, true);   // write hit dirties it
  c.access(b, false);
  c.access(b, false);  // b MRU
  const auto r = c.access(d, false);  // evict a
  EXPECT_TRUE(r.writeback);
}

TEST(CacheTest, InvalidateDropsLine) {
  SetAssocCache c(small_cache());
  c.access(0x2000, true);
  bool dirty = false;
  EXPECT_TRUE(c.invalidate(0x2000, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_FALSE(c.invalidate(0x2000));
}

TEST(CacheTest, InvalidateRange) {
  SetAssocCache c(CacheConfig{64 * 1024, 4, 128});
  for (Addr a = 0; a < 16 * 1024; a += 128) c.access(a, false);
  const auto dropped = c.invalidate_range(Range{4096, 4096});
  EXPECT_EQ(dropped, 4096u / 128u);
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(4096));
  EXPECT_FALSE(c.probe(8191));
  EXPECT_TRUE(c.probe(8192));
}

TEST(CacheTest, ResidentLinesAndFlush) {
  SetAssocCache c(small_cache());
  for (Addr a = 0; a < 2048; a += 128) c.access(a, false);
  EXPECT_EQ(c.resident_lines(), 16u);
  c.flush();
  EXPECT_EQ(c.resident_lines(), 0u);
}

TEST(CacheTest, FullSweepBeyondCapacityEvicts) {
  SetAssocCache c(small_cache());
  for (Addr a = 0; a < 64 * 1024; a += 128) c.access(a, false);
  EXPECT_EQ(c.resident_lines(), 16u);  // never exceeds capacity
  EXPECT_EQ(c.stats().misses, 512u);   // streaming: everything misses
}

TEST(CacheTest, GeometryValidation) {
  EXPECT_THROW(SetAssocCache(CacheConfig{2048, 2, 100}), std::invalid_argument)
      << "non power-of-two line";
  EXPECT_THROW(SetAssocCache(CacheConfig{2048, 0, 128}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(CacheConfig{2000, 2, 128}), std::invalid_argument)
      << "size not divisible into sets";
}

TEST(CacheTest, RandomReplacementStaysWithinSet) {
  SetAssocCache c(CacheConfig{2048, 2, 128, Replacement::kRandom});
  const Addr a = 0x0000, b = 8 * 1024, d = 16 * 1024;
  c.access(a, false);
  c.access(b, false);
  c.access(d, false);  // evicts a or b, at random
  EXPECT_TRUE(c.probe(d));
  EXPECT_EQ(c.resident_lines(), 2u);
  EXPECT_NE(c.probe(a), c.probe(b)) << "exactly one victim";
}

TEST(CacheTest, RandomReplacementLetsStreamsEvictHotLines) {
  // Property behind the L3 model: under random replacement a hot line's
  // survival decays as streaming pressure rises; under LRU it survives as
  // long as reuse distance < capacity.
  const CacheConfig lru_cfg{64 * 1024, 8, 128, Replacement::kLru};
  const CacheConfig rnd_cfg{64 * 1024, 8, 128, Replacement::kRandom};
  auto run = [](const CacheConfig& cfg) {
    SetAssocCache c(cfg, "probe");
    const Addr hot = 0;
    std::uint64_t hot_hits = 0;
    Addr stream = 1 << 20;
    for (int round = 0; round < 2000; ++round) {
      hot_hits += c.access(hot, false).hit ? 1 : 0;
      for (int s = 0; s < 3; ++s) {  // streaming pressure between touches
        c.access(stream, false);
        stream += 128;
      }
    }
    return hot_hits;
  };
  const auto lru_hits = run(lru_cfg);
  const auto rnd_hits = run(rnd_cfg);
  EXPECT_GT(lru_hits, 1990u) << "LRU keeps the hot line";
  EXPECT_LT(rnd_hits, lru_hits) << "random replacement must lose it sometimes";
}


TEST(CacheTest, NonPowerOfTwoSetCountIndexesByModulo) {
  // 3 sets x 2 ways x 128 B: lines 0, 3, 6 share set 0.
  SetAssocCache c(CacheConfig{768, 2, 128, Replacement::kLru});
  c.access(0 * 128, true);
  c.access(3 * 128, false);
  c.access(1 * 128, false);  // set 1: must not disturb set 0
  const auto r = c.access(6 * 128, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback) << "the dirty LRU line of set 0 is evicted";
  EXPECT_EQ(r.victim_line, 0u);
  EXPECT_TRUE(c.probe(3 * 128));
  EXPECT_TRUE(c.probe(1 * 128));
  EXPECT_EQ(c.resident_lines(), 3u);
}

TEST(CacheTest, PackedWaysSurviveInvalidateRangeAndFlush) {
  // 12 sets (modulo indexing): dirty bits, range drops and flush must all
  // act on the packed way words alone.
  SetAssocCache c(CacheConfig{6144, 4, 128, Replacement::kLru});
  for (Addr a = 0; a < 48 * 128; a += 128) c.access(a, a % 256 == 0);
  EXPECT_EQ(c.resident_lines(), 48u);
  bool dirty = false;
  EXPECT_TRUE(c.invalidate(256, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_TRUE(c.invalidate(384, &dirty));
  EXPECT_FALSE(dirty);
  EXPECT_FALSE(c.invalidate(384, &dirty));
  EXPECT_EQ(c.invalidate_range(Range{1024, 1024}), 8u);
  EXPECT_EQ(c.resident_lines(), 38u);
  EXPECT_FALSE(c.probe(1024));
  EXPECT_TRUE(c.probe(2048));
  // A refill of an invalidated way is clean until written.
  EXPECT_FALSE(c.access(1024, false).hit);
  c.flush();
  EXPECT_EQ(c.resident_lines(), 0u);
  for (Addr a = 0; a < 48 * 128; a += 128) {
    EXPECT_FALSE(c.access(a, false).writeback) << "flush dropped dirty lines";
  }
  EXPECT_EQ(c.stats().invalidations, 10u);
}

// FNV-1a over every observable result of a seeded mixed-operation trace:
// accesses (hit, writeback, victim line), invalidates, range drops, probes,
// resident counts and one mid-trace flush.
std::uint64_t trace_digest(const CacheConfig& cfg, std::uint64_t seed) {
  SetAssocCache c(cfg);
  sim::Rng rng(seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const std::uint64_t span = cfg.size_bytes * 4;
  for (int i = 0; i < 40000; ++i) {
    const Addr addr = rng.uniform_u64(span);
    const double op = rng.uniform();
    if (op < 0.90) {
      const auto r = c.access(addr, op < 0.30);
      mix(r.hit);
      mix(r.writeback);
      mix(r.victim_line);
    } else if (op < 0.96) {
      bool dirty = false;
      mix(c.invalidate(addr, &dirty));
      mix(dirty);
    } else if (op < 0.99) {
      mix(c.probe(addr));
    } else {
      mix(c.invalidate_range(Range{addr, rng.uniform_u64(cfg.size_bytes)}));
      mix(c.resident_lines());
    }
    if (i == 20000) c.flush();
  }
  mix(c.stats().hits);
  mix(c.stats().misses);
  mix(c.stats().writebacks);
  mix(c.stats().invalidations);
  return h;
}

// Digests recorded from the pre-packing cache (24-byte way structs, divide
// indexing).  Any change to victim choice, dirty tracking or indexing moves
// them.
struct DigestCase {
  const char* name;
  CacheConfig cfg;
  std::uint64_t digest;
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

class CacheTraceDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(CacheTraceDigestTest, MatchesRecordedDigest) {
  const DigestCase& c = GetParam();
  const std::uint64_t got =
      trace_digest(c.cfg, c.cfg.size_bytes ^ c.cfg.associativity);
  EXPECT_EQ(got, c.digest) << std::hex << "got 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheTraceDigestTest,
    ::testing::Values(
        // 32 sets, random victims (the L3 policy), mask indexing.
        DigestCase{"random_32sets",
                   CacheConfig{16384, 4, 128, Replacement::kRandom},
                   0xb2f180a50681d405ULL},
        // 12 sets x 5 ways: modulo indexing and a non-power-of-two xorshift
        // pick.
        DigestCase{"random_12sets",
                   CacheConfig{7680, 5, 128, Replacement::kRandom},
                   0x8011066fbd5387b2ULL},
        // 3 sets, LRU stamps.
        DigestCase{"lru_3sets", CacheConfig{768, 2, 128, Replacement::kLru},
                   0x9eaa2d6980e74d30ULL},
        // 64 sets x 8 ways, LRU.
        DigestCase{"lru_64sets", CacheConfig{65536, 8, 128, Replacement::kLru},
                   0xbdbf2fee23aa55b8ULL}),
    [](const ::testing::TestParamInfo<DigestCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace tfsim::mem
