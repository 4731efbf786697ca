// IdRing: per-request records keyed by sequential ids (sim/id_ring.hpp).
// Checked against std::map, the container it replaces, under in-order and
// out-of-order retirement, gaps, and a head that never retires.
#include "sim/id_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>

#include "sim/rng.hpp"

namespace tfsim::sim {
namespace {

template <class T>
T value_or(IdRing<T>& ring, std::uint64_t id, T fallback) {
  const T* v = ring.find(id);
  return v != nullptr ? *v : fallback;
}

TEST(IdRingTest, FindsLiveIdsOnly) {
  IdRing<int> ring;
  EXPECT_EQ(ring.find(0), nullptr);
  ring.insert(5, 50);
  ring.insert(7, 70);  // 6 is a gap
  EXPECT_EQ(value_or(ring, 5, -1), 50);
  EXPECT_EQ(ring.find(6), nullptr);
  EXPECT_EQ(ring.find(4), nullptr);
  EXPECT_EQ(ring.find(8), nullptr);
  ring.erase(5);
  EXPECT_EQ(ring.find(5), nullptr);
  EXPECT_EQ(value_or(ring, 7, -1), 70);
  EXPECT_EQ(ring.size(), 1u);
  ring.erase(7);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.find(7), nullptr);
}

TEST(IdRingTest, RejectsDecreasingIds) {
  IdRing<int> ring;
  ring.insert(3, 0);
  EXPECT_THROW(ring.insert(3, 0), std::invalid_argument);
  EXPECT_THROW(ring.insert(2, 0), std::invalid_argument);
  ring.erase(3);
  ring.insert(1, 0);  // empty again: any id may start the next window
  EXPECT_NE(ring.find(1), nullptr);
}

// A head that never retires while thousands of later ids come and go: the
// ring grows and every record survives the moves.
TEST(IdRingTest, StuckHeadGrowsTheRing) {
  IdRing<std::uint64_t> ring;
  ring.insert(0, 1000);
  for (std::uint64_t id = 1; id < 5000; ++id) {
    ring.insert(id, id * 3);
    if (id >= 3) ring.erase(id - 2);
  }
  const std::uint64_t none = ~std::uint64_t{0};
  EXPECT_EQ(value_or(ring, 0, none), 1000u);
  EXPECT_EQ(value_or(ring, 4999, none), 4999u * 3);
  EXPECT_EQ(value_or(ring, 4998, none), 4998u * 3);
  EXPECT_EQ(ring.find(4997), nullptr);
  EXPECT_EQ(ring.size(), 3u);
}

// Random in-flight windows with out-of-order retirement and occasional
// gaps, mirrored in a std::map.
TEST(IdRingTest, MatchesAMapUnderRandomRetirement) {
  IdRing<std::uint64_t> ring;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(0x1D);
  std::uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    if (ref.size() < 64 && rng.uniform_u64(3) != 0) {
      next += 1 + (rng.uniform_u64(8) == 0 ? 1 : 0);
      ring.insert(next, next ^ 0xABC);
      ref.emplace(next, next ^ 0xABC);
    } else if (!ref.empty()) {
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng.uniform_u64(ref.size())));
      ring.erase(it->first);
      ref.erase(it);
    }
    const std::uint64_t probe = next - rng.uniform_u64(80);
    const auto it = ref.find(probe);
    const std::uint64_t none = ~std::uint64_t{0};
    ASSERT_EQ(value_or(ring, probe, none),
              it == ref.end() ? none : it->second)
        << "id " << probe;
    ASSERT_EQ(ring.size(), ref.size());
  }
}

}  // namespace
}  // namespace tfsim::sim
