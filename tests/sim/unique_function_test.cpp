// UniqueFunction: the move-only callable behind Engine::Callback and the
// fabric arrival continuations.  Small captures live in its inline buffer,
// larger ones on the heap; either way moves transfer ownership exactly once
// and leave the source empty.  The engine tests at the end destroy
// calendars that still hold events, so a sanitizer build checks that
// pending captures (inline and heap) are released.
#include "sim/unique_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/engine.hpp"
#include "sim/pdes.hpp"

namespace tfsim::sim {
namespace {

using Fn = UniqueFunction<int(int)>;

/// Counts live instances so tests can see every capture destroyed once.
struct Tracked {
  explicit Tracked(int* live) : live_(live) { ++*live_; }
  Tracked(const Tracked& o) : live_(o.live_) { ++*live_; }
  Tracked(Tracked&& o) noexcept : live_(o.live_) { ++*live_; }
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() { --*live_; }
  int* live_;
};

TEST(UniqueFunctionTest, SmallCaptureIsStoredInline) {
  const int k = 3;
  auto small = [k](int x) { return x * k; };
  static_assert(Fn::stores_inline<decltype(small)>());
  Fn f = small;
  ASSERT_TRUE(f);
  EXPECT_EQ(f(5), 15);
}

TEST(UniqueFunctionTest, LargeCaptureFallsBackToTheHeap) {
  std::array<std::uint64_t, 16> big{};
  big[15] = 40;
  auto large = [big](int x) { return x + static_cast<int>(big[15]); };
  static_assert(!Fn::stores_inline<decltype(large)>());
  Fn f = large;
  EXPECT_EQ(f(2), 42);
  Fn g = std::move(f);
  EXPECT_EQ(g(1), 41);
}

TEST(UniqueFunctionTest, MoveOnlyCaptures) {
  auto owned = std::make_unique<int>(7);
  Fn f = [p = std::move(owned)](int x) { return *p + x; };
  EXPECT_EQ(f(1), 8);
  Fn g = std::move(f);
  EXPECT_EQ(g(2), 9);

  // A move-only capture too large for the buffer still works.
  std::array<std::uint64_t, 12> pad{};
  Fn h = [p = std::make_unique<int>(5), pad](int x) {
    return *p + x + static_cast<int>(pad[0]);
  };
  EXPECT_EQ(h(5), 10);
}

TEST(UniqueFunctionTest, MovedFromObjectsAreEmpty) {
  int live = 0;
  {
    Fn inline_fn = [t = Tracked(&live)](int x) { return x; };
    std::array<std::uint64_t, 16> pad{};
    Fn heap_fn = [t = Tracked(&live), pad](int x) {
      return x + static_cast<int>(pad[0]);
    };
    EXPECT_EQ(live, 2);

    Fn a = std::move(inline_fn);
    Fn b = std::move(heap_fn);
    EXPECT_FALSE(inline_fn);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(heap_fn);    // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(live, 2) << "a move relocates the capture, never copies it";

    Fn c;
    c = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c(4), 4);
    c = std::move(b);  // destroys c's old capture
    EXPECT_EQ(live, 1);
    c = nullptr;
    EXPECT_FALSE(c);
    EXPECT_EQ(live, 0);
  }
  EXPECT_EQ(live, 0);
}

TEST(UniqueFunctionTest, EngineDestroyedWithPendingEventsReleasesCaptures) {
  int live = 0;
  {
    Engine engine;
    std::array<std::uint64_t, 16> pad{};
    engine.schedule_at(10, [t = Tracked(&live)] {});
    engine.schedule_at(20, [t = Tracked(&live), pad] { (void)pad; });
    engine.schedule_at(30, [p = std::make_unique<int>(1)] {});
    Engine::EventId gone = engine.schedule_at(40, [t = Tracked(&live)] {});
    engine.cancel(gone);
    EXPECT_EQ(live, 2) << "cancel releases the capture at once";
    engine.run_until(15);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(engine.pending(), 2u);
  }
  EXPECT_EQ(live, 0);
}

TEST(UniqueFunctionTest, PdesDestroyedWithPendingEventsReleasesCaptures) {
  int live = 0;
  {
    PdesConfig cfg;
    cfg.lookahead = 10;
    ParallelEngine pdes(3, cfg);
    std::array<std::uint64_t, 16> pad{};
    pdes.post(0, 1, 5, [t = Tracked(&live)] {});
    pdes.post(1, 2, 7, [t = Tracked(&live), pad] { (void)pad; });
    pdes.post(2, 2, 9, [p = std::make_unique<int>(3)] {});
    EXPECT_EQ(live, 2);
    EXPECT_EQ(pdes.pending(), 3u);
  }
  EXPECT_EQ(live, 0);
}

}  // namespace
}  // namespace tfsim::sim
