#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace tfsim::sim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(EngineTest, EqualTimesRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, ScheduleInIsRelative) {
  Engine e;
  Time seen = 0;
  e.schedule_at(100, [&] {
    e.schedule_in(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EngineTest, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(50, [] {}), std::logic_error);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  auto id = e.schedule_at(10, [&] { ran = true; });
  EXPECT_EQ(e.pending(), 1u);
  e.cancel(id);
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, CancelAfterFireIsNoop) {
  Engine e;
  auto id = e.schedule_at(10, [] {});
  e.run();
  e.cancel(id);  // must not crash or corrupt counters
  EXPECT_EQ(e.pending(), 0u);
}

TEST(EngineTest, CancelledEventDoesNotBlockRunUntil) {
  Engine e;
  bool ran = false;
  auto early = e.schedule_at(10, [&] { ran = true; });
  e.schedule_at(100, [] {});
  e.cancel(early);
  e.run_until(50);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now(), 50u);
  EXPECT_EQ(e.pending(), 1u);  // the t=100 event still waits
}

TEST(EngineTest, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(1234);
  EXPECT_EQ(e.now(), 1234u);
}

TEST(EngineTest, RunUntilExecutesBoundaryEvent) {
  Engine e;
  bool at_boundary = false, after = false;
  e.schedule_at(100, [&] { at_boundary = true; });
  e.schedule_at(101, [&] { after = true; });
  e.run_until(100);
  EXPECT_TRUE(at_boundary);
  EXPECT_FALSE(after);
}

TEST(EngineTest, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.schedule_at(1, [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, RunWhilePendingStops) {
  Engine e;
  int count = 0;
  for (int i = 1; i <= 100; ++i) {
    e.schedule_at(static_cast<Time>(i), [&] { ++count; });
  }
  const bool stopped = e.run_while_pending([&] { return count >= 10; });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 10);
}

TEST(EngineTest, EventsScheduledDuringRunExecute) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) e.schedule_in(10, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40u);
  EXPECT_EQ(e.executed(), 5u);
}

// --- run_before: the PDES slice call ---------------------------------------

TEST(EngineTest, RunBeforeOnEmptyCalendarReturnsNever) {
  Engine e;
  EXPECT_EQ(e.run_before(100), kTimeNever);
  EXPECT_EQ(e.run_before(0), kTimeNever);
  EXPECT_EQ(e.now(), 0u);
}

TEST(EngineTest, RunBeforePrunesCancelledHeadAndReturnsNextLiveTime) {
  Engine e;
  bool ran = false;
  auto head = e.schedule_at(10, [&] { ran = true; });
  e.schedule_at(40, [] {});
  e.cancel(head);
  EXPECT_EQ(e.run_before(0), 40u) << "a cancelled head is not the next event";
  EXPECT_EQ(e.run_before(20), 40u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.executed(), 0u);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineTest, RunBeforeLeavesAnEventAtTheBoundary) {
  Engine e;
  std::vector<Time> fired;
  for (const Time t : {Time{30}, Time{50}, Time{51}}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  EXPECT_EQ(e.run_before(50), 50u);
  EXPECT_EQ(fired, (std::vector<Time>{30}));
  EXPECT_EQ(e.now(), 30u) << "now() stays at the last executed event";
  EXPECT_EQ(e.run_before(kTimeNever), kTimeNever);
  EXPECT_EQ(fired, (std::vector<Time>{30, 50, 51}));
}

TEST(EngineTest, RunBeforeRunsEventsItsCallbacksScheduleBeforeTheLimit) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.schedule_at(10, [&] { order.push_back(2); });  // same time: runs next
    e.schedule_at(19, [&] { order.push_back(3); });
    e.schedule_at(20, [&] { order.push_back(4); });  // at the limit: waits
  });
  EXPECT_EQ(e.run_before(20), 20u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 19u);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineTest, StaleHandleCannotCancelTheEventThatReusedItsSlot) {
  Engine e;
  bool second = false;
  auto first = e.schedule_at(10, [] {});
  auto stale = first;
  EXPECT_EQ(e.run_before(11), kTimeNever);  // fires; the slot is freed
  auto fresh = e.schedule_at(20, [&] { second = true; });  // reuses it
  e.cancel(stale);
  EXPECT_TRUE(fresh.valid());
  EXPECT_FALSE(first.valid());
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run_before(21), kTimeNever);
  EXPECT_TRUE(second);
}

// --- event-pool handle semantics (slab + generation counters) --------------

TEST(EngineTest, ValidTracksEventLifecycle) {
  Engine e;
  Engine::EventId none;
  EXPECT_FALSE(none.valid());
  auto id = e.schedule_at(5, [] {});
  EXPECT_TRUE(id.valid());
  e.run();
  EXPECT_FALSE(id.valid()) << "fired event invalidates the handle";
  auto id2 = e.schedule_at(10, [] {});
  EXPECT_FALSE(id.valid()) << "slot reuse must not resurrect the old handle";
  EXPECT_TRUE(id2.valid());
  e.cancel(id2);
  EXPECT_FALSE(id2.valid());
}

TEST(EngineTest, DoubleCancelIsNoop) {
  Engine e;
  bool ran = false;
  auto id = e.schedule_at(10, [&] { ran = true; });
  auto copy = id;  // handles are copyable; both reference the same event
  e.cancel(id);
  EXPECT_EQ(e.pending(), 0u);
  e.cancel(id);    // reset handle: no-op
  e.cancel(copy);  // stale generation: no-op, must not corrupt counters
  EXPECT_EQ(e.pending(), 0u);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(EngineTest, CancelStaleHandleAfterSlotReuse) {
  Engine e;
  bool first = false, second = false;
  auto id = e.schedule_at(10, [&] { first = true; });
  e.run();  // fires; the slot returns to the free list
  auto id2 = e.schedule_at(20, [&] { second = true; });  // reuses the slot
  e.cancel(id);  // stale generation: must NOT cancel the new event
  EXPECT_TRUE(id2.valid());
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(EngineTest, CancelSiblingFromCallbackAtSameTime) {
  Engine e;
  bool sibling_ran = false;
  Engine::EventId sib;
  e.schedule_at(10, [&] { e.cancel(sib); });
  sib = e.schedule_at(10, [&] { sibling_ran = true; });
  e.run();
  EXPECT_FALSE(sibling_ran);
  EXPECT_EQ(e.pending(), 0u);
}

// Deterministic stress over many slab generations: cancel before fire,
// double-cancel, and cancel-after-fire on handles whose slots have been
// recycled many times.
TEST(EngineTest, CancellationStressAcrossGenerations) {
  Engine e;
  int fired = 0;
  constexpr int kRounds = 50;
  constexpr int kPerRound = 100;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Engine::EventId> ids;
    ids.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(e.schedule_in(static_cast<Time>((i * 7) % 23),
                                  [&] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) e.cancel(ids[i]);
    for (std::size_t i = 0; i < ids.size(); i += 6) e.cancel(ids[i]);  // double
    e.run();
    for (auto& id : ids) e.cancel(id);  // all stale now: post-fire cancels
    EXPECT_EQ(e.pending(), 0u);
  }
  // Per round: 100 scheduled, 34 cancelled (i = 0, 3, ..., 99), 66 fire.
  EXPECT_EQ(fired, kRounds * 66);
  EXPECT_EQ(e.executed(), static_cast<std::uint64_t>(kRounds * 66));
}

}  // namespace
}  // namespace tfsim::sim
