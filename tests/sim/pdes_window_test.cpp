// ParallelEngine window sequence under the incremental window open: each
// domain's next event time is kept current from its own slice and the
// outbox flush instead of rescanning every calendar per window.  These
// workloads target the two places that bookkeeping could drift: a domain
// whose calendar head is mostly cancelled events, and cross-domain posts
// that land exactly at the horizon (the next window's start).  The per-
// domain event order and the window count must match at 1, 2 and 4
// workers, and both were recorded from the full-rescan implementation.
//
// The rest pins the coordinator and its helpers: windows that outlast a
// handoff are shared, and a shared window followed by a wider one must not
// let a helper claim into the new window before it is opened.  Those tests
// make windows long by spinning on the wall clock inside events, far above
// any host's handoff cost; the spin changes host time only, never results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"

namespace tfsim::sim {
namespace {

PdesConfig config(unsigned threads, Time lookahead) {
  PdesConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = lookahead;
  return cfg;
}

struct DomainLog {
  Rng rng{0};
  std::uint64_t fold = 0;
  std::vector<Engine::EventId> timers;

  void record(Time now, std::uint64_t tag) {
    fold = (fold ^ now ^ (tag << 40)) * 1099511628211ULL;
  }
};

std::string summary(ParallelEngine& pdes, const std::vector<DomainLog>& logs) {
  std::ostringstream os;
  for (std::size_t d = 0; d < logs.size(); ++d) {
    const Engine& e = pdes.domain(static_cast<DomainId>(d));
    os << d << ":" << e.executed() << ":" << logs[d].fold << ":" << e.now()
       << ";";
  }
  os << "windows=" << pdes.windows();
  return os.str();
}

// Six domains pass a token around a ring.  Every token visit arms timers on
// the visited domain's own calendar and cancels most of them again; domain 0
// arms 8 and cancels 7, so its calendar head is nearly always a cancelled
// entry that only the owning domain's refresh can prune.
std::string run_cancel_heavy(unsigned threads) {
  constexpr std::size_t kDomains = 6;
  constexpr Time kLookahead = 100;
  ParallelEngine pdes(kDomains, config(threads, kLookahead));
  std::vector<DomainLog> logs(kDomains);
  for (std::size_t d = 0; d < kDomains; ++d) logs[d].rng = Rng(0xCA11 + d);

  std::function<void(DomainId, int)> visit = [&](DomainId d, int budget) {
    DomainLog& log = logs[d];
    Engine& self = pdes.domain(d);
    log.record(self.now(), 1);
    const int arm = d == 0 ? 8 : 2;
    for (int i = 0; i < arm; ++i) {
      const Time at = self.now() + 1 + log.rng.uniform_u64(4 * kLookahead);
      const auto tag = static_cast<std::uint64_t>(100 + i);
      log.timers.push_back(self.schedule_at(
          at, [&log, &self, tag] { log.record(self.now(), tag); }));
    }
    for (int i = 0; i + 1 < arm; ++i) {
      const std::size_t pick = log.rng.uniform_u64(log.timers.size());
      self.cancel(log.timers[pick]);
      log.timers.erase(log.timers.begin() +
                       static_cast<std::ptrdiff_t>(pick));
    }
    if (budget <= 0) return;
    const auto next = static_cast<DomainId>((d + 1) % kDomains);
    const Time at = self.now() + kLookahead + log.rng.uniform_u64(50);
    pdes.post(d, next, at, [&visit, next, budget] { visit(next, budget - 1); });
  };
  for (std::size_t t = 0; t < 3; ++t) {
    const auto d = static_cast<DomainId>(2 * t);
    pdes.post(d, d, 1 + 7 * t, [&visit, d] { visit(d, 400); });
  }
  pdes.run();
  return summary(pdes, logs);
}

// Every cross-domain post lands exactly at the horizon, the earliest legal
// time, so each flushed arrival opens the next window; some visits also
// self-post one tick later, inside the same or the next window.
std::string run_horizon_posts(unsigned threads) {
  constexpr std::size_t kDomains = 5;
  constexpr Time kLookahead = 64;
  ParallelEngine pdes(kDomains, config(threads, kLookahead));
  std::vector<DomainLog> logs(kDomains);
  for (std::size_t d = 0; d < kDomains; ++d) logs[d].rng = Rng(0x4051 + d);

  std::function<void(DomainId, int)> visit = [&](DomainId d, int budget) {
    DomainLog& log = logs[d];
    Engine& self = pdes.domain(d);
    log.record(self.now(), 2 + static_cast<std::uint64_t>(budget));
    if (budget <= 0) return;
    const auto next = static_cast<DomainId>((3 * d + 1) % kDomains);
    pdes.post(d, next, pdes.horizon(),
              [&visit, next, budget] { visit(next, budget - 1); });
    if (log.rng.uniform_u64(3) == 0) {
      pdes.post(d, d, self.now() + 1,
                [&log, &self] { log.record(self.now(), 7); });
    }
  };
  for (std::size_t d = 0; d < kDomains; ++d) {
    const auto dom = static_cast<DomainId>(d);
    pdes.post(dom, dom, 3 * d, [&visit, dom] { visit(dom, 300); });
  }
  pdes.run();
  return summary(pdes, logs);
}

TEST(PdesWindowTest, CancelHeavyDomainKeepsWindowSequence) {
  const std::string serial = run_cancel_heavy(1);
  EXPECT_EQ(serial,
            "0:1542:9733039248513810907:50424;"
            "1:590:2341694279980401228:50386;"
            "2:593:13537677795734901818:50666;"
            "3:585:2408656458117833516:50069;"
            "4:589:1010838897784043202:50109;"
            "5:587:11829521405184959672:50143;windows=455");
  EXPECT_EQ(run_cancel_heavy(2), serial);
  EXPECT_EQ(run_cancel_heavy(4), serial);
}

TEST(PdesWindowTest, PostsAtTheHorizonKeepWindowSequence) {
  const std::string serial = run_horizon_posts(1);
  EXPECT_EQ(serial,
            "0:393:14277102036005143352:19200;"
            "1:400:15002384377047216018:19200;"
            "2:380:4350594599928709463:19200;"
            "3:405:17554869618908941173:19200;"
            "4:410:4214904270065095879:19200;windows=301");
  EXPECT_EQ(run_horizon_posts(2), serial);
  EXPECT_EQ(run_horizon_posts(4), serial);
}

// A calendar written behind post() -- an event scheduling straight onto
// another domain's calendar -- is invisible to the incremental window open.
// The run must fail loudly instead of ending with the event never run.
TEST(PdesWindowTest, EventScheduledBehindPostFailsTheRun) {
  ParallelEngine pdes(2, config(1, 100));
  bool ran = false;
  pdes.post(0, 0, 10, [&pdes, &ran] {
    pdes.domain(1).schedule_at(1000, [&ran] { ran = true; });
  });
  EXPECT_THROW(pdes.run(), std::logic_error);
  EXPECT_FALSE(ran);
}

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// A few milliseconds per heavy event: far above a handoff even on a loaded
// host or under a sanitizer, where the measured round trip grows.
constexpr std::chrono::microseconds kHeavy{5000};

// Rounds of two windows: one on domains 0-2, shared because domain 0's heavy
// slice alone outlasts a handoff, then one on eleven domains, so a helper
// still holding the shared window's claim word meets a wider active list.
// Each event of the first window also posts to a domain of the second one
// at the horizon.
std::string run_shared_then_wider(unsigned threads,
                                  std::uint64_t& shared_windows) {
  constexpr std::size_t kDomains = 14;
  constexpr Time kLookahead = 1000;
  ParallelEngine pdes(kDomains, config(threads, kLookahead));
  std::vector<DomainLog> logs(kDomains);
  for (int r = 0; r < 6; ++r) {
    const Time t = static_cast<Time>(r) * 4 * kLookahead;
    for (DomainId d = 0; d < 3; ++d) {
      pdes.post(d, d, t + d, [&pdes, &logs, d] {
        if (d == 0) spin_for(kHeavy);
        logs[d].record(pdes.domain(d).now(), 1);
        const auto to = static_cast<DomainId>(3 + d);
        pdes.post(d, to, pdes.horizon(), [&pdes, &logs, to] {
          logs[to].record(pdes.domain(to).now(), 3);
        });
      });
    }
    for (DomainId d = 3; d < kDomains; ++d) {
      pdes.post(d, d, t + kLookahead + d, [&pdes, &logs, d] {
        logs[d].record(pdes.domain(d).now(), 2);
      });
    }
  }
  pdes.run();
  shared_windows = pdes.shared_windows();
  EXPECT_EQ(pdes.inline_windows() + pdes.shared_windows(), pdes.windows());
  return summary(pdes, logs);
}

TEST(PdesWindowTest, SharedWindowThenWiderWindowMatchesSerial) {
  std::uint64_t shared = 0;
  const std::string serial = run_shared_then_wider(1, shared);
  EXPECT_NE(serial.find("windows=12"), std::string::npos) << serial;
  for (const unsigned threads : {2u, 4u, 8u}) {
    EXPECT_EQ(run_shared_then_wider(threads, shared), serial)
        << threads << " threads";
    EXPECT_GT(shared, 0u) << threads << " threads";
  }
}

// Eight domains, each running one heavy event per window for five windows:
// granularity control must still hand slices to the helpers.
TEST(PdesWindowTest, HeavyWindowsRunSlicesOnHelpers) {
  for (const unsigned threads : {2u, 4u}) {
    ParallelEngine pdes(8, config(threads, 100));
    std::vector<int> ran(8, 0);
    std::function<void(DomainId, int)> step = [&](DomainId d, int left) {
      spin_for(kHeavy / 2);
      ++ran[d];
      if (left > 1) {
        pdes.post(d, d, pdes.horizon(),
                  [&step, d, left] { step(d, left - 1); });
      }
    };
    for (DomainId d = 0; d < 8; ++d) {
      pdes.post(d, d, 0, [&step, d] { step(d, 5); });
    }
    pdes.run();
    EXPECT_EQ(ran, std::vector<int>(8, 5));
    EXPECT_EQ(pdes.windows(), 5u);
    EXPECT_GT(pdes.helper_slices(), 0u) << threads << " threads";
    EXPECT_EQ(pdes.inline_windows() + pdes.shared_windows(), pdes.windows());
  }
}

// Two active domains per window: however long the first slice runs, a lone
// last slice is never handed off, so no window is shared.
TEST(PdesWindowTest, LoneLastSliceStaysInline) {
  ParallelEngine pdes(4, config(2, 100));
  for (Time t = 0; t < 300; t += 100) {
    pdes.post(0, 0, t, [] { spin_for(kHeavy / 2); });
    pdes.post(1, 1, t, [] {});
  }
  pdes.run();
  EXPECT_EQ(pdes.windows(), 3u);
  EXPECT_EQ(pdes.shared_windows(), 0u);
  EXPECT_EQ(pdes.helper_slices(), 0u);
}

// Every window is either run inline or shared, serial runs included.
TEST(PdesWindowTest, InlinePlusSharedCountsEveryWindow) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ParallelEngine pdes(4, config(threads, 100));
    std::function<void(DomainId, int)> step = [&](DomainId d, int left) {
      if (left == 0) return;
      const auto to = static_cast<DomainId>((d + 1) % 4);
      pdes.post(d, to, pdes.horizon(),
                [&step, to, left] { step(to, left - 1); });
    };
    pdes.post(0, 0, 0, [&step] { step(0, 50); });
    pdes.run();
    EXPECT_EQ(pdes.windows(), 51u);
    EXPECT_EQ(pdes.inline_windows() + pdes.shared_windows(), pdes.windows())
        << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(pdes.shared_windows(), 0u);
    }
  }
}

// The lowest failing domain wins even when a helper ran its slice: domain 0
// outlasts a handoff, so domains 1-3 are shared; the coordinator usually
// claims heavy domain 1 while a helper takes domain 2, the lowest that
// throws.  Retried until a helper has run domain 2 at least once.
TEST(PdesWindowTest, LowestFailingDomainWinsWhenAHelperRanIt) {
  const std::thread::id coordinator = std::this_thread::get_id();
  bool on_helper = false;
  for (int attempt = 0; attempt < 20 && !on_helper; ++attempt) {
    ParallelEngine pdes(4, config(2, 100));
    std::thread::id ran_on;
    pdes.post(0, 0, 10, [] { spin_for(kHeavy); });
    pdes.post(1, 1, 10, [] { spin_for(kHeavy); });
    pdes.post(2, 2, 10, [&ran_on] {
      ran_on = std::this_thread::get_id();
      throw std::runtime_error("boom 2");
    });
    pdes.post(3, 3, 10, [] { throw std::runtime_error("boom 3"); });
    try {
      pdes.run();
      FAIL() << "expected the domain exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2");
    }
    EXPECT_FALSE(pdes.running());
    on_helper = ran_on != coordinator;
  }
  EXPECT_TRUE(on_helper) << "no attempt ran domain 2 on a helper";
}

}  // namespace
}  // namespace tfsim::sim
