// ParallelEngine: conservative barrier-window PDES over per-domain slab
// calendars (sim/pdes.hpp).  The suite pins the three contracts the
// tentpole rests on: lookahead enforcement at the horizon boundary,
// thread-count-independent determinism, and cancel semantics across
// calendars (including the ISSUE 7 foreign-handle bugfix).
#include "sim/pdes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

namespace tfsim::sim {
namespace {

PdesConfig config(unsigned threads, Time lookahead) {
  PdesConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = lookahead;
  return cfg;
}

// Deterministic message-passing workload: every domain runs a seeded event
// chain, each step optionally posting to the next domain at >= the horizon.
// Returns one trace string per domain (time/count folds) so serial and
// parallel runs can be compared byte-for-byte.  Only the first `chains`
// domains start a chain (all of them by default).
std::vector<std::string> run_ring(unsigned threads, std::size_t domains,
                                  Time lookahead, std::uint64_t seed,
                                  int chain_len,
                                  std::size_t chains = SIZE_MAX) {
  ParallelEngine pdes(domains, config(threads, lookahead));
  std::vector<std::uint64_t> hops(domains, 0);
  std::vector<std::uint64_t> fold(domains, 0);
  struct Ctx {
    ParallelEngine* pdes;
    std::vector<std::uint64_t>* hops;
    std::vector<std::uint64_t>* fold;
    std::size_t domains;
    Time lookahead;
    int chain_len;
  } ctx{&pdes, &hops, &fold, domains, lookahead, chain_len};

  // Each hop folds (domain, now) into the owning domain's digest and
  // forwards to the next ring member one lookahead out -- always legal,
  // since the next window's horizon is at most now + lookahead.
  std::function<void(Ctx*, DomainId, int)> hop = [&hop](Ctx* c, DomainId d,
                                                        int depth) {
    Engine& self = c->pdes->domain(d);
    (*c->hops)[d]++;
    (*c->fold)[d] = (*c->fold)[d] * 1099511628211ULL ^ self.now() ^ d;
    if (depth <= 0) return;
    const auto dst = static_cast<DomainId>((d + 1) % c->domains);
    const Time t = self.now() + c->lookahead;
    c->pdes->post(d, dst, t, [c, dst, depth, &hop] { hop(c, dst, depth - 1); });
  };

  Rng rng(seed);
  for (std::size_t d = 0; d < std::min(domains, chains); ++d) {
    const Time start = rng.uniform_u64(lookahead);
    pdes.post(static_cast<DomainId>(d), static_cast<DomainId>(d), start,
              [&ctx, d, &hop] {
                hop(&ctx, static_cast<DomainId>(d), ctx.chain_len);
              });
  }
  pdes.run();

  std::vector<std::string> out;
  out.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d) {
    std::ostringstream os;
    os << d << ":" << hops[d] << ":" << fold[d] << ":"
       << pdes.domain(static_cast<DomainId>(d)).executed();
    out.push_back(os.str());
  }
  return out;
}

TEST(PdesTest, SerialWindowedRunMatchesPlainEngineSemantics) {
  ParallelEngine pdes(1, config(1, 100));
  std::vector<Time> fired;
  for (Time t : {Time{50}, Time{10}, Time{10}, Time{320}}) {
    pdes.post(0, 0, t, [&fired, &pdes] { fired.push_back(pdes.domain(0).now()); });
  }
  pdes.run();
  EXPECT_EQ(fired, (std::vector<Time>{10, 10, 50, 320}));
  EXPECT_EQ(pdes.executed(), 4u);
  EXPECT_EQ(pdes.pending(), 0u);
  EXPECT_GE(pdes.windows(), 2u) << "320 is beyond the first 100-wide window";
}

TEST(PdesTest, ZeroDelaySelfSendsAreLegal) {
  ParallelEngine pdes(2, config(2, 10));
  int count = 0;
  // A callback scheduling into its own domain at its own `now` must run in
  // the same window -- self-sends never synchronize.
  pdes.post(0, 0, 5, [&pdes, &count] {
    ++count;
    pdes.post(0, 0, pdes.domain(0).now(), [&count] { ++count; });
  });
  pdes.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(pdes.domain(0).now(), 5u);
}

TEST(PdesTest, CrossDomainPostBelowHorizonThrows) {
  ParallelEngine pdes(2, config(1, 100));
  bool threw = false;
  pdes.post(0, 0, 50, [&pdes, &threw] {
    // Window is [50, 150): a cross-domain send at 149 violates lookahead...
    try {
      pdes.post(0, 1, pdes.horizon() - 1, [] {});
    } catch (const std::logic_error&) {
      threw = true;
    }
    // ...while exactly at the horizon is the tightest legal send.
    pdes.post(0, 1, pdes.horizon(), [] {});
  });
  pdes.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(pdes.executed(), 2u) << "the horizon-boundary send must arrive";
}

TEST(PdesTest, SetupTimePostsBypassTheHorizon) {
  ParallelEngine pdes(2, config(1, 1000));
  int ran = 0;
  pdes.post(0, 1, 3, [&ran] { ++ran; });  // below any horizon: legal at setup
  EXPECT_EQ(pdes.pending(), 1u);
  pdes.run();
  EXPECT_EQ(ran, 1);
}

TEST(PdesTest, RunRequiresLookahead) {
  ParallelEngine pdes(2, config(1, 0));
  pdes.post(0, 0, 1, [] {});
  EXPECT_THROW(pdes.run(), std::logic_error);
}

TEST(PdesTest, DeterministicAcrossThreadCounts) {
  const auto serial = run_ring(1, 16, 300, 0xC0FFEE, 40);
  const auto par2 = run_ring(2, 16, 300, 0xC0FFEE, 40);
  const auto par8 = run_ring(8, 16, 300, 0xC0FFEE, 40);
  EXPECT_EQ(serial, par2);
  EXPECT_EQ(serial, par8);
  // Two chains on a 40-domain ring: each window holds one or two busy
  // domains, so workers skip most domains and turn the window barrier
  // thousands of times.
  const auto sparse = run_ring(1, 40, 300, 0xBEEF, 3000, 2);
  EXPECT_EQ(sparse, run_ring(2, 40, 300, 0xBEEF, 3000, 2));
  EXPECT_EQ(sparse, run_ring(4, 40, 300, 0xBEEF, 3000, 2));
}

TEST(PdesTest, ThreadCountCapsAtDomainCount) {
  // More workers than domains must neither deadlock the barrier nor change
  // results (the pool is sized min(threads, domains)).
  const auto serial = run_ring(1, 3, 100, 7, 25);
  const auto par16 = run_ring(16, 3, 100, 7, 25);
  EXPECT_EQ(serial, par16);
}

TEST(PdesTest, CancelAcrossBarrierWindows) {
  ParallelEngine pdes(2, config(2, 50));
  int fired = 0;
  // Victim sits several windows out in domain 0's own future.
  Engine::EventId victim =
      pdes.domain(0).schedule_at(400, [&fired] { ++fired; });
  // A domain-0 event in an earlier window cancels it: same-calendar cancel
  // across a barrier is legal and must survive the window protocol.
  pdes.post(0, 0, 10, [&pdes, &victim] { pdes.domain(0).cancel(victim); });
  // Keep domain 1 busy across the same windows so barriers actually turn.
  pdes.post(1, 1, 30, [&pdes, &fired] {
    ++fired;
    pdes.post(1, 1, 390, [&fired] { ++fired; });
  });
  pdes.run();
  EXPECT_EQ(fired, 2) << "only domain 1's two events may fire";
  EXPECT_FALSE(victim.valid());
  EXPECT_EQ(pdes.domain(0).executed(), 1u);
}

TEST(PdesTest, ForeignCancelReportedUnderStrictChecker) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kStrict);
  const DomainId d0 = checker.add_domain("node0");
  const DomainId d1 = checker.add_domain("node1");
  ParallelEngine pdes(2, config(1, 100));
  pdes.domain(0).bind_domain_checker(&checker, d0);
  pdes.domain(1).bind_domain_checker(&checker, d1);

  Engine::EventId ev = pdes.domain(0).schedule_at(10, [] {});
  EXPECT_THROW(pdes.domain(1).cancel(ev), DomainError)
      << "a handle minted by domain 0 presented to domain 1's calendar";
  EXPECT_EQ(checker.total(), 1u);

  // collect mode records without throwing; the foreign event stays live.
  checker.set_mode(DomainCheckMode::kCollect);
  Engine::EventId ev2 = pdes.domain(0).schedule_at(20, [] {});
  pdes.domain(1).cancel(ev2);
  EXPECT_EQ(checker.total(), 2u);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations().back().owner, d0);
  EXPECT_EQ(checker.violations().back().active, d1);
  EXPECT_EQ(pdes.domain(0).pending(), 2u)
      << "foreign cancels never touch the owning calendar";

  // off mode: the historical silent no-op.
  checker.set_mode(DomainCheckMode::kOff);
  Engine::EventId ev3 = pdes.domain(0).schedule_at(30, [] {});
  pdes.domain(1).cancel(ev3);
  EXPECT_EQ(checker.total(), 2u);
}

TEST(PdesTest, WorkerExceptionPropagatesLowestDomainFirst) {
  for (const unsigned threads : {1u, 4u}) {
    ParallelEngine pdes(4, config(threads, 100));
    for (DomainId d = 0; d < 4; ++d) {
      pdes.post(d, d, 10, [d] {
        throw std::runtime_error("boom " + std::to_string(d));
      });
    }
    try {
      pdes.run();
      FAIL() << "expected the domain exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 0") << "lowest domain id wins, as serial";
    }
    EXPECT_FALSE(pdes.running());
  }
}

TEST(PdesTest, ThreadsFromEnv) {
  setenv("TFSIM_PDES", "8", 1);
  EXPECT_EQ(PdesConfig::threads_from_env(), 8u);
  setenv("TFSIM_PDES", "off", 1);
  EXPECT_EQ(PdesConfig::threads_from_env(), 0u);
  setenv("TFSIM_PDES", "-1", 1);
  EXPECT_EQ(PdesConfig::threads_from_env(), 0u) << "negatives reject to off";
  setenv("TFSIM_PDES", "junk", 1);
  EXPECT_EQ(PdesConfig::threads_from_env(), 0u);
  setenv("TFSIM_PDES", "1000000", 1);
  EXPECT_EQ(PdesConfig::threads_from_env(), kMaxEnvThreads);
  setenv("TFSIM_PDES", "0", 1);
  EXPECT_GE(PdesConfig::threads_from_env(), 1u) << "0 = hardware concurrency";
  unsetenv("TFSIM_PDES");
  EXPECT_EQ(PdesConfig::threads_from_env(), 0u);
}

}  // namespace
}  // namespace tfsim::sim
