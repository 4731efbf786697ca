// Unit tests for the runtime domain-ownership checker (sim/domain.hpp):
// guard stacking, handle binding, strict/collect/off modes, and violation
// report contents.  Cluster-level wiring is covered by
// tests/node/domain_cluster_test.cpp.
#include "sim/domain.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "sim/engine.hpp"

namespace tfsim::sim {
namespace {

struct Counter {
  int value = 0;
  void bump() {
    TFSIM_DOMAIN_TOUCH("Counter::bump");
    ++value;
  }
  TFSIM_DOMAIN_OWNED
};

TEST(DomainCheckerTest, UnboundHandleIsAlwaysFree) {
  Counter c;
  EXPECT_FALSE(c.tfsim_domain().bound());
  c.bump();  // no checker: must not throw regardless of guards elsewhere
  EXPECT_EQ(c.value, 1);
}

TEST(DomainCheckerTest, TouchOutsideAnyGuardIsUnchecked) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kStrict);
  const DomainId d = checker.add_domain("node0");
  Counter c;
  c.tfsim_domain().bind(checker, d, "node0/counter");
  // Setup/teardown code pokes objects directly without declaring a domain;
  // ownership is an event-dispatch invariant only.
  EXPECT_NO_THROW(c.bump());
  EXPECT_TRUE(checker.clean());
}

TEST(DomainCheckerTest, MatchingGuardPasses) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kStrict);
  const DomainId d = checker.add_domain("node0");
  Counter c;
  c.tfsim_domain().bind(checker, d, "node0/counter");
  const DomainGuard g(&checker, d, "test");
  EXPECT_NO_THROW(c.bump());
  EXPECT_TRUE(checker.clean());
}

TEST(DomainCheckerTest, StrictModeThrowsOnCrossDomainTouch) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kStrict);
  const DomainId owner = checker.add_domain("lender");
  const DomainId other = checker.add_domain("borrower");
  Counter c;
  c.tfsim_domain().bind(checker, owner, "lender/counter");
  const DomainGuard g(&checker, other, "ctx:miss");
  EXPECT_THROW(c.bump(), DomainError);
  EXPECT_EQ(checker.total(), 1u);
}

TEST(DomainCheckerTest, CollectModeAccumulatesWithFullContext) {
  Engine engine;
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kCollect);
  checker.bind_engine(&engine);
  const DomainId owner = checker.add_domain("lender1");
  const DomainId other = checker.add_domain("borrower");
  Counter c;
  c.tfsim_domain().bind(checker, owner, "lender1/counter");

  // Advance the engine so the violation captures a non-trivial event
  // context.
  engine.schedule_at(sim::from_us(1.0), [] {});
  engine.schedule_at(sim::from_us(2.0), [] {});
  engine.run();
  ASSERT_EQ(engine.executed(), 2u);

  {
    const DomainGuard g(&checker, other, "ctx:miss");
    EXPECT_NO_THROW(c.bump());
    EXPECT_NO_THROW(c.bump());
  }
  EXPECT_FALSE(checker.clean());
  ASSERT_EQ(checker.total(), 2u);
  const DomainViolation& v = checker.violations().front();
  EXPECT_EQ(v.object, "lender1/counter");
  EXPECT_EQ(v.what, "Counter::bump");
  EXPECT_EQ(v.owner, owner);
  EXPECT_EQ(v.active, other);
  EXPECT_EQ(v.owner_name, "lender1");
  EXPECT_EQ(v.active_name, "borrower");
  EXPECT_EQ(v.guard_label, "ctx:miss");
  EXPECT_EQ(v.when, sim::from_us(2.0));
  EXPECT_EQ(v.event_index, 2u);
  // The rendered report names everything a PDES debugging session needs.
  const std::string s = v.to_string();
  EXPECT_NE(s.find("lender1/counter"), std::string::npos) << s;
  EXPECT_NE(s.find("Counter::bump"), std::string::npos) << s;
  EXPECT_NE(s.find("borrower"), std::string::npos) << s;
  EXPECT_NE(s.find("ctx:miss"), std::string::npos) << s;
  EXPECT_NE(s.find("event #2"), std::string::npos) << s;
}

TEST(DomainCheckerTest, OffModeDisablesEverything) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kOff);
  const DomainId owner = checker.add_domain("a");
  const DomainId other = checker.add_domain("b");
  Counter c;
  c.tfsim_domain().bind(checker, owner, "a/counter");
  const DomainGuard g(&checker, other, "x");
  EXPECT_NO_THROW(c.bump());
  EXPECT_TRUE(checker.clean());
  // Off-mode guards do not even push (the guard went inert).
  EXPECT_FALSE(checker.in_guard());
}

TEST(DomainCheckerTest, InnermostGuardWins) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kStrict);
  const DomainId borrower = checker.add_domain("borrower");
  const DomainId lender = checker.add_domain("lender");
  Counter c;
  c.tfsim_domain().bind(checker, lender, "lender/counter");
  const DomainGuard outer(&checker, borrower, "ctx:miss");
  EXPECT_THROW(c.bump(), DomainError);
  {
    // The NIC's network-boundary handoff: nesting a lender guard makes the
    // lender-side mutation legal again.
    const DomainGuard inner(&checker, lender, "net:deliver");
    EXPECT_NO_THROW(c.bump());
    EXPECT_EQ(checker.guard_depth(), 2u);
  }
  EXPECT_THROW(c.bump(), DomainError);
}

TEST(DomainCheckerTest, CollectReportsInnermostLabelOfNestedGuards) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kCollect);
  const DomainId borrower = checker.add_domain("borrower");
  const DomainId lender = checker.add_domain("lender");
  const DomainId third = checker.add_domain("third");
  Counter c;
  c.tfsim_domain().bind(checker, lender, "lender/counter");
  {
    const DomainGuard outer(&checker, borrower, "ctx:miss");
    {
      const DomainGuard middle(&checker, lender, "net:deliver");
      const DomainGuard inner(&checker, third, "test:inner");
      c.bump();
    }
    c.bump();
  }
  EXPECT_FALSE(checker.in_guard());
  ASSERT_EQ(checker.violations().size(), 2u);
  EXPECT_EQ(checker.violations()[0].guard_label, "test:inner");
  EXPECT_EQ(checker.violations()[0].active_name, "third");
  EXPECT_EQ(checker.violations()[1].guard_label, "ctx:miss")
      << "popping the inner guards restores the outer label";
}

// Labels are kept by pointer for the guard's lifetime, so only literals and
// arrays bind: a c_str() of a temporary must not compile.
static_assert(std::is_constructible_v<DomainGuard, DomainChecker*, DomainId,
                                      const char (&)[6]>);
static_assert(!std::is_constructible_v<DomainGuard, DomainChecker*, DomainId,
                                       const char*>);
static_assert(!std::is_constructible_v<DomainGuard, DomainChecker*, DomainId,
                                       std::string>);

TEST(DomainCheckerTest, NullCheckerGuardIsInert) {
  const DomainGuard g(nullptr, 3, "standalone");
  SUCCEED();  // construction and destruction must be no-ops
}

TEST(DomainCheckerTest, ClearResetsCollectState) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kCollect);
  const DomainId owner = checker.add_domain("a");
  const DomainId other = checker.add_domain("b");
  Counter c;
  c.tfsim_domain().bind(checker, owner, "a/c");
  {
    const DomainGuard g(&checker, other, "x");
    c.bump();
  }
  EXPECT_EQ(checker.total(), 1u);
  checker.clear();
  EXPECT_TRUE(checker.clean());
  EXPECT_TRUE(checker.violations().empty());
}

TEST(DomainCheckerTest, StoredViolationsAreCapped) {
  DomainChecker checker;
  checker.set_mode(DomainCheckMode::kCollect);
  const DomainId owner = checker.add_domain("a");
  const DomainId other = checker.add_domain("b");
  Counter c;
  c.tfsim_domain().bind(checker, owner, "a/c");
  const DomainGuard g(&checker, other, "x");
  for (int i = 0; i < 300; ++i) c.bump();
  EXPECT_EQ(checker.total(), 300u);
  EXPECT_EQ(checker.violations().size(), 256u) << "storage is capped";
}

TEST(DomainCheckerTest, UnknownDomainNameRendersPlaceholder) {
  DomainChecker checker;
  EXPECT_EQ(checker.domain_name(kNoDomain), "<none>");
}

}  // namespace
}  // namespace tfsim::sim
