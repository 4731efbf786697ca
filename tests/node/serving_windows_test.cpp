// PDES window counts on the shipped serving scenarios.  The serving tier
// runs every request over post_routed hops on a 22-domain ParallelEngine,
// so the window sequence is where an error in the incremental window open
// would show first: a domain whose next event time went stale would open a
// window late (changing the count) or run an event out of order (changing
// the report).  Both numbers were recorded from the full-rescan window open
// and must not move at any worker count.  Checked with EXPECT, not assert:
// the default and sanitizer builds define NDEBUG.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "checked_in_scenario.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"

namespace tfsim::node {
namespace {

struct WindowRun {
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

WindowRun run_scenario(const std::string& name, unsigned threads) {
  auto spec = checked_in_scenario(name);
  spec.pdes.threads = threads;
  Cluster cluster(spec);
  const core::ServingReport rep = core::run_serving(cluster);
  WindowRun r;
  if (const sim::ParallelEngine* pdes = cluster.pdes()) {
    r.windows = pdes->windows();
    r.events = pdes->executed();
  }
  r.digest = rep.digest;
  return r;
}

void expect_recorded(const std::string& name, const WindowRun& recorded) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    const WindowRun r = run_scenario(name, threads);
    EXPECT_EQ(r.windows, recorded.windows) << name << " threads=" << threads;
    EXPECT_EQ(r.events, recorded.events) << name << " threads=" << threads;
    EXPECT_EQ(r.digest, recorded.digest) << name << " threads=" << threads;
  }
}

TEST(ServingWindowsTest, ServingDiurnalWindowCountAndDigest) {
  expect_recorded("serving_diurnal", {54855, 224399, 13776253415887235083ULL});
}

TEST(ServingWindowsTest, ChaosRackWindowCountAndDigest) {
  expect_recorded("chaos_rack", {21553, 29799, 8005283732063834266ULL});
}

}  // namespace
}  // namespace tfsim::node
