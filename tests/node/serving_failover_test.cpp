// Serving harness on a real Cluster: a compressed serving_diurnal cycle
// with the lender killed at the peak.  Pins the reactive re-placement
// contract -- every source whose primary died walks its precomputed chain
// onto the survivor -- and the request ledger: zero unaccounted requests
// across completion, shedding, QoS rejection, and timeout-driven failover.
#include <gtest/gtest.h>

#include "checked_in_scenario.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"

namespace tfsim::node {
namespace {

scenario::ScenarioSpec compressed_serving() {
  auto spec = checked_in_scenario("serving_diurnal");
  spec.traffic.duration_us = 2000.0;
  spec.traffic.diurnal_period_us = 2000.0;
  spec.faults.kill_at_us = 1000.0;
  spec.slo.window_us = 500.0;
  return spec;
}

TEST(ServingFailoverTest, KillLenderMidRunLeavesNoRequestUnaccounted) {
  auto spec = compressed_serving();
  Cluster cluster(spec);
  const core::ServingReport rep = core::run_serving(cluster);

  // The conservation law, at full drain: every offered request ended in
  // exactly one terminal bucket.
  EXPECT_TRUE(rep.balanced);
  EXPECT_EQ(rep.totals.in_flight, 0u);
  EXPECT_EQ(rep.totals.queued, 0u);
  EXPECT_EQ(rep.totals.offered, rep.totals.completed + rep.totals.shed +
                                    rep.totals.rejected + rep.totals.failed);

  // The kill actually bit: requests in flight to the dead lender timed out
  // (failed > 0) and their sources retargeted along the precomputed chain.
  EXPECT_GT(rep.totals.completed, 0u);
  EXPECT_GT(rep.totals.failed, 0u);
  EXPECT_GT(rep.failovers, 0u);

  // Traffic keeps completing after the kill: the last SLO window before
  // the drain tail still completed requests on the surviving lender.
  ASSERT_GE(rep.windows.size(), 3u);
  EXPECT_GT(rep.windows[rep.windows.size() - 2].completed, 0u);
}

TEST(ServingFailoverTest, FailoverLandsOnSurvivorAndQosStillArbitrates) {
  auto spec = compressed_serving();
  Cluster cluster(spec);
  const core::ServingReport rep = core::run_serving(cluster);

  // serving_diurnal places frontend on lender0 (killed) and batch on
  // lender1: only frontend sources fail over, batch rides through.
  ASSERT_EQ(rep.tenants.size(), 2u);
  const auto& frontend = rep.tenants[0];
  const auto& batch = rep.tenants[1];
  EXPECT_EQ(frontend.name, "frontend");
  EXPECT_GT(frontend.failovers, 0u);
  EXPECT_GT(frontend.totals.failed, 0u) << "in-flight at the kill time out";
  EXPECT_EQ(batch.failovers, 0u) << "survivor's tenant never retargets";
  EXPECT_EQ(batch.totals.failed, 0u);

  // The diurnal peak oversubscribes the per-lender credit gate, so both
  // tenants saw deterministic QoS rejections -- and the weighted gate let
  // the weight-3 frontend complete a multiple of batch's share.
  EXPECT_GT(rep.totals.rejected, 0u);
  EXPECT_GT(frontend.totals.completed, batch.totals.completed);
}

TEST(ServingFailoverTest, ReportIsAPureFunctionOfTheSpec) {
  auto spec = compressed_serving();
  Cluster a(spec);
  Cluster b(spec);
  const core::ServingReport ra = core::run_serving(a);
  const core::ServingReport rb = core::run_serving(b);
  EXPECT_EQ(ra.serialized, rb.serialized);
  EXPECT_EQ(ra.digest, rb.digest);
}

TEST(ServingFailoverTest, RunServingRequiresTrafficAndPdes) {
  auto plain = scenario::paper_two_node();
  Cluster no_traffic(plain);
  EXPECT_THROW(core::run_serving(no_traffic), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim::node
