// Chaos timeline end-to-end on the 8x4 leaf/spine rack: a compressed
// chaos_rack run must exercise every event kind, the detector path must
// migrate off the gray lender (and rejoin after it recovers) while the
// timeout-only baseline stays pinned on it, and the whole reactive loop
// must stay byte-identical between the serial engine and a 4-worker PDES
// run -- chaos is windows, not mutations, so determinism survives it.
#include <gtest/gtest.h>

#include <stdexcept>

#include "checked_in_scenario.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"

namespace tfsim::node {
namespace {

/// chaos_rack at half duration: every chaos event (gray lender, recover,
/// port brownout, switch kill, recover) lands inside the shortened horizon
/// because the timeline scales with the traffic.
scenario::ScenarioSpec compressed_chaos(std::uint32_t threads) {
  auto spec = checked_in_scenario("chaos_rack");
  const double scale = 0.5;
  spec.traffic.duration_us *= scale;
  spec.slo.window_us *= scale;
  for (scenario::ChaosEventSpec& ev : spec.chaos.events) {
    ev.at_us *= scale;
    ev.for_us *= scale;
  }
  spec.pdes.threads = threads;
  return spec;
}

core::ServingReport run(const scenario::ScenarioSpec& spec) {
  Cluster cluster(spec);
  return core::run_serving(cluster);
}

TEST(ServingChaosTest, DetectorMigratesRestripesAndRejoins) {
  const core::ServingReport rep = run(compressed_chaos(1));

  EXPECT_TRUE(rep.balanced);
  EXPECT_GT(rep.totals.completed, 0u);

  // The gray window bit (inflated completions happened), the detector saw
  // through it (migrations off the gray primary), the kill/brownout bit
  // the fabric (chaos drops at the switches, restripes around them), and
  // the recover event let sources win their primary back via probes.
  EXPECT_GT(rep.gray_inflated, 0u);
  EXPECT_GT(rep.failovers, 0u);
  EXPECT_GT(rep.restripes, 0u);
  EXPECT_GT(rep.rejoins, 0u);
  EXPECT_GT(rep.switch_chaos_drops, 0u);
}

TEST(ServingChaosTest, TimeoutOnlyBaselineStaysPinnedOnGrayLender) {
  auto on_spec = compressed_chaos(1);
  auto off_spec = on_spec;
  off_spec.detector.enabled = false;

  const core::ServingReport on = run(on_spec);
  const core::ServingReport off = run(off_spec);

  ASSERT_TRUE(on.balanced);
  ASSERT_TRUE(off.balanced);

  // Restripes and rejoins are detector verbs: without it the baseline has
  // no reaction to a gray lender that never times out.
  EXPECT_EQ(off.restripes, 0u);
  EXPECT_EQ(off.rejoins, 0u);
  // So the baseline keeps sending into the inflation window and completes
  // strictly more gray-inflated requests than the detector run, which
  // migrated away early in the window.
  EXPECT_GT(off.gray_inflated, on.gray_inflated);
}

TEST(ServingChaosTest, SerialAndPdesRunsAreByteIdentical) {
  const core::ServingReport serial = run(compressed_chaos(1));
  const core::ServingReport pdes = run(compressed_chaos(4));

  // The comparison only certifies what actually happened: a run where the
  // reactive path never fired would prove nothing about its determinism.
  ASSERT_GT(serial.restripes, 0u);
  ASSERT_GT(serial.failovers, 0u);
  EXPECT_EQ(serial.serialized, pdes.serialized);
  EXPECT_EQ(serial.digest, pdes.digest);
}

TEST(ServingChaosTest, GrayLenderRequiresCappedLenderService) {
  auto spec = compressed_chaos(1);
  // An uncapped lender (no service time) has nothing for gray inflation to
  // stretch: run_serving must reject the combination loudly instead of
  // silently simulating a no-op chaos event.
  spec.traffic.lender_capacity_rps = 0.0;
  Cluster cluster(spec);
  EXPECT_THROW(core::run_serving(cluster), std::invalid_argument);
}

}  // namespace
}  // namespace tfsim::node
