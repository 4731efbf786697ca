// Open-loop serving properties (slow tier):
//   * the full serving report -- hence every arrival, dispatch, QoS verdict
//     and failover -- is byte-identical across 1/2/8 PDES workers;
//   * each arrival process's empirical mean inter-arrival time converges to
//     1/rate as the sample count grows;
//   * the offered == completed + shed + rejected + failed + in_flight +
//     queued conservation law holds at every probe point, not just at the
//     end of the run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "checked_in_scenario.hpp"
#include "core/serving.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/units.hpp"
#include "workloads/openloop/arrivals.hpp"
#include "workloads/openloop/generator.hpp"

namespace tfsim::workloads {
namespace {

// The Cluster honors $TFSIM_PDES over the scenario, so pin the requested
// worker count for the duration of one run (and restore afterwards: other
// suites in this binary rely on the ambient setting).
class PdesEnvPin {
 public:
  explicit PdesEnvPin(unsigned threads) {
    const char* old = std::getenv("TFSIM_PDES");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    setenv("TFSIM_PDES", std::to_string(threads).c_str(), 1);
  }
  ~PdesEnvPin() {
    if (had_) {
      setenv("TFSIM_PDES", saved_.c_str(), 1);
    } else {
      unsetenv("TFSIM_PDES");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

core::ServingReport serving_run(unsigned threads, std::uint64_t seed) {
  auto spec = checked_in_scenario("serving_diurnal");
  spec.traffic.seed = seed;
  spec.traffic.duration_us = 2000.0;
  spec.traffic.diurnal_period_us = 2000.0;
  spec.faults.kill_at_us = 1000.0;
  spec.slo.window_us = 500.0;
  spec.pdes.threads = threads;
  PdesEnvPin pin(threads);
  node::Cluster cluster(spec);
  return core::run_serving(cluster);
}

TEST(OpenLoopPdesProperty, ReportByteIdenticalAcross128Workers) {
  for (const std::uint64_t seed : {1ull, 20260808ull, 0xD15EA5Eull}) {
    const core::ServingReport serial = serving_run(1, seed);
    const core::ServingReport two = serving_run(2, seed);
    const core::ServingReport eight = serving_run(8, seed);
    EXPECT_EQ(serial.serialized, two.serialized) << "seed " << seed;
    EXPECT_EQ(serial.serialized, eight.serialized) << "seed " << seed;
    EXPECT_EQ(serial.digest, eight.digest) << "seed " << seed;
    EXPECT_GT(serial.totals.completed, 0u);
    EXPECT_GT(serial.failovers, 0u)
        << "the kill path must be inside the identity claim";
  }
}

class ArrivalConvergenceTest : public ::testing::TestWithParam<ArrivalKind> {};

TEST_P(ArrivalConvergenceTest, MeanInterArrivalConvergesToRate) {
  ArrivalConfig cfg;
  cfg.kind = GetParam();
  cfg.rate_rps = 2e6;  // 2 requests/us -> exact mean gap 0.5 us
  cfg.seed = 41;
  // Whole periods only, so the on/off and sinusoidal modulation averages
  // out exactly; tighter tolerance at larger n is the convergence claim.
  cfg.burst_on_us = 100.0;
  cfg.burst_off_us = 300.0;
  cfg.diurnal_period_us = 1000.0;
  double prev_err = 0.0;
  for (const int n : {20000, 200000}) {
    ArrivalProcess p(cfg);
    sim::Time last = 0;
    for (int i = 0; i < n; ++i) last = p.next();
    const double mean_gap_us = sim::to_us(last) / n;
    const double err = std::abs(mean_gap_us - 0.5) / 0.5;
    EXPECT_LT(err, n >= 200000 ? 0.01 : 0.05)
        << to_string(cfg.kind) << " n=" << n;
    if (n > 20000) {
      EXPECT_LT(err, prev_err + 0.01)
          << "error must not grow with sample count";
    }
    prev_err = err;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArrivalConvergenceTest,
                         ::testing::Values(ArrivalKind::kPoisson,
                                           ArrivalKind::kBursty,
                                           ArrivalKind::kDiurnal),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(OpenLoopLedgerProperty, BalancedAtEveryProbePoint) {
  sim::Engine engine;
  OpenLoopConfig cfg;
  cfg.arrivals.kind = ArrivalKind::kBursty;  // on/off stresses the queue
  cfg.arrivals.rate_rps = 4e6;
  cfg.arrivals.seed = 13;
  cfg.arrivals.burst_on_us = 20.0;
  cfg.arrivals.burst_off_us = 60.0;
  cfg.max_in_flight = 8;
  cfg.queue_depth = 16;
  cfg.stop_at = sim::from_us(2000.0);
  cfg.request_timeout = sim::from_us(40.0);
  // Service is slower than the on-phase offered rate, so the window fills
  // and the queue sheds; every 7th request is swallowed by the sink (a lost
  // frame), so timeouts fire too -- all buckets are live at once.
  OpenLoopSource src(engine, cfg,
                     [&engine](sim::Time, std::uint64_t req_id,
                               OpenLoopSource::CompletionFn done) {
                       if (req_id % 7 == 0) return;  // never answered
                       engine.schedule_in(sim::from_us(1.5), [done, &engine] {
                         done(engine.now(), RequestOutcome::kCompleted);
                       });
                     });
  std::uint64_t probes = 0;
  for (int i = 1; i <= 200; ++i) {
    engine.schedule_at(sim::from_us(10.0) * i, [&] {
      ++probes;
      EXPECT_TRUE(src.counters().balanced())
          << "ledger unbalanced at " << engine.now();
    });
  }
  src.start();
  engine.run();
  ++probes;
  const OpenLoopCounters& c = src.counters();
  EXPECT_TRUE(c.balanced()) << "final drain";
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_EQ(c.queued, 0u);
  EXPECT_EQ(probes, 201u);
  // The scenario genuinely exercised every bucket.
  EXPECT_GT(c.completed, 0u);
  EXPECT_GT(c.shed, 0u);
  EXPECT_GT(c.failed, 0u);
}

}  // namespace
}  // namespace tfsim::workloads
