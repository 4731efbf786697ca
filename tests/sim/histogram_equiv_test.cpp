// Histogram storage equivalence: the histogram stores only the span of
// buckets its samples touched, and every statistic must stay bit-identical
// to the full-range layout it replaced.  The expected strings were recorded
// from the full-range implementation on the same seeded sample sets; the
// doubles are printed as hexfloats, so any drift in a single bit fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace tfsim::sim {
namespace {

std::string fingerprint(const Histogram& h) {
  std::ostringstream os;
  os << std::hexfloat << "n=" << h.count() << " min=" << h.min()
     << " max=" << h.max() << " mean=" << h.mean() << " p50=" << h.p50()
     << " p99=" << h.p99() << " p999=" << h.p999();
  return os.str();
}

Histogram exponential_latencies(std::uint64_t seed) {
  Rng rng(seed);
  Histogram h;
  for (int i = 0; i < 20000; ++i) h.add(rng.exponential(40.0));
  return h;
}

// Ratios and GB/s figures: everything below 1, across many octaves.
Histogram sub_unit(std::uint64_t seed) {
  Rng rng(seed);
  Histogram h;
  for (int i = 0; i < 5000; ++i) h.add(rng.lognormal(-6.0, 2.0));
  return h;
}

// Heavy tail spanning ~40 octaves, with weighted samples.
Histogram heavy_tail(std::uint64_t seed) {
  Rng rng(seed);
  Histogram h;
  for (int i = 0; i < 3000; ++i) {
    h.add_count(rng.pareto(1.0, 0.6), 1 + rng.uniform_u64(4));
  }
  return h;
}

TEST(HistogramEquivalenceTest, SeededSampleSetsMatchFullRangeLayout) {
  EXPECT_EQ(fingerprint(exponential_latencies(11)),
            "n=20000 min=0x1.0e0e03902742p-11 max=0x1.085a4cdfa1d42p+9 "
            "mean=0x1.3e2d34fa44f73p+5 p50=0x1.bb03159721ed8p+4 p99=0x1.71p+7 "
            "p999=0x1.0f55555555555p+8");
  EXPECT_EQ(fingerprint(exponential_latencies(12)),
            "n=20000 min=0x1.d862193062675p-12 max=0x1.4f153a61f8cd5p+8 "
            "mean=0x1.3eb2d9219aa05p+5 p50=0x1.ba55555555555p+4 "
            "p99=0x1.6827627627627p+7 p999=0x1.06p+8");
  EXPECT_EQ(fingerprint(sub_unit(13)),
            "n=5000 min=0x1.c27bb0453a3ep-20 max=0x1.ebca819f404b1p+1 "
            "mean=0x1.2016fec90282bp-6 p50=0x1.52p-9 p99=0x1.dfp-3 "
            "p999=0x1.13p+0");
  EXPECT_EQ(fingerprint(heavy_tail(14)),
            "n=7419 min=0x1.000be772a8e84p+0 max=0x1.a809905af4eebp+16 "
            "mean=0x1.3ef8a366c03d3p+7 p50=0x1.8e4bda12f684cp+1 "
            "p99=0x1.dccp+10 p999=0x1.8caaaaaaaaaabp+14");
}

TEST(HistogramEquivalenceTest, MergingDisjointRanges) {
  // Low range first, then a high range far above it, then one far below:
  // the stored span must grow on both sides.
  Rng rng(21);
  Histogram mid, high, low;
  for (int i = 0; i < 2000; ++i) mid.add(rng.uniform(1.0, 2.0));
  for (int i = 0; i < 500; ++i) high.add(rng.uniform(1e9, 4e9));
  for (int i = 0; i < 700; ++i) low.add(rng.uniform(1e-6, 3e-6));
  Histogram merged = mid;
  merged.merge(high);
  merged.merge(low);
  EXPECT_EQ(fingerprint(merged),
            "n=3200 min=0x1.0e62077acfdb9p-20 max=0x1.dc69ce2b2e70ap+31 "
            "mean=0x1.749b85c575a4dp+28 p50=0x1.70c8590b21643p+0 "
            "p99=0x1.c2p+31 p999=0x1.da55555555555p+31");

  // The same samples added one by one into a single histogram: identical
  // buckets, so identical quantiles; the mean differs in its last bits
  // only because the sum is accumulated in a different order.
  Rng again(21);
  Histogram direct;
  for (int i = 0; i < 2000; ++i) direct.add(again.uniform(1.0, 2.0));
  for (int i = 0; i < 500; ++i) direct.add(again.uniform(1e9, 4e9));
  for (int i = 0; i < 700; ++i) direct.add(again.uniform(1e-6, 3e-6));
  EXPECT_EQ(fingerprint(direct),
            "n=3200 min=0x1.0e62077acfdb9p-20 max=0x1.dc69ce2b2e70ap+31 "
            "mean=0x1.749b85c575a45p+28 p50=0x1.70c8590b21643p+0 "
            "p99=0x1.c2p+31 p999=0x1.da55555555555p+31");
}

TEST(HistogramEquivalenceTest, MergingIntoAndFromEmpty) {
  const Histogram full = exponential_latencies(31);
  Histogram into_empty;
  into_empty.merge(full);
  EXPECT_EQ(fingerprint(into_empty), fingerprint(full));
  EXPECT_EQ(fingerprint(into_empty),
            "n=20000 min=0x1.c9722e5557e97p-9 max=0x1.9c8ce6c63167dp+8 "
            "mean=0x1.40e9e82b0a158p+5 p50=0x1.b9ad2d2d2d2d3p+4 "
            "p99=0x1.77p+7 p999=0x1.0bp+8");

  Histogram from_empty = full;
  from_empty.merge(Histogram{});
  EXPECT_EQ(fingerprint(from_empty), fingerprint(full));

  Histogram both;
  both.merge(Histogram{});
  EXPECT_EQ(fingerprint(both),
            "n=0 min=0x0p+0 max=0x0p+0 mean=0x0p+0 "
                               "p50=0x0p+0 p99=0x0p+0 p999=0x0p+0");
}

TEST(HistogramEquivalenceTest, ResetThenReuse) {
  Histogram h = heavy_tail(41);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  Rng rng(42);
  for (int i = 0; i < 4000; ++i) h.add(rng.uniform(0.25, 0.5));
  EXPECT_EQ(fingerprint(h),
            "n=4000 min=0x1.00044451e8a25p-2 max=0x1.fffb2cbea72c3p-2 "
            "mean=0x1.7f2f6b8a0bb1p-2 p50=0x1.80294a5294a53p-2 "
            "p99=0x1.fd81f81f81f82p-2 p999=0x1.ffb91b91b91b9p-2");
  // A reused histogram reads exactly like a fresh one fed the same values.
  Rng again(42);
  Histogram fresh;
  for (int i = 0; i < 4000; ++i) fresh.add(again.uniform(0.25, 0.5));
  EXPECT_EQ(fingerprint(fresh), fingerprint(h));
}

}  // namespace
}  // namespace tfsim::sim
