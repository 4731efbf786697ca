#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace tfsim::sim {

void OnlineStats::add(double x) {
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) {
  // Empty-operand guards are load-bearing: without them the Chan update
  // below divides by nt == 0 (NaN poisoning mean_/m2_ forever) and the
  // +/-infinity min_/max_ sentinels of an empty side would win the
  // min/max fold.  These merges run at every PDES barrier when per-domain
  // stats are combined, where empty domains are routine — regression
  // tests: StatsTest.Merge{BothEmpty,EmptyIntoFull,FullIntoEmpty}.
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double d = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += d * nb / nt;
  m2_ += other.m2_ + d * d * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

// ---------------------------------------------------------------------------

std::size_t Histogram::bucket_index(double value) {
  // Values at or below the smallest representable octave (and NaN) collapse
  // into bucket 0; everything in (2^-kNegOctaves, 2^kPosOctaves) gets log2
  // bucketing, including the sub-unit range quantiles used to be blind to.
  if (!(value >= std::ldexp(1.0, -kNegOctaves))) return 0;
  auto octave = static_cast<int>(std::floor(std::log2(value)));
  if (octave >= kPosOctaves) octave = kPosOctaves - 1;
  if (octave < -kNegOctaves) octave = -kNegOctaves;
  // Position within the octave: value / 2^octave in [1, 2).
  const double frac = value / std::ldexp(1.0, octave) - 1.0;
  auto sub = static_cast<std::size_t>(frac * (1u << kSubBucketBits));
  if (sub >= (1u << kSubBucketBits)) sub = (1u << kSubBucketBits) - 1;
  return (static_cast<std::size_t>(octave + kNegOctaves) << kSubBucketBits) +
         sub;
}

void Histogram::cover(std::size_t lo, std::size_t hi) {
  if (buckets_.empty()) {
    first_ = lo;
    buckets_.assign(hi - lo + 1, 0);
    return;
  }
  if (lo < first_) {
    buckets_.insert(buckets_.begin(), first_ - lo, 0);
    first_ = lo;
  }
  if (hi >= first_ + buckets_.size()) buckets_.resize(hi - first_ + 1, 0);
}

void Histogram::add_count(double value, std::uint64_t count) {
  if (count == 0) return;
  if (total_ == 0) {
    raw_min_ = value;
    raw_max_ = value;
  } else {
    raw_min_ = std::min(raw_min_, value);
    raw_max_ = std::max(raw_max_, value);
  }
  const std::size_t idx = bucket_index(value);
  cover(idx, idx);
  buckets_[idx - first_] += count;
  total_ += count;
  sum_ += value * static_cast<double>(count);
}

void Histogram::merge(const Histogram& other) {
  // Same empty-operand discipline as OnlineStats::merge: an empty side
  // must neither leak its raw_min_/raw_max_ placeholders (0.0 here, not
  // infinities) nor perturb sum_/total_.
  if (other.total_ == 0) return;
  if (total_ == 0) {
    raw_min_ = other.raw_min_;
    raw_max_ = other.raw_max_;
  } else {
    raw_min_ = std::min(raw_min_, other.raw_min_);
    raw_max_ = std::max(raw_max_, other.raw_max_);
  }
  cover(other.first_, other.first_ + other.buckets_.size() - 1);
  const std::size_t offset = other.first_ - first_;
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[offset + i] += other.buckets_[i];
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  buckets_.clear();
  first_ = 0;
  total_ = 0;
  sum_ = 0.0;
  raw_min_ = 0.0;
  raw_max_ = 0.0;
}

double Histogram::min() const { return total_ ? raw_min_ : 0.0; }
double Histogram::max() const { return total_ ? raw_max_ : 0.0; }
double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
  std::uint64_t seen = 0;
  for (std::size_t j = 0; j < buckets_.size(); ++j) {
    if (buckets_[j] == 0) continue;
    seen += buckets_[j];
    if (seen >= rank) {
      const std::size_t i = first_ + j;
      // Interpolate within the bucket instead of returning its midpoint:
      // with log2 buckets a midpoint answer can misreport sparse tail
      // quantiles (p999) by up to the bucket width.  Model the in-bucket
      // samples as uniform and place the k-th of c at (k - 0.5)/c of the
      // bucket span.
      const auto octave = static_cast<int>(i >> kSubBucketBits) - kNegOctaves;
      const auto sub = i & ((1u << kSubBucketBits) - 1);
      const double base = std::ldexp(1.0, octave);
      const double width = base / (1u << kSubBucketBits);
      const double lower = base + static_cast<double>(sub) * width;
      const std::uint64_t before = seen - buckets_[j];
      const double pos_in_bucket =
          (static_cast<double>(rank - before) - 0.5) /
          static_cast<double>(buckets_[j]);
      return std::clamp(lower + pos_in_bucket * width, raw_min_, raw_max_);
    }
  }
  return raw_max_;
}

std::string Histogram::summary() const {
  std::ostringstream os;
  os << "n=" << total_ << " mean=" << mean() << " p50=" << p50()
     << " p99=" << p99() << " min=" << min() << " max=" << max();
  return os.str();
}

// ---------------------------------------------------------------------------

double RateMeter::bytes_per_sec(std::uint64_t interval_ps) const {
  if (interval_ps == 0) return 0.0;
  return static_cast<double>(bytes_) /
         (static_cast<double>(interval_ps) * 1e-12);
}

LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) {
    // Mismatched series are a caller bug; silently truncating used to fit a
    // line through accidentally re-paired points.
    throw std::invalid_argument("linear_fit: x and y must have equal length");
  }
  LinearFit fit;
  const std::size_t n = x.size();
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace tfsim::sim
