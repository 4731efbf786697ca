#include "mem/hierarchy.hpp"

#include <stdexcept>

namespace tfsim::mem {

CacheHierarchy::CacheHierarchy(const std::vector<LevelConfig>& levels) {
  if (levels.empty()) {
    throw std::invalid_argument("CacheHierarchy: needs at least one level");
  }
  levels_.reserve(levels.size());
  for (const auto& lc : levels) {
    levels_.emplace_back(lc.cache, lc.name);
    latencies_.push_back(lc.latency);
  }
}

CacheHierarchy::Result CacheHierarchy::access(Addr addr, bool write) {
  TFSIM_DOMAIN_TOUCH("CacheHierarchy::access");
  Result res;
  const auto n = levels_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = levels_[i].access(addr, write);
    if (r.hit) {
      // Levels inward of the hit already allocated the line (loop order),
      // so stop probing outward.
      res.hit_level = static_cast<int>(i);
      res.latency = latencies_[i];
      return res;
    }
    // Miss at level i: the line was allocated there; a dirty victim from the
    // last level leaves the hierarchy entirely.
    if (r.writeback && i + 1 == n) res.memory_writebacks.set(r.victim_line);
  }
  return res;  // hit_level == -1: miss to memory
}

void CacheHierarchy::invalidate(Addr addr) {
  TFSIM_DOMAIN_TOUCH("CacheHierarchy::invalidate");
  for (auto& l : levels_) l.invalidate(addr);
}

std::uint64_t CacheHierarchy::invalidate_range(const Range& range) {
  TFSIM_DOMAIN_TOUCH("CacheHierarchy::invalidate_range");
  std::uint64_t dropped = 0;
  for (auto& l : levels_) dropped += l.invalidate_range(range);
  return dropped;
}

void CacheHierarchy::flush() {
  TFSIM_DOMAIN_TOUCH("CacheHierarchy::flush");
  for (auto& l : levels_) l.flush();
}

std::uint64_t CacheHierarchy::total_capacity() const {
  std::uint64_t total = 0;
  for (const auto& l : levels_) total += l.config().size_bytes;
  return total;
}

std::vector<LevelConfig> power9_like_hierarchy() {
  using sim::from_ns;
  return {
      LevelConfig{CacheConfig{32 * sim::kKiB, 8, kCacheLineBytes,
                              Replacement::kLru},
                  from_ns(1.2), "L1D"},
      LevelConfig{CacheConfig{512 * sim::kKiB, 8, kCacheLineBytes,
                              Replacement::kLru},
                  from_ns(4.0), "L2"},
      // POWER9's 120 MiB L3 is 10 MiB-per-core victim slices, not one
      // global LRU pool: a thread keeps fast access to its own slice and
      // only lazily spills to remote slices, so the capacity that behaves
      // like a cache for one application context is a couple of slices.
      // Pseudo-random replacement models how streaming traffic displaces
      // hot lines inside a slice.
      LevelConfig{CacheConfig{10 * sim::kMiB, 20, kCacheLineBytes,
                              Replacement::kRandom},
                  from_ns(28.0), "L3"},
  };
}

}  // namespace tfsim::mem
