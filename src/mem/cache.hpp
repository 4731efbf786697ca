// Set-associative cache model (functional: hit/miss/writeback tracking, no
// data payload).  Write-back, write-allocate, true-LRU replacement.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "mem/address.hpp"

namespace tfsim::mem {

enum class Replacement {
  kLru,     ///< true LRU (small L1/L2 arrays)
  kRandom,  ///< pseudo-random victim (POWER9 L3 victim-cache slices behave
            ///< far closer to this than to global LRU under streaming)
};

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t associativity = 8;
  std::uint32_t line_bytes = kCacheLineBytes;
  Replacement replacement = Replacement::kLru;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / associativity; }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t invalidations = 0;

  std::uint64_t accesses() const { return hits + misses; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits) / static_cast<double>(accesses())
                      : 0.0;
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg, std::string name = "cache");

  struct AccessResult {
    bool hit = false;
    bool writeback = false;   ///< a dirty victim was evicted
    Addr victim_line = 0;     ///< line address of the evicted dirty victim
  };

  /// Access the line containing `addr`; on miss the line is allocated
  /// (write-allocate) and the LRU victim evicted.
  AccessResult access(Addr addr, bool write);

  /// True if the line is present (no state change).
  bool probe(Addr addr) const;

  /// Drop the line if present; returns true (and reports dirtiness) if it
  /// was resident.
  bool invalidate(Addr addr, bool* was_dirty = nullptr);

  /// Invalidate every line in [range) -- used on hot-unplug.
  std::uint64_t invalidate_range(const Range& range);

  void flush();

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  std::uint64_t resident_lines() const;

 private:
  // One packed word per way: (line index << 2) | kDirty | kValid, where the
  // line index is addr / line_bytes.  An invalid way is the all-zero word,
  // so a lookup is one compare per way and storage from calloc starts out
  // empty.  Line indices stay far below 2^62 for any simulated address.
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;

  struct FreeDeleter {
    void operator()(std::uint64_t* p) const {
      std::free(p);  // NOLINT(cppcoreguidelines-no-malloc): pairs with calloc
    }
  };
  /// Zeroed on demand: calloc hands large arrays out as untouched
  /// anonymous pages, so a cache that never runs costs no faults or RSS.
  using Words = std::unique_ptr<std::uint64_t[], FreeDeleter>;
  static Words zeroed_words(std::uint64_t n);

  std::uint64_t set_of(std::uint64_t line_index) const {
    return sets_pow2_ ? (line_index & (sets_count_ - 1))
                      : (line_index % sets_count_);
  }
  /// Way of the set starting at tags_[first] that holds the valid line
  /// `key`, or associativity if none does.
  std::uint32_t find(std::uint64_t first, std::uint64_t key) const;
  /// Way to fill on a miss: the first invalid way, else the LRU stamp
  /// (kLru) or an xorshift pick (kRandom).
  std::uint32_t pick_victim(std::uint64_t first);

  CacheConfig cfg_;
  std::string name_;
  std::uint64_t sets_count_ = 0;
  bool sets_pow2_ = false;
  unsigned line_shift_ = 0;
  Words tags_;    ///< sets_count_ x associativity, row-major
  Words stamps_;  ///< last-touch clock per way, kLru only; smallest = victim
  std::uint64_t clock_ = 0;
  std::uint64_t victim_seed_ = 0x2545F4914F6CDD1DULL;
  CacheStats stats_;
};

}  // namespace tfsim::mem
