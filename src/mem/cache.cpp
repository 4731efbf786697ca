#include "mem/cache.hpp"

#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

namespace tfsim::mem {

SetAssocCache::SetAssocCache(const CacheConfig& cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)) {
  if (cfg_.line_bytes == 0 || (cfg_.line_bytes & (cfg_.line_bytes - 1)) != 0) {
    throw std::invalid_argument("cache line size must be a power of two");
  }
  if (cfg_.associativity == 0) {
    throw std::invalid_argument("cache geometry must be non-degenerate");
  }
  sets_count_ = cfg_.num_sets();
  if (sets_count_ == 0) {
    throw std::invalid_argument("cache geometry must be non-degenerate");
  }
  if (cfg_.size_bytes % (static_cast<std::uint64_t>(cfg_.associativity) * cfg_.line_bytes) != 0) {
    throw std::invalid_argument("cache size must divide into sets evenly");
  }
  sets_pow2_ = std::has_single_bit(sets_count_);
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg_.line_bytes));
  tags_ = zeroed_words(cfg_.num_lines());
  // The random-replacement L3 never reads stamps: skip the array entirely.
  if (cfg_.replacement == Replacement::kLru) {
    stamps_ = zeroed_words(cfg_.num_lines());
  }
}

SetAssocCache::Words SetAssocCache::zeroed_words(std::uint64_t n) {
  // calloc, not new[]: value-initialising new[] writes every word, faulting
  // in pages a cache may never touch.
  // NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
  auto* p = static_cast<std::uint64_t*>(std::calloc(n, sizeof(std::uint64_t)));
  if (p == nullptr) throw std::bad_alloc();
  return Words(p);
}

std::uint32_t SetAssocCache::find(std::uint64_t first,
                                  std::uint64_t key) const {
  const std::uint64_t* set = &tags_[first];
  const std::uint32_t ways = cfg_.associativity;
  for (std::uint32_t i = 0; i < ways; ++i) {
    if ((set[i] & ~kDirty) == key) return i;
  }
  return ways;
}

std::uint32_t SetAssocCache::pick_victim(std::uint64_t first) {
  const std::uint64_t* set = &tags_[first];
  const std::uint32_t ways = cfg_.associativity;
  if (stamps_) {
    // One pass: an invalid way wins as soon as it is seen, else the
    // smallest stamp (the first of any tie).
    const std::uint64_t* stamp = &stamps_[first];
    std::uint32_t lru = 0;
    for (std::uint32_t i = 0; i < ways; ++i) {
      if (set[i] == 0) return i;
      if (stamp[i] < stamp[lru]) lru = i;
    }
    return lru;
  }
  for (std::uint32_t i = 0; i < ways; ++i) {
    if (set[i] == 0) return i;  // prefer an invalid way as the victim
  }
  // xorshift victim pick: cheap and stateless per access.
  victim_seed_ ^= victim_seed_ << 13;
  victim_seed_ ^= victim_seed_ >> 7;
  victim_seed_ ^= victim_seed_ << 17;
  return static_cast<std::uint32_t>(victim_seed_ % ways);
}

SetAssocCache::AccessResult SetAssocCache::access(Addr addr, bool write) {
  const std::uint64_t index = addr >> line_shift_;
  const std::uint64_t first = set_of(index) * cfg_.associativity;
  const std::uint64_t key = (index << 2) | kValid;
  const std::uint64_t dirty = write ? kDirty : 0;
  ++clock_;

  const std::uint32_t hit = find(first, key);
  if (hit != cfg_.associativity) {
    tags_[first + hit] |= dirty;
    if (stamps_) stamps_[first + hit] = clock_;
    ++stats_.hits;
    return AccessResult{true, false, 0};
  }

  ++stats_.misses;
  const std::uint64_t way = first + pick_victim(first);
  AccessResult res;
  if ((tags_[way] & kDirty) != 0) {
    res.writeback = true;
    res.victim_line = (tags_[way] >> 2) << line_shift_;
    ++stats_.writebacks;
  }
  tags_[way] = key | dirty;
  if (stamps_) stamps_[way] = clock_;
  return res;
}

bool SetAssocCache::probe(Addr addr) const {
  const std::uint64_t index = addr >> line_shift_;
  return find(set_of(index) * cfg_.associativity, (index << 2) | kValid) !=
         cfg_.associativity;
}

bool SetAssocCache::invalidate(Addr addr, bool* was_dirty) {
  const std::uint64_t index = addr >> line_shift_;
  const std::uint64_t first = set_of(index) * cfg_.associativity;
  const std::uint32_t i = find(first, (index << 2) | kValid);
  const bool resident = i != cfg_.associativity;
  if (was_dirty != nullptr) {
    *was_dirty = resident && (tags_[first + i] & kDirty) != 0;
  }
  if (!resident) return false;
  tags_[first + i] = 0;
  ++stats_.invalidations;
  return true;
}

std::uint64_t SetAssocCache::invalidate_range(const Range& range) {
  // Walk resident ways rather than the (possibly huge) address range.
  std::uint64_t dropped = 0;
  const std::uint64_t ways = cfg_.num_lines();
  for (std::uint64_t i = 0; i < ways; ++i) {
    const std::uint64_t w = tags_[i];
    if (w != 0 && range.contains((w >> 2) << line_shift_)) {
      tags_[i] = 0;
      ++stats_.invalidations;
      ++dropped;
    }
  }
  return dropped;
}

void SetAssocCache::flush() {
  // Stamps need no reset: they are only read once every way is valid, and
  // a refill stamps each way afresh.
  std::memset(tags_.get(), 0, cfg_.num_lines() * sizeof(std::uint64_t));
}

std::uint64_t SetAssocCache::resident_lines() const {
  std::uint64_t n = 0;
  const std::uint64_t ways = cfg_.num_lines();
  for (std::uint64_t i = 0; i < ways; ++i) n += tags_[i] != 0 ? 1 : 0;
  return n;
}

}  // namespace tfsim::mem
