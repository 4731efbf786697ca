// Per-request records keyed by sequential ids, held in a ring.
//
// Open-loop sources number their requests 0, 1, 2, ... and keep a record
// for each until its terminal outcome.  Ids arrive in increasing order and
// retire roughly in order, so the live ids always lie in a window
// [head, end) that a power-of-two ring holds without a heap node per
// request.  The ring doubles when that window outgrows it: one request
// that never retires keeps every later id's slot alive behind it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tfsim::sim {

template <class T>
class IdRing {
 public:
  /// Record `value` for `id`; ids must arrive in increasing order (gaps
  /// are fine).
  void insert(std::uint64_t id, T value) {
    if (live_ == 0) {
      head_ = id;
    } else if (id < end_) {
      throw std::invalid_argument("IdRing::insert: ids must increase");
    }
    if (id - head_ >= slots_.size()) grow(id - head_ + 1);
    Slot& s = slot(id);
    s.value = std::move(value);
    s.live = true;
    end_ = id + 1;
    ++live_;
  }

  /// The record of a live id, or nullptr.
  T* find(std::uint64_t id) {
    if (live_ == 0 || id < head_ || id >= end_) return nullptr;
    Slot& s = slot(id);
    return s.live ? &s.value : nullptr;
  }

  /// Retire a live id.
  void erase(std::uint64_t id) {
    slot(id).live = false;
    --live_;
    while (head_ < end_ && !slot(head_).live) ++head_;
  }

  std::size_t size() const { return live_; }

 private:
  // Invariant: a slot is live only if it holds a live id in [head_, end_).
  struct Slot {
    T value{};
    bool live = false;
  };

  Slot& slot(std::uint64_t id) { return slots_[id & (slots_.size() - 1)]; }

  void grow(std::uint64_t span) {
    std::size_t cap = slots_.empty() ? 16 : 2 * slots_.size();
    while (cap < span) cap *= 2;
    std::vector<Slot> bigger(cap);
    for (std::uint64_t id = head_; id < end_; ++id) {
      bigger[id & (cap - 1)] = std::move(slot(id));
    }
    slots_ = std::move(bigger);
  }

  std::vector<Slot> slots_;
  std::uint64_t head_ = 0;  ///< oldest id that may be live
  std::uint64_t end_ = 0;   ///< one past the newest id inserted
  std::size_t live_ = 0;
};

}  // namespace tfsim::sim
