// Discrete-event simulation engine.
//
// A single-threaded event calendar: callbacks scheduled at absolute simulated
// times, executed in (time, insertion-order) order.  Deterministic by
// construction — equal-time events run in the order they were scheduled.
//
// Storage is a slab: callbacks live in pooled slots recycled through a free
// list, and the priority queue holds 16-byte trivially-copyable entries,
// (time, seq << 24 | slot).  Every schedule takes the next insertion seq, so
// comparing the packed word compares seqs and the queue order is exactly
// (time, seq).  A slot stores the packed word of the event it holds, and an
// entry or handle is live while its word matches its slot's: a fired,
// cancelled or reused slot holds another word, so a stale handle or queue
// entry is detected without a generation counter or a shared_ptr control
// block.  Callbacks are UniqueFunctions whose captures of up to 64 bytes
// live inside the slot, so scheduling such an event costs no heap
// allocation; larger captures cost one.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/domain.hpp"
#include "sim/unique_function.hpp"
#include "sim/units.hpp"

namespace tfsim::sim {

class Engine {
 public:
  /// Move-only; captures up to UniqueFunction::kCapacity bytes are stored
  /// in the calendar slot without a heap allocation.
  using Callback = UniqueFunction<void()>;

  /// Bits of the packed word that name the slot; the seq takes the rest.
  /// A calendar holds at most 2^24 pending events and takes at most
  /// 2^40 - 1 schedules in its lifetime: schedule_at throws rather than
  /// let either field wrap into another event's word.
  static constexpr unsigned kSlotBits = 24;

  /// Handle for cancelling a scheduled event.  Default-constructed handles
  /// are inert; cancel() on an already-fired event is a no-op.  A handle
  /// references its engine and must not be used after the engine is
  /// destroyed.
  class EventId {
   public:
    EventId() = default;
    /// True while the event is still pending (not fired, not cancelled).
    bool valid() const;

   private:
    friend class Engine;
    EventId(const Engine* owner, std::uint64_t key)
        : owner_(owner), key_(key) {}
    const Engine* owner_ = nullptr;
    std::uint64_t key_ = 0;  ///< seq << kSlotBits | slot
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must be >= now()).  Callbacks are
  /// taken by rvalue reference: each move of an inline capture costs a
  /// relocation, and a by-value parameter would add one per hand-off.
  EventId schedule_at(Time t, Callback&& cb);

  /// Schedule `cb` `dt` after the current time.
  EventId schedule_in(Time dt, Callback&& cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Cancel a previously scheduled event.  Safe on fired/invalid ids.
  /// Presenting a handle minted by a *different* engine is a no-op on this
  /// calendar, but with per-domain engines (sim/pdes.hpp) it almost always
  /// means a cross-domain cancel bug — when a DomainChecker is bound it is
  /// reported as a violation (strict throws, collect records, off stays
  /// silent).  The foreign event is never touched either way.
  void cancel(EventId& id);

  /// Run the earliest pending event.  Returns false if the calendar is empty.
  bool step();

  /// Run until the calendar is empty.
  void run();

  /// Run events with time <= t, then set now() = t.
  void run_until(Time t);

  /// Run events with time strictly < t and return the earliest live event
  /// time left, or kTimeNever when the calendar is empty; now() is left at
  /// the last executed event (NOT advanced to t).  This is the PDES window
  /// primitive: a domain executes its slice of [window, horizon) without
  /// claiming to have reached the horizon, so cross-domain arrivals
  /// scheduled exactly at the horizon are still in this calendar's future.
  /// Each head is checked once: a cancelled one is dropped, a live one
  /// before `t` fires, and the first live one at or after `t` is the
  /// result, so run_before(0) only prunes and reports the next event time.
  Time run_before(Time t);

  /// Run until `stop` returns true (checked after every event) or the
  /// calendar empties.  Returns true if `stop` triggered the halt.
  bool run_while_pending(const std::function<bool()>& stop);

  /// Number of live (non-cancelled) scheduled events.
  std::size_t pending() const { return live_; }

  /// Total events executed since construction (for tests / reporting).
  std::uint64_t executed() const { return executed_; }

  /// Wire up foreign-handle cancel reporting: `self` names the domain this
  /// calendar belongs to in violation reports.  Unbound engines (the
  /// default, and every pre-PDES caller) keep the historical silent no-op.
  void bind_domain_checker(DomainChecker* checker, DomainId self) {
    checker_ = checker;
    domain_id_ = self;
  }
  DomainId domain_id() const { return domain_id_; }

 private:
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  /// The word of a free slot.  Seqs stop below 2^40 - 1, so no event's
  /// word is all ones.
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::uint64_t kMaxSeq = (kFree >> kSlotBits) - 1;

  /// Pooled callback storage: the packed word of the event it holds, or
  /// kFree once that event fired or was cancelled.
  struct Slot {
    Callback cb;
    std::uint64_t key = kFree;
  };
  /// Calendar entry: trivially copyable, so popping never needs to move a
  /// callback (or const_cast priority_queue::top()).
  struct Entry {
    Time time;
    std::uint64_t key;  ///< seq << kSlotBits | slot: orders equal times
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };

  Slot& slot_of(std::uint64_t key) { return slots_[key & kSlotMask]; }
  bool entry_live(const Entry& e) { return slot_of(e.key).key == e.key; }
  std::uint32_t acquire_slot();
  void release_slot(Slot& s, std::uint64_t key);
  /// Pop the live head `e` and run it.
  void fire(Entry e);
  void report_foreign_cancel(const EventId& id) const;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // released slot indices, LIFO reuse
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  DomainChecker* checker_ = nullptr;  // foreign-cancel reporting (optional)
  DomainId domain_id_ = kNoDomain;
};

inline bool Engine::EventId::valid() const {
  if (owner_ == nullptr) return false;
  const std::size_t slot = key_ & kSlotMask;
  return slot < owner_->slots_.size() && owner_->slots_[slot].key == key_;
}

}  // namespace tfsim::sim
