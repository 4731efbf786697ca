#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace tfsim::sim {

std::uint32_t Engine::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  if (slots_.size() > kSlotMask) {
    throw std::length_error("Engine::schedule_at: 2^24 events pending");
  }
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return idx;
}

void Engine::release_slot(Slot& s, std::uint64_t key) {
  s.cb = nullptr;  // drop capture storage; the slab itself is recycled
  s.key = kFree;   // invalidate outstanding handles and queue entries
  free_.push_back(static_cast<std::uint32_t>(key & kSlotMask));
}

Engine::EventId Engine::schedule_at(Time t, Callback&& cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time is in the past");
  }
  if (next_seq_ > kMaxSeq) {
    throw std::length_error("Engine::schedule_at: 2^40 - 1 events scheduled");
  }
  const std::uint32_t idx = acquire_slot();
  const std::uint64_t key = next_seq_++ << kSlotBits | idx;
  Slot& s = slot_of(key);
  s.cb = std::move(cb);
  s.key = key;
  queue_.push(Entry{t, key});
  ++live_;
  return EventId(this, key);
}

void Engine::cancel(EventId& id) {
  if (id.owner_ != nullptr && id.owner_ != this) {
    // Foreign handle: minted by another engine.  Historically a silent
    // no-op; with per-domain calendars it masks cross-domain cancel bugs,
    // so report it when a checker is bound (strict mode throws).
    report_foreign_cancel(id);
  } else if (id.valid()) {
    release_slot(slot_of(id.key_), id.key_);
    assert(live_ > 0);
    --live_;
  }
  id = EventId{};
}

void Engine::report_foreign_cancel(const EventId& id) const {
  if (checker_ == nullptr || checker_->mode() == DomainCheckMode::kOff) {
    return;
  }
  DomainViolation v;
  v.object = "Engine";
  v.what = "Engine::cancel (handle minted by a different engine)";
  v.owner = id.owner_->domain_id_;
  v.active = domain_id_;
  v.owner_name = checker_->domain_name(v.owner);
  v.active_name = checker_->domain_name(v.active);
  v.guard_label = "engine:foreign-cancel";
  v.when = now_;
  v.event_index = executed_;
  checker_->report(std::move(v));
}

void Engine::fire(Entry e) {
  queue_.pop();
  assert(e.time >= now_);
  now_ = e.time;
  // Move the callback out before releasing: it may schedule new events that
  // reuse this slot, or grow the slab under it.
  Slot& s = slot_of(e.key);
  Callback cb = std::move(s.cb);
  release_slot(s, e.key);
  --live_;
  ++executed_;
  cb();
}

bool Engine::step() {
  // Drop stale entries (cancelled, or their slot released and reused).
  while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
  if (queue_.empty()) return false;
  fire(queue_.top());
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time t) {
  if (t == kTimeNever) {
    run();
  } else {
    run_before(t + 1);
  }
  if (t > now_) now_ = t;
}

Time Engine::run_before(Time t) {
  while (!queue_.empty()) {
    const Entry e = queue_.top();
    if (!entry_live(e)) {
      queue_.pop();
    } else if (e.time < t) {
      fire(e);
    } else {
      return e.time;
    }
  }
  return kTimeNever;
}

bool Engine::run_while_pending(const std::function<bool()>& stop) {
  while (!stop()) {
    if (!step()) return false;
  }
  return true;
}

}  // namespace tfsim::sim
