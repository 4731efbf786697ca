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
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return idx;
}

void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb = nullptr;  // drop capture storage; the slab itself is recycled
  ++s.gen;         // invalidate outstanding handles and queue entries
  s.live = false;
  free_.push_back(idx);
}

Engine::EventId Engine::schedule_at(Time t, Callback&& cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time is in the past");
  }
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.live = true;
  queue_.push(Entry{t, next_seq_++, idx, s.gen});
  ++live_;
  return EventId(this, idx, s.gen);
}

void Engine::cancel(EventId& id) {
  if (id.owner_ != nullptr && id.owner_ != this) {
    // Foreign handle: minted by another engine.  Historically a silent
    // no-op; with per-domain calendars it masks cross-domain cancel bugs,
    // so report it when a checker is bound (strict mode throws).
    report_foreign_cancel(id);
  } else if (id.owner_ == this && id.slot_ < slots_.size()) {
    const Slot& s = slots_[id.slot_];
    if (s.live && s.gen == id.gen_) {
      release_slot(id.slot_);
      assert(live_ > 0);
      --live_;
    }
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

bool Engine::pop_next(Entry& ev) {
  while (!queue_.empty()) {
    const Entry e = queue_.top();  // trivially copyable: cheap by-value pop
    queue_.pop();
    if (entry_live(e)) {
      ev = e;
      return true;
    }
    // stale entry: cancelled, or the slot was released and reused
  }
  return false;
}

bool Engine::step() {
  Entry ev;
  if (!pop_next(ev)) return false;
  assert(ev.time >= now_);
  now_ = ev.time;
  // Move the callback out before releasing: it may schedule new events that
  // immediately reuse this slot under a fresh generation.
  Callback cb = std::move(slots_[ev.slot].cb);
  release_slot(ev.slot);
  --live_;
  ++executed_;
  cb();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time t) {
  for (;;) {
    // Drop stale entries so the deadline check sees a live event.
    while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
    if (queue_.empty() || queue_.top().time > t) break;
    step();
  }
  if (t > now_) now_ = t;
}

void Engine::run_before(Time t) {
  for (;;) {
    while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
    if (queue_.empty() || queue_.top().time >= t) break;
    step();
  }
}

std::optional<Time> Engine::next_event_time() {
  while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
  if (queue_.empty()) return std::nullopt;
  return queue_.top().time;
}

bool Engine::run_while_pending(const std::function<bool()>& stop) {
  while (!stop()) {
    if (!step()) return false;
  }
  return true;
}

}  // namespace tfsim::sim
