#include "sim/pdes.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/sweep.hpp"

namespace tfsim::sim {

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Window barrier: the last worker to arrive runs `Completion` while the
/// others wait, then releases them.  A window often holds a handful of
/// events (about a microsecond of work), so waiters spin before they block:
/// std::barrier parks a waiter in the kernel after a few dozen spins, so
/// nearly every window paid a futex sleep and a cross-CPU wake-up and the
/// run's wall time followed the host's wake-up latency.  The spin yields
/// every kSpinsPerYield rounds, so a waiter that shares a CPU with the
/// worker it waits for lets that worker run.  With more workers than
/// hardware threads the waiters block at once.
template <class Completion>
class WindowBarrier {
 public:
  WindowBarrier(std::size_t parties, Completion completion)
      : parties_(parties),
        spins_(parties <= std::thread::hardware_concurrency() ? kSpins : 0),
        completion_(std::move(completion)) {}

  void arrive_and_wait() {
    const std::uint32_t phase = phase_.load(std::memory_order_relaxed);
    // acq_rel: the last arrival sees every worker's window effects.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      completion_();
      phase_.store(phase + 1, std::memory_order_release);
      phase_.notify_all();
      return;
    }
    for (int i = 1; i <= spins_; ++i) {
      if (phase_.load(std::memory_order_acquire) != phase) return;
      if (i % kSpinsPerYield == 0) {
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    }
    phase_.wait(phase, std::memory_order_acquire);
  }

 private:
  static constexpr int kSpins = 1 << 15;
  static constexpr int kSpinsPerYield = 64;
  const std::size_t parties_;
  const int spins_;
  Completion completion_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
};

}  // namespace

unsigned PdesConfig::threads_from_env() {
  const char* v = std::getenv("TFSIM_PDES");
  if (v == nullptr || *v == '\0') return 0;
  if (std::string(v) == "off") return 0;
  return env_thread_count("TFSIM_PDES", /*fallback=*/0);
}

ParallelEngine::ParallelEngine(std::size_t num_domains, PdesConfig cfg)
    : cfg_(cfg) {
  if (num_domains == 0) {
    throw std::invalid_argument("ParallelEngine: need at least one domain");
  }
  domains_.reserve(num_domains);
  for (std::size_t d = 0; d < num_domains; ++d) {
    domains_.push_back(std::make_unique<Engine>());
  }
  outboxes_.resize(num_domains);
  errors_.resize(num_domains);
  next_.resize(num_domains);
}

void ParallelEngine::set_lookahead(Time lookahead) {
  if (running_) {
    throw std::logic_error("ParallelEngine::set_lookahead: run in progress");
  }
  cfg_.lookahead = lookahead;
}

void ParallelEngine::post(DomainId src, DomainId dst, Time t,
                          Engine::Callback&& cb) {
  if (src >= domains_.size() || dst >= domains_.size()) {
    throw std::out_of_range("ParallelEngine::post: domain id out of range");
  }
  if (!running_ || src == dst) {
    // Setup-time posts and same-domain sends go straight onto the target
    // calendar.  During a window the posting thread owns the src calendar,
    // so a direct schedule is race-free; zero-delay self-sends are legal
    // because schedule_at only requires t >= the domain's own now().
    domains_[dst]->schedule_at(t, std::move(cb));
    return;
  }
  if (t < horizon_) {
    throw std::logic_error(
        "ParallelEngine::post: cross-domain send at t=" + std::to_string(t) +
        " is below the lookahead horizon " + std::to_string(horizon_) +
        " (the model's delay to another domain must be >= the configured "
        "lookahead; derive lookahead from net::Network::min_propagation)");
  }
  // Single writer: during a window only the thread executing `src` appends
  // to outboxes_[src]; the flush happens behind the window barrier.
  outboxes_[src].emplace_back(dst, t, std::move(cb));
}

void ParallelEngine::scan_calendars() {
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    next_[d] = domains_[d]->next_event_time().value_or(kTimeNever);
  }
}

void ParallelEngine::flush_outboxes() {
  // Fixed (source domain, send order) flush so same-timestamp cross-domain
  // arrivals get identical sequence numbers in the target calendar for
  // every thread count -- the load-bearing line of the determinism
  // argument (DESIGN.md section 13).  Only domains that ran this window can
  // have posted, and active_ lists them in id order.
  for (const std::size_t src : active_) {
    std::vector<Pending>& box = outboxes_[src];
    for (Pending& p : box) {
      domains_[p.dst]->schedule_at(p.time, std::move(p.cb));
      next_[p.dst] = std::min(next_[p.dst], p.time);
    }
    box.clear();
  }
}

bool ParallelEngine::begin_window() {
  const Time t = *std::min_element(next_.begin(), next_.end());
  if (t == kTimeNever) return false;
  window_start_ = t;
  horizon_ =
      (t > kTimeNever - cfg_.lookahead) ? kTimeNever : t + cfg_.lookahead;
  // A domain without an event before the horizon has nothing to run in
  // this window, and none can arrive: cross-domain posts land at or after
  // the horizon.  Workers claim only the active domains, so a window costs
  // one shared-counter claim per busy domain instead of one per domain.
  active_.clear();
  for (std::size_t d = 0; d < next_.size(); ++d) {
    if (next_[d] < horizon_) active_.push_back(d);
  }
  ++windows_;
  return true;
}

void ParallelEngine::execute_domain(std::size_t d) {
  Engine& e = *domains_[d];
  e.run_before(horizon_);
  next_[d] = e.next_event_time().value_or(kTimeNever);
}

void ParallelEngine::run_serial() {
  while (begin_window()) {
    // Domains in id order is one legal (and the reference) schedule of the
    // independent window slices; the parallel path must match it exactly.
    for (const std::size_t d : active_) execute_domain(d);
    flush_outboxes();
  }
}

void ParallelEngine::run_parallel() {
  if (!begin_window()) return;  // idle: nothing scheduled anywhere
  const std::size_t nthreads =
      std::min<std::size_t>(cfg_.threads, domains_.size());
  std::atomic<std::size_t> next_domain{0};
  std::atomic<bool> done{false};
  std::exception_ptr flush_error;

  // Barrier phase completion: runs on one worker while the rest wait, so
  // it may touch calendars and outboxes freely.  Must not exit via an
  // exception (it would strand the waiting workers), hence the catch-all.
  auto on_window_done = [this, &next_domain, &done, &flush_error]() noexcept {
    for (const std::exception_ptr& e : errors_) {
      if (e != nullptr) {
        aborted_ = true;
        break;
      }
    }
    if (!aborted_) {
      try {
        flush_outboxes();
        if (!begin_window()) done.store(true, std::memory_order_relaxed);
      } catch (...) {
        flush_error = std::current_exception();
        aborted_ = true;
      }
    }
    if (aborted_) done.store(true, std::memory_order_relaxed);
    next_domain.store(0, std::memory_order_relaxed);
  };
  WindowBarrier sync(nthreads, on_window_done);

  auto worker = [this, &next_domain, &done, &sync] {
    while (!done.load(std::memory_order_relaxed)) {
      for (;;) {
        const std::size_t i =
            next_domain.fetch_add(1, std::memory_order_relaxed);
        if (i >= active_.size()) break;
        const std::size_t d = active_[i];
        try {
          execute_domain(d);
        } catch (...) {
          errors_[d] = std::current_exception();
        }
      }
      // The barrier phase completion publishes its effects (flushed
      // calendars, next window bounds, the done flag) to every worker.
      sync.arrive_and_wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (std::size_t w = 0; w < nthreads; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  if (aborted_) {
    // Serial equivalence for errors too: the lowest-id failing domain in
    // the aborting window wins, matching run_serial's in-order execution;
    // a flush failure surfaces only when every domain slice succeeded.
    for (std::exception_ptr& e : errors_) {
      if (e != nullptr) {
        std::exception_ptr first = std::move(e);
        for (auto& other : errors_) other = nullptr;
        std::rethrow_exception(first);
      }
    }
    if (flush_error != nullptr) std::rethrow_exception(flush_error);
  }
}

void ParallelEngine::run() {
  if (running_) {
    throw std::logic_error("ParallelEngine::run: already running");
  }
  if (cfg_.lookahead == 0) {
    throw std::logic_error(
        "ParallelEngine::run: lookahead is unset (derive it from "
        "net::Network::min_propagation or set it explicitly)");
  }
  running_ = true;
  aborted_ = false;
  errors_.assign(domains_.size(), nullptr);
  struct RunningScope {
    explicit RunningScope(bool& flag) : flag_(flag) {}
    RunningScope(const RunningScope&) = delete;
    RunningScope& operator=(const RunningScope&) = delete;
    ~RunningScope() { flag_ = false; }

   private:
    bool& flag_;
  };
  const RunningScope scope(running_);
  scan_calendars();
  if (cfg_.threads > 1 && domains_.size() > 1) {
    run_parallel();
  } else {
    run_serial();
  }
  // The run ends when next_ says every calendar is empty.  An event left
  // behind was scheduled on a calendar by another domain's event, behind
  // post(): next_ never saw it, and no window would have run it on time.
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    if (domains_[d]->pending() != 0) {
      throw std::logic_error(
          "ParallelEngine::run: domain " + std::to_string(d) +
          " holds events scheduled from another domain; cross-domain "
          "events must go through post()");
    }
  }
}

std::uint64_t ParallelEngine::executed() const {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->executed();
  return total;
}

std::size_t ParallelEngine::pending() const {
  std::size_t total = 0;
  for (const auto& d : domains_) total += d->pending();
  return total;
}

}  // namespace tfsim::sim
