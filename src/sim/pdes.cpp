#include "sim/pdes.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>  // simlint: allow(R1): the handoff rule's host clock
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/sweep.hpp"

namespace tfsim::sim {

namespace {

/// Host clock of the handoff rule: the TSC where there is one.
std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  // simlint: allow(R1): picks the thread that runs a slice, not its result
  return std::chrono::steady_clock::now().time_since_epoch().count();
#endif
}

/// Poll `word` until it leaves `old` or `spin` ticks pass (yielding the CPU
/// every 64 polls), then block on it.  Returns the new value.
template <class T>
T await_change(const std::atomic<T>& word, T old, std::uint64_t spin) {
  for (std::uint64_t i = 1, start = ticks(); ticks() - start < spin; ++i) {
    if (const T v = word.load(std::memory_order_acquire); v != old) return v;
    if (i % 64 == 0) std::this_thread::yield();
  }
  word.wait(old, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

/// What each of the last three helper pools this process started measured
/// for one handoff, in ticks, and how many pools have measured.
// simlint: allow(R3): host timing of the handoff rule, never a sim result
std::array<std::atomic<std::uint64_t>, 3> g_handoffs{};
// simlint: allow(R3): host timing of the handoff rule, never a sim result
std::atomic<std::uint64_t> g_pools{0};

void record_handoff(std::uint64_t cost) {
  const std::uint64_t k = g_pools.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < g_handoffs.size(); ++i) {
    // The first pool's figure stands in for the ones not measured yet.
    if (k == 0 || i == k % g_handoffs.size()) {
      g_handoffs[i].store(cost, std::memory_order_relaxed);
    }
  }
}

/// One handoff's cost in ticks: the median of the last three pools'
/// figures, so one pool that measured during a load spike, or while its
/// helper happened to be awake, is outvoted by the other two.
std::uint64_t handoff_ticks() {
  const std::uint64_t a = g_handoffs[0].load(std::memory_order_relaxed);
  const std::uint64_t b = g_handoffs[1].load(std::memory_order_relaxed);
  const std::uint64_t c = g_handoffs[2].load(std::memory_order_relaxed);
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

}  // namespace

/// The helper threads and the claim word of shared windows: epoch | slice
/// count | next slice.  A claim is a CAS on the current word, which carries
/// its window's size, so a stale word never claims into the next window.
class ParallelEngine::Handoff {
 public:
  static constexpr unsigned kBits = 24;
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  static constexpr std::uint64_t kStop = ~std::uint64_t{0};  // count < kMask

  template <class Slice>
  Handoff(std::size_t helpers, Slice slice) {
    for (std::size_t h = 0; h < helpers; ++h) {
      pool_.emplace_back([this, slice] {
        for (std::uint64_t w = 0;; w = await_change(word_, w, spin())) {
          for (std::size_t i = 0; claim(w, i);) {
            if (!probing_) slice(i);
            done_.fetch_add(1, std::memory_order_release);
            done_.notify_one();
          }
          if (w == kStop) return;
        }
      });
    }
  }
  Handoff(const Handoff&) = delete;
  Handoff& operator=(const Handoff&) = delete;
  ~Handoff() {
    word_.store(kStop, std::memory_order_release);
    word_.notify_all();
    for (std::thread& t : pool_) t.join();
  }

  /// How long a waiter polls before it blocks.
  std::uint64_t spin() const { return spin_.load(std::memory_order_relaxed); }
  void set_spin(std::uint64_t ticks) {
    spin_.store(ticks, std::memory_order_relaxed);
  }

  /// The median round trip, in ticks, of nine empty slices through the
  /// parked helpers, with both sides blocking at once.
  std::uint64_t measure() {
    set_spin(0);
    probing_ = true;  // published to the helpers by open()
    std::array<std::uint64_t, 9> trips{};
    for (std::uint64_t& trip : trips) {
      const std::uint64_t t0 = ticks();
      open(0, 1);
      wait_done(1);
      trip = ticks() - t0;
    }
    probing_ = false;  // the helpers' last read happened before wait_done
    std::nth_element(trips.begin(), trips.begin() + 4, trips.end());
    return trips[4];
  }

  /// Open slices [first, count); returns the opener's word.
  std::uint64_t open(std::size_t first, std::size_t count) {
    const std::uint64_t w = (++epoch_ << 2 * kBits) | count << kBits | first;
    word_.store(w, std::memory_order_release);
    word_.notify_all();
    return w;
  }
  bool claim(std::uint64_t& w, std::size_t& i) {
    while ((w & kMask) < (w >> kBits & kMask)) {
      if (word_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel)) {
        i = w & kMask;
        return true;
      }
    }
    return false;
  }
  /// Wait for the helpers to finish the `claimed` slices they just took.
  void wait_done(std::size_t claimed) {
    handed_ += static_cast<std::uint32_t>(claimed);  // wraps like done_
    for (std::uint32_t v = done_.load(std::memory_order_acquire); v != handed_;)
      v = await_change(done_, v, spin());
  }

 private:
  std::atomic<std::uint64_t> spin_{0};
  bool probing_ = false;  ///< helpers skip the slice: measure() is running
  std::uint64_t epoch_ = 0;
  std::uint32_t handed_ = 0;  ///< slices the helpers claimed, in all
  std::atomic<std::uint64_t> word_{0};
  std::atomic<std::uint32_t> done_{0};
  std::vector<std::thread> pool_;
};

unsigned PdesConfig::threads_from_env() {
  const char* v = std::getenv("TFSIM_PDES");
  if (v == nullptr || *v == '\0' || std::string(v) == "off") return 0;
  return env_thread_count("TFSIM_PDES", /*fallback=*/0);
}

ParallelEngine::ParallelEngine(std::size_t num_domains, PdesConfig cfg)
    : cfg_(cfg) {
  if (num_domains == 0 || num_domains >= Handoff::kMask) {
    throw std::invalid_argument("ParallelEngine: need 1 to 16777214 domains");
  }
  for (std::size_t d = 0; d < num_domains; ++d) {
    domains_.push_back(std::make_unique<Engine>());
  }
  outboxes_.resize(num_domains);
  next_.resize(num_domains);
  active_.resize(num_domains);
}

ParallelEngine::~ParallelEngine() = default;

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
    // During a window the posting thread owns src's calendar, so a direct
    // schedule is race-free; schedule_at only requires t >= its now().
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
  // Single writer: only the thread running `src`'s slice appends here.
  outboxes_[src].emplace_back(dst, t, std::move(cb));
}

void ParallelEngine::flush_outboxes() {
  // Fixed (source domain, send order) order: the load-bearing line of the
  // determinism argument (DESIGN.md section 13).  Only active domains post.
  for (std::size_t k = 0; k < num_active_; ++k) {
    std::vector<Pending>& box = outboxes_[active_[k]];
    for (Pending& p : box) {
      domains_[p.dst]->schedule_at(p.time, std::move(p.cb));
      next_[p.dst] = std::min(next_[p.dst], p.time);
    }
    box.clear();
  }
}

bool ParallelEngine::begin_window() {
  // Branch-free on purpose: which domains are busy changes every window, so
  // a compare-and-branch per domain mispredicts on a large share of them.
  Time t = kTimeNever;
  for (const Time next : next_) t = std::min(t, next);
  if (t == kTimeNever) return false;
  const Time horizon =
      (t > kTimeNever - cfg_.lookahead) ? kTimeNever : t + cfg_.lookahead;
  window_start_ = t;
  horizon_ = horizon;
  // No event can arrive before the horizon: cross-domain posts land after.
  std::size_t n = 0;
  for (std::size_t d = 0; d < next_.size(); ++d) {
    active_[n] = d;
    n += next_[d] < horizon ? 1 : 0;
  }
  num_active_ = n;
  ++windows_;
  return true;
}

void ParallelEngine::execute_domain(std::size_t d) {
  next_[d] = domains_[d]->run_before(horizon_);
}

void ParallelEngine::run_slice(std::size_t i) {
  try {
    execute_domain(active_[i]);
  } catch (...) {
    errors_[active_[i]] = std::current_exception();
  }
}

void ParallelEngine::run_serial() {
  while (begin_window()) {
    // Domains in id order is one legal (and the reference) schedule of the
    // independent window slices; the parallel path must match it exactly.
    for (std::size_t k = 0; k < num_active_; ++k) execute_domain(active_[k]);
    ++inline_windows_;
    flush_outboxes();
  }
}

void ParallelEngine::run_parallel() {
  // The handoff rule; pdes.hpp and DESIGN.md section 13 give the reasons.
  if (pool_ == nullptr) {
    pool_ = std::make_unique<Handoff>(
        std::min<std::size_t>(cfg_.threads, domains_.size()) - 1,
        [this](std::size_t i) { run_slice(i); });
    record_handoff(pool_->measure());
    oversubscribed_ = cfg_.threads > std::thread::hardware_concurrency();
  }
  const std::uint64_t threshold = handoff_ticks();
  pool_->set_spin(oversubscribed_ ? 0 : threshold);
  Handoff& handoff = *pool_;
  bool at_once = false;  // the last shared window outlasted a handoff
  while (begin_window()) {
    const std::size_t n = num_active_;
    // The clock is read only where the rule can act on it: with two slices
    // or fewer and no shared window before, this window stays inline.
    const std::uint64_t start = (at_once || n > 2) ? ticks() : 0;
    std::size_t next = 0;
    // A lone last slice stays inline: the coordinator could only wait on it.
    while (!at_once && next < n) {
      run_slice(next++);
      at_once = n - next > 1 && ticks() - start > threshold;
    }
    if (next == n) {
      ++inline_windows_;
    } else {
      ++shared_windows_;
      std::uint64_t w = handoff.open(next, n);
      std::size_t mine = 0;
      for (std::size_t i = 0; handoff.claim(w, i); ++mine) run_slice(i);
      // The word is exhausted: the helpers claimed every other slice.
      helper_slices_ += n - next - mine;
      handoff.wait_done(n - next - mine);
      at_once = ticks() - start > threshold;
    }
    // As in run_serial, the lowest failing domain's exception wins.
    for (std::size_t k = 0; k < n; ++k) {
      if (errors_[active_[k]] != nullptr) {
        std::rethrow_exception(errors_[active_[k]]);
      }
    }
    flush_outboxes();
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
  errors_.assign(domains_.size(), nullptr);
  running_ = true;
  const std::unique_ptr<bool, void (*)(bool*)> clear_running(
      &running_, [](bool* running) { *running = false; });
  // One full scan per run(); windows keep next_ current incrementally.
  // No event is earlier than 0, so run_before(0) only reports the next one.
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    next_[d] = domains_[d]->run_before(0);
  }
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
  return std::accumulate(domains_.begin(), domains_.end(), std::uint64_t{0},
                         [](auto n, auto& d) { return n + d->executed(); });
}

std::size_t ParallelEngine::pending() const {
  return std::accumulate(domains_.begin(), domains_.end(), std::size_t{0},
                         [](auto n, auto& d) { return n + d->pending(); });
}

}  // namespace tfsim::sim
