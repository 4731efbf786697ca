#include "node/context.hpp"

#include <algorithm>

namespace tfsim::node {

MemContext::MemContext(Node& node, CpuConfig cfg, std::string name)
    : node_(node), cfg_(cfg), name_(std::move(name)) {
  stats_.level_hits.resize(node.caches().num_levels(), 0);
}

void MemContext::seek(sim::Time t) { now_ = std::max(now_, t); }

void MemContext::advance(sim::Time dt) {
  now_ += dt;
  stats_.compute_time += dt;
}

void MemContext::reserve_slot() {
  if (outstanding_.size() < cfg_.mlp) return;
  const sim::Time free_at = outstanding_.top();
  outstanding_.pop();
  if (free_at > now_) {
    stats_.stall_time += free_at - now_;
    now_ = free_at;
  }
}

sim::Time MemContext::miss_path(mem::Addr addr, bool is_local) {
  if (is_local) return node_.dram().access(now_, mem::kCacheLineBytes);
  // Hot-page migration: pages the daemon already moved are served locally.
  if (auto* migrator = node_.migrator();
      migrator != nullptr && migrator->on_remote_access(addr, now_)) {
    return node_.dram().access(now_, mem::kCacheLineBytes, cfg_.net_priority);
  }
  // Remote: allocation fetch is a read (rd_wnitc) even for store misses
  // (write-allocate); dirty data returns later as a posted writeback.
  const auto trace = node_.nic().remote_access(now_, addr, /*write=*/false,
                                               cfg_.net_priority);
  if (!trace.has_value()) {
    ++stats_.failures;
    device_failed_ = true;
    return now_;
  }
  ++stats_.remote_misses;
  return trace->completion;
}

void MemContext::posted_writeback(mem::Addr line) {
  ++stats_.posted_writebacks;
  const mem::Region* region = node_.memory_map().find(line);
  if (region == nullptr || region->backing == mem::Backing::kLocalDram) {
    node_.dram().access(now_, mem::kCacheLineBytes);
    return;
  }
  const auto trace = node_.nic().remote_access(now_, line, /*write=*/true,
                                               cfg_.net_priority);
  if (!trace.has_value()) {
    ++stats_.failures;
    device_failed_ = true;
  }
}

void MemContext::access(mem::Addr addr, bool write, bool dependent) {
  ++stats_.accesses;
  now_ += cfg_.issue_cost;

  // Domain guards are scoped tightly around the calls that mutate this
  // node's state, never around sync_engine(): engine callbacks belong to
  // whichever domain scheduled them and open their own guards.
  const sim::DomainHandle& dom = node_.tfsim_domain();
  const auto r = [&] {
    const sim::DomainGuard g(dom.checker(), dom.id(), "ctx:cache");
    return node_.caches().access(addr, write);
  }();
  // Dirty lines evicted from the LLC leave the node asynchronously.
  if (!r.memory_writebacks.empty()) {
    sync_engine();
    const sim::DomainGuard g(dom.checker(), dom.id(), "ctx:writeback");
    for (const mem::Addr line : r.memory_writebacks) posted_writeback(line);
  }
  if (r.hit_level >= 0) {
    ++stats_.level_hits[static_cast<std::size_t>(r.hit_level)];
    if (dependent) now_ += r.latency;
    return;
  }

  // Miss to memory.  Local DRAM also serves unmapped addresses: the
  // functional model has no MMU faults; tests assert workloads stay
  // in-bounds.  The map only changes at setup (hot-plug), never from engine
  // events, so one lookup serves the whole miss.
  const mem::Region* region = node_.memory_map().find(addr);
  const bool is_local =
      region == nullptr || region->backing == mem::Backing::kLocalDram;
  if (is_local) ++stats_.local_misses;

  if (!dependent) reserve_slot();
  sync_engine();
  const sim::Time issued = now_;
  const sim::Time done = [&] {
    const sim::DomainGuard g(dom.checker(), dom.id(), "ctx:miss");
    return miss_path(addr, is_local);
  }();
  stats_.miss_latency_us.add(sim::to_us(done - issued));
  if (!dependent) {
    outstanding_.push(done);
  } else if (done > now_) {
    stats_.stall_time += done - now_;
    now_ = done;
  }
}

void MemContext::stream(mem::Addr addr, std::uint64_t bytes, bool write) {
  const std::uint64_t n = mem::lines_spanned(addr, bytes);
  mem::Addr line = mem::line_base(addr);
  for (std::uint64_t i = 0; i < n; ++i, line += mem::kCacheLineBytes) {
    access(line, write, /*dependent=*/false);
  }
}

sim::Time MemContext::drain() {
  while (!outstanding_.empty()) {
    const sim::Time t = outstanding_.top();
    outstanding_.pop();
    if (t > now_) {
      stats_.stall_time += t - now_;
      now_ = t;
    }
  }
  sync_engine();
  return now_;
}

void MemContext::reset_stats() {
  stats_ = ContextStats{};
  stats_.level_hits.resize(node_.caches().num_levels(), 0);
}

}  // namespace tfsim::node
