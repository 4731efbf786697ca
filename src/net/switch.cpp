#include "net/switch.hpp"

#include <algorithm>
#include <stdexcept>

namespace tfsim::net {

const char* to_string(QueuePolicy p) {
  switch (p) {
    case QueuePolicy::kDrop: return "drop";
    case QueuePolicy::kBackpressure: return "backpressure";
  }
  return "?";
}

QueuePolicy parse_queue_policy(const std::string& name) {
  if (name == "drop") return QueuePolicy::kDrop;
  if (name == "backpressure") return QueuePolicy::kBackpressure;
  throw std::invalid_argument("unknown switch queue policy \"" + name +
                              "\" (expected drop or backpressure)");
}

void Switch::set_down_windows(std::vector<FlapSpec> windows) {
  validate_flap_schedule(windows, "Switch down windows");
  down_ = std::move(windows);
}

void Switch::set_port_windows(NodeId egress, std::vector<FlapSpec> windows) {
  validate_flap_schedule(windows, "Switch port " + std::to_string(egress) +
                                      " brownout windows");
  port_windows_[egress] = std::move(windows);
}

Switch::Egress Switch::egress(NodeId to) {
  Egress e;
  e.to = to;
  e.windows = &port_windows_[to];
  return e;
}

const std::vector<FlapSpec>* Switch::port_windows(NodeId egress) const {
  const auto it = port_windows_.find(egress);
  return it == port_windows_.end() ? nullptr : &it->second;
}

const FlapSpec* Switch::active_chaos(
    const std::vector<FlapSpec>* port_windows, sim::Time now) const {
  // Switch-wide windows dominate: a killed switch is dead on every port no
  // matter what the per-port schedule says.
  if (const FlapSpec* w = active_window(down_, now)) return w;
  if (port_windows != nullptr) return active_window(*port_windows, now);
  return nullptr;
}

bool Switch::chaos_down(NodeId egress, sim::Time now) const {
  const FlapSpec* w = active_chaos(port_windows(egress), now);
  return w != nullptr && w->down();
}

double Switch::service_stretch(NodeId egress, sim::Time now) const {
  const FlapSpec* w = active_chaos(port_windows(egress), now);
  if (w == nullptr || w->down()) return 1.0;
  return 1.0 / w->bandwidth_factor;
}

bool Switch::admit(Egress& port, sim::Time now, std::uint64_t wire_bytes,
                   const Link& out, double& stretch) {
  if (port.stats == nullptr) port.stats = &ports_[port.to];
  PortStats& p = *port.stats;
  const FlapSpec* w = active_chaos(port.windows, now);
  if (w != nullptr && w->down()) {
    ++p.chaos_drops;
    return false;
  }
  const std::uint64_t occ = out.queued_bytes(now);
  if (cfg_.policy == QueuePolicy::kDrop &&
      occ + wire_bytes > cfg_.buffer_bytes) {
    ++p.drops;
    return false;
  }
  ++p.frames;
  p.bytes += wire_bytes;
  p.queued_bytes_sum += static_cast<double>(occ);
  p.peak_queued_bytes = std::max(p.peak_queued_bytes, occ + wire_bytes);
  stretch = w != nullptr ? 1.0 / w->bandwidth_factor : 1.0;
  return true;
}

bool Switch::admit(NodeId egress, sim::Time now, std::uint64_t wire_bytes,
                   const Link& out) {
  Egress port;
  port.to = egress;
  port.windows = port_windows(egress);
  double stretch = 1.0;
  return admit(port, now, wire_bytes, out, stretch);
}

const PortStats* Switch::port(NodeId egress) const {
  const auto it = ports_.find(egress);
  return it == ports_.end() ? nullptr : &it->second;
}

std::uint64_t Switch::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& [id, p] : ports_) n += p.drops;
  return n;
}

std::uint64_t Switch::total_chaos_drops() const {
  std::uint64_t n = 0;
  for (const auto& [id, p] : ports_) n += p.chaos_drops;
  return n;
}

}  // namespace tfsim::net
