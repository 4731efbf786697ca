#include "net/network.hpp"

#include <algorithm>

#include "sim/pdes.hpp"

namespace tfsim::net {

NodeId Network::add_node(const std::string& name) {
  names_.push_back(name);
  table_dirty_ = true;
  return static_cast<NodeId>(names_.size() - 1);
}

NodeId Network::add_switch(const std::string& name, const SwitchConfig& cfg) {
  const NodeId id = add_node(name);
  switches_.emplace(id, Switch(cfg));
  return id;
}

Switch& Network::switch_at(NodeId id) {
  const auto it = switches_.find(id);
  if (it == switches_.end()) {
    throw std::invalid_argument("Network::switch_at: node " +
                                names_.at(id) + " is not a switch");
  }
  return it->second;
}

const Switch& Network::switch_at(NodeId id) const {
  const auto it = switches_.find(id);
  if (it == switches_.end()) {
    throw std::invalid_argument("Network::switch_at: node " +
                                names_.at(id) + " is not a switch");
  }
  return it->second;
}

void Network::connect(NodeId from, NodeId to, const LinkConfig& cfg) {
  if (from >= names_.size() || to >= names_.size()) {
    throw std::invalid_argument("Network::connect: unknown node");
  }
  const auto key = std::make_pair(from, to);
  if (links_.count(key) != 0) {
    throw std::invalid_argument("Network::connect: duplicate link");
  }
  links_[key] = std::make_unique<Link>(
      cfg, names_[from] + "->" + names_[to]);
  routes_[key] = {key};  // implicit one-hop route
  table_dirty_ = true;
  if (hops_n_ < names_.size()) {
    grow_hops();  // fills every entry, this link's included
  } else {
    set_hop(from, to);
  }
}

std::string Network::hop_name(const std::pair<NodeId, NodeId>& hop) const {
  const auto name = [this](NodeId id) -> std::string {
    if (id < names_.size()) return names_[id];
    std::string unknown = "#";
    unknown += std::to_string(id);
    return unknown;
  };
  return name(hop.first) + "->" + name(hop.second);
}

void Network::add_route(NodeId src, NodeId dst,
                        std::vector<std::pair<NodeId, NodeId>> hops) {
  if (hops.empty()) {
    throw std::invalid_argument("Network::add_route: empty path");
  }
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (links_.count(hops[i]) == 0) {
      throw std::invalid_argument("Network::add_route: hop " +
                                  std::to_string(i) + " (" +
                                  hop_name(hops[i]) + ") has no link");
    }
  }
  if (hops.front().first != src || hops.back().second != dst) {
    throw std::invalid_argument(
        "Network::add_route: path endpoints mismatch (path " +
        hop_name({hops.front().first, hops.back().second}) +
        ", route " + hop_name({src, dst}) + ")");
  }
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i].second != hops[i + 1].first) {
      throw std::invalid_argument(
          "Network::add_route: hop " + std::to_string(i) + " (" +
          hop_name(hops[i]) + ") is not contiguous with hop " +
          std::to_string(i + 1) + " (" + hop_name(hops[i + 1]) + ")");
    }
  }
  routes_[{src, dst}] = std::move(hops);
}

void Network::build_routes() {
  table_dirty_ = true;
  ensure_routes();
}

void Network::grow_hops() {
  hops_n_ = std::max(names_.size(), 2 * hops_n_);
  hops_.assign(hops_n_ * hops_n_, Hop{});
  for (const auto& [key, link] : links_) set_hop(key.first, key.second);
}

void Network::set_hop(NodeId from, NodeId to) {
  const auto key = std::make_pair(from, to);
  Hop& h = hop(from, to);
  h.link = links_.at(key).get();
  if (const auto fit = faulty_.find(key); fit != faulty_.end()) {
    h.faulty = fit->second.get();
  }
  if (const auto sit = switches_.find(from); sit != switches_.end()) {
    h.sw = &sit->second;
    h.port = sit->second.egress(to);
  }
}

void Network::ensure_routes() const {
  if (!table_dirty_) return;
  // The rebuild is deterministic (the link map is ordered), so lazy
  // recomputation from const queries can never diverge between runs; the
  // table members are mutable for exactly this cache.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(links_.size());
  for (const auto& [key, link] : links_) edges.push_back(key);
  table_.build(names_.size(), edges);
  table_dirty_ = false;
}

const RoutingTable& Network::routing() const {
  ensure_routes();
  return table_;
}

bool Network::has_route(NodeId src, NodeId dst) const {
  if (routes_.count({src, dst}) > 0) return true;
  ensure_routes();
  return table_.reachable(src, dst);
}

sim::Time Network::deliver(sim::Time now, NodeId src, NodeId dst,
                           std::uint64_t wire_bytes, sim::Priority prio,
                           std::uint64_t flow_salt) {
  return deliver_ex(now, src, dst, wire_bytes, prio, flow_salt).arrival;
}

bool Network::transmit_hop(Delivery& d, Hop& h, std::uint64_t wire_bytes,
                           sim::Priority prio) {
  Link& out = *h.link;
  // A degraded chaos window (port brownout) stretches the frame's effective
  // serialization, like a degraded link flap; the window is looked up at the
  // frame's arrival at the switch, in the same call as the admission
  // decision.
  double stretch = 1.0;
  if (h.sw != nullptr &&
      !h.sw->admit(h.port, d.arrival, wire_bytes, out, stretch)) {
    // Tail-dropped or inside a chaos down window (kill_switch / hard-down
    // brownout); downstream hops never see the frame.
    d.outcome = FaultOutcome::kSwitchDropped;
    return false;
  }
  if (stretch > 1.0) {
    const sim::Time ser = out.config().bandwidth.serialization_time(wire_bytes);
    d.arrival += static_cast<sim::Time>(static_cast<double>(ser) *
                                        (stretch - 1.0));
  }
  if (h.faulty == nullptr) {
    d.arrival = out.transmit(d.arrival, wire_bytes, prio);
    return true;
  }
  const auto tx = h.faulty->transmit(d.arrival, wire_bytes, prio);
  d.arrival = tx.delivered;
  if (tx.outcome == FaultOutcome::kLost ||
      tx.outcome == FaultOutcome::kFlapDropped) {
    d.outcome = tx.outcome;
    return false;  // the frame is gone
  }
  if (tx.outcome == FaultOutcome::kCorrupted) {
    d.outcome = FaultOutcome::kCorrupted;  // sticky until the far end
  }
  return true;
}

Delivery Network::deliver_ex(sim::Time now, NodeId src, NodeId dst,
                             std::uint64_t wire_bytes, sim::Priority prio,
                             std::uint64_t flow_salt) {
  Delivery d;
  d.arrival = now;
  if (const auto it = routes_.find({src, dst}); it != routes_.end()) {
    for (const auto& [from, to] : it->second) {
      if (!transmit_hop(d, hop(from, to), wire_bytes, prio)) return d;
    }
    return d;
  }
  // No explicit route: forward hop by hop from the routing table, striping
  // across equal-cost links by the flow hash.
  ensure_routes();
  if (!table_.reachable(src, dst)) {
    throw std::invalid_argument("Network::deliver: no route " +
                                names_.at(src) + "->" + names_.at(dst));
  }
  NodeId cur = src;
  while (cur != dst) {
    const NodeId next = table_.pick(cur, dst, src, flow_salt);
    if (!transmit_hop(d, hop(cur, next), wire_bytes, prio)) return d;
    cur = next;
  }
  return d;
}

sim::Time Network::min_propagation() const {
  sim::Time min = sim::kTimeNever;
  for (const auto& [key, link] : links_) {
    if (link->propagation() < min) min = link->propagation();
  }
  return min;
}

Delivery Network::post_delivery(sim::ParallelEngine& pdes,
                                sim::DomainId src_domain,
                                sim::DomainId dst_domain, sim::Time now,
                                NodeId src, NodeId dst,
                                std::uint64_t wire_bytes, sim::Priority prio,
                                ArrivalFn on_arrival) {
  const Delivery d = deliver_ex(now, src, dst, wire_bytes, prio);
  if (d.outcome == FaultOutcome::kLost ||
      d.outcome == FaultOutcome::kFlapDropped ||
      d.outcome == FaultOutcome::kSwitchDropped) {
    return d;  // the frame is gone; the destination domain never hears of it
  }
  pdes.post(src_domain, dst_domain, d.arrival,
            [cb = std::move(on_arrival), d]() mutable { cb(d); });
  return d;
}

void Network::post_routed(sim::ParallelEngine& pdes, sim::Time now, NodeId src,
                          NodeId dst, std::uint64_t wire_bytes,
                          sim::Priority prio, std::uint64_t flow_salt,
                          ArrivalFn on_arrival) {
  ensure_routes();
  if (!table_.reachable(src, dst)) {
    throw std::invalid_argument("Network::post_routed: no route " +
                                names_.at(src) + "->" + names_.at(dst));
  }
  auto f = std::make_unique<RoutedFrame>();
  f->src = src;
  f->dst = dst;
  f->d.arrival = now;
  f->wire_bytes = wire_bytes;
  f->prio = prio;
  f->flow_salt = flow_salt;
  f->on_arrival = std::move(on_arrival);
  step_routed(pdes, src, std::move(f));
}

void Network::step_routed(sim::ParallelEngine& pdes, NodeId cur,
                          std::unique_ptr<RoutedFrame> f) {
  const NodeId next = table_.pick(cur, f->dst, f->src, f->flow_salt);
  if (!transmit_hop(f->d, hop(cur, next), f->wire_bytes, f->prio)) {
    return;  // dropped mid-fabric; the sender only learns via its own timer
  }
  const auto cur_dom = static_cast<sim::DomainId>(cur);
  const auto next_dom = static_cast<sim::DomainId>(next);
  const sim::Time arrival = f->d.arrival;
  if (next == f->dst) {
    pdes.post(cur_dom, next_dom, arrival,
              [f = std::move(f)] { f->on_arrival(f->d); });
    return;
  }
  pdes.post(cur_dom, next_dom, arrival,
            [net = this, pdes = &pdes, next, f = std::move(f)]() mutable {
              net->step_routed(*pdes, next, std::move(f));
            });
}

void Network::enable_faults(const FaultConfig& cfg) {
  for (const auto& [key, link] : links_) {
    if (faulty_.count(key) != 0) continue;
    FaultConfig per_link = cfg;
    per_link.seed = link_fault_seed(cfg.seed, key.first, key.second);
    auto& faulty = faulty_[key];
    faulty = std::make_unique<FaultyLink>(*link, per_link);
    hop(key.first, key.second).faulty = faulty.get();
  }
}

void Network::enable_faults_on(NodeId from, NodeId to,
                               const FaultConfig& cfg) {
  const auto key = std::make_pair(from, to);
  const auto it = links_.find(key);
  if (it == links_.end()) {
    throw std::invalid_argument("Network::enable_faults_on: no link " +
                                hop_name(key));
  }
  if (faulty_.count(key) != 0) {
    throw std::invalid_argument("Network::enable_faults_on: link " +
                                hop_name(key) + " already fault-decorated");
  }
  FaultConfig per_link = cfg;
  per_link.seed = link_fault_seed(cfg.seed, from, to);
  auto& faulty = faulty_[key];
  faulty = std::make_unique<FaultyLink>(*it->second, per_link);
  hop(from, to).faulty = faulty.get();
}

const FaultyLink* Network::faulty_link(NodeId from, NodeId to) const {
  const auto it = faulty_.find({from, to});
  return it == faulty_.end() ? nullptr : it->second.get();
}

Link& Network::link(NodeId from, NodeId to) {
  const auto it = links_.find({from, to});
  if (it == links_.end()) {
    throw std::invalid_argument("Network::link: no such link");
  }
  return *it->second;
}

const Link& Network::link(NodeId from, NodeId to) const {
  const auto it = links_.find({from, to});
  if (it == links_.end()) {
    throw std::invalid_argument("Network::link: no such link");
  }
  return *it->second;
}

}  // namespace tfsim::net
