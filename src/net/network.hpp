// Datacenter fabric: hosts and switches joined by per-hop links, with
// destination-based routing tables, deterministic ECMP striping, and
// per-port switch queueing.
//
// The prototype the paper characterizes is a two-node point-to-point cable;
// scaling beyond rack-scale introduces a switched, shared network.  This
// model supports the spectrum: a direct topology (one link pair), the
// two-switch dumbbell, and a leaf/spine fabric (net/topology.hpp) where
// borrower-lender traffic stripes across parallel spine links -- the source
// of the contention the paper emulates with delay injection.
//
// Two routing layers coexist.  Explicit hop lists (add_route) remain for
// hand-wired paths and take precedence; everything else is forwarded by the
// RoutingTable computed from the declared links (net/routing.hpp), so a
// topology builder only declares connectivity and every host pair routes.
// Registered switch nodes (add_switch) apply per-port egress admission
// (buffer depth, drop vs backpressure -- net/switch.hpp) on either layer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/switch.hpp"
#include "sim/domain.hpp"
#include "sim/unique_function.hpp"

namespace tfsim::sim {
class ParallelEngine;
}  // namespace tfsim::sim

namespace tfsim::net {

/// End-to-end result of a delivery attempt across a (possibly faulty) path.
struct Delivery {
  /// Arrival time at the last hop the frame reached.  For kDelivered and
  /// kCorrupted this is the destination arrival; for lost/dropped frames it
  /// is when the loss point was reached (the sender only learns via its own
  /// timer).
  sim::Time arrival = 0;
  FaultOutcome outcome = FaultOutcome::kDelivered;

  bool delivered() const { return outcome == FaultOutcome::kDelivered; }
};

/// Continuation run in the destination domain when a posted frame arrives.
using ArrivalFn = sim::UniqueFunction<void(const Delivery&)>;

class Network {
 public:
  /// Register a host node; returns its id.
  NodeId add_node(const std::string& name);

  /// Register a switch: a fabric node whose egress queues apply the
  /// configured buffer policy to every frame it forwards.
  NodeId add_switch(const std::string& name, const SwitchConfig& cfg = {});
  bool is_switch(NodeId id) const { return switches_.count(id) > 0; }
  /// Switch state (per-port occupancy stats); throws for non-switch ids.
  Switch& switch_at(NodeId id);
  const Switch& switch_at(NodeId id) const;
  /// All switches, ordered by id (deterministic iteration for reports).
  const std::map<NodeId, Switch>& switches() const { return switches_; }

  /// Create a unidirectional link between two registered nodes.  Multiple
  /// hops between the same pair are allowed (multi-hop paths are built from
  /// per-hop links via the routing table or add_route).
  void connect(NodeId from, NodeId to, const LinkConfig& cfg);

  /// Declare an explicit path (sequence of already-connected hops) from src
  /// to dst, overriding the computed table for that pair.  A direct
  /// connect() implicitly adds the one-hop route.  Validation names the
  /// offending hop: every hop must have a link and consecutive hops must be
  /// contiguous (hop[i].second == hop[i+1].first).
  void add_route(NodeId src, NodeId dst, std::vector<std::pair<NodeId, NodeId>> hops);

  /// Recompute the destination-based routing tables from the current link
  /// graph.  Called lazily by the delivery paths after any topology change;
  /// exposed so builders can pay the cost at assembly time.
  void build_routes();

  /// Deliver `wire_bytes` from src to dst starting at `now`; returns arrival
  /// time after traversing every hop (serialization + queueing at each).
  /// Fault-oblivious view: equals deliver_ex(...).arrival (and consumes the
  /// same fault decisions), for callers that model the wire as reliable.
  sim::Time deliver(sim::Time now, NodeId src, NodeId dst,
                    std::uint64_t wire_bytes,
                    sim::Priority prio = sim::Priority::kBulk,
                    std::uint64_t flow_salt = 0);

  /// Fault-aware delivery: traverses hops until the frame is delivered or
  /// dropped.  Loss/flap/switch-drop at any hop ends the traversal;
  /// corruption travels on (the CRC is only checked at the destination
  /// NIC).  Pairs without an explicit route are forwarded hop by hop from
  /// the routing table; `flow_salt` keys the ECMP stripe (retransmissions
  /// can pass their attempt number to re-stripe around a dead parallel
  /// link).
  Delivery deliver_ex(sim::Time now, NodeId src, NodeId dst,
                      std::uint64_t wire_bytes,
                      sim::Priority prio = sim::Priority::kBulk,
                      std::uint64_t flow_salt = 0);

  /// Minimum propagation delay over every connected link; kTimeNever when
  /// the fabric has no links yet.  This is the sound conservative lookahead
  /// for partitioning the engine by node (sim/pdes.hpp): a frame sent at t
  /// cannot influence another domain before t + min_propagation.
  sim::Time min_propagation() const;

  /// Cross-domain delivery for PDES runs: computes the same analytic
  /// traversal as deliver_ex on the calling (source-domain) thread, then
  /// posts `on_arrival` into `dst_domain`'s calendar at the arrival time.
  /// Lost and flap-dropped frames post nothing -- the sender only learns
  /// via its own timer, exactly as with deliver_ex.  Returns the Delivery
  /// so the sender can arm that timer.
  ///
  /// Soundness: arrival >= now + min_propagation(), so with the engine
  /// lookahead <= min_propagation() the post always clears the horizon.
  /// The caller must partition link ownership: every link on the src->dst
  /// route may only be transmitted on from `src_domain`'s events (true for
  /// per-node egress links; shared switches/trunks need post_routed, which
  /// forwards hop by hop in each owner's domain).
  Delivery post_delivery(sim::ParallelEngine& pdes, sim::DomainId src_domain,
                         sim::DomainId dst_domain, sim::Time now, NodeId src,
                         NodeId dst, std::uint64_t wire_bytes,
                         sim::Priority prio, ArrivalFn on_arrival);

  /// Hop-by-hop PDES forwarding over the routing table for fabrics with
  /// *shared* switches: each hop's transmit executes in the owning node's
  /// domain (the first hop inline in the caller's, every later hop via a
  /// cross-domain post at the frame's arrival time), so parallel domains
  /// never race on a shared egress link.  Requires the identity partition
  /// the Cluster assembles: DomainId d is network node d's calendar,
  /// switches included.  `on_arrival` runs in dst's domain only if the
  /// frame survives every hop (loss, flap, or switch tail-drop ends the
  /// chain silently -- the sender learns via its own timer).
  ///
  /// Soundness: every post crosses exactly one link, so it lands at least
  /// one propagation delay ahead -- with lookahead <= min_propagation() the
  /// horizon always clears.
  ///
  /// Cost: one heap-allocated RoutedFrame per message carries the frame
  /// state from hop to hop; each hop event captures only the frame pointer
  /// and fits UniqueFunction's inline buffer, so hops allocate nothing.
  void post_routed(sim::ParallelEngine& pdes, sim::Time now, NodeId src,
                   NodeId dst, std::uint64_t wire_bytes, sim::Priority prio,
                   std::uint64_t flow_salt, ArrivalFn on_arrival);

  /// Wrap every existing link with a FaultyLink driven by `cfg`; each link
  /// gets an independent stream split off cfg.seed via link_fault_seed, so
  /// the full fault pattern is a pure function of (spec, seed).  Links
  /// connected later are unaffected; call again to cover them.  Switch
  /// uplinks are ordinary links and get wrapped like any other hop.
  void enable_faults(const FaultConfig& cfg);
  /// Target one hop (e.g. flap a single spine uplink); throws when the link
  /// is absent or already decorated.
  void enable_faults_on(NodeId from, NodeId to, const FaultConfig& cfg);
  bool faults_enabled() const { return !faulty_.empty(); }

  /// Link for a hop (for stats); throws if absent.
  Link& link(NodeId from, NodeId to);
  const Link& link(NodeId from, NodeId to) const;
  bool has_link(NodeId from, NodeId to) const {
    return links_.count({from, to}) > 0;
  }
  /// Fault decoration for a hop; nullptr when the hop is fault-free.
  const FaultyLink* faulty_link(NodeId from, NodeId to) const;

  std::size_t num_nodes() const { return names_.size(); }
  const std::string& node_name(NodeId id) const { return names_.at(id); }
  /// True when src can reach dst: an explicit route or a routing-table path.
  bool has_route(NodeId src, NodeId dst) const;
  /// The computed routing table (rebuilt if the topology changed).
  const RoutingTable& routing() const;

 private:
  /// Everything one hop of a traversal touches, resolved ahead of time.
  struct Hop {
    Link* link = nullptr;             ///< nullptr: no link from -> to
    FaultyLink* faulty = nullptr;     ///< fault decoration, if any
    Switch* sw = nullptr;             ///< set when `from` is a switch
    Switch::Egress port;              ///< sw's egress toward `to`
  };
  /// A post_routed message in flight: allocated once, handed from hop to
  /// hop.
  struct RoutedFrame {
    NodeId src = 0;
    NodeId dst = 0;
    Delivery d;
    std::uint64_t wire_bytes = 0;
    sim::Priority prio = sim::Priority::kBulk;
    std::uint64_t flow_salt = 0;
    ArrivalFn on_arrival;
  };

  Hop& hop(NodeId from, NodeId to) { return hops_[from * hops_n_ + to]; }
  /// One hop of a traversal: switch egress admission (when `from` is a
  /// registered switch), then the (possibly fault-decorated) link transmit.
  /// Advances d.arrival; returns false when the frame died on this hop.
  static bool transmit_hop(Delivery& d, Hop& h, std::uint64_t wire_bytes,
                           sim::Priority prio);
  /// Continue a post_routed chain from `cur` (executing in cur's domain at
  /// f->d.arrival).
  void step_routed(sim::ParallelEngine& pdes, NodeId cur,
                   std::unique_ptr<RoutedFrame> f);
  void ensure_routes() const;
  /// Re-index the hop table for at least num_nodes() nodes.
  void grow_hops();
  /// Fill the hop-table entry of link from -> to.
  void set_hop(NodeId from, NodeId to);
  std::string hop_name(const std::pair<NodeId, NodeId>& hop) const;

  std::vector<std::string> names_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<Link>> links_;
  std::map<std::pair<NodeId, NodeId>, std::unique_ptr<FaultyLink>> faulty_;
  std::map<std::pair<NodeId, NodeId>, std::vector<std::pair<NodeId, NodeId>>> routes_;
  std::map<NodeId, Switch> switches_;
  /// Lazily rebuilt from links_ (deterministic: the link map is ordered),
  /// so const queries (has_route) can trigger the rebuild.
  mutable RoutingTable table_;
  mutable bool table_dirty_ = true;
  /// hops_[from * hops_n_ + to] for every connected pair, kept current by
  /// connect() and enable_faults*, so no delivery path ever rebuilds it (a
  /// lazy rebuild from a PDES worker would race).  hops_n_ may lag
  /// num_nodes() for nodes that have no links yet; connect() grows it,
  /// doubling, so interleaved add_node/connect assembly stays O(n^2).
  std::vector<Hop> hops_;
  std::size_t hops_n_ = 0;
};

}  // namespace tfsim::net
