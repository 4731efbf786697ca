// Switch node kind: per-port egress queueing on top of the link FIFO model.
//
// A switch is a fabric element (it never computes) with one egress queue per
// output port.  The queue itself is the analytic FIFO backlog of the egress
// link; the switch adds the buffer-management decision in front of it: a
// frame arriving for port p sees the port's current occupancy (queued bytes
// not yet on the wire) and is either admitted or handled per the configured
// policy.  kDrop models a shallow shared-nothing output buffer -- frames
// beyond the configured depth are tail-dropped, exactly what DRackSim-style
// rack models do at their ToR queues; kBackpressure models a lossless fabric
// (PFC/credit-based) where the queue simply grows and the latency cliff
// shows up as queueing delay instead of loss.
//
// Per-port occupancy statistics (frames, bytes, drops, peak and mean queued
// bytes at admission) are the observable bench/fabric_contention reports:
// where the contention cliff forms is visible as which egress port saturates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/units.hpp"

namespace tfsim::net {

enum class QueuePolicy {
  kDrop,          ///< tail-drop frames that would exceed the buffer
  kBackpressure,  ///< lossless: the egress backlog grows without bound
};

const char* to_string(QueuePolicy p);
/// Parse "drop" / "backpressure"; throws std::invalid_argument otherwise.
QueuePolicy parse_queue_policy(const std::string& name);

struct SwitchConfig {
  /// Per-egress-port buffer depth in bytes (kDrop only; admission compares
  /// occupancy + frame size against this, so a frame landing *exactly* at
  /// the depth is still admitted).
  std::uint64_t buffer_bytes = 256 * 1024;
  QueuePolicy policy = QueuePolicy::kBackpressure;

  friend bool operator==(const SwitchConfig&, const SwitchConfig&) = default;
};

/// Per-egress-port counters, sampled at every admission decision.
struct PortStats {
  std::uint64_t frames = 0;  ///< admitted frames
  std::uint64_t bytes = 0;   ///< admitted wire bytes
  std::uint64_t drops = 0;   ///< tail-dropped frames (kDrop only)
  /// Frames dropped by a chaos down window (kill_switch or a hard-down port
  /// brownout) -- kept apart from buffer tail-drops so a chaos event's
  /// blast radius is directly observable.
  std::uint64_t chaos_drops = 0;
  /// Peak queue depth in bytes, measured right after admission (occupancy
  /// the admitted frame sees plus the frame itself).
  std::uint64_t peak_queued_bytes = 0;
  /// Sum of the occupancy each admitted frame found ahead of it; divide by
  /// `frames` for the mean queue depth at arrival.
  double queued_bytes_sum = 0.0;

  double mean_queued_bytes() const {
    return frames != 0 ? queued_bytes_sum / static_cast<double>(frames) : 0.0;
  }
};

class Switch {
 public:
  explicit Switch(const SwitchConfig& cfg) : cfg_(cfg) {}

  /// A resolved egress port, kept per switch hop in Network's hop table so
  /// admitting a frame costs no map lookup.  Both pointers reference
  /// node-stable map entries of this switch.
  struct Egress {
    NodeId to = 0;
    /// The port's stats entry, resolved by the first frame admission sees
    /// (ports() lists only ports that saw a frame).  Written only by the
    /// domain that forwards through this switch.
    PortStats* stats = nullptr;
    /// The port's brownout schedule.  egress() creates the (empty) entry,
    /// so a later set_port_windows fills the same vector in place.
    const std::vector<FlapSpec>* windows = nullptr;
  };
  /// Handle for the egress toward neighbour `to` (assembly time only).
  Egress egress(NodeId to);

  /// Admission decision for a frame of `wire_bytes` entering the egress
  /// queue of `port` (whose link is `out`) at `now`.  Updates the port
  /// statistics; returns false when the frame is dropped.  On admission
  /// `stretch` receives the serialization multiplier service_stretch
  /// reports for the port at `now`.
  bool admit(Egress& port, sim::Time now, std::uint64_t wire_bytes,
             const Link& out, double& stretch);
  /// Same decision for a port named by neighbour id (no stretch output).
  bool admit(NodeId egress, sim::Time now, std::uint64_t wire_bytes,
             const Link& out);

  const SwitchConfig& config() const { return cfg_; }
  /// Ordered by egress neighbour id, so iteration is deterministic.
  const std::map<NodeId, PortStats>& ports() const { return ports_; }
  /// Stats for one egress port; nullptr before any frame touched it.
  const PortStats* port(NodeId egress) const;
  std::uint64_t total_drops() const;
  std::uint64_t total_chaos_drops() const;

  // --- chaos schedules (net/fault.hpp FlapSpec semantics) ------------------
  //
  // Written once at Cluster assembly from the scenario's chaos timeline and
  // only *read* per frame afterwards, so concurrent PDES domains forwarding
  // through different switches never race on them.  A down() window drops
  // every frame entering it (counted in chaos_drops); a degraded window
  // (0 < factor < 1) admits the frame and stretches its serialization by
  // 1/factor (applied by Network::transmit_hop).

  /// Whole-switch windows (kill_switch): apply to every egress port.
  void set_down_windows(std::vector<FlapSpec> windows);
  /// Per-port brownout windows for the egress toward `egress`.  Handles
  /// taken earlier with egress() see the new schedule.
  void set_port_windows(NodeId egress, std::vector<FlapSpec> windows);

  const std::vector<FlapSpec>& down_windows() const { return down_; }
  /// True when a hard-down window (switch-wide or this port's) covers `now`.
  bool chaos_down(NodeId egress, sim::Time now) const;
  /// Serialization multiplier for frames leaving toward `egress` at `now`:
  /// 1.0 on a clean port, 1/factor inside a degraded window (the tighter of
  /// the switch-wide and per-port windows wins).
  double service_stretch(NodeId egress, sim::Time now) const;

 private:
  /// Switch-wide windows first, then the port's own (may be nullptr).
  const FlapSpec* active_chaos(const std::vector<FlapSpec>* port_windows,
                               sim::Time now) const;
  const std::vector<FlapSpec>* port_windows(NodeId egress) const;

  SwitchConfig cfg_;
  std::map<NodeId, PortStats> ports_;
  std::vector<FlapSpec> down_;                      ///< sorted, validated
  std::map<NodeId, std::vector<FlapSpec>> port_windows_;  ///< each sorted
};

}  // namespace tfsim::net
