// Declarative scenario layer: everything needed to assemble an N-node
// disaggregation testbed as data instead of code.
//
// A ScenarioSpec names the nodes (roles, DRAM, NIC), the topology joining
// them (direct full-mesh links, a two-switch dumbbell with a shared trunk,
// or a leaf/spine fabric), the delay injector, the remote-memory
// reservations (with the control-plane placement policy, and optional
// striping across lenders), workload bindings, faults, chaos, serving
// traffic and sweep axes.  The JSON files under scenarios/ are the only
// definition of each testbed -- the same config-driven approach rack-scale
// simulators such as DRackSim and CXL-ClusterSim use to cover many cluster
// shapes without baked-in topologies.  node::Cluster turns a spec into a
// live testbed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mem/dram.hpp"
#include "net/fault.hpp"
#include "net/latency_dist.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "nic/nic.hpp"
#include "scenario/json.hpp"
#include "sim/units.hpp"

namespace tfsim::scenario {

enum class Role { kBorrower, kLender };

std::string to_string(Role role);
/// Throws std::invalid_argument listing the accepted names (so do the others).
Role parse_role(const std::string& name);

/// One node *template*: `count` > 1 expands into count nodes named
/// "<name>0".."<name>N-1" (a single node keeps the bare name).
struct NodeDecl {
  std::string name = "node";
  Role role = Role::kLender;
  std::uint32_t count = 1;
  mem::DramConfig dram;  ///< AC922 defaults: 512 GiB, 140 GB/s, 95 ns
  /// Borrower-capable (has the FPGA card).  Defaults from the role.
  std::optional<bool> with_nic;
  nic::NicConfig nic;  ///< window 129, 320 MHz, PERIOD 1

  bool nic_enabled() const {
    return with_nic.value_or(role == Role::kBorrower);
  }
};

enum class TopologyKind {
  kDirect,    ///< full-mesh borrower <-> lender point-to-point cables
  kDumbbell,  ///< borrowers -- switchA == shared trunk == switchB -- lenders
  kLeafSpine, ///< 2-tier fabric: hosts -- L leaves == S spines (ECMP-striped)
};

std::string to_string(TopologyKind kind);
TopologyKind parse_topology_kind(const std::string& name);

struct TopologySpec {
  TopologyKind kind = TopologyKind::kDirect;
  net::LinkConfig link;    ///< direct cables / host <-> switch edge hops
  net::LinkConfig trunk;   ///< dumbbell only: the shared switch-switch hop
  net::LinkConfig uplink;  ///< leaf_spine only: the leaf <-> spine hops
  std::uint32_t leaves = 2;   ///< leaf_spine only
  std::uint32_t spines = 2;   ///< leaf_spine only
  net::SwitchConfig sw;       ///< egress queue policy for every switch

  /// Fabric nodes the topology adds beyond the declared hosts (the Cluster
  /// sizes its PDES partition as expanded_node_count() + switch_count()).
  std::uint32_t switch_count() const {
    switch (kind) {
      case TopologyKind::kDirect: return 0;
      case TopologyKind::kDumbbell: return 2;
      case TopologyKind::kLeafSpine: return leaves + spines;
    }
    return 0;
  }
};

/// Delay-injection settings applied to every borrower NIC at build time.
struct InjectorSpec {
  std::uint64_t period = 1;  ///< PERIOD gate; 1 = vanilla ThymesisFlow
  /// Distribution-mode injection (overrides `period` when set).
  std::optional<net::DistKind> dist_kind;
  double dist_mean_us = 0.0;
  std::uint64_t dist_seed = 42;
};

/// One remote-memory reservation request.  `borrower` empty = applies to
/// every borrower node.  `chunks` > 1 splits the size into equal chunks
/// reserved one at a time through the placement policy -- with "most-free"
/// and equally-sized lenders this stripes the region across lenders
/// round-robin (interleaved 1-borrower-N-lender pooling).
struct ReservationSpec {
  std::string borrower;
  std::uint64_t size_gib = 16;
  std::uint32_t chunks = 1;
  std::string name = "thymesisflow-borrowed";
};

/// Deterministic fault injection: every fabric link gets loss, corruption
/// and flap scheduling from one seeded FaultConfig (per-link streams are
/// split off the seed, so the pattern is a pure function of the spec), plus
/// an optional mid-run lender kill.  Defaults = pristine fabric.
struct FaultSpec {
  net::FaultConfig link;
  std::string kill_lender;  ///< expanded node name ("lender0"); "" = none
  double kill_at_us = 0.0;  ///< the lender stops responding from here on

  bool enabled() const { return link.enabled() || !kill_lender.empty(); }
};

/// Fabric chaos event kinds (the scripted gray-failure timeline).
enum class ChaosKind {
  kKillSwitch,    ///< the named switch hard-drops every frame
  kBrownoutPort,  ///< one switch egress port degrades ("switch:neighbor")
  kGrayLender,    ///< the named lender serves, but `factor`x slower
  kRecover,       ///< close the target's most recent open window
};

std::string to_string(ChaosKind kind);
ChaosKind parse_chaos_kind(const std::string& name);

/// One scripted chaos event.  `target` is a switch name suffix ("spine1"),
/// a "switch:neighbor" egress port ("leaf0:spine1"), or an expanded lender
/// name ("lender0").  `factor` is the brownout bandwidth factor in [0, 1)
/// or the gray-lender service inflation (> 1); unused for kill/recover.
/// `for_us` > 0 bounds the window without a matching recover event.
struct ChaosEventSpec {
  double at_us = 0.0;
  ChaosKind kind = ChaosKind::kKillSwitch;
  std::string target;
  double factor = 0.0;
  double for_us = 0.0;

  friend bool operator==(const ChaosEventSpec&,
                         const ChaosEventSpec&) = default;
};

/// The scripted chaos timeline.  Events must be listed in non-decreasing
/// at_us order; resolve_chaos() turns them into closed windows and rejects
/// malformed timelines (unmatched recover, overlapping windows on one
/// target, out-of-range factors).
struct ChaosSpec {
  std::uint64_t seed = 1;  ///< gray-lender jitter stream seed
  std::vector<ChaosEventSpec> events;

  bool enabled() const { return !events.empty(); }
};

/// One resolved chaos window: [start, end) of a non-recover event.  An
/// event never closed (no recover, no for_us) runs to sim::kTimeNever.
struct ChaosWindow {
  ChaosKind kind = ChaosKind::kKillSwitch;
  std::string target;
  sim::Time start = 0;
  sim::Time end = 0;
  double factor = 0.0;
};

/// Validate the timeline and resolve it into per-target windows (stable
/// event order).  Throws std::invalid_argument naming the offending event
/// index.  node::Cluster applies the switch windows at assembly;
/// core/run_serving applies the gray-lender windows; bench/chaos_mttr
/// scores recovery per window.
std::vector<ChaosWindow> resolve_chaos(const ChaosSpec& chaos);

/// Online gray-failure detector settings (ctrl/health.hpp) for the serving
/// loop.  Disabled by default: the baseline behavior is timeout-driven
/// failover only, which is exactly what bench/chaos_mttr compares against.
struct DetectorSpec {
  bool enabled = false;
  double alpha = 0.3;
  double latency_threshold = 3.0;
  double timeout_weight = 10.0;
  std::uint32_t warmup = 16;
  std::uint32_t confirm = 3;
  /// After migrating off a sick primary, every Nth dispatch probes it.
  std::uint32_t probe_interval = 16;
  /// A probe is "good" when it completes within rejoin_margin x the healthy
  /// baseline snapshot -- deliberately tighter than latency_threshold, so a
  /// lender that is merely less gray does not win the traffic back.
  double rejoin_margin = 1.5;
  /// Consecutive good probes before the source rejoins its recovered
  /// primary.
  std::uint32_t rejoin_confirm = 3;

  friend bool operator==(const DetectorSpec&, const DetectorSpec&) = default;
};

/// A workload binding: which driver a scenario-driven bench should run on
/// each borrower and where its arrays live.
struct WorkloadSpec {
  std::string kind = "stream";       ///< stream | bfs | sssp | redis | flow
  std::string placement = "remote";  ///< local | remote | auto
};

/// One tenant in the serving traffic mix: a named slice of the aggregate
/// offered rate with a QoS weight (ctrl/qos.hpp credits at the lender).
struct TrafficTenantSpec {
  std::string name = "default";
  std::uint32_t weight = 1;
  double rate_share = 1.0;  ///< fraction of traffic.rate_rps this tenant offers
};

/// Open-loop serving traffic (workloads/openloop): arrivals occur at the
/// configured rate regardless of service progress, split evenly over the
/// borrower nodes and across tenants by rate_share.  Disabled when
/// `process` is empty.
struct TrafficSpec {
  std::string process;           ///< "" | "poisson" | "bursty" | "diurnal"
  double rate_rps = 0.0;         ///< aggregate offered rate, requests/sec
  std::uint64_t clients = 0;     ///< modeled client population (reporting)
  std::uint64_t seed = 1;        ///< per-source streams are split off this
  std::uint32_t max_in_flight = 64;   ///< dispatch window per source
  std::uint32_t queue_depth = 128;    ///< waiting room per source
  double duration_us = 0.0;      ///< arrival horizon (one diurnal cycle)
  double timeout_us = 200.0;     ///< per-request timeout (0 = wait forever)
  std::uint64_t req_bytes = 128;     ///< wire size of a request frame
  std::uint64_t resp_bytes = 1024;   ///< wire size of a response frame
  double burst_on_us = 100.0;    ///< bursty: on-phase length
  double burst_off_us = 300.0;   ///< bursty: off-phase length
  double diurnal_period_us = 10'000.0;  ///< diurnal: one simulated "day"
  double diurnal_amplitude = 0.8;       ///< diurnal: rate swing in [0,1]
  /// Lender service capacity, requests/sec; 0 = uncapped (no QoS gate, no
  /// service queueing — responses leave as fast as frames arrive).
  double lender_capacity_rps = 0.0;
  double qos_window_us = 100.0;  ///< QoS credit refill window
  double tenant_gib = 1.0;       ///< bytes booked per tenant at its lender
  /// Consecutive timeouts before a source retargets its next failover
  /// lender (reactive re-placement along the precomputed chain).
  std::uint32_t failover_threshold = 4;
  std::vector<TrafficTenantSpec> tenants;  ///< empty = one default tenant

  bool enabled() const { return !process.empty(); }
};

/// Declared SLO targets the tail tracker (core/slo.hpp) scores windows
/// against.  A target of 0 leaves that percentile unconstrained.
struct SloSpec {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double window_us = 1000.0;  ///< compliance-scoring window length
};

/// Intra-run parallelism (sim/pdes.hpp): one calendar per node, advanced in
/// lookahead windows that the calling thread runs itself, sharing a window
/// with up to `threads` - 1 helpers once it outlasts a handoff.  The
/// TFSIM_PDES env var overrides the scenario at build time ("off" forces
/// serial, N forces N workers).  Lookahead 0 derives the horizon from the
/// fabric's minimum link propagation — the only always-sound choice; set
/// it explicitly only to *shrink* the window below that bound.
struct PdesSpec {
  std::uint32_t threads = 0;   ///< 0 = classic single-calendar engine
  double lookahead_ns = 0.0;   ///< 0 = net::Network::min_propagation()

  bool enabled() const { return threads > 0; }
};

/// Sweep axes a scenario can pin; empty = the bench's built-in default.
struct SweepSpec {
  std::vector<std::uint64_t> periods;
  std::vector<std::uint32_t> lenders;    ///< lender-count axis (pooling)
  std::vector<std::uint32_t> borrowers;  ///< borrower-count axis (trunk)
  std::vector<std::uint32_t> instances;  ///< per-node workload instances
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::string description;
  std::vector<NodeDecl> nodes;
  TopologySpec topology;
  InjectorSpec injector;
  /// Control-plane lender-selection policy (ctrl::make_policy name).
  std::string policy = "first-fit";
  std::vector<ReservationSpec> reservations;
  std::vector<WorkloadSpec> workloads;
  FaultSpec faults;
  ChaosSpec chaos;
  DetectorSpec detector;
  TrafficSpec traffic;
  SloSpec slo;
  PdesSpec pdes;
  SweepSpec sweep;

  const NodeDecl* find_node(const std::string& name) const;
  /// Total declared nodes after count-expansion.
  std::uint32_t expanded_node_count() const;
  /// Set the count of every lender-role (resp. borrower-role) declaration;
  /// used by benches sweeping cluster size.
  void set_lender_count(std::uint32_t count);
  void set_borrower_count(std::uint32_t count);
};

// --- JSON (schema documented in DESIGN.md section 9) -----------------------

/// Parse a scenario document; throws JsonError on syntax errors, unknown
/// keys (so files cannot rot silently), or invalid values -- naming the
/// field at fault ("scenario: nodes[0].count: expected a non-negative
/// integer").  Absent keys keep the struct defaults above.
ScenarioSpec from_json(const Json& doc);
ScenarioSpec parse(const std::string& text);
/// Load from a file; throws std::runtime_error when unreadable.
ScenarioSpec load_file(const std::string& path);

/// Serialize the *resolved* spec -- every field explicit, defaults filled
/// in -- for provenance echoes next to result CSVs.  from_json(to_json(s))
/// reproduces s exactly.
Json to_json(const ScenarioSpec& spec);
std::string resolved_json(const ScenarioSpec& spec);

/// The paper's two-node ThymesisFlow prototype (== node::thymesisflow_testbed
/// and scenarios/paper_twonode.json); the default of core::FaultMatrixOptions.
ScenarioSpec paper_two_node();

}  // namespace tfsim::scenario
