// Property tests for the PDES core (ISSUE 7 acceptance): over seeded random
// cluster topologies, serial and multi-threaded barrier-window runs must be
// byte-identical -- per-domain event counts, clocks, traffic digests and
// per-link byte counters all match for 1, 2 and 8 workers -- and the
// Cluster assembly path must partition node calendars exactly 1:1 with
// domain ids, with the lookahead pinned to the fabric's minimum link
// propagation.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
#include "sim/units.hpp"

namespace tfsim {
namespace {

// A random strongly-connected fabric: ring backbone (so every domain can
// reach every other) plus random chords, every link with its own random
// propagation and bandwidth.  Node i owns its egress links exclusively --
// the ownership partition net::Network::post_delivery requires.
struct RandomFabric {
  net::Network network;
  std::size_t nodes = 0;
  std::vector<std::vector<net::NodeId>> neighbors;  // per node, sorted order

  explicit RandomFabric(std::uint64_t seed) {
    sim::Rng rng(seed);
    nodes = 2 + rng.uniform_u64(11);  // 2..12 nodes
    neighbors.resize(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      network.add_node(std::string("n").append(std::to_string(i)));
    }
    auto connect = [&](std::size_t a, std::size_t b) {
      if (a == b || network.has_route(static_cast<net::NodeId>(a),
                                      static_cast<net::NodeId>(b))) {
        return;
      }
      net::LinkConfig cfg;
      cfg.propagation = sim::from_ns(50.0 + rng.uniform(0.0, 450.0));
      cfg.bandwidth = sim::Bandwidth::from_gbit(25.0 + rng.uniform(0.0, 75.0));
      network.connect(static_cast<net::NodeId>(a),
                      static_cast<net::NodeId>(b), cfg);
      neighbors[a].push_back(static_cast<net::NodeId>(b));
    };
    for (std::size_t i = 0; i < nodes; ++i) connect(i, (i + 1) % nodes);
    const std::size_t chords = rng.uniform_u64(2 * nodes);
    for (std::size_t c = 0; c < chords; ++c) {
      connect(rng.uniform_u64(nodes), rng.uniform_u64(nodes));
    }
  }
};

// Drive seeded per-domain traffic over the fabric through post_delivery and
// fold everything observable into one digest string per domain.
std::string run_fabric(RandomFabric& fabric, unsigned threads,
                       std::uint64_t seed, int hops_per_node) {
  sim::PdesConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = fabric.network.min_propagation();
  sim::ParallelEngine pdes(fabric.nodes, cfg);

  struct DomainState {
    sim::Rng rng{0};
    std::uint64_t fold = 0;
    std::uint64_t arrivals = 0;
  };
  std::vector<DomainState> state(fabric.nodes);
  for (std::size_t d = 0; d < fabric.nodes; ++d) {
    state[d].rng = sim::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (d + 1)));
  }

  // Each arrival folds the delivery into the *destination* domain's state
  // and forwards to a random neighbor until the hop budget runs dry.  All
  // mutable state is indexed by the executing domain, so the partition
  // invariant holds by construction.
  std::function<void(sim::DomainId, int)> bounce = [&](sim::DomainId d,
                                                       int budget) {
    DomainState& st = state[d];
    sim::Engine& self = pdes.domain(d);
    st.fold = st.fold * 1099511628211ULL ^ self.now() ^ d;
    ++st.arrivals;
    if (budget <= 0 || fabric.neighbors[d].empty()) return;
    const auto& out = fabric.neighbors[d];
    const net::NodeId dst = out[st.rng.uniform_u64(out.size())];
    const std::uint64_t bytes = 64 + st.rng.uniform_u64(4032);
    const net::Delivery sent = fabric.network.post_delivery(
        pdes, d, static_cast<sim::DomainId>(dst), self.now(),
        static_cast<net::NodeId>(d), dst, bytes, sim::Priority::kBulk,
        [&bounce, dst, budget](const net::Delivery& del) {
          (void)del;
          bounce(static_cast<sim::DomainId>(dst), budget - 1);
        });
    st.fold ^= sent.arrival * 0x9E3779B97F4A7C15ULL;
  };

  for (std::size_t d = 0; d < fabric.nodes; ++d) {
    const sim::Time start = state[d].rng.uniform_u64(cfg.lookahead) + 1;
    pdes.post(static_cast<sim::DomainId>(d), static_cast<sim::DomainId>(d),
              start, [&bounce, d, hops_per_node] {
                bounce(static_cast<sim::DomainId>(d), hops_per_node);
              });
  }
  pdes.run();

  std::ostringstream os;
  for (std::size_t d = 0; d < fabric.nodes; ++d) {
    os << d << ":" << state[d].arrivals << ":" << state[d].fold << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).executed() << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).now() << ";";
  }
  for (std::size_t i = 0; i < fabric.nodes; ++i) {
    for (const net::NodeId j : fabric.neighbors[i]) {
      const auto& link = fabric.network.link(static_cast<net::NodeId>(i), j);
      os << "L" << i << ">" << j << "=" << link.bytes_sent() << ","
         << link.packets_sent() << ";";
    }
  }
  return os.str();
}

TEST(PdesPropertyTest, RandomTopologiesByteIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    // Fresh fabric per thread count: link servers carry queueing state.
    RandomFabric f1(seed), f2(seed), f8(seed);
    ASSERT_EQ(f1.nodes, f2.nodes);
    ASSERT_EQ(f1.nodes, f8.nodes);
    const std::string serial = run_fabric(f1, 1, seed, 60);
    const std::string par2 = run_fabric(f2, 2, seed, 60);
    const std::string par8 = run_fabric(f8, 8, seed, 60);
    EXPECT_EQ(serial, par2) << "seed " << seed;
    EXPECT_EQ(serial, par8) << "seed " << seed;
  }
}

TEST(PdesPropertyTest, SameSeedReproducesSameDigestDifferentSeedDiffers) {
  RandomFabric a(42), b(42), c(43);
  const std::string da = run_fabric(a, 4, 42, 40);
  const std::string db = run_fabric(b, 4, 42, 40);
  EXPECT_EQ(da, db);
  const std::string dc = run_fabric(c, 4, 43, 40);
  EXPECT_NE(da, dc) << "seed must steer topology and traffic";
}

// Cluster assembly across random scenario shapes: node index == DomainId,
// every node's calendar is its domain's calendar, and the engine lookahead
// equals the fabric's minimum propagation.
TEST(PdesPropertyTest, ClusterPartitionAlignsNodesAndDomains) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(seed * 0xA5A5);
    scenario::ScenarioSpec spec;
    spec.name = std::string("pdes_prop").append(std::to_string(seed));
    scenario::NodeDecl borrowers;
    borrowers.name = "b";
    borrowers.role = scenario::Role::kBorrower;
    borrowers.count = static_cast<std::uint32_t>(1 + rng.uniform_u64(4));
    scenario::NodeDecl lenders;
    lenders.name = "l";
    lenders.role = scenario::Role::kLender;
    lenders.count = static_cast<std::uint32_t>(1 + rng.uniform_u64(6));
    spec.nodes = {borrowers, lenders};
    spec.topology.kind = rng.uniform_u64(2) == 0
                             ? scenario::TopologyKind::kDirect
                             : scenario::TopologyKind::kDumbbell;
    spec.topology.link.propagation =
        sim::from_ns(100.0 + rng.uniform(0.0, 400.0));
    spec.topology.trunk.propagation =
        sim::from_ns(100.0 + rng.uniform(0.0, 400.0));
    spec.pdes.threads = static_cast<std::uint32_t>(1 + rng.uniform_u64(8));

    node::Cluster cluster(spec);
    ASSERT_NE(cluster.pdes(), nullptr) << "seed " << seed;
    // Fabric switches own trailing domains after the hosts.
    EXPECT_EQ(cluster.pdes()->num_domains(),
              cluster.num_nodes() + spec.topology.switch_count());
    EXPECT_EQ(cluster.pdes()->lookahead(),
              cluster.network().min_propagation())
        << "seed " << seed;
    for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
      EXPECT_EQ(&cluster.engine_for(i),
                &cluster.pdes()->domain(static_cast<sim::DomainId>(i)))
          << "seed " << seed << " node " << i;
    }
  }
}

}  // namespace
}  // namespace tfsim
