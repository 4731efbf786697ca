// Heap allocations per routed hop and per served request.  This binary
// replaces the global operator new with a counting one, so it is its own
// test executable.
//
// post_routed allocates one RoutedFrame per message; every hop event then
// captures only {network, engine, next node, frame pointer}, which fits the
// engine callback's inline buffer.  A message over 5 hops must therefore
// allocate exactly as often as one over a single hop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "checked_in_scenario.hpp"
#include "core/serving.hpp"
#include "net/network.hpp"
#include "node/cluster.hpp"
#include "scenario/scenario.hpp"
#include "sim/pdes.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The replacement allocator sits on malloc/free by definition.
// NOLINTBEGIN(cppcoreguidelines-no-malloc)
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// NOLINTEND(cppcoreguidelines-no-malloc)

namespace tfsim::net {
namespace {

// A line of six nodes, n0 - n1 - ... - n5, with the four inner nodes
// registered as switches so every inner hop also runs egress admission.
struct Line {
  Network net;
  std::vector<NodeId> nodes;

  Line() {
    for (int i = 0; i < 6; ++i) {
      std::string name = "n";
      name += std::to_string(i);
      nodes.push_back(i == 0 || i == 5 ? net.add_node(name)
                                       : net.add_switch(name));
    }
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      net.connect(nodes[i], nodes[i + 1], LinkConfig{});
      net.connect(nodes[i + 1], nodes[i], LinkConfig{});
    }
    net.build_routes();
  }
};

/// Allocations made by posting one message src -> dst and running it to
/// arrival, after an identical warm-up message has grown every calendar,
/// outbox and per-port stats entry the path touches.
std::uint64_t allocations_per_message(Line& line, sim::ParallelEngine& pdes,
                                      NodeId src, NodeId dst) {
  int arrived = 0;
  const auto send = [&] {
    line.net.post_routed(pdes, pdes.domain(src).now(), src, dst, 256,
                         sim::Priority::kBulk, 0,
                         [&arrived](const Delivery&) { ++arrived; });
    pdes.run();
  };
  send();
  const std::uint64_t before = g_allocations.load();
  send();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(arrived, 2);
  return after - before;
}

TEST(HopAllocationTest, FiveHopsAllocateAsOftenAsOneHop) {
  Line line;
  sim::PdesConfig cfg;
  cfg.lookahead = line.net.min_propagation();
  sim::ParallelEngine pdes(line.nodes.size(), cfg);

  const std::uint64_t one_hop =
      allocations_per_message(line, pdes, line.nodes[0], line.nodes[1]);
  const std::uint64_t five_hops =
      allocations_per_message(line, pdes, line.nodes[0], line.nodes[5]);
  EXPECT_EQ(five_hops, one_hop) << "a hop must not allocate";
  EXPECT_EQ(one_hop, 1u) << "one RoutedFrame per message";
}

/// Heap allocations per offered request over a whole serial run_serving.
double allocations_per_request(const char* scenario) {
  auto spec = checked_in_scenario(scenario);
  spec.pdes.threads = 1;
  node::Cluster cluster(spec);
  const std::uint64_t before = g_allocations.load();
  const core::ServingReport rep = core::run_serving(cluster);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_GT(rep.totals.offered, 0u);
  const double per_request = static_cast<double>(allocations) /
                             static_cast<double>(rep.totals.offered);
  return per_request;
}

// The whole serving loop: a request costs its two RoutedFrames and little
// else.  serving_diurnal measured 2.09 allocations per offered request once
// the open-loop source kept its in-flight records in an id-indexed ring
// (3.09 with a std::map node per request, 11.4 when every hop and every
// continuation allocated).
TEST(HopAllocationTest, ServedRequestAllocatesAFewTimes) {
  EXPECT_LE(allocations_per_request("serving_diurnal"), 2.1);
}

// chaos_rack runs the health detector, whose per-request epoch record is
// ring-indexed too: 2.64 allocations per offered request (4.62 with two
// std::map nodes per request).
TEST(HopAllocationTest, ChaosRequestAllocatesAFewTimes) {
  EXPECT_LE(allocations_per_request("chaos_rack"), 2.65);
}

}  // namespace
}  // namespace tfsim::net
