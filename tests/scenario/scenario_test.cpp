#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checked_in_scenario.hpp"
#include "node/testbed.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/units.hpp"

namespace tfsim::scenario {
namespace {

// --- checked-in files and the in-code paper testbed ---------------------

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ScenarioBuiltinTest, LeafSpineRackShape) {
  const ScenarioSpec spec = checked_in_scenario("leafspine_rack128");
  EXPECT_EQ(spec.topology.kind, TopologyKind::kLeafSpine);
  EXPECT_EQ(spec.topology.leaves, 8u);
  EXPECT_EQ(spec.topology.spines, 4u);
  EXPECT_EQ(spec.topology.switch_count(), 12u);
  EXPECT_EQ(spec.expanded_node_count(), 256u);  // 128 borrowers + 128 lenders
  EXPECT_TRUE(spec.pdes.enabled());
  EXPECT_EQ(spec.sweep.borrowers,
            (std::vector<std::uint32_t>{16, 32, 64, 128, 256}));
}

TEST(ScenarioBuiltinTest, SwitchCountPerKind) {
  ScenarioSpec spec;
  spec.topology.kind = TopologyKind::kDirect;
  EXPECT_EQ(spec.topology.switch_count(), 0u);
  spec.topology.kind = TopologyKind::kDumbbell;
  EXPECT_EQ(spec.topology.switch_count(), 2u);
  spec.topology.kind = TopologyKind::kLeafSpine;
  spec.topology.leaves = 3;
  spec.topology.spines = 2;
  EXPECT_EQ(spec.topology.switch_count(), 5u);
}

TEST(ScenarioBuiltinTest, PaperTwoNodeMatchesTestbedDefaults) {
  const ScenarioSpec spec = paper_two_node();
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].role, Role::kBorrower);
  EXPECT_EQ(spec.nodes[1].role, Role::kLender);
  EXPECT_TRUE(spec.nodes[0].nic_enabled());
  EXPECT_FALSE(spec.nodes[1].nic_enabled());
  ASSERT_EQ(spec.reservations.size(), 1u);
  EXPECT_EQ(spec.reservations[0].name, "thymesisflow-borrowed");

  // Round-trips through the legacy TestbedSpec without loss.
  const node::TestbedSpec tb = node::to_testbed_spec(spec);
  const node::TestbedSpec ref = node::thymesisflow_testbed();
  EXPECT_EQ(tb.remote_gib, ref.remote_gib);
  EXPECT_EQ(tb.borrower.dram.capacity_bytes, ref.borrower.dram.capacity_bytes);
  EXPECT_EQ(tb.borrower.nic.window_entries, ref.borrower.nic.window_entries);

  // Apart from naming and workload bindings (which only scenario-driven
  // benches consume), the shim's scenario is the built-in.
  ScenarioSpec shim = node::to_scenario(tb);
  shim.name = spec.name;
  shim.description = spec.description;
  shim.workloads = spec.workloads;
  EXPECT_EQ(resolved_json(shim), resolved_json(spec));
}

// paper_two_node() is the one spec still written in code (the default of
// core::FaultMatrixOptions); it must stay the checked-in file, byte for byte.
TEST(ScenarioBuiltinTest, PaperTwoNodeEqualsCheckedInFile) {
  EXPECT_EQ(resolved_json(paper_two_node()),
            read_text(std::string(TFSIM_SCENARIO_SOURCE_DIR) +
                      "/paper_twonode.json"));
}

TEST(ScenarioBuiltinTest, CountExpansionAndOverrides) {
  ScenarioSpec spec = checked_in_scenario("pooling_1xN");
  EXPECT_EQ(spec.expanded_node_count(), 5u);  // 1 borrower + 4 lenders
  spec.set_lender_count(8);
  EXPECT_EQ(spec.expanded_node_count(), 9u);
  spec.set_borrower_count(2);
  EXPECT_EQ(spec.expanded_node_count(), 10u);
}

// --- JSON parse / serialize --------------------------------------------

TEST(ScenarioJsonTest, ResolvedJsonRoundTripsExactly) {
  const std::vector<std::string> files = checked_in_scenario_files();
  ASSERT_GE(files.size(), 8u);
  for (const std::string& file : files) {
    const std::string dumped = resolved_json(load_file(file));
    EXPECT_EQ(resolved_json(parse(dumped)), dumped) << file;
  }
}

TEST(ScenarioJsonTest, LeafSpineTopologyBlockParses) {
  const ScenarioSpec spec = parse(R"({
    "name": "rack",
    "nodes": [
      {"name": "b", "role": "borrower", "count": 4},
      {"name": "l", "role": "lender", "count": 4}
    ],
    "topology": {"kind": "leaf_spine", "leaves": 2, "spines": 3,
                 "uplink": {"bandwidth_gbit": 200, "propagation_ns": 450},
                 "switch": {"buffer_kib": 64, "policy": "drop"}}
  })");
  EXPECT_EQ(spec.topology.kind, TopologyKind::kLeafSpine);
  EXPECT_EQ(spec.topology.leaves, 2u);
  EXPECT_EQ(spec.topology.spines, 3u);
  EXPECT_DOUBLE_EQ(spec.topology.uplink.bandwidth.gbit_per_sec(), 200.0);
  EXPECT_EQ(spec.topology.uplink.propagation, sim::from_ns(450.0));
  EXPECT_EQ(spec.topology.sw.buffer_bytes, 64u * 1024u);
  EXPECT_EQ(spec.topology.sw.policy, net::QueuePolicy::kDrop);
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

TEST(ScenarioJsonTest, TopologyDefaultsStaySwitchless) {
  const ScenarioSpec spec = parse(R"({"nodes": [{"name": "b"}]})");
  EXPECT_EQ(spec.topology.kind, TopologyKind::kDirect);
  EXPECT_EQ(spec.topology.leaves, 2u);
  EXPECT_EQ(spec.topology.spines, 2u);
  EXPECT_EQ(spec.topology.sw.policy, net::QueuePolicy::kBackpressure);
}

TEST(ScenarioJsonTest, LeafSpineValidation) {
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"kind": "leaf_spine", "leaves": 0}})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"kind": "leaf_spine", "spines": 0}})"),
               JsonError);
  EXPECT_THROW(
      parse(R"({"nodes": [{"name": "b"}],
                "topology": {"switch": {"policy": "red"}}})"),
      JsonError)
      << "unknown queue policy";
  EXPECT_THROW(
      parse(R"({"nodes": [{"name": "b"}],
                "topology": {"switch": {"depth_kib": 64}}})"),
      JsonError)
      << "unknown switch key";
}

TEST(ScenarioJsonTest, UnitsBearingKeysParse) {
  const ScenarioSpec spec = parse(R"({
    "name": "mini",
    "policy": "most-free",
    "nodes": [
      {"name": "b", "role": "borrower",
       "dram": {"capacity_gib": 2, "bandwidth_gbyte": 70, "latency_ns": 50},
       "nic": {"window_entries": 64, "period": 8}},
      {"name": "l", "role": "lender", "count": 3}
    ],
    "topology": {"kind": "dumbbell",
                 "trunk": {"bandwidth_gbit": 50, "propagation_ns": 600}},
    "injector": {"period": 16},
    "reservations": [{"size_gib": 1, "chunks": 3, "name": "r"}],
    "sweep": {"periods": [1, 100]}
  })");
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.policy, "most-free");
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_EQ(spec.nodes[0].dram.capacity_bytes, 2 * sim::kGiB);
  EXPECT_DOUBLE_EQ(spec.nodes[0].dram.bus_bandwidth.gbyte_per_sec(), 70.0);
  EXPECT_EQ(spec.nodes[0].dram.access_latency, sim::from_ns(50.0));
  EXPECT_EQ(spec.nodes[0].nic.window_entries, 64u);
  EXPECT_EQ(spec.nodes[0].nic.period, 8u);
  EXPECT_EQ(spec.nodes[1].count, 3u);
  EXPECT_FALSE(spec.nodes[1].nic_enabled()) << "lender default: no NIC";
  EXPECT_EQ(spec.topology.kind, TopologyKind::kDumbbell);
  EXPECT_DOUBLE_EQ(spec.topology.trunk.bandwidth.gbit_per_sec(), 50.0);
  EXPECT_EQ(spec.topology.trunk.propagation, sim::from_ns(600.0));
  EXPECT_EQ(spec.injector.period, 16u);
  ASSERT_EQ(spec.reservations.size(), 1u);
  EXPECT_EQ(spec.reservations[0].chunks, 3u);
  EXPECT_EQ(spec.sweep.periods, (std::vector<std::uint64_t>{1, 100}));
}

TEST(ScenarioJsonTest, FaultsBlockParses) {
  const ScenarioSpec spec = parse(R"({
    "name": "faulty",
    "nodes": [
      {"name": "b", "role": "borrower",
       "nic": {"retry_timeout_us": 10, "retry_backoff": 1.5,
               "max_retries": 3, "detach_threshold": 2}},
      {"name": "l", "role": "lender"}
    ],
    "faults": {
      "loss_rate": 0.01,
      "corrupt_rate": 0.001,
      "seed": 9,
      "flaps": [{"at_us": 50, "for_us": 25, "factor": 0},
                {"at_us": 120, "for_us": 40, "factor": 0.25}],
      "kill_lender": {"node": "l", "at_us": 200}
    }
  })");
  EXPECT_TRUE(spec.faults.enabled());
  EXPECT_DOUBLE_EQ(spec.faults.link.loss_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.faults.link.corrupt_rate, 0.001);
  EXPECT_EQ(spec.faults.link.seed, 9u);
  ASSERT_EQ(spec.faults.link.flaps.size(), 2u);
  EXPECT_EQ(spec.faults.link.flaps[0].start, sim::from_us(50.0));
  EXPECT_EQ(spec.faults.link.flaps[0].duration, sim::from_us(25.0));
  EXPECT_TRUE(spec.faults.link.flaps[0].down());
  EXPECT_DOUBLE_EQ(spec.faults.link.flaps[1].bandwidth_factor, 0.25);
  EXPECT_EQ(spec.faults.kill_lender, "l");
  EXPECT_DOUBLE_EQ(spec.faults.kill_at_us, 200.0);
  // The nic retry knobs landed in the replay config.
  EXPECT_EQ(spec.nodes[0].nic.replay.retry_timeout, sim::from_us(10.0));
  EXPECT_DOUBLE_EQ(spec.nodes[0].nic.replay.backoff, 1.5);
  EXPECT_EQ(spec.nodes[0].nic.replay.max_retries, 3u);
  EXPECT_EQ(spec.nodes[0].nic.replay.detach_threshold, 2u);
}

TEST(ScenarioJsonTest, FaultsDefaultToPristine) {
  const ScenarioSpec spec = parse(R"({"nodes": [{"name": "b"}]})");
  EXPECT_FALSE(spec.faults.enabled());
  EXPECT_TRUE(spec.faults.kill_lender.empty());
}

TEST(ScenarioJsonTest, FaultySpecRoundTripsExactly) {
  ScenarioSpec spec = paper_two_node();
  spec.faults.link.loss_rate = 1e-3;
  spec.faults.link.flaps.push_back(
      net::FlapSpec{sim::from_us(50.0), sim::from_us(25.0), 0.0});
  spec.faults.kill_lender = "lender";
  spec.faults.kill_at_us = 300.0;
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

TEST(ScenarioJsonTest, FaultsUnknownKeysRejected) {
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "faults": {"loss": 0.1}})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "faults": {"flaps": [{"at_us": 1, "dur_us": 2}]}})"),
               JsonError);
  EXPECT_THROW(
      parse(R"({"nodes": [{"name": "b"}],
                "faults": {"kill_lender": {"node": "l", "when_us": 5}}})"),
      JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "faults": {"kill_lender": {"at_us": 5}}})"),
               JsonError)
      << "kill_lender requires a node name";
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b",
                          "nic": {"retry_us": 10}}]})"),
               JsonError);
}

TEST(ScenarioJsonTest, PdesBlockParsesAndRoundTrips) {
  const ScenarioSpec spec = parse(R"({
    "name": "pdes_mini",
    "nodes": [{"name": "b", "role": "borrower"}, {"name": "l", "count": 3}],
    "pdes": {"threads": 8, "lookahead_ns": 250}
  })");
  EXPECT_TRUE(spec.pdes.enabled());
  EXPECT_EQ(spec.pdes.threads, 8u);
  EXPECT_DOUBLE_EQ(spec.pdes.lookahead_ns, 250.0);
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);

  // Default: PDES off, lookahead derived from the fabric.
  const ScenarioSpec off = parse(R"({"nodes": [{"name": "b"}]})");
  EXPECT_FALSE(off.pdes.enabled());
  EXPECT_EQ(off.pdes.threads, 0u);
  EXPECT_DOUBLE_EQ(off.pdes.lookahead_ns, 0.0);
}

TEST(ScenarioJsonTest, PdesBlockRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "pdes": {"workers": 4}})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "pdes": {"threads": 4, "lookahead_ns": -1}})"),
               JsonError)
      << "negative lookahead must be rejected at parse time";
}

TEST(ScenarioJsonTest, UnknownKeysRejected) {
  EXPECT_THROW(parse(R"({"name": "x", "bogus": 1})"), JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b", "typo_role": "borrower"}]})"),
               JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"link": {"bandwidth_mbit": 1}}})"),
               JsonError);
}

TEST(ScenarioJsonTest, InvalidValuesRejected) {
  EXPECT_THROW(parse(R"({"nodes": [{"role": "overlord"}]})"), JsonError);
  EXPECT_THROW(parse(R"({"nodes": [{"name": "b"}],
                          "topology": {"kind": "ring"}})"),
               JsonError);
  EXPECT_THROW(parse("{"), JsonError);            // truncated document
  EXPECT_THROW(parse(R"({"name": 42})"), JsonError);  // kind mismatch
}

/// parse(doc) must throw a JsonError whose message contains `needle`.
void expect_error(const std::string& doc, const std::string& needle) {
  try {
    parse(doc);
    ADD_FAILURE() << "accepted: " << doc;
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

/// A document with one node plus `blocks` (a comma-led member list).
std::string with_node(const std::string& blocks) {
  return R"({"nodes": [{"name": "b"}])" + blocks + "}";
}

// A value of the wrong JSON kind names the field it sits in: one key per
// block of the schema.
TEST(ScenarioJsonTest, WrongKindNamesTheField) {
  expect_error(R"({"name": 42, "nodes": [{}]})",
               "scenario: name: expected a string");
  expect_error(R"({"nodes": {}})", "scenario: nodes: expected an array");
  expect_error(R"({"nodes": [7]})", "scenario: nodes[0]: expected an object");
  expect_error(R"({"nodes": [{"count": "two"}]})",
               "scenario: nodes[0].count: expected a non-negative integer");
  expect_error(R"({"nodes": [{"role": 1}]})",
               "scenario: nodes[0].role: expected a string");
  expect_error(R"({"nodes": [{"with_nic": 1}]})",
               "scenario: nodes[0].with_nic: expected a boolean");
  expect_error(R"({"nodes": [{"name": "b"}, {"dram": {"latency_ns": "x"}}]})",
               "scenario: nodes[1].dram.latency_ns: expected a number");
  expect_error(R"({"nodes": [{"nic": {"fpga_clock_mhz": true}}]})",
               "scenario: nodes[0].nic.fpga_clock_mhz: expected a number");
  expect_error(with_node(R"(, "topology": [])"),
               "scenario: topology: expected an object");
  expect_error(with_node(R"(, "topology": {"kind": 3})"),
               "scenario: topology.kind: expected a string");
  expect_error(with_node(R"(, "topology": {"trunk": {"bandwidth_gbit": "x"}})"),
               "scenario: topology.trunk.bandwidth_gbit: expected a number");
  expect_error(with_node(R"(, "topology": {"switch": {"buffer_kib": []}})"),
               "scenario: topology.switch.buffer_kib: expected a number");
  expect_error(with_node(R"(, "injector": {"seed": "x"})"),
               "scenario: injector.seed: expected a non-negative integer");
  expect_error(with_node(R"(, "reservations": [{"size_gib": "x"}])"),
               "scenario: reservations[0].size_gib: expected a non-negative "
               "integer");
  expect_error(with_node(R"(, "workloads": [{"kind": 1}])"),
               "scenario: workloads[0].kind: expected a string");
  expect_error(with_node(R"(, "faults": {"loss_rate": "x"})"),
               "scenario: faults.loss_rate: expected a number");
  expect_error(with_node(R"(, "faults": {"flaps": [{"for_us": "x"}]})"),
               "scenario: faults.flaps[0].for_us: expected a number");
  expect_error(with_node(R"(, "faults": {"kill_lender": {"node": 5}})"),
               "scenario: faults.kill_lender.node: expected a string");
  expect_error(with_node(R"(, "chaos": {"seed": "x"})"),
               "scenario: chaos.seed: expected a non-negative integer");
  expect_error(with_node(R"(, "chaos": {"events": [{"target": 5}]})"),
               "scenario: chaos.events[0].target: expected a string");
  expect_error(with_node(R"(, "detector": {"enabled": "yes"})"),
               "scenario: detector.enabled: expected a boolean");
  expect_error(with_node(R"(, "traffic": {"rate_rps": "x"})"),
               "scenario: traffic.rate_rps: expected a number");
  expect_error(with_node(R"(, "traffic": {"tenants": [{"weight": "x"}]})"),
               "scenario: traffic.tenants[0].weight: expected a non-negative "
               "integer");
  expect_error(with_node(R"(, "slo": {"p99_us": "x"})"),
               "scenario: slo.p99_us: expected a number");
  expect_error(with_node(R"(, "pdes": {"threads": "x"})"),
               "scenario: pdes.threads: expected a non-negative integer");
  expect_error(with_node(R"(, "sweep": {"periods": 5})"),
               "scenario: sweep.periods: expected an array");
  expect_error(with_node(R"(, "sweep": {"lenders": [1, "x"]})"),
               "scenario: sweep.lenders[1]: expected a non-negative integer");
}

// Numbers the member cannot hold fail at load, naming the field, instead of
// wrapping, overflowing a conversion, or dumping as an unparseable "inf".
TEST(ScenarioJsonTest, UnrepresentableValuesNameTheField) {
  expect_error(R"({"nodes": [{"count": 4294967296}]})",
               "scenario: nodes[0].count: expected an integer below "
               "4294967296");
  expect_error(R"({"nodes": [{"count": 1.5}]})",
               "scenario: nodes[0].count: expected a non-negative integer");
  expect_error(R"({"nodes": [{"dram": {"latency_ns": -1}}]})",
               "scenario: nodes[0].dram.latency_ns: expected a number in [0, ");
  expect_error(R"({"nodes": [{"dram": {"capacity_gib": 1e300}}]})",
               "scenario: nodes[0].dram.capacity_gib: expected a number in "
               "[0, ");
  expect_error(with_node(R"(, "slo": {"p99_us": 1e999})"),
               "scenario: slo.p99_us: expected a finite number");
  expect_error(
      with_node(R"(, "topology": {"link": {"bandwidth_gbit": 1e308}})"),
               "scenario: topology.link.bandwidth_gbit: expected a positive "
               "finite number");
  expect_error(R"({"nodes": [{"dram": {"bandwidth_gbyte": 0}}]})",
               "scenario: nodes[0].dram.bandwidth_gbyte: expected a positive "
               "finite number");
  expect_error(with_node(R"(, "injector": {"distribution": "zipf"})"),
               "scenario: injector.distribution: unknown latency "
               "distribution: zipf");
  expect_error(with_node(R"(, "nodes2": 1)"),
               "scenario: unknown key \"nodes2\"");
  expect_error(R"({"nodes": [{"dram": {"size_gib": 1}}]})",
               "scenario: nodes[0].dram: unknown key \"size_gib\"");
  expect_error(
      with_node(R"(, "chaos": {"events": [{"at_us": 1, "target": "s"}]})"),
               "scenario: chaos.events[0].kind: required key is missing");
}

// --- chaos timeline + detector ------------------------------------------

TEST(ScenarioChaosTest, ChaosRackBuiltinRoundTripsExactly) {
  for (const char* name : {"chaos_rack", "serving_diurnal"}) {
    const ScenarioSpec spec = checked_in_scenario(name);
    const std::string dumped = resolved_json(spec);
    EXPECT_EQ(resolved_json(parse(dumped)), dumped) << name;
  }
}

TEST(ScenarioChaosTest, ChaosAndDetectorBlocksParse) {
  const ScenarioSpec spec = parse(R"({
    "name": "chaotic",
    "nodes": [
      {"name": "b", "role": "borrower", "count": 4},
      {"name": "l", "role": "lender", "count": 4}
    ],
    "topology": {"kind": "leaf_spine", "leaves": 2, "spines": 2},
    "chaos": {
      "seed": 11,
      "events": [
        {"at_us": 100, "kind": "gray_lender", "target": "l0", "factor": 6},
        {"at_us": 300, "kind": "recover", "target": "l0"},
        {"at_us": 400, "kind": "brownout_port", "target": "leaf0:spine1",
         "factor": 0.25, "for_us": 100},
        {"at_us": 600, "kind": "kill_switch", "target": "spine0"}
      ]
    },
    "detector": {"enabled": true, "alpha": 0.5, "latency_threshold": 2.5,
                 "timeout_weight": 8, "warmup": 8, "confirm": 2,
                 "probe_interval": 4, "rejoin_margin": 1.25,
                 "rejoin_confirm": 2}
  })");

  EXPECT_TRUE(spec.chaos.enabled());
  EXPECT_EQ(spec.chaos.seed, 11u);
  ASSERT_EQ(spec.chaos.events.size(), 4u);
  EXPECT_EQ(spec.chaos.events[0].kind, ChaosKind::kGrayLender);
  EXPECT_DOUBLE_EQ(spec.chaos.events[0].factor, 6.0);
  EXPECT_EQ(spec.chaos.events[3].kind, ChaosKind::kKillSwitch);
  EXPECT_EQ(spec.chaos.events[3].target, "spine0");

  EXPECT_TRUE(spec.detector.enabled);
  EXPECT_DOUBLE_EQ(spec.detector.alpha, 0.5);
  EXPECT_DOUBLE_EQ(spec.detector.latency_threshold, 2.5);
  EXPECT_EQ(spec.detector.warmup, 8u);
  EXPECT_DOUBLE_EQ(spec.detector.rejoin_margin, 1.25);
  EXPECT_EQ(spec.detector.rejoin_confirm, 2u);

  // The timeline resolves into windows: gray closed by its recover,
  // brownout closed by for_us, kill left open (runs to the horizon).
  const auto windows = resolve_chaos(spec.chaos);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].kind, ChaosKind::kGrayLender);
  EXPECT_EQ(windows[0].end, sim::from_us(300.0));
  EXPECT_EQ(windows[1].end, sim::from_us(500.0));
  EXPECT_EQ(windows[2].kind, ChaosKind::kKillSwitch);
  EXPECT_EQ(windows[2].end, sim::kTimeNever);

  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

TEST(ScenarioChaosTest, MalformedTimelineFailsAtParseNamingTheEvent) {
  const auto chaos_doc = [](const std::string& events) {
    return R"({"nodes": [{"name": "b"}], "chaos": {"events": [)" + events +
           "]}}";
  };
  const auto expect_message = [&](const std::string& events,
                                  const std::string& needle) {
    try {
      parse(chaos_doc(events));
      FAIL() << "expected rejection mentioning \"" << needle << "\"";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Unmatched recover: nothing open on the target.
  expect_message(
      R"({"at_us": 10, "kind": "recover", "target": "spine0"})",
      "chaos event 0: recover for \"spine0\" matches no open chaos window");
  // Double-open on one target without a recover in between.
  expect_message(
      R"({"at_us": 10, "kind": "kill_switch", "target": "spine0"},
         {"at_us": 20, "kind": "kill_switch", "target": "spine0"})",
      "chaos event 1: target \"spine0\" already has an open chaos window");
  // A bounded window the next event overlaps.
  expect_message(
      R"({"at_us": 10, "kind": "kill_switch", "target": "spine0",
          "for_us": 100},
         {"at_us": 50, "kind": "kill_switch", "target": "spine0"})",
      "chaos event 1 overlaps the previous window on \"spine0\"");
  // A window past the picosecond clock's range.
  expect_message(
      R"({"at_us": 1e300, "kind": "kill_switch", "target": "spine0"})",
      "chaos event 0: at_us + for_us must be below 2^64 ps");
  // Out-of-order timeline.
  expect_message(
      R"({"at_us": 50, "kind": "kill_switch", "target": "spine0"},
         {"at_us": 10, "kind": "kill_switch", "target": "spine1"})",
      "chaos events 0 and 1 out of order");
  // Factor validation per kind.
  expect_message(
      R"({"at_us": 10, "kind": "gray_lender", "target": "l0", "factor": 1})",
      "chaos event 0: gray_lender factor must be > 1");
  expect_message(
      R"({"at_us": 10, "kind": "brownout_port", "target": "leaf0:spine0",
          "factor": 1.5})",
      "chaos event 0: brownout_port factor must be in [0, 1)");
  expect_message(
      R"({"at_us": 10, "kind": "brownout_port", "target": "leaf0",
          "factor": 0.5})",
      "chaos event 0: brownout_port target must be \"switch:neighbor\"");
  expect_message(
      R"({"at_us": 10, "kind": "kill_switch", "target": "spine0",
          "factor": 0.5})",
      "chaos event 0: kill_switch takes no factor");

  // Unknown kinds and keys are scenario-level errors too.
  EXPECT_THROW(parse(chaos_doc(
                   R"({"at_us": 1, "kind": "meteor", "target": "spine0"})")),
               JsonError);
  EXPECT_THROW(parse(chaos_doc(
                   R"({"at": 1, "kind": "kill_switch", "target": "s"})")),
               JsonError);
}

TEST(ScenarioChaosTest, DetectorValidationRejectsBadKnobs) {
  const auto detector_doc = [](const std::string& body) {
    return R"({"nodes": [{"name": "b"}], "detector": {)" + body + "}}";
  };
  EXPECT_THROW(parse(detector_doc(R"("alpha": 0)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("alpha": 1.5)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("latency_threshold": 1)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("rejoin_margin": 0.9)")), JsonError)
      << "a margin under 1x the healthy baseline can never be met";
  EXPECT_THROW(parse(detector_doc(R"("warmup": 0)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("confirm": 0)")), JsonError);
  EXPECT_THROW(parse(detector_doc(R"("sensitivity": 2)")), JsonError)
      << "unknown detector key";
  // Defaults parse clean and round-trip.
  const ScenarioSpec spec = parse(detector_doc(R"("enabled": true)"));
  EXPECT_TRUE(spec.detector.enabled);
  EXPECT_DOUBLE_EQ(spec.detector.rejoin_margin, 1.5);
  const std::string dumped = resolved_json(spec);
  EXPECT_EQ(resolved_json(parse(dumped)), dumped);
}

}  // namespace
}  // namespace tfsim::scenario
