// Determinism self-check: run the same simulation twice with identical
// seeds and diff the stats output line by line.
//
// The event engine promises (time, insertion-order) execution; the RNG is
// seeded explicitly everywhere; no container with nondeterministic iteration
// order may leak into results.  Any ordering or iteration nondeterminism --
// an unordered_map walked into a report, a priority-queue tie broken by
// pointer value, uninitialised padding hashed into a digest -- shows up here
// as a diff between two runs that must be bit-for-bit identical.
//
// Exercised scenarios:
//   1. event engine: thousands of events with deliberately colliding
//      timestamps, scheduled from nested callbacks, some cancelled; the
//      execution order is folded into a digest;
//   2. RNG-driven statistics: OnlineStats + Histogram summaries over every
//      distribution the workloads use;
//   3. the cycle-level AXI egress pipeline (router -> RateGate -> mux) with
//      probabilistic source/sink, digesting every arrival, monitor gaps,
//      and the protocol-checker verdict;
//   4. the settle-scheduler guard: the same AXI pipeline under
//      SettleMode::kNaive and kActivity must produce identical arrival and
//      monitor digests, in both the every-cycle-stepped and the
//      fast-forwarded regime (DESIGN.md section 10);
//   5. the parallel sweep runner: the same batch of independent
//      engine+RNG simulations executed serially and on a 4-worker pool
//      must produce byte-identical result vectors (the property every
//      TFSIM_JOBS>1 figure sweep relies on);
//   6. the Testbed -> Cluster refactor guard: the two-node testbed wired
//      by hand (the pre-refactor assembly order) and the one built by
//      node::Cluster from the paper scenario must produce byte-identical
//      mini fig2/fig6-style result tables;
//   7. the fault layer: a small (period x loss x flap) resilience matrix
//      with NIC retry/replay active, computed serially and on an 8-worker
//      pool, must produce byte-identical probe rows -- the seeded fault
//      streams are pure functions of the spec, never of scheduling.
//   8. intra-run PDES (sim/pdes.hpp): seeded cross-domain traffic over a
//      ring fabric driven through per-node calendars with conservative
//      lookahead; the serial run (TFSIM_PDES=off equivalent) and an
//      8-worker barrier-window run must produce byte-identical per-domain
//      digests, clocks and link counters.
//   9. the leaf/spine fabric: post_routed hop-by-hop forwarding through
//      shared switches with shallow kDrop egress buffers, so ECMP striping,
//      switch admission, and tail drops all land in the digest; the serial
//      and 8-worker runs must agree byte-for-byte, and the traffic must
//      actually overflow a buffer (drops > 0) or the check proved nothing.
//  10. open-loop serving (core/run_serving): a compressed serving_diurnal
//      cycle -- Poisson-thinned diurnal arrivals, lender-side QoS credits,
//      a mid-run lender kill with reactive failover -- run serially and on
//      8 workers; the report's canonical serialization (every per-source
//      counter, SLO window, and latency digest) must be byte-identical,
//      and the kill must actually trigger failovers or it proved nothing.
//  11. fabric chaos + online detection: a compressed chaos_rack timeline
//      (gray lender, browned-out port, spine kill) with the health
//      detector enabled -- per-source EWMA scoring, ECMP re-stripes,
//      migrations and rejoin probing are all per-source local state, so
//      the serial and 8-worker serializations must be byte-identical, and
//      the chaos must actually trigger re-stripes and migrations or the
//      reactive paths went unexercised.
//
// Exit code 0 when both runs agree, 1 with a diff otherwise.  Wired into
// ctest and the `determinism_check` CMake target.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "axi/endpoints.hpp"
#include "axi/fifo.hpp"
#include "axi/monitor.hpp"
#include "axi/mux.hpp"
#include "axi/rate_gate.hpp"
#include "axi/router.hpp"
#include "axi/testbench.hpp"
#include "core/resilience.hpp"
#include "core/serving.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/policy.hpp"
#include "ctrl/registry.hpp"
#include "node/cluster.hpp"
#include "node/node.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "node/testbed.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/pdes.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"
#include "workloads/stream/stream_flow.hpp"

namespace {

using tfsim::sim::Engine;
using tfsim::sim::Histogram;
using tfsim::sim::OnlineStats;
using tfsim::sim::Rng;

/// FNV-1a, so ordering differences anywhere in a sequence change the digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

void scenario_engine(std::uint64_t seed, std::ostringstream& out) {
  Engine engine;
  Rng rng(seed);
  Digest order;
  OnlineStats times;
  std::uint64_t fired = 0;
  std::vector<Engine::EventId> cancellable;

  // Seed a burst of events on a coarse time grid so many share timestamps;
  // each event reschedules children from inside its callback, the pattern
  // that exposed insertion-order bugs in calendar queues.
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    order.add(id);
    order.add(engine.now());
    times.add(static_cast<double>(engine.now()));
    ++fired;
    if (id < 4000) {
      const std::uint64_t t = rng.uniform_u64(16);  // heavy collisions
      engine.schedule_in(t, [&fire, id] { fire(id + 1000); });
      if (id % 7 == 0) {
        cancellable.push_back(
            engine.schedule_in(t + 1, [&fire, id] { fire(id + 100000); }));
      }
      if (id % 11 == 3 && !cancellable.empty()) {
        engine.cancel(cancellable.back());
        cancellable.pop_back();
      }
    }
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    engine.schedule_at(rng.uniform_u64(8), [&fire, i] { fire(i); });
  }
  engine.run();

  out << "engine: fired=" << fired << " executed=" << engine.executed()
      << " order_digest=" << order.h << " time_mean=" << times.mean()
      << " time_max=" << times.max() << "\n";
}

void scenario_stats(std::uint64_t seed, std::ostringstream& out) {
  Rng rng(seed);
  Histogram hist;
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const double v = 1.0 + rng.exponential(50.0) + rng.pareto(1.0, 2.5) +
                     rng.lognormal(1.0, 0.5);
    hist.add(v);
    stats.add(v);
  }
  out << "stats: " << hist.summary() << " mean=" << stats.mean()
      << " stddev=" << stats.stddev() << "\n";
}

void scenario_axi(std::uint64_t seed, std::ostringstream& out) {
  namespace axi = tfsim::axi;
  axi::Testbench tb;  // strict: nondeterministic protocol state would throw
  axi::Wire& in = tb.wire("in");
  axi::Wire& r0 = tb.wire("r0");
  axi::Wire& g0 = tb.wire("g0");
  axi::Wire& f0 = tb.wire("f0");
  axi::Wire& outw = tb.wire("out");
  axi::Source::Config scfg;
  scfg.saturate = true;
  scfg.valid_probability = 0.7;
  scfg.seed = seed;
  tb.add<axi::Source>("src", in, scfg);
  tb.add<axi::Router>("router", in, std::vector<axi::Wire*>{&r0});
  tb.add<axi::RateGate>("gate", r0, g0, 3);
  tb.add<axi::Fifo>("fifo", g0, f0, 8);
  tb.add<axi::RoundRobinMux>("mux", std::vector<axi::Wire*>{&f0}, outw);
  axi::Sink::Config kcfg;
  kcfg.ready_probability = 0.8;
  kcfg.seed = seed + 1;
  auto& sink = tb.add<axi::Sink>("sink", outw, kcfg);
  auto& mon = tb.add<axi::Monitor>("mon", outw, /*check_id_order=*/true);
  tb.run(5000);

  Digest arrivals;
  for (const auto& a : sink.arrivals()) {
    arrivals.add(a.cycle);
    arrivals.add(a.beat.id);
  }
  out << "axi: received=" << sink.received()
      << " arrival_digest=" << arrivals.h
      << " gap_mean=" << mon.gap_stats().mean()
      << " gap_max=" << mon.gap_stats().max()
      << " protocol=" << (tb.sink().clean() ? "clean" : "violated") << "\n";
}

/// Returns false when the naive and activity settle schedulers diverge on
/// the same pipeline (see DESIGN.md section 10: the two modes must be
/// byte-identical in every observable).  Covers both regimes: a
/// probabilistic source/sink pair (every cycle stepped, sensitivity-list
/// settle only) and a deterministic saturated gate at PERIOD=50 (most
/// cycles fast-forwarded).
bool scenario_settle_equiv(std::uint64_t seed, std::ostringstream& out) {
  namespace axi = tfsim::axi;

  const auto digest_run = [seed](axi::SettleMode mode, double valid_p,
                                 double ready_p, std::uint64_t period,
                                 std::uint64_t& skipped) {
    axi::Testbench tb(axi::CheckMode::kStrict, mode);
    axi::Wire& in = tb.wire("in");
    axi::Wire& r0 = tb.wire("r0");
    axi::Wire& g0 = tb.wire("g0");
    axi::Wire& f0 = tb.wire("f0");
    axi::Wire& outw = tb.wire("out");
    axi::Source::Config scfg;
    scfg.saturate = true;
    scfg.valid_probability = valid_p;
    scfg.seed = seed;
    tb.add<axi::Source>("src", in, scfg);
    tb.add<axi::Router>("router", in, std::vector<axi::Wire*>{&r0});
    tb.add<axi::RateGate>("gate", r0, g0, period);
    tb.add<axi::Fifo>("fifo", g0, f0, 8);
    tb.add<axi::RoundRobinMux>("mux", std::vector<axi::Wire*>{&f0}, outw);
    axi::Sink::Config kcfg;
    kcfg.ready_probability = ready_p;
    kcfg.seed = seed + 1;
    auto& sink = tb.add<axi::Sink>("sink", outw, kcfg);
    auto& mon = tb.add<axi::Monitor>("mon", outw, /*check_id_order=*/true);
    tb.run(5000);
    skipped = tb.skipped_cycles();
    Digest d;
    for (const auto& a : sink.arrivals()) {
      d.add(a.cycle);
      d.add(a.beat.id);
    }
    d.add(sink.received());
    d.add(mon.fires());
    d.add(mon.gap_stats().count());
    d.add(static_cast<std::uint64_t>(mon.gap_stats().mean() * 1e6));
    return d.h;
  };

  bool match = true;
  std::uint64_t naive_skipped = 0, act_skipped = 0;
  const std::uint64_t prob_naive =
      digest_run(axi::SettleMode::kNaive, 0.7, 0.8, 3, naive_skipped);
  const std::uint64_t prob_act =
      digest_run(axi::SettleMode::kActivity, 0.7, 0.8, 3, act_skipped);
  match = match && prob_naive == prob_act && naive_skipped == 0;
  const std::uint64_t gated_naive =
      digest_run(axi::SettleMode::kNaive, 1.0, 1.0, 50, naive_skipped);
  const std::uint64_t gated_act =
      digest_run(axi::SettleMode::kActivity, 1.0, 1.0, 50, act_skipped);
  // The deterministic PERIOD=50 run must actually have exercised the
  // fast-forward path, or the equivalence above proved nothing.
  match = match && gated_naive == gated_act && act_skipped > 0;

  out << "settle: prob_digest=" << prob_act << " gated_digest=" << gated_act
      << " gated_skipped=" << act_skipped
      << " naive==activity=" << (match ? "yes" : "NO") << "\n";
  if (!match) {
    std::fprintf(stderr,
                 "determinism_check: settle schedulers diverged "
                 "(prob %llu vs %llu, gated %llu vs %llu, skipped %llu)\n",
                 static_cast<unsigned long long>(prob_naive),
                 static_cast<unsigned long long>(prob_act),
                 static_cast<unsigned long long>(gated_naive),
                 static_cast<unsigned long long>(gated_act),
                 static_cast<unsigned long long>(act_skipped));
  }
  return match;
}

/// Returns false if the serial and parallel sweeps diverge (a hard failure,
/// independent of the run-vs-run diff: both runs would diverge identically).
bool scenario_sweep(std::uint64_t seed, std::ostringstream& out) {
  using tfsim::sim::SweepRunner;

  auto job = [seed](std::size_t i) {
    Engine engine;
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (i + 1)));
    Digest d;
    std::uint64_t fired = 0;
    std::function<void()> hop = [&] {
      ++fired;
      d.add(engine.now());
      if (fired < 800) engine.schedule_in(1 + rng.uniform_u64(11), hop);
    };
    for (int c = 0; c < 3; ++c) engine.schedule_at(rng.uniform_u64(4), hop);
    engine.run();
    std::ostringstream r;
    r << i << ":" << fired << ":" << engine.now() << ":" << d.h;
    return r.str();
  };

  const std::vector<std::string> serial = SweepRunner(1).run(16, job);
  const std::vector<std::string> parallel = SweepRunner(4).run(16, job);

  Digest d;
  for (const auto& s : serial) {
    for (const char c : s) d.add(static_cast<std::uint64_t>(c));
  }
  const bool match = serial == parallel;
  out << "sweep: points=" << serial.size() << " digest=" << d.h
      << " serial==parallel=" << (match ? "yes" : "NO") << "\n";
  if (!match) {
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (serial[i] != parallel[i]) {
        std::fprintf(stderr,
                     "determinism_check: sweep point %zu diverged\n"
                     "  serial:   %s\n  parallel: %s\n",
                     i, serial[i].c_str(), parallel[i].c_str());
      }
    }
  }
  return match;
}

/// Mini fig2/fig6-style table over (PERIOD, instance-count) cells: per-cell
/// completed lines, bandwidth, and mean latency, formatted as CSV text so
/// the legacy-vs-Cluster comparison is byte-for-byte.
std::string mini_table(tfsim::sim::Engine& engine, tfsim::nic::DisaggNic& nic,
                       tfsim::mem::Addr remote_base) {
  namespace sim = tfsim::sim;
  namespace workloads = tfsim::workloads;
  std::ostringstream csv;
  csv << "period,instances,lines,gbps,mean_us\n";
  for (const std::uint64_t period : {std::uint64_t{1}, std::uint64_t{50}}) {
    for (const int instances : {1, 2}) {
      nic.set_period(period);
      const sim::Time start = engine.now();
      const sim::Time stop = start + sim::from_us(300.0);
      const std::uint64_t span = 64 * sim::kMiB;
      std::vector<std::unique_ptr<workloads::RemoteStreamFlow>> flows;
      for (int i = 0; i < instances; ++i) {
        workloads::FlowConfig cfg;
        cfg.concurrency = 32;
        cfg.base = remote_base + static_cast<std::uint64_t>(i) * span;
        cfg.span_bytes = span;
        cfg.stop_at = stop;
        flows.push_back(std::make_unique<workloads::RemoteStreamFlow>(
            engine, nic, cfg));
      }
      for (auto& f : flows) f->start();
      engine.run();
      std::uint64_t lines = 0;
      double gbps = 0.0, mean_us = 0.0;
      for (const auto& f : flows) {
        lines += f->stats().lines_completed;
        gbps += f->stats().bandwidth_gbps(stop - start);
        mean_us += f->stats().latency_us.mean();
      }
      char row[128];
      std::snprintf(row, sizeof row, "%llu,%d,%llu,%.9f,%.9f\n",
                    static_cast<unsigned long long>(period), instances,
                    static_cast<unsigned long long>(lines), gbps,
                    mean_us / instances);
      csv << row;
    }
  }
  return csv.str();
}

/// Returns false when the hand-wired two-node testbed (the pre-refactor
/// Testbed assembly, reproduced inline) and the Cluster-built one diverge.
bool scenario_cluster_refactor(std::ostringstream& out) {
  namespace node = tfsim::node;
  namespace ctrl = tfsim::ctrl;
  namespace sim = tfsim::sim;

  const node::TestbedSpec spec = node::thymesisflow_testbed();

  // Legacy wiring, in the exact pre-refactor order: nodes, link pair,
  // registry, control plane (first-fit), lender registration, reserve +
  // attach of the 16 GiB region.
  sim::Engine engine;
  tfsim::net::Network network;
  node::Node borrower(spec.borrower, engine, network);
  node::Node lender(spec.lender, engine, network);
  network.connect(borrower.net_id(), lender.net_id(), spec.link);
  network.connect(lender.net_id(), borrower.net_id(), spec.link);
  ctrl::NodeRegistry registry;
  const auto borrower_reg = registry.add_node(
      borrower.name(), borrower.dram().config().capacity_bytes);
  const auto lender_reg =
      registry.add_node(lender.name(), lender.dram().config().capacity_bytes);
  registry.set_role(borrower_reg, ctrl::Role::kBorrower);
  registry.set_role(lender_reg, ctrl::Role::kLender);
  ctrl::ControlPlane cp(registry, std::make_unique<ctrl::FirstFitPolicy>());
  borrower.nic().register_lender(lender_reg, lender.net_id(), &lender.dram());
  const auto reservation = cp.reserve(borrower_reg, spec.remote_gib * sim::kGiB,
                                      "thymesisflow-borrowed");
  const auto base =
      cp.attach(reservation->id, borrower.nic(), borrower.memory_map());
  const std::string legacy = mini_table(engine, borrower.nic(), *base);

  // The same testbed assembled by Cluster from the declarative scenario.
  node::Cluster cluster(tfsim::scenario::paper_two_node());
  cluster.attach_remote();
  const std::string refactored =
      mini_table(cluster.engine(), cluster.borrower().nic(),
                 cluster.remote_base());

  Digest d;
  for (const char c : refactored) d.add(static_cast<std::uint64_t>(c));
  const bool match = legacy == refactored;
  out << "cluster: digest=" << d.h
      << " legacy==cluster=" << (match ? "yes" : "NO") << "\n";
  if (!match) {
    std::fprintf(stderr,
                 "determinism_check: legacy vs Cluster mini-CSV diverged\n"
                 "--- legacy ---\n%s--- cluster ---\n%s",
                 legacy.c_str(), refactored.c_str());
  }
  return match;
}

/// Returns false when the serial and 8-worker fault matrices diverge.  Each
/// point builds its own Cluster with loss/corruption/flaps active, so this
/// covers the whole fault stack: FaultPlan streams, FaultyLink decoration,
/// NIC retry/backoff, and the abandonment/detach bookkeeping.
bool scenario_faults(std::uint64_t seed, std::ostringstream& out) {
  namespace core = tfsim::core;
  namespace net = tfsim::net;
  namespace sim = tfsim::sim;

  core::FaultMatrixOptions opts;
  opts.periods = {1, 100};
  opts.loss_rates = {0.0, 1e-3, 1e-2};
  opts.flap_schedules = {
      {},
      {net::FlapSpec{sim::from_us(100.0), sim::from_us(50.0), 0.0}},
  };
  opts.corrupt_rate = 1e-3;
  opts.seed = seed;
  opts.accesses = 600;

  const auto digest_rows = [](const std::vector<core::FaultProbe>& probes) {
    std::ostringstream rows;
    for (const auto& p : probes) {
      rows << p.point.period << "," << p.point.loss_rate << ","
           << p.point.flap_schedule << "," << core::to_string(p.health) << ","
           << p.completed << "," << p.failed << "," << p.retries << ","
           << p.abandoned << "," << p.crc_drops << "," << p.frames_lost << ","
           << p.recovered << "," << p.detached_lenders << ","
           << p.avg_latency_us << "\n";
    }
    return rows.str();
  };

  const auto serial_probes = core::assess_fault_matrix(opts, 1);
  const std::string serial = digest_rows(serial_probes);
  const std::string parallel = digest_rows(core::assess_fault_matrix(opts, 8));

  Digest d;
  std::uint64_t retried = 0;
  for (const char c : serial) d.add(static_cast<std::uint64_t>(c));
  for (const auto& p : serial_probes) retried += p.retries;
  const bool match = serial == parallel && retried > 0;
  out << "faults: digest=" << d.h << " retries=" << retried
      << " serial==parallel=" << (serial == parallel ? "yes" : "NO") << "\n";
  if (serial != parallel) {
    std::fprintf(stderr,
                 "determinism_check: fault matrix diverged\n"
                 "--- serial ---\n%s--- parallel ---\n%s",
                 serial.c_str(), parallel.c_str());
  } else if (retried == 0) {
    std::fprintf(stderr,
                 "determinism_check: fault matrix exercised no retries -- "
                 "the determinism claim covered nothing\n");
  }
  return match;
}

// Scenario 8: the intra-run PDES core.  Thread count must change wall-clock
// time only -- per-domain event counts, clocks, traffic digests and link
// byte counters are compared byte-for-byte between a serial run and an
// 8-worker barrier-window run over the same seeded ring traffic.
std::string pdes_traffic(std::uint64_t seed, unsigned threads) {
  namespace net = tfsim::net;
  namespace sim = tfsim::sim;

  constexpr std::size_t kNodes = 12;
  net::Network fabric;
  for (std::size_t i = 0; i < kNodes; ++i) {
    fabric.add_node("n" + std::to_string(i));
  }
  Rng wiring(seed ^ 0xFAB51Cull);
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::LinkConfig cfg;
    cfg.propagation = sim::from_ns(80.0 + wiring.uniform(0.0, 300.0));
    cfg.bandwidth = sim::Bandwidth::from_gbit(50.0);
    fabric.connect(static_cast<net::NodeId>(i),
                   static_cast<net::NodeId>((i + 1) % kNodes), cfg);
  }

  sim::PdesConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = fabric.min_propagation();
  sim::ParallelEngine pdes(kNodes, cfg);

  std::vector<Rng> rng;
  std::vector<std::uint64_t> fold(kNodes, 0);
  rng.reserve(kNodes);
  for (std::size_t d = 0; d < kNodes; ++d) {
    rng.emplace_back(seed ^ (0x9E3779B97F4A7C15ULL * (d + 1)));
  }

  std::function<void(sim::DomainId, int)> bounce = [&](sim::DomainId d,
                                                       int budget) {
    sim::Engine& self = pdes.domain(d);
    fold[d] = fold[d] * 1099511628211ULL ^ self.now() ^ d;
    if (budget <= 0) return;
    const auto dst = static_cast<net::NodeId>((d + 1) % kNodes);
    const std::uint64_t bytes = 64 + rng[d].uniform_u64(1400);
    fabric.post_delivery(
        pdes, d, static_cast<sim::DomainId>(dst), self.now(),
        static_cast<net::NodeId>(d), dst, bytes, sim::Priority::kBulk,
        [&bounce, dst, budget](const net::Delivery&) {
          bounce(static_cast<sim::DomainId>(dst), budget - 1);
        });
  };
  for (std::size_t d = 0; d < kNodes; ++d) {
    const sim::Time start = 1 + rng[d].uniform_u64(cfg.lookahead);
    pdes.post(static_cast<sim::DomainId>(d), static_cast<sim::DomainId>(d),
              start, [&bounce, d] {
                bounce(static_cast<sim::DomainId>(d), 50);
              });
  }
  pdes.run();

  std::ostringstream os;
  for (std::size_t d = 0; d < kNodes; ++d) {
    os << d << ":" << fold[d] << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).executed() << ":"
       << pdes.domain(static_cast<sim::DomainId>(d)).now() << ";";
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto& link = fabric.link(static_cast<net::NodeId>(i),
                                   static_cast<net::NodeId>((i + 1) % kNodes));
    os << "L" << i << "=" << link.bytes_sent() << "," << link.packets_sent()
       << ";";
  }
  return os.str();
}

bool scenario_pdes(std::uint64_t seed, std::ostringstream& out) {
  const std::string serial = pdes_traffic(seed, 1);
  const std::string parallel = pdes_traffic(seed, 8);

  Digest d;
  for (const char c : serial) d.add(static_cast<std::uint64_t>(c));
  const bool match = serial == parallel;
  out << "pdes: digest=" << d.h
      << " serial==8-thread=" << (match ? "yes" : "NO") << "\n";
  if (!match) {
    std::fprintf(stderr,
                 "determinism_check: PDES diverged across thread counts\n"
                 "--- serial ---\n%s\n--- 8 threads ---\n%s\n",
                 serial.c_str(), parallel.c_str());
  }
  return match;
}

// Scenario 9: the leaf/spine fabric under PDES.  Hop-by-hop post_routed
// forwarding is the only sound way to drive *shared* switches in parallel
// (each egress link is transmitted on only from its owner's domain), so the
// digest covers routing-table forwarding, deterministic ECMP striping, and
// the kDrop admission path under deliberately shallow buffers.
std::string fabric_traffic(std::uint64_t seed, unsigned threads,
                           std::uint64_t& total_drops) {
  namespace net = tfsim::net;
  namespace sim = tfsim::sim;

  constexpr std::size_t kHosts = 8;
  net::Network fabric;
  std::vector<net::NodeId> hosts;
  hosts.reserve(kHosts);
  for (std::size_t i = 0; i < kHosts; ++i) {
    hosts.push_back(fabric.add_node("h" + std::to_string(i)));
  }
  net::LeafSpineConfig topo;
  topo.leaves = 2;
  topo.spines = 2;
  topo.edge.bandwidth = sim::Bandwidth::from_gbit(50.0);
  topo.edge.propagation = sim::from_ns(120.0);
  topo.uplink.bandwidth = sim::Bandwidth::from_gbit(50.0);
  topo.uplink.propagation = sim::from_ns(200.0);
  topo.sw.policy = net::QueuePolicy::kDrop;
  topo.sw.buffer_bytes = 4096;  // shallow on purpose: tail drops must occur
  const auto rack = net::LeafSpineFabric::build(fabric, topo, hosts);

  const std::size_t kDomains = kHosts + rack.leaves.size() + rack.spines.size();
  sim::PdesConfig cfg;
  cfg.threads = threads;
  cfg.lookahead = fabric.min_propagation();
  sim::ParallelEngine pdes(kDomains, cfg);

  std::vector<Rng> rng;
  std::vector<std::uint64_t> fold(kHosts, 0);
  std::vector<std::uint64_t> arrivals(kHosts, 0);
  rng.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    rng.emplace_back(seed ^ (0x9E3779B97F4A7C15ULL * (h + 1)));
  }

  // Bounce chains host i -> (i + 1) % kHosts: hosts alternate leaves, so
  // every frame crosses the spine tier and contends for the shallow uplink
  // buffers.  A tail-dropped frame ends its chain silently -- which chains
  // survive is itself part of the determinism claim.  Per-host state (rng,
  // fold, arrivals) is only touched from the owning domain.
  std::function<void(net::NodeId, int, std::uint64_t)> bounce =
      [&](net::NodeId h, int budget, std::uint64_t flow) {
        sim::Engine& self = pdes.domain(static_cast<sim::DomainId>(h));
        fold[h] = fold[h] * 1099511628211ULL ^ self.now() ^ h;
        ++arrivals[h];
        if (budget <= 0) return;
        const auto dst = static_cast<net::NodeId>((h + 1) % kHosts);
        const std::uint64_t bytes = 256 + rng[h].uniform_u64(1200);
        fabric.post_routed(pdes, self.now(), h, dst, bytes,
                           sim::Priority::kBulk, flow,
                           [&bounce, dst, budget, flow](const net::Delivery&) {
                             bounce(dst, budget - 1, flow + 1);
                           });
      };
  for (std::size_t h = 0; h < kHosts; ++h) {
    for (int chain = 0; chain < 4; ++chain) {
      const sim::Time start = 1 + rng[h].uniform_u64(cfg.lookahead);
      const auto flow = static_cast<std::uint64_t>(h * 131 + chain);
      pdes.post(static_cast<sim::DomainId>(h), static_cast<sim::DomainId>(h),
                start, [&bounce, h, flow] {
                  bounce(static_cast<net::NodeId>(h), 40, flow);
                });
    }
  }
  pdes.run();

  std::ostringstream os;
  total_drops = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    os << h << ":" << fold[h] << ":" << arrivals[h] << ":"
       << pdes.domain(static_cast<sim::DomainId>(h)).executed() << ":"
       << pdes.domain(static_cast<sim::DomainId>(h)).now() << ";";
  }
  for (const auto& [id, sw] : fabric.switches()) {
    os << "S" << id << "=" << sw.total_drops();
    for (const auto& [egress, port] : sw.ports()) {
      os << ",p" << egress << ":" << port.frames << ":" << port.bytes << ":"
         << port.drops << ":" << port.peak_queued_bytes;
    }
    os << ";";
    total_drops += sw.total_drops();
  }
  return os.str();
}

bool scenario_fabric(std::uint64_t seed, std::ostringstream& out) {
  std::uint64_t serial_drops = 0, parallel_drops = 0;
  const std::string serial = fabric_traffic(seed, 1, serial_drops);
  const std::string parallel = fabric_traffic(seed, 8, parallel_drops);

  Digest d;
  for (const char c : serial) d.add(static_cast<std::uint64_t>(c));
  const bool match = serial == parallel && serial_drops > 0;
  out << "fabric: digest=" << d.h << " drops=" << serial_drops
      << " serial==8-thread=" << (serial == parallel ? "yes" : "NO") << "\n";
  if (serial != parallel) {
    std::fprintf(stderr,
                 "determinism_check: leaf/spine fabric diverged across "
                 "thread counts\n--- serial ---\n%s\n--- 8 threads ---\n%s\n",
                 serial.c_str(), parallel.c_str());
  } else if (serial_drops == 0) {
    std::fprintf(stderr,
                 "determinism_check: fabric scenario saw no switch drops -- "
                 "the kDrop admission path went unexercised\n");
  }
  return match;
}

/// A checked-in scenarios/<stem>.json, the only definition of the testbed.
tfsim::scenario::ScenarioSpec scenario_file(const std::string& stem) {
  return tfsim::scenario::load_file(std::string(TFSIM_SCENARIO_SOURCE_DIR) +
                                    "/" + stem + ".json");
}

// Scenario 10: the open-loop serving harness.  A compressed serving_diurnal
// (one 2 ms diurnal cycle, the lender kill at its peak) driven through
// run_serving; the harness already serializes every observable -- source
// counters, failover walks, QoS rejections, SLO windows -- in fixed order,
// so the comparison is simply its canonical string.  TFSIM_PDES is pinned
// per run because the Cluster honors the environment (the CI tsan job sets
// TFSIM_PDES=8, which would silently retarget the serial reference).
tfsim::core::ServingReport serving_traffic(std::uint64_t seed,
                                           unsigned threads) {
  auto spec = scenario_file("serving_diurnal");
  spec.traffic.seed = seed;
  spec.traffic.duration_us = 2000.0;
  spec.traffic.diurnal_period_us = 2000.0;
  spec.faults.kill_at_us = 1000.0;
  spec.slo.window_us = 500.0;
  spec.pdes.threads = threads;
  setenv("TFSIM_PDES", std::to_string(threads).c_str(), 1);
  tfsim::node::Cluster cluster(spec);
  return tfsim::core::run_serving(cluster);
}

bool scenario_serving(std::uint64_t seed, std::ostringstream& out) {
  const char* env = std::getenv("TFSIM_PDES");
  const std::string saved = env != nullptr ? env : "";
  const bool had_env = env != nullptr;

  const tfsim::core::ServingReport serial = serving_traffic(seed, 1);
  const tfsim::core::ServingReport parallel = serving_traffic(seed, 8);

  if (had_env) {
    setenv("TFSIM_PDES", saved.c_str(), 1);
  } else {
    unsetenv("TFSIM_PDES");
  }

  const bool match =
      serial.serialized == parallel.serialized && serial.failovers > 0;
  out << "serving: digest=" << serial.digest
      << " completed=" << serial.totals.completed
      << " failovers=" << serial.failovers
      << " serial==8-thread="
      << (serial.serialized == parallel.serialized ? "yes" : "NO") << "\n";
  if (serial.serialized != parallel.serialized) {
    std::fprintf(stderr,
                 "determinism_check: serving harness diverged across thread "
                 "counts\n--- serial ---\n%s\n--- 8 threads ---\n%s\n",
                 serial.serialized.c_str(), parallel.serialized.c_str());
  } else if (serial.failovers == 0) {
    std::fprintf(stderr,
                 "determinism_check: serving scenario saw no failovers -- "
                 "the mid-run kill path went unexercised\n");
  }
  return match;
}

// Scenario 11: fabric chaos with the online detector.  A half-length
// chaos_rack timeline (every chaos event and the SLO window scaled with the
// horizon) so gray-lender detection, ECMP re-striping, migration and rejoin
// probing all fire inside the run.  All reactive state is per-source local,
// so the canonical serialization must match from 1 to 8 workers.
tfsim::core::ServingReport chaos_traffic(std::uint64_t seed,
                                         unsigned threads) {
  auto spec = scenario_file("chaos_rack");
  const double scale = 0.5;
  spec.traffic.seed = seed;
  spec.traffic.duration_us *= scale;
  spec.slo.window_us *= scale;
  for (auto& ev : spec.chaos.events) {
    ev.at_us *= scale;
    ev.for_us *= scale;
  }
  spec.pdes.threads = threads;
  setenv("TFSIM_PDES", std::to_string(threads).c_str(), 1);
  tfsim::node::Cluster cluster(spec);
  return tfsim::core::run_serving(cluster);
}

bool scenario_chaos(std::uint64_t seed, std::ostringstream& out) {
  const char* env = std::getenv("TFSIM_PDES");
  const std::string saved = env != nullptr ? env : "";
  const bool had_env = env != nullptr;

  const tfsim::core::ServingReport serial = chaos_traffic(seed, 1);
  const tfsim::core::ServingReport parallel = chaos_traffic(seed, 8);

  if (had_env) {
    setenv("TFSIM_PDES", saved.c_str(), 1);
  } else {
    unsetenv("TFSIM_PDES");
  }

  const bool reacted = serial.restripes > 0 && serial.failovers > 0;
  const bool match = serial.serialized == parallel.serialized && reacted;
  out << "chaos: digest=" << serial.digest
      << " completed=" << serial.totals.completed
      << " restripes=" << serial.restripes
      << " failovers=" << serial.failovers << " rejoins=" << serial.rejoins
      << " gray_inflated=" << serial.gray_inflated
      << " chaos_drops=" << serial.switch_chaos_drops
      << " serial==8-thread="
      << (serial.serialized == parallel.serialized ? "yes" : "NO") << "\n";
  if (serial.serialized != parallel.serialized) {
    std::fprintf(stderr,
                 "determinism_check: chaos scenario diverged across thread "
                 "counts\n--- serial ---\n%s\n--- 8 threads ---\n%s\n",
                 serial.serialized.c_str(), parallel.serialized.c_str());
  } else if (!reacted) {
    std::fprintf(stderr,
                 "determinism_check: chaos scenario never re-striped or "
                 "migrated -- the detector reaction paths went unexercised\n");
  }
  return match;
}

std::string run_all(std::uint64_t seed, bool& sweep_ok) {
  std::ostringstream out;
  scenario_engine(seed, out);
  scenario_stats(seed, out);
  scenario_axi(seed, out);
  sweep_ok = scenario_settle_equiv(seed, out) && sweep_ok;
  sweep_ok = scenario_sweep(seed, out) && sweep_ok;
  sweep_ok = scenario_cluster_refactor(out) && sweep_ok;
  sweep_ok = scenario_faults(seed, out) && sweep_ok;
  sweep_ok = scenario_pdes(seed, out) && sweep_ok;
  sweep_ok = scenario_fabric(seed, out) && sweep_ok;
  sweep_ok = scenario_serving(seed, out) && sweep_ok;
  sweep_ok = scenario_chaos(seed, out) && sweep_ok;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 0xD15EA5EULL;
  if (argc > 1) {
    char* end = nullptr;
    seed = std::strtoull(argv[1], &end, 0);
    if (end == argv[1] || *end != '\0') {
      std::fprintf(stderr, "determinism_check: invalid seed '%s'\n", argv[1]);
      return 2;
    }
  }
  bool sweep_ok = true;
  const std::string first = run_all(seed, sweep_ok);
  const std::string second = run_all(seed, sweep_ok);
  if (!sweep_ok) {
    std::fprintf(stderr,
                 "determinism_check: FAILED -- parallel sweep diverged from "
                 "serial\n%s",
                 first.c_str());
    return 1;
  }
  if (first == second) {
    std::printf("determinism_check: OK (seed=%llu)\n%s",
                static_cast<unsigned long long>(seed), first.c_str());
    return 0;
  }
  std::fprintf(stderr,
               "determinism_check: FAILED -- identical seeds diverged\n"
               "--- run 1 ---\n%s--- run 2 ---\n%s",
               first.c_str(), second.c_str());
  return 1;
}
