// tfbench harness: runs one workload of the tfsim benchmark in this process
// and prints its measurements as one JSON line on stdout.
//
//   tfbench_harness --workload <name> --repo <dir> --seconds <s> --trace 0|1
//                   [--kron-seed <n>] [--arrival-seed <n>] [--spans-out <file>]
//
// Host time is what is measured.  Simulated statistics are deterministic
// outputs: they are folded into `sim_digest` and checked for identity
// across the iterations of a run, never scored.  tfbench/run.py builds this
// program, launches it in processes of its own for every benchmark run and
// adds the process-level figures (peak RSS) it can only see from outside.
//
// The library is driven only through its public entry points
// (scenario::load_file, core::Session, node::Cluster, core::run_serving,
// workloads::g500 generation/CSR, workloads::replay::TraceRecorder) and the
// layers' stats accessors, all reached through node::Cluster.
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serving.hpp"
#include "core/session.hpp"
#include "node/cluster.hpp"
#include "node/testbed.hpp"
#include "scenario/scenario.hpp"
#include "sim/log.hpp"
#include "workloads/graph500/csr.hpp"
#include "workloads/graph500/kronecker.hpp"
#include "workloads/replay/trace.hpp"

extern char** environ;

using namespace tfsim;

namespace {

// --- fixed workload sizes ----------------------------------------------------
//
// Pinned here, never read from the environment, so every run of a workload
// executes the same program on the same input size.

// STREAM: 3 x 6M doubles = 144 MiB of arrays, beyond the 120 MiB LLC, at a
// PERIOD where the injector gate binds (fig2 mid-sweep).
constexpr std::uint64_t kStreamElements = 6'000'000;
constexpr std::uint64_t kStreamPeriod = 100;
// Graph500 at PERIOD 32 with remote placement, as fig5 runs it.
constexpr std::uint32_t kGraphScale = 15;
constexpr std::uint32_t kGraphEdgefactor = 16;
constexpr std::uint64_t kGraphPeriod = 32;
// serving_diurnal with its arrival horizon stretched from 20 ms to this.
constexpr double kServingDurationUs = 100'000.0;
// Set-ups per run, at least kMinSetupReps and until kSetupBudgetS of set-up
// time has passed (at most kMaxSetupReps); setup_s is their median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 500;
constexpr double kSetupBudgetS = 0.5;
// Accesses in the recorded slice replayed layer by layer (traced runs).
constexpr std::uint64_t kSliceAccesses = 200'000;
constexpr int kSliceReps = 3;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// --- spans -------------------------------------------------------------------
//
// Spans are recorded from this file only, around each call it makes into a
// layer, kept in memory and written out when the run ends.  A disabled log
// records nothing, so untraced iterations pay one branch per call.

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double start_s = 0.0;      ///< since the log's epoch
  double end_s = 0.0;
};

class SpanLog {
 public:
  bool enabled = false;

  template <typename F>
  auto run(const char* name, F&& f) -> decltype(f()) {
    if (!enabled) return f();
    const std::uint64_t id = ++next_id_;
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back();
    const double start = seconds_since(epoch_);
    stack_.push_back(id);
    struct Close {
      SpanLog& log;
      Span span;
      ~Close() {
        span.end_s = seconds_since(log.epoch_);
        log.stack_.pop_back();
        log.spans_.push_back(std::move(span));
      }
    } close{*this, Span{name, id, parent, start, 0.0}};
    return f();
  }

  /// Durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "  {\"name\": \"%s\", \"id\": %" PRIu64
                    ", \"parent\": %" PRIu64
                    ", \"start_ns\": %.0f, \"end_ns\": %.0f}%s\n",
                    json_escape(s.name).c_str(), s.id, s.parent,
                    s.start_s * 1e9, s.end_s * 1e9,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> stack_;
  std::vector<Span> spans_;
};

// --- layer statistics --------------------------------------------------------

/// The one place that knows a Session's cluster sits behind node::Testbed;
/// every stats read below goes through node::Cluster.
node::Cluster& cluster_of(core::Session& session) {
  return session.testbed().cluster();
}

/// Simulated per-layer counts of one iteration.  Deterministic: equal
/// across iterations and runs of the same workload and seed.
struct LayerCounts {
  std::array<std::uint64_t, 3> hits{};
  std::array<std::uint64_t, 3> misses{};
  std::uint64_t nic_remote = 0;
  std::uint64_t nic_failures = 0;
  std::uint64_t nic_window_stalls = 0;
  std::uint64_t nic_admitted = 0;
  double nic_occupancy_sum = 0.0;
  std::uint64_t nic_occupancy_n = 0;
  double nic_added_delay_sum = 0.0;  ///< us
  std::uint64_t nic_added_delay_n = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t switch_frames = 0;
  std::uint64_t switch_drops = 0;
  double switch_queued_sum = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;

  /// Logical MemContext accesses: each one is exactly one L1 lookup.
  std::uint64_t ctx_accesses() const { return hits[0] + misses[0]; }

  void add(node::Cluster& cluster) {
    for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
      node::Node& n = cluster.borrower(b);
      const auto& caches = n.caches();
      for (std::size_t l = 0; l < caches.num_levels() && l < 3; ++l) {
        hits[l] += caches.level(l).stats().hits;
        misses[l] += caches.level(l).stats().misses;
      }
      if (!n.has_nic()) continue;
      nic::DisaggNic& nic = n.nic();
      nic_remote += nic.reads() + nic.writes();
      nic_failures += nic.failures();
      nic_window_stalls += nic.window().stalls();
      const auto& occ = nic.window().occupancy_stats();
      nic_occupancy_sum += occ.sum();
      nic_occupancy_n += occ.count();
      nic_admitted += nic.injector().admitted();
      const auto& delay = nic.injector().added_delay();
      nic_added_delay_sum += delay.sum();
      nic_added_delay_n += delay.count();
    }
    events += cluster.engine().executed();
    if (const sim::ParallelEngine* pdes = cluster.pdes()) {
      events += pdes->executed();
      windows += pdes->windows();
    }
    for (const auto& [id, sw] : cluster.network().switches()) {
      for (const auto& [egress, port] : sw.ports()) {
        switch_frames += port.frames;
        switch_drops += port.drops;
        switch_queued_sum += port.queued_bytes_sum;
      }
    }
  }

  void add(const core::ServingReport& r) {
    offered += r.totals.offered;
    completed += r.totals.completed;
    rejected += r.totals.rejected;
    failed += r.totals.failed;
    failovers += r.failovers;
  }

  bool operator==(const LayerCounts&) const = default;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Borrower-side protocol books must balance after every paper-path run.
void check_quiesced(node::Cluster& cluster) {
  for (std::size_t b = 0; b < cluster.num_borrowers(); ++b) {
    if (cluster.borrower(b).has_nic()) cluster.borrower(b).nic().check_quiesced();
  }
}

/// FNV-1a digest of simulated outputs, built field by field.
class Digest {
 public:
  Digest& add(const std::string& s) {
    text_ += s;
    text_ += ';';
    return *this;
  }
  Digest& add(std::uint64_t v) { return add(std::to_string(v)); }
  Digest& add(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return add(std::string(buf));
  }
  std::uint64_t value() const { return core::fnv1a(text_); }

 private:
  std::string text_;
};

// --- workloads -----------------------------------------------------------------

/// What one timed iteration produced.
struct Iteration {
  double host_s = 0.0;       ///< timed region only
  double cpu_s = 0.0;        ///< process CPU time over the timed region
  std::uint64_t ops = 0;     ///< simulated operations in the timed region
  std::uint64_t digest = 0;  ///< sim_digest
  LayerCounts counts;
};

/// A recorded access slice, the CPU model it was recorded with and the
/// Session configuration to replay it on.
struct Slice {
  workloads::replay::Trace trace;
  node::CpuConfig cpu;
  core::SessionConfig session;
};

struct Workload {
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything before the timed region, from scratch: scenario load,
  /// Session/Cluster assembly and input generation.  Called several
  /// times; the last call's inputs feed the iterations.
  virtual void setup(SpanLog& spans) = 0;
  /// One timed iteration on a freshly assembled Session/Cluster.  Throws
  /// (or returns a failed gate message) when an output is wrong.
  virtual std::string iterate(SpanLog& spans, Iteration& it) = 0;
  /// The access slice traced runs replay layer by layer (paper path only).
  virtual std::optional<Slice> record_slice() { return std::nullopt; }
  /// resolved_json of the scenario as run (manifest hash).
  virtual std::string resolved_scenario() const = 0;
};

std::string scenario_path(const std::string& repo, const std::string& name) {
  return repo + "/scenarios/" + name + ".json";
}

/// Times one call into the library: host seconds and process CPU seconds.
template <typename F>
auto timed(Iteration& it, F&& f) -> decltype(f()) {
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  struct Stop {
    Iteration& it;
    double c0;
    Clock::time_point t0;
    ~Stop() {
      it.host_s += seconds_since(t0);
      it.cpu_s += cpu_seconds() - c0;
    }
  } stop{it, c0, t0};
  return f();
}

class PaperPath : public Workload {
 protected:
  PaperPath(std::string repo, std::uint64_t period)
      : repo_(std::move(repo)), period_(period) {}

  void load_session_config(SpanLog& spans) {
    const scenario::ScenarioSpec spec = spans.run("scenario.load", [&] {
      return scenario::load_file(scenario_path(repo_, "paper_twonode"));
    });
    resolved_ = scenario::resolved_json(spec);
    cfg_ = core::SessionConfig{};
    cfg_.testbed = node::to_testbed_spec(spec);
    cfg_.period = period_;
    cfg_.placement = node::Placement::kRemote;
  }

  std::unique_ptr<core::Session> make_session(SpanLog& spans) const {
    auto session = spans.run("core.session", [&] {
      return std::make_unique<core::Session>(cfg_);
    });
    if (!session->attached()) {
      throw std::runtime_error("remote memory failed to attach");
    }
    return session;
  }

  std::string resolved_scenario() const override { return resolved_; }

  std::string repo_;
  std::uint64_t period_;
  core::SessionConfig cfg_;
  std::string resolved_;
};

class StreamRemote final : public PaperPath {
 public:
  explicit StreamRemote(std::string repo)
      : PaperPath(std::move(repo), kStreamPeriod) {
    stream_cfg_.elements = kStreamElements;
  }

  void setup(SpanLog& spans) override {
    load_session_config(spans);
    (void)make_session(spans);
  }

  std::string iterate(SpanLog& spans, Iteration& it) override {
    auto session = make_session(spans);
    const workloads::StreamResult r = timed(it, [&] {
      return spans.run("stream.run", [&] { return session->run_stream(stream_cfg_); });
    });
    node::Cluster& cluster = cluster_of(*session);
    check_quiesced(cluster);
    it.counts.add(cluster);
    it.ops = it.counts.ctx_accesses();
    Digest d;
    for (const auto& k : r.kernels) {
      d.add(k.kernel).add(std::uint64_t{k.elapsed}).add(k.bandwidth_gbps)
          .add(k.avg_latency_us);
    }
    it.digest = d.value();
    if (!r.validated) return "STREAM validation failed";
    return "";
  }

  /// Sequential streaming lines with writes: the triad pattern, a[i] =
  /// b[i] + s*c[i], one access per line of each array.
  std::optional<Slice> record_slice() override {
    core::Session session(cfg_);
    node::Cluster& cluster = cluster_of(session);
    Slice slice{{}, stream_cfg_.cpu, cfg_};
    node::MemContext ctx = cluster.make_context(slice.cpu, "tfbench/slice");
    const std::uint64_t lines = kSliceAccesses / 3;
    const std::uint64_t bytes = lines * mem::kCacheLineBytes;
    const mem::Addr base = cluster.borrower().allocate(3 * bytes,
                                                       node::Placement::kRemote);
    workloads::replay::TraceRecorder rec(ctx, base);
    for (std::uint64_t i = 0; i < lines; ++i) {
      const mem::Addr off = i * mem::kCacheLineBytes;
      rec.access(base + bytes + off, false);
      rec.access(base + 2 * bytes + off, false);
      rec.access(base + off, true);
    }
    ctx.drain();
    slice.trace = rec.trace();
    return slice;
  }

 private:
  workloads::StreamConfig stream_cfg_;
};

class Graph500Remote final : public PaperPath {
 public:
  Graph500Remote(std::string repo, std::uint64_t seed)
      : PaperPath(std::move(repo), kGraphPeriod) {
    graph_cfg_.gen.scale = kGraphScale;
    graph_cfg_.gen.edgefactor = kGraphEdgefactor;
    graph_cfg_.gen.seed = seed;
  }

  void setup(SpanLog& spans) override {
    load_session_config(spans);
    (void)make_session(spans);
    edges_ = spans.run("graph500.generate", [&] {
      return workloads::g500::kronecker_generate(graph_cfg_.gen);
    });
    csr_ = spans.run("graph500.csr_build",
                     [&] { return workloads::g500::build_csr(edges_); });
    // Root: the highest-degree vertex (lowest id on ties), so the search
    // covers the giant component whatever the seed.
    root_ = 0;
    for (std::uint64_t v = 1; v < csr_.num_vertices; ++v) {
      if (csr_.degree(v) > csr_.degree(root_)) root_ = static_cast<std::uint32_t>(v);
    }
  }

  std::string iterate(SpanLog& spans, Iteration& it) override {
    Digest d;
    std::string error;
    const auto job = [&](const char* span, auto run) {
      auto session = make_session(spans);
      const workloads::g500::JobResult r = timed(it, [&] {
        return spans.run(span, [&] { return run(*session); });
      });
      node::Cluster& cluster = cluster_of(*session);
      check_quiesced(cluster);
      it.counts.add(cluster);
      // TEPS as Graph500 counts it: input edges over kernel time.
      const double teps =
          ratio(static_cast<double>(edges_.edges.size()),
                static_cast<double>(r.kernel_elapsed) / static_cast<double>(sim::kSecond));
      d.add(span).add(std::uint64_t{r.construction_elapsed})
          .add(std::uint64_t{r.kernel_elapsed}).add(teps);
      if (!r.validation_error.empty() && error.empty()) {
        error = std::string(span) + ": " + r.validation_error;
      }
    };
    job("graph500.bfs_job", [&](core::Session& s) {
      return s.run_bfs_job(graph_cfg_, edges_, root_);
    });
    job("graph500.sssp_job", [&](core::Session& s) {
      return s.run_sssp_job(graph_cfg_, edges_, root_);
    });
    it.ops = it.counts.ctx_accesses();
    it.digest = d.value();
    return error;
  }

  /// Dependent CSR neighbour reads: a BFS from the root that loads each
  /// vertex's xadj bounds, then every neighbour id and its parent slot,
  /// each load waiting for the one before it.
  std::optional<Slice> record_slice() override {
    core::Session session(cfg_);
    node::Cluster& cluster = cluster_of(session);
    Slice slice{{}, graph_cfg_.cpu, cfg_};
    node::MemContext ctx = cluster.make_context(slice.cpu, "tfbench/slice");
    const std::uint64_t n = csr_.num_vertices;
    const std::uint64_t xadj_bytes = (n + 1) * 8;
    const std::uint64_t adj_bytes = csr_.adj.size() * 8;
    const mem::Addr xadj = cluster.borrower().allocate(
        xadj_bytes + adj_bytes + n * 8, node::Placement::kRemote);
    const mem::Addr adj = xadj + xadj_bytes;
    const mem::Addr parent = adj + adj_bytes;
    workloads::replay::TraceRecorder rec(ctx, xadj);
    std::vector<bool> seen(n, false);
    std::vector<std::uint32_t> frontier{root_};
    seen[root_] = true;
    std::uint64_t recorded = 0;
    for (std::size_t head = 0; head < frontier.size() && recorded < kSliceAccesses;
         ++head) {
      const std::uint32_t u = frontier[head];
      rec.access(xadj + u * 8ULL, false, true);
      rec.access(xadj + (u + 1) * 8ULL, false, true);
      recorded += 2;
      for (std::uint64_t j = csr_.xadj[u]; j < csr_.xadj[u + 1]; ++j) {
        const std::uint32_t v = csr_.adj[j];
        rec.access(adj + j * 8, false, true);
        rec.access(parent + v * 8ULL, false, true);
        recorded += 2;
        if (!seen[v]) {
          seen[v] = true;
          frontier.push_back(v);
        }
      }
    }
    ctx.drain();
    slice.trace = rec.trace();
    return slice;
  }

 private:
  workloads::g500::Graph500Config graph_cfg_;
  workloads::g500::EdgeList edges_;
  workloads::g500::CsrGraph csr_;
  std::uint32_t root_ = 0;
};

class ServingRack final : public Workload {
 public:
  ServingRack(std::string repo, std::uint64_t seed, std::uint32_t threads)
      : repo_(std::move(repo)), seed_(seed), threads_(threads) {}

  void setup(SpanLog& spans) override {
    spec_ = spans.run("scenario.load", [&] {
      return scenario::load_file(scenario_path(repo_, "serving_diurnal"));
    });
    spec_.traffic.duration_us = kServingDurationUs;
    spec_.traffic.seed = seed_;
    spec_.pdes.threads = threads_;
    (void)make_cluster(spans);
  }

  std::string iterate(SpanLog& spans, Iteration& it) override {
    auto cluster = make_cluster(spans);
    const core::ServingReport r = timed(it, [&] {
      return spans.run("serving.run", [&] { return core::run_serving(*cluster); });
    });
    it.counts.add(*cluster);
    it.counts.add(r);
    it.ops = r.totals.offered;
    it.digest = r.digest;
    if (!r.balanced) return "serving ledger unbalanced";
    if (r.failovers == 0) return "no failover after the scripted lender kill";
    return "";
  }

  std::string resolved_scenario() const override {
    return scenario::resolved_json(spec_);
  }

 private:
  std::unique_ptr<node::Cluster> make_cluster(SpanLog& spans) const {
    return spans.run("node.cluster",
                     [&] { return std::make_unique<node::Cluster>(spec_); });
  }

  std::string repo_;
  std::uint64_t seed_;
  std::uint32_t threads_;
  scenario::ScenarioSpec spec_;
};

// --- layer-by-layer slice replay ------------------------------------------------

struct SliceTimes {
  double cache_ns = 0.0;      ///< mem: CacheHierarchy::access, per access
  double ctx_total_ns = 0.0;  ///< node: MemContext::access, per access
  double ctx_self_ns = 0.0;   ///< ... minus its cache and NIC children
  double nic_ns = 0.0;        ///< nic: DisaggNic::remote_access, per call
  std::uint64_t accesses = 0;
  std::uint64_t remote_misses = 0;
  sim::Time stall = 0;
};

/// Replays the slice through MemContext::access, then the same addresses
/// through CacheHierarchy::access alone, then the cache's misses and
/// writebacks through DisaggNic::remote_access alone, each on a fresh
/// Session.  A layer's self time is its time minus its children's.
SliceTimes replay_slice(const Slice& slice, SpanLog& spans) {
  using workloads::replay::OpKind;
  const std::uint64_t footprint = slice.trace.footprint_bytes();
  SliceTimes out;

  double t_ctx = 0.0;
  {
    core::Session session(slice.session);
    node::Cluster& cluster = cluster_of(session);
    node::MemContext ctx = cluster.make_context(slice.cpu, "tfbench/replay");
    const mem::Addr base =
        cluster.borrower().allocate(footprint, node::Placement::kRemote);
    const auto t0 = Clock::now();
    spans.run("node.ctx_replay", [&] {
      for (const auto& op : slice.trace.ops) {
        switch (op.kind) {
          case OpKind::kRead: ctx.access(base + op.value, false); break;
          case OpKind::kWrite: ctx.access(base + op.value, true); break;
          case OpKind::kDependentRead: ctx.access(base + op.value, false, true); break;
          case OpKind::kCompute: ctx.advance(sim::from_ns(static_cast<double>(op.value))); break;
        }
      }
      ctx.drain();
    });
    t_ctx = seconds_since(t0);
    out.accesses = ctx.stats().accesses;
    out.remote_misses = ctx.stats().remote_misses;
    out.stall = ctx.stats().stall_time;
    check_quiesced(cluster);
  }

  core::Session session(slice.session);
  node::Cluster& cluster = cluster_of(session);
  node::Node& borrower = cluster.borrower();
  const mem::Addr base = borrower.allocate(footprint, node::Placement::kRemote);
  struct NicCall {
    mem::Addr addr;
    bool write;
    sim::Time at;
  };
  std::vector<NicCall> calls;
  calls.reserve(slice.trace.ops.size());
  sim::Time now = 0;
  const auto t_cache0 = Clock::now();
  spans.run("mem.cache_replay", [&] {
    for (const auto& op : slice.trace.ops) {
      if (op.kind == OpKind::kCompute) {
        now += sim::from_ns(static_cast<double>(op.value));
        continue;
      }
      now += slice.cpu.issue_cost;
      const auto r = borrower.caches().access(base + op.value, op.kind == OpKind::kWrite);
      for (const mem::Addr line : r.memory_writebacks) calls.push_back({line, true, now});
      if (r.hit_level < 0) calls.push_back({base + op.value, false, now});
    }
  });
  const double t_cache = seconds_since(t_cache0);

  nic::DisaggNic& nic = borrower.nic();
  const auto t_nic0 = Clock::now();
  spans.run("nic.remote_replay", [&] {
    for (const auto& c : calls) {
      if (!nic.remote_access(c.at, c.addr, c.write).has_value()) {
        throw std::runtime_error("slice replay: remote access refused");
      }
    }
  });
  const double t_nic = seconds_since(t_nic0);
  nic.check_quiesced();

  // The cache replay hands the NIC the misses and writebacks MemContext
  // sent it, so the three timings cover the same calls.
  const double n = static_cast<double>(std::max<std::uint64_t>(out.accesses, 1));
  out.cache_ns = t_cache * 1e9 / n;
  out.ctx_total_ns = t_ctx * 1e9 / n;
  out.nic_ns = calls.empty() ? 0.0 : t_nic * 1e9 / static_cast<double>(calls.size());
  out.ctx_self_ns = (t_ctx - t_cache - t_nic) * 1e9 / n;
  return out;
}

// --- output --------------------------------------------------------------------

class MetricsOut {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Refuse builds whose timings would not mean anything.
std::string build_defect() {
#ifndef __OPTIMIZE__
  return "unoptimized (-O0) build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string flags = TFBENCH_CXX_FLAGS;
  for (const char* bad : {"-fsanitize", "--coverage", "-fprofile-arcs", "-O0"}) {
    if (flags.find(bad) != std::string::npos) {
      return std::string("build flags contain ") + bad;
    }
  }
  return "";
}

/// Clear every TFSIM_* variable so the ambient environment cannot change
/// what runs (PDES workers, sweep jobs, domain-check mode, settle mode,
/// workload sizes).  The log level was read before main; reset it.
std::vector<std::string> clear_tfsim_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("TFSIM_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
  sim::set_log_level(sim::LogLevel::Warn);
  return names;
}

struct Args {
  std::string workload;
  std::string repo = ".";
  std::string spans_out;
  std::uint64_t kron_seed = 1;
  std::uint64_t arrival_seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--repo") a.repo = v;
      else if (k == "--spans-out") a.spans_out = v;
      else if (k == "--kron-seed") a.kron_seed = std::stoull(v);
      else if (k == "--arrival-seed") a.arrival_seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = v == "1";
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "stream_remote") return std::make_unique<StreamRemote>(a.repo);
  if (a.workload == "graph500_remote") {
    return std::make_unique<Graph500Remote>(a.repo, a.kron_seed);
  }
  if (a.workload == "serving_rack") {
    return std::make_unique<ServingRack>(a.repo, a.arrival_seed, 1);
  }
  if (a.workload == "serving_rack_pdes") {
    return std::make_unique<ServingRack>(a.repo, a.arrival_seed, 2);
  }
  return nullptr;
}

double span_median_s(const SpanLog& spans, const std::string& name) {
  return median(spans.durations(name));
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> cleared = clear_tfsim_env();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: tfbench_harness --workload <name> --repo <dir> "
                 "--seconds <s> --trace 0|1 [--kron-seed n] [--arrival-seed n] "
                 "[--spans-out file]\n");
    return 2;
  }
  if (const std::string defect = build_defect(); !defect.empty()) {
    std::fprintf(stderr, "tfbench: refusing to measure a %s\n", defect.c_str());
    return 3;
  }
  std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) {
    std::fprintf(stderr, "tfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  SpanLog spans;
  spans.enabled = args.trace;
  std::vector<double> setup_s;
  try {
    const auto setup0 = Clock::now();
    while (setup_s.size() < static_cast<std::size_t>(kMinSetupReps) ||
           (setup_s.size() < static_cast<std::size_t>(kMaxSetupReps) &&
            seconds_since(setup0) < kSetupBudgetS)) {
      const auto t0 = Clock::now();
      spans.run("setup", [&] { workload->setup(spans); });
      setup_s.push_back(seconds_since(t0));
    }
  } catch (const std::exception& e) {
    std::printf("{\"workload\": \"%s\", \"attempted\": 1, \"failed\": 1, "
                "\"error\": \"set-up failed: %s\", \"metrics\": {}}\n",
                args.workload.c_str(), json_escape(e.what()).c_str());
    return 1;
  }

  // Timed iterations.  Traced runs alternate untraced and traced
  // iterations, so the tracing overhead is measured in one process.
  std::vector<Iteration> iters;
  std::vector<bool> traced;
  std::uint64_t failed = 0;
  std::string first_error;
  // Iterate for --seconds: start another iteration only while it should
  // end in time (the iterations of one workload take about equally long).
  // A traced run needs one untraced and one traced iteration at least.
  const std::size_t min_iters = args.trace ? 2 : 1;
  const auto loop0 = Clock::now();
  while (iters.size() < min_iters ||
         seconds_since(loop0) * static_cast<double>(iters.size() + 1) /
                 static_cast<double>(iters.size()) <=
             args.seconds) {
    const bool trace_this = args.trace && iters.size() % 2 == 1;
    spans.enabled = trace_this;
    Iteration it;
    std::string error;
    try {
      error = spans.run("iteration", [&] { return workload->iterate(spans, it); });
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (error.empty() && !iters.empty() &&
        (it.digest != iters.front().digest || !(it.counts == iters.front().counts))) {
      error = "simulated outputs differ between iterations of one run";
    }
    if (!error.empty()) {
      ++failed;
      if (first_error.empty()) first_error = error;
      std::fprintf(stderr, "tfbench: iteration %zu failed: %s\n", iters.size(),
                   error.c_str());
    }
    std::fprintf(stderr, "tfbench: iteration %zu%s: %.4f s host, %.4f s cpu, %" PRIu64
                 " ops\n", iters.size(), trace_this ? " (traced)" : "", it.host_s,
                 it.cpu_s, it.ops);
    iters.push_back(it);
    traced.push_back(trace_this);
  }
  spans.enabled = args.trace;

  const Iteration& first = iters.front();
  const LayerCounts& c = first.counts;
  std::vector<double> rate_all, rate_untraced, rate_traced, cpu_all;
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const double rate = ratio(static_cast<double>(iters[i].ops), iters[i].host_s);
    rate_all.push_back(rate);
    (traced[i] ? rate_traced : rate_untraced).push_back(rate);
    cpu_all.push_back(iters[i].cpu_s);
  }

  MetricsOut m;
  if (!args.trace) {
    m.add("sim_ops_per_s", median(rate_all), "1/s");
    m.add("setup_s", median(setup_s), "s");
    m.add("cpu_s", median(cpu_all), "s");
  } else {
    SliceTimes st;
    std::vector<double> cache_ns, ctx_ns, ctx_total_ns, nic_ns;
    try {
      if (const auto slice = workload->record_slice()) {
        for (int r = 0; r < kSliceReps; ++r) {
          st = replay_slice(*slice, spans);
          cache_ns.push_back(st.cache_ns);
          ctx_ns.push_back(st.ctx_self_ns);
          ctx_total_ns.push_back(st.ctx_total_ns);
          nic_ns.push_back(st.nic_ns);
        }
      }
    } catch (const std::exception& e) {
      ++failed;
      if (first_error.empty()) first_error = std::string("slice replay: ") + e.what();
    }
    const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };
    const char* lvl[3] = {"l1", "l2", "l3"};
    for (int l = 0; l < 3; ++l) {
      m.add(std::string("mem.") + lvl[l] + ".hits", u64(c.hits[l]), "count");
      m.add(std::string("mem.") + lvl[l] + ".misses", u64(c.misses[l]), "count");
    }
    m.add("mem.cache_access_ns", median(cache_ns), "ns");
    m.add("node.ctx_accesses", u64(st.accesses), "count");
    m.add("node.ctx_remote_misses", u64(st.remote_misses), "count");
    m.add("node.ctx_stall_ps", u64(st.stall), "ps");
    m.add("node.ctx_access_ns", median(ctx_ns), "ns");
    m.add("node.ctx_access_total_ns", median(ctx_total_ns), "ns");
    m.add("nic.remote_accesses", u64(c.nic_remote), "count");
    m.add("nic.failures", u64(c.nic_failures), "count");
    m.add("nic.window_stalls", u64(c.nic_window_stalls), "count");
    m.add("nic.window_occupancy_mean",
          ratio(c.nic_occupancy_sum, u64(c.nic_occupancy_n)), "entries");
    m.add("nic.injector_admitted", u64(c.nic_admitted), "count");
    m.add("nic.injector_added_delay_us_mean",
          ratio(c.nic_added_delay_sum, u64(c.nic_added_delay_n)), "us");
    m.add("nic.remote_access_ns", median(nic_ns), "ns");
    m.add("graph500.generate_s", span_median_s(spans, "graph500.generate"), "s");
    m.add("graph500.csr_build_s", span_median_s(spans, "graph500.csr_build"), "s");
    m.add("graph500.bfs_job_s", span_median_s(spans, "graph500.bfs_job"), "s");
    m.add("graph500.sssp_job_s", span_median_s(spans, "graph500.sssp_job"), "s");
    m.add("stream.run_s", span_median_s(spans, "stream.run"), "s");
    m.add("scenario.load_s", span_median_s(spans, "scenario.load"), "s");
    m.add("sim.events", u64(c.events), "count");
    m.add("sim.pdes_windows", u64(c.windows), "count");
    m.add("sim.events_per_window", ratio(u64(c.events), u64(c.windows)), "events");
    const double serving_s = span_median_s(spans, "serving.run");
    m.add("sim.host_ns_per_event", ratio(serving_s * 1e9, u64(c.events)), "ns");
    m.add("net.switch_frames", u64(c.switch_frames), "count");
    m.add("net.switch_drops", u64(c.switch_drops), "count");
    m.add("net.switch_queue_bytes_mean",
          ratio(c.switch_queued_sum, u64(c.switch_frames)), "bytes");
    m.add("serving.run_s", serving_s, "s");
    m.add("serving.offered", u64(c.offered), "count");
    m.add("serving.completed", u64(c.completed), "count");
    m.add("serving.rejected", u64(c.rejected), "count");
    m.add("serving.failed", u64(c.failed), "count");
    m.add("serving.failovers", u64(c.failovers), "count");
    const double untraced = median(rate_untraced);
    const double traced_rate = median(rate_traced);
    m.add("trace.untraced_sim_ops_per_s", untraced, "1/s");
    m.add("trace.traced_sim_ops_per_s", traced_rate, "1/s");
    m.add("trace.overhead_pct", (ratio(untraced, traced_rate) - 1.0) * 100.0, "%");
    if (!args.spans_out.empty()) spans.write(args.spans_out);
  }

  std::string cleared_json;
  for (const auto& n : cleared) {
    cleared_json += (cleared_json.empty() ? "\"" : ", \"") + json_escape(n) + "\"";
  }
  std::printf(
      "{\"workload\": \"%s\", \"attempted\": %zu, \"failed\": %" PRIu64
      ", \"error\": \"%s\", \"sim_digest\": \"%s\", \"metrics\": %s, "
      "\"manifest\": {\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"compiler\": \"%s\", \"kron_seed\": %" PRIu64 ", \"arrival_seed\": %" PRIu64
      ", \"scenario_hash\": \"%s\", \"iterations\": %zu, \"setup_reps\": %zu, "
      "\"tfsim_env_cleared\": [%s]}}\n",
      args.workload.c_str(), iters.size(), failed,
      json_escape(first_error).c_str(), hex64(first.digest).c_str(),
      m.json().c_str(), TFBENCH_BUILD_TYPE, json_escape(TFBENCH_CXX_FLAGS).c_str(),
      json_escape(__VERSION__).c_str(), args.kron_seed, args.arrival_seed,
      hex64(core::fnv1a(workload->resolved_scenario())).c_str(), iters.size(),
      setup_s.size(), cleared_json.c_str());
  return failed == 0 ? 0 : 1;
}
