#include "scenario/scenario.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

namespace tfsim::scenario {

namespace {

// --- enum names --------------------------------------------------------------

template <class E>
struct EnumName {
  E value;
  const char* name;
};

constexpr EnumName<Role> kRoleNames[] = {{Role::kBorrower, "borrower"},
                                         {Role::kLender, "lender"}};
constexpr EnumName<TopologyKind> kTopologyNames[] = {
    {TopologyKind::kDirect, "direct"},
    {TopologyKind::kDumbbell, "dumbbell"},
    {TopologyKind::kLeafSpine, "leaf_spine"}};
constexpr EnumName<ChaosKind> kChaosNames[] = {
    {ChaosKind::kKillSwitch, "kill_switch"},
    {ChaosKind::kBrownoutPort, "brownout_port"},
    {ChaosKind::kGrayLender, "gray_lender"},
    {ChaosKind::kRecover, "recover"}};

template <class E, std::size_t N>
std::string name_of(const EnumName<E> (&names)[N], E value) {
  for (const auto& n : names) {
    if (n.value == value) return n.name;
  }
  return "?";
}

/// Throws std::invalid_argument listing the accepted names.
template <class E, std::size_t N>
E parse_named(const EnumName<E> (&names)[N], const std::string& name,
              const char* what) {
  for (const auto& n : names) {
    if (name == n.name) return n.value;
  }
  std::string msg = "unknown ";
  msg.append(what).append(" \"").append(name).append("\" (expected ");
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) msg.append(i + 1 == N ? " or " : ", ");
    msg.append(names[i].name);
  }
  throw std::invalid_argument(msg.append(")"));
}

// --- the schema walker -------------------------------------------------------
//
// Every block of a scenario file is one static Table: a row per key, naming
// the member it binds (a chain of member pointers) and the codec that
// converts between the JSON value and the member's type and unit.  One
// walker reads any block -- unknown keys rejected, absent keys left at the
// struct default -- and one writes it back, in row order, for
// resolved_json (a codec that writes null leaves its key out).  A table may
// name a validator for the range checks that relate a block's fields; it
// runs once the block has been read.

/// Where a value sits in the document: a chain of keys and array indices up
/// to the root, rendered ("nodes[1].dram") only when an error names it.
struct Path {
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  const Path* up = nullptr;
  std::string_view key;
  std::size_t index = kNoIndex;

  std::string str() const {
    std::string s = up != nullptr ? up->str() : std::string();
    if (index != kNoIndex) {
      return s.append("[").append(std::to_string(index)).append("]");
    }
    return (s.empty() ? s : s.append(".")).append(key);
  }
};

JsonError error_at(const Path& at, const std::string& msg) {
  const std::string where = at.str();
  return JsonError(where.empty() ? "scenario: " + msg
                                 : "scenario: " + where + ": " + msg);
}

/// One key of a block, bound to `block.*Member...` (no member: the whole
/// block) and converted by codec C.  A required row must be present.
template <class C, auto... Member>
struct Row {
  using Codec = C;
  std::string_view key;
  bool required = false;

  template <class T>
  static constexpr auto& of(T& block) {
    return (block .* ... .* Member);
  }
};

template <class T, class... Rows>
struct Table {
  void (*validate)(T&);
  std::tuple<Rows...> rows;
};

template <class T, class... Rows>
constexpr Table<T, Rows...> table(void (*validate)(T&), Rows... rows) {
  return {validate, {rows...}};
}

/// Codecs come in two shapes.  A scalar codec reads `read(json, member)` and
/// throws a bare message ("expected a string") that is prefixed here with
/// the value's path; a block codec takes the path and names its own errors.
template <class C, class M>
void read_value(const Json& value, const Path& at, M& member) {
  if constexpr (requires { C::read(value, at, member); }) {
    C::read(value, at, member);
  } else {
    try {
      C::read(value, member);
    } catch (const std::invalid_argument& e) {
      throw error_at(at, e.what());
    } catch (const JsonError& e) {
      std::string_view msg = e.what();
      if (msg.rfind("json: ", 0) == 0) msg.remove_prefix(6);
      throw error_at(at, std::string(msg));
    }
  }
}

template <class T, class... Rows>
void read_block(const Json& obj, const Path& at, T& out,
                const Table<T, Rows...>& table) {
  if (!obj.is_object()) throw error_at(at, "expected an object");
  for (const auto& [key, value] : obj.members()) {
    const bool known = std::apply(
        [&](const auto&... row) {
          const auto read = [&](const auto& r) {
            using R = std::remove_cvref_t<decltype(r)>;
            read_value<typename R::Codec>(value, Path{&at, r.key},
                                          R::of(out));
            return true;
          };
          return ((row.key == key && read(row)) || ...);
        },
        table.rows);
    if (!known) throw error_at(at, "unknown key \"" + key + "\"");
  }
  std::apply(
      [&](const auto&... row) {
        const auto require = [&](const auto& r) {
          if (r.required && obj.find(std::string(r.key)) == nullptr) {
            throw error_at(Path{&at, r.key}, "required key is missing");
          }
        };
        (require(row), ...);
      },
      table.rows);
  if (table.validate != nullptr) table.validate(out);
}

template <class T, class... Rows>
Json write_block(const T& in, const Table<T, Rows...>& table) {
  Json obj = Json::object();
  std::apply(
      [&](const auto&... row) {
        const auto write = [&](const auto& r) {
          using R = std::remove_cvref_t<decltype(r)>;
          Json v = R::Codec::write(R::of(in));
          if (!v.is_null()) obj.set(std::string(r.key), std::move(v));
        };
        (write(row), ...);
      },
      table.rows);
  return obj;
}

// --- codecs ------------------------------------------------------------------

struct Str {
  static void read(const Json& v, std::string& m) { m = v.as_string(); }
  static Json write(const std::string& m) { return Json::string(m); }
};

struct Bool {
  static void read(const Json& v, bool& m) { m = v.as_bool(); }
  static Json write(bool m) { return Json::boolean(m); }
};

/// An unsigned integer that fits U.
template <class U>
struct Int {
  static void read(const Json& v, U& m) {
    const double x = v.is_number() ? v.as_double() : -1.0;
    if (!(x >= 0.0) || x != std::floor(x)) {
      throw JsonError("expected a non-negative integer");
    }
    constexpr double kLimit =
        static_cast<double>(std::numeric_limits<U>::max()) + 1.0;
    if (!(x < kLimit)) {
      throw JsonError("expected an integer below " +
                      Json::number(kLimit).dump());
    }
    m = static_cast<U>(x);
  }
  static Json write(U m) { return Json::number(static_cast<std::uint64_t>(m)); }
};

/// A finite real, held as the file's value times Scale (MHz -> Hz).  1e999
/// parses to inf, which no dump could write back.
template <double Scale>
struct Real {
  static void read(const Json& v, double& m) {
    const double x = v.as_double() * Scale;
    if (!std::isfinite(x)) throw JsonError("expected a finite number");
    m = x;
  }
  static Json write(double m) { return Json::number(m / Scale); }
};

/// A 64-bit count of base units written in a larger unit: a sim::Time in
/// ns or us, a byte count in KiB or GiB.
template <std::uint64_t Unit>
struct Fixed {
  static void read(const Json& v, std::uint64_t& m) {
    constexpr double kLimit =
        18446744073709551616.0 / static_cast<double>(Unit);
    const double x = v.as_double();
    if (!(x >= 0.0 && x < kLimit)) {
      throw JsonError("expected a number in [0, " +
                      Json::number(kLimit).dump() + ")");
    }
    m = static_cast<std::uint64_t>(x * static_cast<double>(Unit));
  }
  static Json write(std::uint64_t m) {
    return Json::number(static_cast<double>(m) / static_cast<double>(Unit));
  }
};

/// A bandwidth in Gbit/s or GByte/s; serialization time divides by it.
template <sim::Bandwidth (*From)(double), double (sim::Bandwidth::*To)() const>
struct Rate {
  static void read(const Json& v, sim::Bandwidth& m) {
    const sim::Bandwidth b = From(v.as_double());
    if (!((b.*To)() > 0.0 && std::isfinite((b.*To)()))) {
      throw JsonError("expected a positive finite number");
    }
    m = b;
  }
  static Json write(const sim::Bandwidth& m) { return Json::number((m.*To)()); }
};

/// An enum by name: Parse reads it, to_string (found by ADL) writes it.
template <auto Parse>
struct Enum {
  static void read(const Json& v, auto& m) { m = Parse(v.as_string()); }
  static Json write(auto m) { return Json::string(to_string(m)); }
};

/// The injector distribution; "" leaves the PERIOD gate in charge.
struct Distribution {
  static void read(const Json& v, std::optional<net::DistKind>& m) {
    const std::string& name = v.as_string();
    m = name.empty() ? std::nullopt
                     : std::optional(net::parse_dist_kind(name));
  }
  static Json write(const std::optional<net::DistKind>& m) {
    return Json::string(m.has_value() ? net::to_string(*m) : "");
  }
};

/// with_nic may be left to the role in a file but is always explicit in the
/// resolved dump, so it binds the whole node.
struct WithNic {
  static void read(const Json& v, NodeDecl& m) { m.with_nic = v.as_bool(); }
  static Json write(const NodeDecl& m) {
    return Json::boolean(m.nic_enabled());
  }
};

/// A nested block, read and written by its own table.
template <const auto& Tab>
struct Object {
  static void read(const Json& v, const Path& at, auto& m) {
    read_block(v, at, m, Tab);
  }
  static Json write(const auto& m) { return write_block(m, Tab); }
};

/// kill_lender is a sub-object over two FaultSpec members, dumped only when
/// a lender is named.
template <const auto& Tab>
struct KillLender : Object<Tab> {
  static Json write(const FaultSpec& m) {
    return m.kill_lender.empty() ? Json() : write_block(m, Tab);
  }
};

template <class C>
struct List {
  template <class E>
  static void read(const Json& v, const Path& at, std::vector<E>& m) {
    if (!v.is_array()) throw error_at(at, "expected an array");
    m.assign(v.items().size(), E{});
    for (std::size_t i = 0; i < m.size(); ++i) {
      read_value<C>(v.items()[i], Path{&at, {}, i}, m[i]);
    }
  }
  template <class E>
  static Json write(const std::vector<E>& m) {
    Json arr = Json::array();
    for (const E& e : m) arr.push(C::write(e));
    return arr;
  }
};

using U32 = Int<std::uint32_t>;
using U64 = Int<std::uint64_t>;
using Num = Real<1.0>;
using MHz = Real<1e6>;
using Ns = Fixed<sim::kNanosecond>;
using Us = Fixed<sim::kMicrosecond>;
using KiB = Fixed<sim::kKiB>;
using GiB = Fixed<sim::kGiB>;
using Gbit = Rate<&sim::Bandwidth::from_gbit, &sim::Bandwidth::gbit_per_sec>;
using GByte = Rate<&sim::Bandwidth::from_gbyte, &sim::Bandwidth::gbyte_per_sec>;

[[noreturn]] void bad_event(std::size_t i, const std::string& what) {
  throw std::invalid_argument("chaos event " + std::to_string(i) + what);
}

// --- validators: range checks across a block's fields ----------------------
//
// Reals reaching a validator are finite (Real rejects the rest), so each
// negated condition below is exact.

void require(bool ok, const char* msg) {
  if (!ok) throw JsonError(std::string("scenario: ") + msg);
}

/// Rethrow a std::invalid_argument from a shared validator as a JsonError.
template <class F>
void require_valid(F&& check) {
  try {
    check();
  } catch (const std::invalid_argument& e) {
    throw JsonError(std::string("scenario: ") + e.what());
  }
}

void check_node(NodeDecl& d) {
  require(d.count != 0, "node count must be >= 1");
}

void check_topology(TopologySpec& t) {
  require(t.leaves != 0 && t.spines != 0,
          "topology leaves and spines must each be >= 1");
}

void check_reservation(ReservationSpec& r) {
  require(r.chunks != 0, "reservation chunks must be >= 1");
}

void check_faults(FaultSpec& f) {
  require(f.link.loss_rate >= 0.0 && f.link.loss_rate <= 1.0,
          "faults loss_rate must be in [0, 1]");
  require(f.link.corrupt_rate >= 0.0 && f.link.corrupt_rate <= 1.0,
          "faults corrupt_rate must be in [0, 1]");
  // Catch broken schedules (zero-duration, factor out of range, windows
  // overlapping) at parse time, when the error can still name the file,
  // instead of when the Nth sweep point constructs its FaultPlan.
  require_valid(
      [&] { net::validate_flap_schedule(f.link.flaps, "faults flaps"); });
}

void check_kill_lender(FaultSpec& f) {
  require(!f.kill_lender.empty(), "kill_lender requires a \"node\" name");
}

void check_chaos(ChaosSpec& c) {
  // Resolve once now and discard: a malformed timeline (unmatched recover,
  // overlapping windows, bad factors) fails at parse time with the event
  // index, not deep inside cluster assembly.
  require_valid([&] { resolve_chaos(c); });
}

void check_detector(DetectorSpec& d) {
  require(d.alpha > 0.0 && d.alpha <= 1.0,
          "detector alpha must be in (0, 1]");
  require(d.latency_threshold > 1.0,
          "detector latency_threshold must be > 1");
  require(d.timeout_weight >= 0.0, "detector timeout_weight must be >= 0");
  require(d.warmup != 0 && d.confirm != 0,
          "detector warmup and confirm must be >= 1");
  require(d.probe_interval != 0 && d.rejoin_confirm != 0,
          "detector probe_interval and rejoin_confirm must be >= 1");
  require(d.rejoin_margin >= 1.0, "detector rejoin_margin must be >= 1");
}

void check_traffic(TrafficSpec& t) {
  if (!t.process.empty() && t.process != "poisson" && t.process != "bursty" &&
      t.process != "diurnal") {
    throw JsonError("scenario: unknown traffic process \"" + t.process + "\"");
  }
  if (!t.enabled()) return;
  require(t.rate_rps > 0.0, "traffic rate_rps must be > 0");
  require(t.duration_us > 0.0, "traffic duration_us must be > 0");
  require(t.max_in_flight != 0, "traffic max_in_flight must be >= 1");
  require(t.diurnal_amplitude >= 0.0 && t.diurnal_amplitude <= 1.0,
          "traffic diurnal_amplitude must be in [0,1]");
}

void check_tenant(TrafficTenantSpec& t) {
  require(t.weight != 0, "tenant weight must be >= 1");
  require(t.rate_share > 0.0, "tenant rate_share must be > 0");
}

void check_slo(SloSpec& s) {
  require(s.p50_us >= 0.0 && s.p99_us >= 0.0 && s.p999_us >= 0.0,
          "slo targets must be >= 0");
  require(s.window_us > 0.0, "slo window_us must be > 0");
}

void check_pdes(PdesSpec& p) {
  require(p.lookahead_ns >= 0.0, "pdes lookahead_ns must be >= 0");
}

void check_scenario(ScenarioSpec& s) {
  require(!s.nodes.empty(), "\"nodes\" array is required and non-empty");
}

// --- the schema: one table per block, rows in resolved-dump order -----------

constexpr auto kDram = table<mem::DramConfig>(
    nullptr,
    Row<GiB, &mem::DramConfig::capacity_bytes>{"capacity_gib"},
    Row<GByte, &mem::DramConfig::bus_bandwidth>{"bandwidth_gbyte"},
    Row<Ns, &mem::DramConfig::access_latency>{"latency_ns"});

constexpr auto kNic = table<nic::NicConfig>(
    nullptr,
    Row<U32, &nic::NicConfig::window_entries>{"window_entries"},
    Row<U32, &nic::NicConfig::latency_reserved_entries>{
        "latency_reserved_entries"},
    Row<MHz, &nic::NicConfig::fpga_clock_hz>{"fpga_clock_mhz"},
    Row<U64, &nic::NicConfig::period>{"period"},
    Row<Ns, &nic::NicConfig::processing_latency>{"processing_ns"},
    Row<Us, &nic::NicConfig::replay, &nic::ReplayConfig::retry_timeout>{
        "retry_timeout_us"},
    Row<Num, &nic::NicConfig::replay, &nic::ReplayConfig::backoff>{
        "retry_backoff"},
    Row<U32, &nic::NicConfig::replay, &nic::ReplayConfig::max_retries>{
        "max_retries"},
    Row<U32, &nic::NicConfig::replay, &nic::ReplayConfig::detach_threshold>{
        "detach_threshold"});

constexpr auto kNode = table<NodeDecl>(
    check_node,
    Row<Str, &NodeDecl::name>{"name"},
    Row<Enum<&parse_role>, &NodeDecl::role>{"role"},
    Row<U32, &NodeDecl::count>{"count"},
    Row<Object<kDram>, &NodeDecl::dram>{"dram"},
    Row<WithNic>{"with_nic"},
    Row<Object<kNic>, &NodeDecl::nic>{"nic"});

constexpr auto kLink = table<net::LinkConfig>(
    nullptr,
    Row<Gbit, &net::LinkConfig::bandwidth>{"bandwidth_gbit"},
    Row<Ns, &net::LinkConfig::propagation>{"propagation_ns"});

constexpr auto kSwitch = table<net::SwitchConfig>(
    nullptr,
    Row<KiB, &net::SwitchConfig::buffer_bytes>{"buffer_kib"},
    Row<Enum<&net::parse_queue_policy>, &net::SwitchConfig::policy>{"policy"});

constexpr auto kTopology = table<TopologySpec>(
    check_topology,
    Row<Enum<&parse_topology_kind>, &TopologySpec::kind>{"kind"},
    Row<Object<kLink>, &TopologySpec::link>{"link"},
    Row<Object<kLink>, &TopologySpec::trunk>{"trunk"},
    Row<Object<kLink>, &TopologySpec::uplink>{"uplink"},
    Row<U32, &TopologySpec::leaves>{"leaves"},
    Row<U32, &TopologySpec::spines>{"spines"},
    Row<Object<kSwitch>, &TopologySpec::sw>{"switch"});

constexpr auto kInjector = table<InjectorSpec>(
    nullptr,
    Row<U64, &InjectorSpec::period>{"period"},
    Row<Distribution, &InjectorSpec::dist_kind>{"distribution"},
    Row<Num, &InjectorSpec::dist_mean_us>{"mean_us"},
    Row<U64, &InjectorSpec::dist_seed>{"seed"});

constexpr auto kReservation = table<ReservationSpec>(
    check_reservation,
    Row<Str, &ReservationSpec::borrower>{"borrower"},
    Row<U64, &ReservationSpec::size_gib>{"size_gib"},
    Row<U32, &ReservationSpec::chunks>{"chunks"},
    Row<Str, &ReservationSpec::name>{"name"});

constexpr auto kWorkload = table<WorkloadSpec>(
    nullptr,
    Row<Str, &WorkloadSpec::kind>{"kind"},
    Row<Str, &WorkloadSpec::placement>{"placement"});

constexpr auto kFlap = table<net::FlapSpec>(
    nullptr,
    Row<Us, &net::FlapSpec::start>{"at_us"},
    Row<Us, &net::FlapSpec::duration>{"for_us"},
    Row<Num, &net::FlapSpec::bandwidth_factor>{"factor"});

constexpr auto kKillLender = table<FaultSpec>(
    check_kill_lender,
    Row<Str, &FaultSpec::kill_lender>{"node"},
    Row<Num, &FaultSpec::kill_at_us>{"at_us"});

constexpr auto kFaults = table<FaultSpec>(
    check_faults,
    Row<Num, &FaultSpec::link, &net::FaultConfig::loss_rate>{"loss_rate"},
    Row<Num, &FaultSpec::link, &net::FaultConfig::corrupt_rate>{
        "corrupt_rate"},
    Row<U64, &FaultSpec::link, &net::FaultConfig::seed>{"seed"},
    Row<List<Object<kFlap>>, &FaultSpec::link, &net::FaultConfig::flaps>{
        "flaps"},
    Row<KillLender<kKillLender>>{"kill_lender"});

constexpr auto kChaosEvent = table<ChaosEventSpec>(
    nullptr,
    Row<Num, &ChaosEventSpec::at_us>{"at_us"},
    Row<Enum<&parse_chaos_kind>, &ChaosEventSpec::kind>{"kind", true},
    Row<Str, &ChaosEventSpec::target>{"target"},
    Row<Num, &ChaosEventSpec::factor>{"factor"},
    Row<Num, &ChaosEventSpec::for_us>{"for_us"});

constexpr auto kChaos = table<ChaosSpec>(
    check_chaos,
    Row<U64, &ChaosSpec::seed>{"seed"},
    Row<List<Object<kChaosEvent>>, &ChaosSpec::events>{"events"});

constexpr auto kDetector = table<DetectorSpec>(
    check_detector,
    Row<Bool, &DetectorSpec::enabled>{"enabled"},
    Row<Num, &DetectorSpec::alpha>{"alpha"},
    Row<Num, &DetectorSpec::latency_threshold>{"latency_threshold"},
    Row<Num, &DetectorSpec::timeout_weight>{"timeout_weight"},
    Row<U32, &DetectorSpec::warmup>{"warmup"},
    Row<U32, &DetectorSpec::confirm>{"confirm"},
    Row<U32, &DetectorSpec::probe_interval>{"probe_interval"},
    Row<Num, &DetectorSpec::rejoin_margin>{"rejoin_margin"},
    Row<U32, &DetectorSpec::rejoin_confirm>{"rejoin_confirm"});

constexpr auto kTenant = table<TrafficTenantSpec>(
    check_tenant,
    Row<Str, &TrafficTenantSpec::name>{"name"},
    Row<U32, &TrafficTenantSpec::weight>{"weight"},
    Row<Num, &TrafficTenantSpec::rate_share>{"rate_share"});

constexpr auto kTraffic = table<TrafficSpec>(
    check_traffic,
    Row<Str, &TrafficSpec::process>{"process"},
    Row<Num, &TrafficSpec::rate_rps>{"rate_rps"},
    Row<U64, &TrafficSpec::clients>{"clients"},
    Row<U64, &TrafficSpec::seed>{"seed"},
    Row<U32, &TrafficSpec::max_in_flight>{"max_in_flight"},
    Row<U32, &TrafficSpec::queue_depth>{"queue_depth"},
    Row<Num, &TrafficSpec::duration_us>{"duration_us"},
    Row<Num, &TrafficSpec::timeout_us>{"timeout_us"},
    Row<U64, &TrafficSpec::req_bytes>{"req_bytes"},
    Row<U64, &TrafficSpec::resp_bytes>{"resp_bytes"},
    Row<Num, &TrafficSpec::burst_on_us>{"burst_on_us"},
    Row<Num, &TrafficSpec::burst_off_us>{"burst_off_us"},
    Row<Num, &TrafficSpec::diurnal_period_us>{"diurnal_period_us"},
    Row<Num, &TrafficSpec::diurnal_amplitude>{"diurnal_amplitude"},
    Row<Num, &TrafficSpec::lender_capacity_rps>{"lender_capacity_rps"},
    Row<Num, &TrafficSpec::qos_window_us>{"qos_window_us"},
    Row<Num, &TrafficSpec::tenant_gib>{"tenant_gib"},
    Row<U32, &TrafficSpec::failover_threshold>{"failover_threshold"},
    Row<List<Object<kTenant>>, &TrafficSpec::tenants>{"tenants"});

constexpr auto kSlo = table<SloSpec>(
    check_slo,
    Row<Num, &SloSpec::p50_us>{"p50_us"},
    Row<Num, &SloSpec::p99_us>{"p99_us"},
    Row<Num, &SloSpec::p999_us>{"p999_us"},
    Row<Num, &SloSpec::window_us>{"window_us"});

constexpr auto kPdes = table<PdesSpec>(
    check_pdes,
    Row<U32, &PdesSpec::threads>{"threads"},
    Row<Num, &PdesSpec::lookahead_ns>{"lookahead_ns"});

constexpr auto kSweep = table<SweepSpec>(
    nullptr,
    Row<List<U64>, &SweepSpec::periods>{"periods"},
    Row<List<U32>, &SweepSpec::lenders>{"lenders"},
    Row<List<U32>, &SweepSpec::borrowers>{"borrowers"},
    Row<List<U32>, &SweepSpec::instances>{"instances"});

constexpr auto kScenario = table<ScenarioSpec>(
    check_scenario,
    Row<Str, &ScenarioSpec::name>{"name"},
    Row<Str, &ScenarioSpec::description>{"description"},
    Row<Str, &ScenarioSpec::policy>{"policy"},
    Row<List<Object<kNode>>, &ScenarioSpec::nodes>{"nodes"},
    Row<Object<kTopology>, &ScenarioSpec::topology>{"topology"},
    Row<Object<kInjector>, &ScenarioSpec::injector>{"injector"},
    Row<List<Object<kReservation>>, &ScenarioSpec::reservations>{
        "reservations"},
    Row<List<Object<kWorkload>>, &ScenarioSpec::workloads>{"workloads"},
    Row<Object<kFaults>, &ScenarioSpec::faults>{"faults"},
    Row<Object<kChaos>, &ScenarioSpec::chaos>{"chaos"},
    Row<Object<kDetector>, &ScenarioSpec::detector>{"detector"},
    Row<Object<kTraffic>, &ScenarioSpec::traffic>{"traffic"},
    Row<Object<kSlo>, &ScenarioSpec::slo>{"slo"},
    Row<Object<kPdes>, &ScenarioSpec::pdes>{"pdes"},
    Row<Object<kSweep>, &ScenarioSpec::sweep>{"sweep"});

}  // namespace

std::string to_string(Role role) { return name_of(kRoleNames, role); }

Role parse_role(const std::string& name) {
  return parse_named(kRoleNames, name, "role");
}

std::string to_string(TopologyKind kind) {
  return name_of(kTopologyNames, kind);
}

TopologyKind parse_topology_kind(const std::string& name) {
  return parse_named(kTopologyNames, name, "topology kind");
}

std::string to_string(ChaosKind kind) { return name_of(kChaosNames, kind); }

ChaosKind parse_chaos_kind(const std::string& name) {
  return parse_named(kChaosNames, name, "chaos event kind");
}

std::vector<ChaosWindow> resolve_chaos(const ChaosSpec& chaos) {
  std::vector<ChaosWindow> windows;
  std::map<std::string, std::size_t> open;     // target -> open window index
  std::map<std::string, sim::Time> last_end;   // target -> last bounded end
  for (std::size_t i = 0; i < chaos.events.size(); ++i) {
    const ChaosEventSpec& ev = chaos.events[i];
    if (ev.at_us < 0.0) bad_event(i, ": at_us must be >= 0");
    // Past 2^64 ps the conversion to sim::Time is undefined.
    if (ev.at_us + ev.for_us >= 18446744073709551616.0 / 1e6) {
      bad_event(i, ": at_us + for_us must be below 2^64 ps");
    }
    if (i > 0 && ev.at_us < chaos.events[i - 1].at_us) {
      throw std::invalid_argument(
          "chaos events " + std::to_string(i - 1) + " and " +
          std::to_string(i) + " out of order (at_us must be non-decreasing)");
    }
    if (ev.target.empty()) bad_event(i, ": target is required");
    const sim::Time at = sim::from_us(ev.at_us);
    if (ev.kind == ChaosKind::kRecover) {
      if (ev.factor != 0.0 || ev.for_us != 0.0) {
        bad_event(i, ": recover takes no factor or for_us");
      }
      const auto it = open.find(ev.target);
      if (it == open.end()) {
        bad_event(i, ": recover for \"" + ev.target +
                         "\" matches no open chaos window");
      }
      ChaosWindow& w = windows[it->second];
      if (at <= w.start) {
        bad_event(i, ": recover must come strictly after the \"" +
                         ev.target + "\" window opened");
      }
      w.end = at;
      last_end[ev.target] = at;
      open.erase(it);
      continue;
    }
    if (ev.kind == ChaosKind::kKillSwitch && ev.factor != 0.0) {
      bad_event(i, ": kill_switch takes no factor");
    }
    if (ev.kind == ChaosKind::kBrownoutPort) {
      if (ev.factor < 0.0 || ev.factor >= 1.0) {
        bad_event(i, ": brownout_port factor must be in [0, 1)");
      }
      if (ev.target.find(':') == std::string::npos) {
        bad_event(i, ": brownout_port target must be \"switch:neighbor\"");
      }
    }
    if (ev.kind == ChaosKind::kGrayLender && ev.factor <= 1.0) {
      bad_event(i, ": gray_lender factor must be > 1 (it inflates service "
                   "latency)");
    }
    if (ev.for_us < 0.0) bad_event(i, ": for_us must be >= 0");
    if (open.count(ev.target) != 0) {
      bad_event(i, ": target \"" + ev.target + "\" already has an open "
                   "chaos window (recover it first)");
    }
    if (const auto le = last_end.find(ev.target);
        le != last_end.end() && at < le->second) {
      bad_event(i, " overlaps the previous window on \"" + ev.target + "\"");
    }
    ChaosWindow w{ev.kind, ev.target, at, sim::kTimeNever, ev.factor};
    if (ev.for_us > 0.0) {
      w.end = at + sim::from_us(ev.for_us);
      last_end[ev.target] = w.end;
    } else {
      open[ev.target] = windows.size();
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

const NodeDecl* ScenarioSpec::find_node(const std::string& node_name) const {
  for (const auto& n : nodes) {
    if (n.name == node_name) return &n;
  }
  return nullptr;
}

std::uint32_t ScenarioSpec::expanded_node_count() const {
  std::uint32_t total = 0;
  for (const auto& n : nodes) total += n.count;
  return total;
}

void ScenarioSpec::set_lender_count(std::uint32_t count) {
  for (auto& n : nodes) {
    if (n.role == Role::kLender) n.count = count;
  }
}

void ScenarioSpec::set_borrower_count(std::uint32_t count) {
  for (auto& n : nodes) {
    if (n.role == Role::kBorrower) n.count = count;
  }
}

ScenarioSpec from_json(const Json& doc) {
  ScenarioSpec spec;
  read_block(doc, Path{}, spec, kScenario);
  return spec;
}

ScenarioSpec parse(const std::string& text) {
  return from_json(Json::parse(text));
}

ScenarioSpec load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("scenario: cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse(buf.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

Json to_json(const ScenarioSpec& spec) { return write_block(spec, kScenario); }

std::string resolved_json(const ScenarioSpec& spec) {
  return to_json(spec).dump() + "\n";
}

ScenarioSpec paper_two_node() {
  ScenarioSpec spec;
  spec.name = "paper-twonode";
  spec.description =
      "The paper's two-node ThymesisFlow prototype: one borrower, one "
      "lender, 100 Gb/s point-to-point cable, 16 GiB borrowed";
  NodeDecl borrower;
  borrower.name = "borrower";
  borrower.role = Role::kBorrower;
  borrower.with_nic = true;
  NodeDecl lender;
  lender.name = "lender";
  lender.role = Role::kLender;
  lender.with_nic = false;
  spec.nodes = {borrower, lender};
  spec.reservations.push_back(ReservationSpec{});
  spec.workloads.push_back(WorkloadSpec{});
  return spec;
}

}  // namespace tfsim::scenario
