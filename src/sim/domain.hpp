// Runtime domain-ownership checker: the dynamic half of simlint rule R5.
//
// PDES (ROADMAP item 2) will partition the event engine by node, which is
// only sound if no simulation state is mutated from outside its owning
// node's call graph except through net::Network delivery.  This layer makes
// that invariant executable today, before the engine is partitioned:
//
//  * Every node::Cluster assigns each node a DomainId and binds the
//    DomainHandle of every sim object the node owns (DRAM, cache
//    hierarchy, NIC, migrator, the node itself).
//  * Code that drives a domain -- a MemContext issuing accesses, the NIC
//    handing a frame to the lender's memory at the network boundary --
//    opens a DomainGuard scope declaring the active domain.
//  * Annotated classes (TFSIM_DOMAIN_OWNED) call TFSIM_DOMAIN_TOUCH on
//    every mutating entry point.  A touch inside a guard for a different
//    domain is a cross-domain mutation: the violation names the object,
//    both domains, the guard label, and the exact event (engine time +
//    event index), mirroring how the settle scheduler names toggling
//    modules on non-convergence.
//
// Outside any guard (setup, teardown, direct poking from tests) touches
// are unchecked: ownership is an *event dispatch* invariant.  Modes follow
// axi::ViolationSink: strict throws DomainError on the first violation,
// collect accumulates for injection tests, off disables.  The default
// comes from TFSIM_DOMAIN_CHECK (off|collect|strict; strict when unset),
// so every existing scenario continuously proves itself violation-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/units.hpp"

namespace tfsim::sim {

class Engine;

using DomainId = std::uint32_t;
inline constexpr DomainId kNoDomain = ~DomainId{0};

enum class DomainCheckMode {
  kOff,      ///< touches are no-ops
  kCollect,  ///< record violations; tests inspect them afterwards
  kStrict,   ///< throw DomainError on the first violation
};

/// One detected cross-domain mutation.
struct DomainViolation {
  std::string object;       ///< registered object name ("lender1/dram")
  std::string what;         ///< mutating entry point ("Dram::access")
  DomainId owner = kNoDomain;
  DomainId active = kNoDomain;
  std::string owner_name;   ///< domain names resolved at report time
  std::string active_name;
  std::string guard_label;  ///< label of the innermost guard, if any
  Time when = 0;            ///< engine time at detection
  std::uint64_t event_index = 0;  ///< Engine::executed() at detection

  std::string to_string() const;
};

/// Thrown by DomainChecker in strict mode.
class DomainError : public std::runtime_error {
 public:
  explicit DomainError(const DomainViolation& v)
      : std::runtime_error(v.to_string()), violation_(v) {}
  const DomainViolation& violation() const { return violation_; }

 private:
  DomainViolation violation_;
};

/// Central ownership registry + active-domain stack.  One per Cluster
/// (standalone Testbenches and unit tests may build their own).
class DomainChecker {
 public:
  DomainChecker() : mode_(mode_from_env()) {}

  /// TFSIM_DOMAIN_CHECK=off|collect|strict; strict when unset/junk.
  static DomainCheckMode mode_from_env();

  void set_mode(DomainCheckMode mode) { mode_ = mode; }
  DomainCheckMode mode() const { return mode_; }

  /// Register a domain (normally one per node); returns its id.
  DomainId add_domain(std::string name);
  std::size_t num_domains() const { return names_.size(); }
  const std::string& domain_name(DomainId id) const;

  /// Event context for violation reports (time + event index).  Optional:
  /// unbound checkers report t=0/event 0.
  void bind_engine(const Engine* engine) { engine_ = engine; }

  /// Innermost guard's domain, or kNoDomain outside any guard.
  DomainId active() const {
    return stack_.empty() ? kNoDomain : stack_.back().domain;
  }
  bool in_guard() const { return !stack_.empty(); }
  std::size_t guard_depth() const { return stack_.size(); }

  /// Record (and log) a violation.  Throws DomainError in strict mode;
  /// discards in off mode.
  void report(DomainViolation v);

  bool clean() const { return total_ == 0; }
  /// Total violations reported (including any beyond the storage cap).
  std::uint64_t total() const { return total_; }
  /// Stored violations (capped at kMaxStored to bound memory).
  const std::vector<DomainViolation>& violations() const {
    return violations_;
  }
  void clear();

 private:
  friend class DomainGuard;
  friend class DomainHandle;
  /// `label` points at static storage (DomainGuard only accepts literals
  /// and arrays); it is copied into a DomainViolation only on a report.
  struct GuardFrame {
    DomainId domain = kNoDomain;
    const char* label = "";
  };

  void push(DomainId domain, const char* label) {
    stack_.push_back(GuardFrame{domain, label});
  }
  void pop() { stack_.pop_back(); }

  static constexpr std::size_t kMaxStored = 256;
  DomainCheckMode mode_;
  std::vector<std::string> names_;
  std::vector<GuardFrame> stack_;
  const Engine* engine_ = nullptr;
  std::vector<DomainViolation> violations_;
  std::uint64_t total_ = 0;
};

/// RAII active-domain scope.  A null checker makes the guard inert, so
/// call sites can guard unconditionally.  The label names the activity for
/// violation reports ("ctx:cache", "net:deliver").  Guards open on every
/// simulated access, so the label is a string literal (or array) kept by
/// pointer: a guard costs one mode test and a vector push/pop, with no
/// allocation.  A `const char*` or `std::string` does not bind, so the
/// c_str() of a temporary cannot outlive its guard.
class DomainGuard {
 public:
  template <std::size_t N>
  DomainGuard(DomainChecker* checker, DomainId domain, const char (&label)[N])
      : checker_(checker) {
    if (checker_ != nullptr && checker_->mode() != DomainCheckMode::kOff) {
      checker_->push(domain, label);
    } else {
      checker_ = nullptr;  // mode switched mid-scope must not unbalance
    }
  }
  ~DomainGuard() {
    if (checker_ != nullptr) checker_->pop();
  }
  DomainGuard(const DomainGuard&) = delete;
  DomainGuard& operator=(const DomainGuard&) = delete;

 private:
  DomainChecker* checker_;
};

/// Per-object ownership record embedded by TFSIM_DOMAIN_OWNED.  Unbound
/// handles (standalone objects, unit tests) make touch() free.
class DomainHandle {
 public:
  void bind(DomainChecker& checker, DomainId domain, std::string object_name) {
    checker_ = &checker;
    domain_ = domain;
    object_ = std::move(object_name);
  }
  void unbind() {
    checker_ = nullptr;
    domain_ = kNoDomain;
  }
  bool bound() const { return checker_ != nullptr; }
  DomainId id() const { return domain_; }
  DomainChecker* checker() const { return checker_; }
  const std::string& object_name() const { return object_; }

  /// Assert the active domain owns this object.  Unchecked outside guards
  /// and in off mode; O(1) otherwise.
  void touch(const char* what) const {
    if (checker_ == nullptr || checker_->mode() == DomainCheckMode::kOff) {
      return;
    }
    if (!checker_->in_guard()) return;
    if (checker_->active() == domain_) return;
    report_mismatch(what);
  }

 private:
  void report_mismatch(const char* what) const;

  DomainChecker* checker_ = nullptr;
  DomainId domain_ = kNoDomain;
  std::string object_;
};

/// Annotates a class as domain-owned sim state (simlint rule R5 statically
/// requires the annotation on the configured ownership set and forbids
/// public mutable members on annotated classes).  Leaves the access level
/// `private`.
#define TFSIM_DOMAIN_OWNED                                                  \
 public:                                                                    \
  ::tfsim::sim::DomainHandle& tfsim_domain() { return tfsim_domain_h_; }    \
  const ::tfsim::sim::DomainHandle& tfsim_domain() const {                  \
    return tfsim_domain_h_;                                                 \
  }                                                                         \
                                                                            \
 private:                                                                   \
  ::tfsim::sim::DomainHandle tfsim_domain_h_;

/// Call on every mutating entry point of a TFSIM_DOMAIN_OWNED class.
#define TFSIM_DOMAIN_TOUCH(what) this->tfsim_domain_h_.touch(what)

}  // namespace tfsim::sim
