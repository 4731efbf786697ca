// Scenario loader fuzz: every checked-in scenarios/*.json is mutated -- a
// key dropped, an unknown key added, a value swapped for another JSON kind,
// a number replaced by a negative, zero, fractional, huge or non-finite one
// -- and each mutant must either load and round-trip exactly through
// resolved_json, or be rejected with a JsonError naming the field it broke
// (the mutated key or a block it sits in).  A crash, any other exception,
// or a dump that does not parse back to itself fails.  Every single-site
// mutant of every file runs, plus seeded stacks of several mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checked_in_scenario.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

namespace tfsim::scenario {
namespace {

enum class Op { kDrop, kAddUnknown, kReplace };

struct Mutation {
  std::size_t site = 0;  ///< pre-order index of the value to mutate
  Op op = Op::kReplace;
  Json value;  ///< kReplace only
};

/// One value of a document, in pre-order: its kind and the object keys
/// on the way down to it (the names an error may cite).
struct Site {
  Json::Kind kind = Json::Kind::kNull;
  std::vector<std::string> keys;
};

void collect(const Json& v, std::vector<std::string>& keys,
             std::vector<Site>& out) {
  out.push_back(Site{v.kind(), keys});
  if (v.is_object()) {
    for (const auto& [key, child] : v.members()) {
      keys.push_back(key);
      collect(child, keys, out);
      keys.pop_back();
    }
  } else if (v.is_array()) {
    for (const Json& child : v.items()) collect(child, keys, out);
  }
}

std::vector<Site> sites_of(const Json& doc) {
  std::vector<Site> out;
  std::vector<std::string> keys;
  collect(doc, keys, out);
  return out;
}

/// `v` rebuilt with `m` applied; nullopt when `m` drops `v` itself.
std::optional<Json> rebuild(const Json& v, std::size_t& next,
                            const Mutation& m) {
  const std::size_t self = next++;
  if (self == m.site) {
    switch (m.op) {
      case Op::kDrop: return std::nullopt;
      case Op::kReplace: return m.value;
      case Op::kAddUnknown: {
        Json copy = v;
        copy.set("zz_unknown_key", Json::number(std::uint64_t{1}));
        return copy;
      }
    }
  }
  if (v.is_object()) {
    Json obj = Json::object();
    for (const auto& [key, child] : v.members()) {
      if (auto c = rebuild(child, next, m)) obj.set(key, std::move(*c));
    }
    return obj;
  }
  if (v.is_array()) {
    Json arr = Json::array();
    for (const Json& child : v.items()) {
      if (auto c = rebuild(child, next, m)) arr.push(std::move(*c));
    }
    return arr;
  }
  return v;
}

Json mutated(const Json& doc, const Mutation& m) {
  std::size_t next = 0;
  return *rebuild(doc, next, m);
}

/// Replacement values: every JSON kind, and the numbers a typed member
/// cannot always hold.
std::vector<Json> replacements(Json::Kind kind) {
  std::vector<Json> out = {Json(), Json::boolean(true),
                           Json::string("zz"), Json::array(), Json::object()};
  if (kind != Json::Kind::kNumber) {
    out.push_back(Json::number(std::uint64_t{7}));
    return out;
  }
  for (const double x : {-1.0, 0.0, 0.5, 4294967296.0, 18446744073709551616.0,
                         1e300, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    out.push_back(Json::number(x));
  }
  return out;
}

/// The names a rejection of these mutations may cite.
std::vector<std::string> names_of(const std::vector<Site>& sites,
                                  const Mutation& m) {
  std::vector<std::string> names = sites[m.site].keys;
  if (m.op == Op::kAddUnknown) names.emplace_back("zz_unknown_key");
  return names;
}

struct Outcome {
  int loaded = 0;
  int rejected = 0;
};

/// Load one mutant and check the property; returns false on a violation.
bool check_mutant(const Json& doc, const std::vector<std::string>& names,
                  const std::string& label, Outcome& outcome) {
  try {
    const ScenarioSpec spec = from_json(doc);
    const std::string dumped = resolved_json(spec);
    std::string again;
    try {
      again = resolved_json(parse(dumped));
    } catch (const std::exception& e) {
      ADD_FAILURE() << label << ": resolved dump does not parse back: "
                    << e.what() << "\n" << dumped;
      return false;
    }
    if (again != dumped) {
      ADD_FAILURE() << label << ": resolved dump does not round-trip";
      return false;
    }
    ++outcome.loaded;
    return true;
  } catch (const JsonError& e) {
    const std::string what = e.what();
    const bool named = std::any_of(
        names.begin(), names.end(), [&](const std::string& name) {
          return what.find(name) != std::string::npos;
        });
    if (!named) {
      ADD_FAILURE() << label << ": rejection names no mutated field: "
                    << what;
      return false;
    }
    ++outcome.rejected;
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": threw a non-JsonError: " << e.what();
    return false;
  }
}

Json read_doc(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

/// Every mutation of site `i`.
std::vector<Mutation> mutations_at(const std::vector<Site>& sites,
                                   std::size_t i) {
  std::vector<Mutation> out;
  out.push_back(Mutation{i, Op::kDrop, Json()});
  if (sites[i].kind == Json::Kind::kObject) {
    out.push_back(Mutation{i, Op::kAddUnknown, Json()});
  }
  for (Json& v : replacements(sites[i].kind)) {
    out.push_back(Mutation{i, Op::kReplace, std::move(v)});
  }
  return out;
}

TEST(ScenarioFuzzTest, EverySingleSiteMutantLoadsOrNamesTheField) {
  const std::vector<std::string> files = checked_in_scenario_files();
  ASSERT_GE(files.size(), 8u);
  Outcome outcome;
  int violations = 0;
  for (const std::string& file : files) {
    const Json doc = read_doc(file);
    const std::vector<Site> sites = sites_of(doc);
    // Site 0, the document itself, stays whole.
    for (std::size_t i = 1; i < sites.size() && violations < 20; ++i) {
      for (const Mutation& m : mutations_at(sites, i)) {
        const std::string label = file + " site " + std::to_string(i);
        if (!check_mutant(mutated(doc, m), names_of(sites, m), label,
                          outcome)) {
          ++violations;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
  // Both outcomes must be exercised, or the property checks nothing.
  EXPECT_GT(outcome.loaded, 1000);
  EXPECT_GT(outcome.rejected, 1000);
}

TEST(ScenarioFuzzTest, SeededMutationStacksLoadOrNameAField) {
  sim::Rng rng(0x5CE7A210);
  Outcome outcome;
  int violations = 0;
  for (const std::string& file : checked_in_scenario_files()) {
    const Json original = read_doc(file);
    for (int trial = 0; trial < 200 && violations < 20; ++trial) {
      Json doc = original;
      std::vector<std::string> names;
      const std::uint64_t depth = 2 + rng.uniform_u64(3);
      for (std::uint64_t d = 0; d < depth; ++d) {
        const std::vector<Site> sites = sites_of(doc);
        if (sites.size() < 2) break;
        std::vector<Mutation> choices =
            mutations_at(sites, 1 + rng.uniform_u64(sites.size() - 1));
        Mutation m = std::move(choices[rng.uniform_u64(choices.size())]);
        for (std::string& n : names_of(sites, m)) names.push_back(std::move(n));
        doc = mutated(doc, m);
      }
      const std::string label = file + " stack " + std::to_string(trial);
      if (!check_mutant(doc, names, label, outcome)) ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
  EXPECT_GT(outcome.loaded, 0);
  EXPECT_GT(outcome.rejected, 0);
}

}  // namespace
}  // namespace tfsim::scenario
