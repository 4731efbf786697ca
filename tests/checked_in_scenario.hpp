// The checked-in scenarios/*.json files are the only definition of each
// testbed, so tests load them by file stem from the source tree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace tfsim {

inline scenario::ScenarioSpec checked_in_scenario(const std::string& stem) {
  return scenario::load_file(std::string(TFSIM_SCENARIO_SOURCE_DIR) + "/" +
                             stem + ".json");
}

/// The paths of every checked-in scenario file, sorted.
inline std::vector<std::string> checked_in_scenario_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TFSIM_SCENARIO_SOURCE_DIR)) {
    if (entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// scenarios/pooling_1xN.json with `lenders` lenders, the reservation
/// striped over all of them.
inline scenario::ScenarioSpec pooling_scenario(std::uint32_t lenders) {
  scenario::ScenarioSpec spec = checked_in_scenario("pooling_1xN");
  spec.set_lender_count(lenders);
  spec.reservations[0].chunks = lenders;
  return spec;
}

/// A checked-in pairs scenario (trunk_contention, leafspine_rack128)
/// resized to `pairs` borrower-lender pairs.
inline scenario::ScenarioSpec pairs_scenario(const std::string& stem,
                                             std::uint32_t pairs) {
  scenario::ScenarioSpec spec = checked_in_scenario(stem);
  spec.set_borrower_count(pairs);
  spec.set_lender_count(pairs);
  return spec;
}

}  // namespace tfsim
