// Process-wide scenario registry.
//
// The registry maps scenario ids to their definitions; the unified
// p2pvod_bench driver and the tests resolve scenarios through it. Instances
// are cheap (tests build their own); builtin() is the lazily-populated
// singleton holding the builtin figure/table scenarios, registered
// explicitly (no static-initializer tricks, so nothing depends on
// object-file link order).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace p2pvod::scenario {

class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  /// Register a scenario. Throws std::invalid_argument on an empty id, a
  /// duplicate id, or a missing plan.
  void add(Scenario scenario);

  /// Lookup by id; nullptr when absent.
  [[nodiscard]] const Scenario* find(const std::string& id) const noexcept;

  /// Lookup by id; throws std::out_of_range (message lists known ids).
  [[nodiscard]] const Scenario& at(const std::string& id) const;

  /// All scenarios in registration order. Pointers stay valid across later
  /// add() calls (deque storage).
  [[nodiscard]] std::vector<const Scenario*> list() const;

  [[nodiscard]] std::size_t size() const noexcept { return scenarios_.size(); }

  /// The 14 builtin scenarios (E1..E11, E13..E15), registered on first use.
  static const ScenarioRegistry& builtin();

 private:
  std::deque<Scenario> scenarios_;
};

}  // namespace p2pvod::scenario
