#include "core/vod_system.hpp"

#include <sstream>
#include <stdexcept>

#include "analysis/bounds.hpp"
#include "hetero/relay.hpp"
#include "model/params.hpp"
#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace p2pvod::core {

VodSystem::VodSystem(SystemConfig config, model::CapacityProfile profile)
    : config_(std::move(config)), profile_(std::move(profile)) {}

VodSystem VodSystem::build(const SystemConfig& config) {
  config.validate();
  VodSystem system(config,
                   model::CapacityProfile::homogeneous(config.n, config.u,
                                                       config.d));
  SystemConfig& cfg = system.config_;

  // Derive protocol parameters from Theorem 1 where not overridden.
  if (cfg.c == 0 || cfg.k == 0) {
    const auto bounds =
        analysis::Theorem1::evaluate({cfg.u, cfg.d, cfg.mu}, cfg.c);
    if (cfg.c == 0) {
      if (bounds.c == 0)
        throw std::invalid_argument(
            "VodSystem::build: u <= 1, Theorem 1 cannot derive c; set c "
            "explicitly");
      cfg.c = bounds.c;
    }
    if (cfg.k == 0) {
      if (!bounds.valid)
        throw std::invalid_argument(
            "VodSystem::build: Theorem 1 bound invalid for these "
            "parameters; set k explicitly");
      cfg.k = bounds.k;
    }
  }
  if (cfg.m == 0) {
    cfg.m = model::SystemParams::catalog_from_replication(cfg.n, cfg.d, cfg.k);
  }

  system.catalog_ =
      std::make_unique<model::Catalog>(cfg.m, cfg.c, cfg.duration);
  util::Rng rng(cfg.seed);
  const auto allocator = alloc::make_allocator(cfg.scheme);
  system.allocation_ = std::make_unique<alloc::Allocation>(
      allocator->allocate(*system.catalog_, system.profile_, cfg.k, rng));
  system.strategy_ = sim::make_strategy(cfg.strategy);

  system.simulator_options_.strict = cfg.strict;
  system.install_topology();
  return system;
}

VodSystem VodSystem::build_heterogeneous(const SystemConfig& config,
                                         model::CapacityProfile profile,
                                         double u_star) {
  config.validate();
  if (profile.size() != config.n)
    throw std::invalid_argument(
        "VodSystem::build_heterogeneous: profile size != n");

  VodSystem system(config, std::move(profile));
  SystemConfig& cfg = system.config_;
  cfg.u = system.profile_.average_upload();
  cfg.d = system.profile_.average_storage();

  if (cfg.c == 0 || cfg.k == 0) {
    const auto bounds =
        analysis::Theorem2::evaluate({u_star, cfg.d, cfg.mu}, cfg.c);
    if (cfg.c == 0) {
      if (bounds.c == 0)
        throw std::invalid_argument(
            "VodSystem::build_heterogeneous: u* <= 1; set c explicitly");
      cfg.c = bounds.c;
    }
    if (cfg.k == 0) {
      if (!bounds.valid)
        throw std::invalid_argument(
            "VodSystem::build_heterogeneous: Theorem 2 bound invalid; set k "
            "explicitly");
      cfg.k = bounds.k;
    }
  }
  if (cfg.m == 0) {
    cfg.m = model::SystemParams::catalog_from_replication(cfg.n, cfg.d, cfg.k);
  }

  auto plan = hetero::Compensator::plan(system.profile_, u_star, cfg.c,
                                        cfg.mu);
  if (!plan) {
    throw std::invalid_argument(
        "VodSystem::build_heterogeneous: no feasible u*-compensation "
        "(deficit too large for the rich boxes)");
  }
  plan->check(system.profile_);
  system.compensation_ = std::move(*plan);

  system.catalog_ =
      std::make_unique<model::Catalog>(cfg.m, cfg.c, cfg.duration);
  util::Rng rng(cfg.seed);
  const auto allocator = alloc::make_allocator(cfg.scheme);
  system.allocation_ = std::make_unique<alloc::Allocation>(
      allocator->allocate(*system.catalog_, system.profile_, cfg.k, rng));
  system.strategy_ =
      std::make_unique<hetero::RelayStrategy>(*system.compensation_);

  system.simulator_options_.strict = cfg.strict;
  system.simulator_options_.capacity_override =
      system.compensation_->capacity_slots();
  system.install_topology();
  return system;
}

void VodSystem::install_topology() {
  if (config_.zones == 0) return;
  // Round-robin zones with unit inter-zone transit cost: the matching then
  // minimizes cross-zone traffic each round without changing feasibility.
  auto topology = net::Topology::uniform(config_.n, config_.zones);
  topology.set_uniform_cost(0, 1);
  topology_ = std::make_unique<net::Topology>(std::move(topology));
  simulator_options_.topology = topology_.get();
}

std::unique_ptr<sim::Simulator> VodSystem::make_simulator() const {
  return std::make_unique<sim::Simulator>(*catalog_, profile_, *allocation_,
                                          *strategy_, simulator_options_);
}

sim::RunReport VodSystem::run(workload::DemandGenerator& generator,
                              model::Round rounds) const {
  return make_simulator()->run(generator, rounds);
}

std::string VodSystem::describe() const {
  std::ostringstream out;
  out << config_.describe() << " | " << catalog_->describe() << " | "
      << allocation_->describe();
  if (compensation_) out << " | " << compensation_->describe();
  if (topology_) out << " | " << topology_->describe();
  return out.str();
}

}  // namespace p2pvod::core
