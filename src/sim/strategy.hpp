// Request strategies: how a demand for a video turns into stripe requests.
//
// The paper's positive results hinge on the §3 *preloading* strategy: on a
// demand for v at round t, one stripe — chosen round-robin by the box's entry
// number in the swarm of v — is requested at t, and the remaining c-1 are
// postponed to t+1. This staggering is what lets a swarm that doubles every
// round serve itself: the pth joiner's preload stripe is spread uniformly, so
// every stripe of v acquires fresh cached copies at every round.
//
// The *naive* strategy (all c stripes at t) is the ablation: with it, all
// simultaneous joiners sit at the same position and can never serve each
// other, so flash crowds must be absorbed by the k static replicas alone.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "sim/request.hpp"

namespace p2pvod::sim {

class Simulator;  // strategies query swarm tickets and local storage

class RequestStrategy {
 public:
  virtual ~RequestStrategy() = default;

  /// Plan the stripe requests for a demand (box `b` wants video `v`, admitted
  /// at round `now`; `ticket` is b's entry number in the swarm of v, the "p"
  /// of the §3 round-robin preload rule; b enters the swarm once its plan is
  /// accepted, so the swarm does not count it yet). Implementations append
  /// PlannedRequests to `out`; stripes stored statically on `b` are played
  /// locally and need none.
  virtual void plan(model::BoxId b, model::VideoId v, std::uint64_t ticket,
                    model::Round now, Simulator& sim,
                    std::vector<PlannedRequest>& out) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// §3 preloading strategy (the paper's). Start-up delay: 3 rounds.
class PreloadingStrategy final : public RequestStrategy {
 public:
  void plan(model::BoxId b, model::VideoId v, std::uint64_t ticket,
            model::Round now, Simulator& sim,
            std::vector<PlannedRequest>& out) override;
  [[nodiscard]] std::string name() const override { return "preloading"; }
};

/// Ablation: request all c stripes immediately at t.
class NaiveStrategy final : public RequestStrategy {
 public:
  void plan(model::BoxId b, model::VideoId v, std::uint64_t ticket,
            model::Round now, Simulator& sim,
            std::vector<PlannedRequest>& out) override;
  [[nodiscard]] std::string name() const override { return "naive"; }
};

enum class StrategyKind { kPreloading, kNaive };
[[nodiscard]] std::unique_ptr<RequestStrategy> make_strategy(
    StrategyKind kind);

}  // namespace p2pvod::sim
