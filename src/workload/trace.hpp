// Demand traces: record a generator's output and replay it verbatim.
//
// Traces make adversarial counter-examples reproducible artifacts: when a
// random experiment finds a defeating sequence, the trace can be saved,
// attached to a bug report, and replayed against a fixed allocation. Plain
// text format, one demand per line: "<round> <box> <video>". A simulation
// starts at round 0, so rounds are never negative: a trace holding one could
// never replay it, nor anything after it.
#pragma once

#include <iosfwd>

#include "workload/demand.hpp"

namespace p2pvod::workload {

struct TraceEntry {
  model::Round round;
  model::BoxId box;
  model::VideoId video;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

class Trace {
 public:
  Trace() = default;
  /// Throws std::invalid_argument on a negative round.
  explicit Trace(std::vector<TraceEntry> entries);

  /// Throws std::invalid_argument on a negative round or one before the
  /// last entry's.
  void add(model::Round round, model::BoxId box, model::VideoId video);
  [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;
  /// Parse "<round> <box> <video>" lines ('#' comments and blank lines
  /// skipped). Malformed input — truncated lines, non-numeric or
  /// out-of-range fields, negative rounds, trailing garbage, rounds out of
  /// order — throws std::runtime_error naming the offending line number.
  [[nodiscard]] static Trace load(std::istream& in);
  [[nodiscard]] static Trace load_file(const std::string& path);

 private:
  std::vector<TraceEntry> entries_;  ///< kept sorted by round (stable)
};

/// Wraps another generator, recording everything it emits.
class TraceRecorder final : public DemandGenerator {
 public:
  explicit TraceRecorder(DemandGenerator& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override {
    return "record(" + inner_.name() + ")";
  }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

 private:
  DemandGenerator& inner_;
  Trace trace_;
};

/// Replays a trace: demands recorded for round t are emitted at round t.
/// It must be asked every round: asked at a round past an entry it has not
/// emitted yet, it throws std::logic_error rather than skip the rest.
class TraceReplay final : public DemandGenerator {
 public:
  explicit TraceReplay(Trace trace);

  [[nodiscard]] std::vector<sim::Demand> demands(
      const sim::Simulator& sim) override;
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  Trace trace_;
  std::size_t cursor_ = 0;
};

}  // namespace p2pvod::workload
