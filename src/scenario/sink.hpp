// Pluggable result sinks for scenario runs.
//
// A run is a stream of events — banner, tables, free text, completion — and
// every sink sees all of them:
//   * TableSink renders the human stdout (banner block, aligned tables,
//     trailing commentary),
//   * CsvSink writes each table as <dir>/<table_id>.csv and echoes a
//     "[csv] <path>" notice,
//   * JsonSink writes one machine-readable BENCH_<id>.json per scenario with
//     wall time and per-point metrics — the artifact the --baseline
//     regression diff consumes,
//   * CaptureSink keeps the JSON document in memory (driver baseline mode).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace p2pvod::scenario {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void on_banner(const Scenario& /*scenario*/) {}
  virtual void on_table(const Scenario& /*scenario*/,
                        const util::Table& /*table*/,
                        const std::string& /*table_id*/) {}
  virtual void on_text(const Scenario& /*scenario*/,
                       const std::string& /*text*/) {}
  virtual void on_complete(const Scenario& /*scenario*/,
                           const ScenarioRun& /*run*/,
                           double /*wall_seconds*/) {}
};

/// Human-readable sink; byte-identical to the pre-registry figure binaries.
class TableSink final : public ResultSink {
 public:
  explicit TableSink(std::ostream& out) : out_(out) {}

  void on_banner(const Scenario& scenario) override;
  void on_table(const Scenario& scenario, const util::Table& table,
                const std::string& table_id) override;
  void on_text(const Scenario& scenario, const std::string& text) override;

 private:
  std::ostream& out_;
};

/// Writes <dir>/<table_id>.csv per table. `notice` (nullable) receives one
/// "[csv] <path>" line per file; failures go to stderr and do not abort the
/// run.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::string dir, std::ostream* notice = nullptr);

  void on_table(const Scenario& scenario, const util::Table& table,
                const std::string& table_id) override;

  /// Tables whose CSV could not be written (failures are logged, never
  /// thrown, so the run keeps going; drivers may turn a non-zero count into
  /// a failing exit code).
  [[nodiscard]] std::size_t failure_count() const noexcept {
    return failures_;
  }

 private:
  std::string dir_;
  std::ostream* notice_;
  std::size_t failures_ = 0;
};

/// Builds the machine-readable result document for one scenario run.
[[nodiscard]] util::json::Value run_to_json(const Scenario& scenario,
                                            const ScenarioRun& run,
                                            double wall_seconds);

/// Writes <dir>/BENCH_<id>.json on completion. `notice` (nullable) receives
/// one "[json] <path>" line per file.
class JsonSink final : public ResultSink {
 public:
  explicit JsonSink(std::string dir, std::ostream* notice = nullptr);

  void on_complete(const Scenario& scenario, const ScenarioRun& run,
                   double wall_seconds) override;

  /// Paths written so far, in completion order.
  [[nodiscard]] const std::vector<std::string>& written() const noexcept {
    return written_;
  }

  /// Documents that could not be written (logged, not thrown).
  [[nodiscard]] std::size_t failure_count() const noexcept {
    return failures_;
  }

 private:
  std::string dir_;
  std::ostream* notice_;
  std::vector<std::string> written_;
  std::size_t failures_ = 0;
};

/// Keeps the last run's JSON document in memory (no file I/O).
class CaptureSink final : public ResultSink {
 public:
  void on_complete(const Scenario& scenario, const ScenarioRun& run,
                   double wall_seconds) override;

  [[nodiscard]] const std::optional<util::json::Value>& document()
      const noexcept {
    return document_;
  }

 private:
  std::optional<util::json::Value> document_;
};

/// Fans run events out to a sink list; what scenario render callbacks write
/// tables and text through.
class Emitter {
 public:
  Emitter(const Scenario& scenario, std::vector<ResultSink*> sinks)
      : scenario_(scenario), sinks_(std::move(sinks)) {}

  void table(const util::Table& table, const std::string& table_id);
  /// Raw text (commentary, blank separator lines); includes its own '\n's.
  void text(const std::string& text);

  // Used by run_scenario():
  void banner();
  void complete(const ScenarioRun& run, double wall_seconds);

 private:
  const Scenario& scenario_;
  std::vector<ResultSink*> sinks_;
};

}  // namespace p2pvod::scenario
