#include "scenario/sink.hpp"

#include <iostream>

#include "util/cli.hpp"

namespace p2pvod::scenario {

void TableSink::on_banner(const Scenario& scenario) {
  // Byte-identical to the legacy bench::banner() block.
  out_ << "#\n# " << scenario.title << " — " << scenario.claim << "\n"
       << "# (scale trials/sizes with P2PVOD_SCALE=<factor>; set "
          "P2PVOD_CSV_DIR to also write CSV series)\n#\n";
}

void TableSink::on_table(const Scenario& /*scenario*/, const util::Table& table,
                         const std::string& /*table_id*/) {
  table.print(out_);
}

void TableSink::on_text(const Scenario& /*scenario*/, const std::string& text) {
  out_ << text;
}

CsvSink::CsvSink(std::string dir, std::ostream* notice)
    : dir_(std::move(dir)), notice_(notice) {}

void CsvSink::on_table(const Scenario& /*scenario*/, const util::Table& table,
                       const std::string& table_id) {
  const std::string path = dir_ + "/" + table_id + ".csv";
  try {
    table.write_csv(path);
    if (notice_ != nullptr) *notice_ << "[csv] " << path << "\n";
  } catch (const std::exception& error) {
    ++failures_;
    std::cerr << "[csv] failed: " << error.what() << "\n";
  }
}

util::json::Value run_to_json(const Scenario& scenario, const ScenarioRun& run,
                              double wall_seconds) {
  using util::json::Value;
  Value doc{Value::Object{}};
  doc.set("schema", "p2pvod-bench-v1");
  doc.set("id", scenario.id);
  doc.set("figure", scenario.figure);
  doc.set("title", scenario.title);
  doc.set("claim", scenario.claim);
  doc.set("scale", util::bench_scale());
  doc.set("wall_seconds", wall_seconds);

  Value::Array stages;
  for (const StageResult& stage : run.stages) {
    Value entry{Value::Object{}};
    entry.set("name", stage.name);
    // Informational: the baseline diff never compares per-stage or per-point
    // timing, so these fields can drift freely between machines.
    entry.set("wall_seconds", stage.seconds);

    Value::Array axes;
    for (const std::string& axis : stage.result.axis_names())
      axes.emplace_back(axis);
    entry.set("axes", std::move(axes));

    Value::Array metrics;
    for (const std::string& metric : stage.result.metric_names())
      metrics.emplace_back(metric);
    entry.set("metrics", std::move(metrics));

    Value::Array rows;
    for (const auto& row : stage.result.rows()) {
      Value row_entry{Value::Object{}};
      Value::Array values;
      for (const double value : row.point.values) values.emplace_back(value);
      row_entry.set("values", std::move(values));
      Value::Array row_metrics;
      for (const double value : row.metrics) row_metrics.emplace_back(value);
      row_entry.set("metrics", std::move(row_metrics));
      row_entry.set("wall_seconds", row.seconds);
      rows.push_back(std::move(row_entry));
    }
    entry.set("rows", std::move(rows));
    stages.push_back(std::move(entry));
  }
  doc.set("stages", std::move(stages));
  // Informational: the baseline differ compares only the keys it knows, so
  // this extra top-level block never breaks an old baseline.
  if (run.metrics.has_value()) doc.set("metrics", run.metrics->to_json());
  return doc;
}

JsonSink::JsonSink(std::string dir, std::ostream* notice)
    : dir_(std::move(dir)), notice_(notice) {}

void JsonSink::on_complete(const Scenario& scenario, const ScenarioRun& run,
                           double wall_seconds) {
  const std::string path = dir_ + "/BENCH_" + scenario.id + ".json";
  try {
    util::json::write_file(path, run_to_json(scenario, run, wall_seconds));
    written_.push_back(path);
    if (notice_ != nullptr) *notice_ << "[json] " << path << "\n";
  } catch (const std::exception& error) {
    ++failures_;
    std::cerr << "[json] failed: " << error.what() << "\n";
  }
}

void CaptureSink::on_complete(const Scenario& scenario, const ScenarioRun& run,
                              double wall_seconds) {
  document_ = run_to_json(scenario, run, wall_seconds);
}

void Emitter::table(const util::Table& table, const std::string& table_id) {
  for (ResultSink* sink : sinks_) sink->on_table(scenario_, table, table_id);
}

void Emitter::text(const std::string& text) {
  for (ResultSink* sink : sinks_) sink->on_text(scenario_, text);
}

void Emitter::banner() {
  for (ResultSink* sink : sinks_) sink->on_banner(scenario_);
}

void Emitter::complete(const ScenarioRun& run, double wall_seconds) {
  for (ResultSink* sink : sinks_) {
    sink->on_complete(scenario_, run, wall_seconds);
  }
}

}  // namespace p2pvod::scenario
