#include "workload/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace p2pvod::workload {

Trace::Trace(std::vector<TraceEntry> entries) : entries_(std::move(entries)) {
  for (const TraceEntry& e : entries_) {
    if (e.round < 0)
      throw std::invalid_argument("Trace: negative round " +
                                  std::to_string(e.round));
  }
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.round < b.round;
                   });
}

void Trace::add(model::Round round, model::BoxId box, model::VideoId video) {
  if (round < 0)
    throw std::invalid_argument("Trace::add: negative round " +
                                std::to_string(round));
  if (!entries_.empty() && round < entries_.back().round)
    throw std::invalid_argument("Trace::add: rounds must be non-decreasing");
  entries_.push_back({round, box, video});
}

void Trace::save(std::ostream& out) const {
  for (const TraceEntry& e : entries_)
    out << e.round << ' ' << e.box << ' ' << e.video << '\n';
}

void Trace::save_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("Trace::save_file: cannot open " + path);
  save(file);
}

Trace Trace::load(std::istream& in) {
  std::vector<TraceEntry> entries;
  std::string line;
  std::size_t line_number = 0;
  const auto fail = [&line_number](const std::string& what) {
    throw std::runtime_error("Trace::load: line " +
                             std::to_string(line_number) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    // Fields are tokenized first and parsed as signed 64-bit with strtoll so
    // a negative or non-numeric box id is an error instead of silently
    // wrapping through unsigned extraction, and an overflowing value is
    // blamed on its own token (istream extraction would consume it and point
    // the diagnostic at the next field).
    const auto next_field = [&](const char* name) -> long long {
      std::string token;
      if (!(fields >> token))
        fail(std::string("truncated line (missing ") + name +
             "; expected '<round> <box> <video>'): '" + line + "'");
      errno = 0;
      char* end = nullptr;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() || *end != '\0')
        fail(std::string("non-numeric ") + name + " field '" + token +
             "' in '" + line + "'");
      if (errno == ERANGE)
        fail(std::string(name) + " field '" + token + "' out of range in '" +
             line + "'");
      return value;
    };
    TraceEntry e{};
    e.round = next_field("round");
    if (e.round < 0)
      fail("round " + std::to_string(e.round) +
           " is negative (a replay starts at round 0)");
    const long long box = next_field("box");
    const long long video = next_field("video");
    if (box < 0 || box > std::numeric_limits<std::uint32_t>::max())
      fail("box id " + std::to_string(box) + " out of range");
    if (video < 0 || video > std::numeric_limits<std::uint32_t>::max())
      fail("video id " + std::to_string(video) + " out of range");
    e.box = static_cast<model::BoxId>(box);
    e.video = static_cast<model::VideoId>(video);
    if (std::string extra; fields >> extra)
      fail("trailing garbage '" + extra + "' in '" + line + "'");
    if (!entries.empty() && e.round < entries.back().round)
      fail("rounds must be non-decreasing (round " +
           std::to_string(e.round) + " after " +
           std::to_string(entries.back().round) + ")");
    entries.push_back(e);
  }
  return Trace(std::move(entries));
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("Trace::load_file: cannot open " + path);
  return load(file);
}

std::vector<sim::Demand> TraceRecorder::demands(const sim::Simulator& sim) {
  std::vector<sim::Demand> out = inner_.demands(sim);
  for (const sim::Demand& d : out) trace_.add(sim.now(), d.box, d.video);
  return out;
}

TraceReplay::TraceReplay(Trace trace) : trace_(std::move(trace)) {}

std::vector<sim::Demand> TraceReplay::demands(const sim::Simulator& sim) {
  std::vector<sim::Demand> out;
  const auto& entries = trace_.entries();
  if (cursor_ < entries.size() && entries[cursor_].round < sim.now()) {
    throw std::logic_error(
        "TraceReplay: entry for round " +
        std::to_string(entries[cursor_].round) + " is behind round " +
        std::to_string(sim.now()) + " (the replay must be asked every round)");
  }
  while (cursor_ < entries.size() && entries[cursor_].round == sim.now()) {
    out.push_back({entries[cursor_].box, entries[cursor_].video});
    ++cursor_;
  }
  return out;
}

}  // namespace p2pvod::workload
