// Tiny command-line/environment option parser for examples and benches.
//
// Usage:  ArgParser args(argc, argv);
//         int n = args.get_int("n", 500);          // --n=1000 or --n 1000
//         double u = args.get_double("u", 1.25);
// Every option also falls back to environment variable P2PVOD_<UPPERNAME> so
// bench binaries can be scaled without editing the command line
// (e.g. P2PVOD_SCALE=3 ./p2pvod_bench threshold).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace p2pvod::util {

class ArgParser {
 public:
  /// `bare_flags` names options that never take a value (e.g. "--all",
  /// "--no-json"): a token following one is left as a positional instead of
  /// being consumed as the flag's value. Without the list, "--flag value"
  /// always binds value to flag.
  ArgParser(int argc, const char* const* argv,
            std::vector<std::string> bare_flags = {});

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  [[nodiscard]] std::uint64_t get_seed(const std::string& name,
                                       std::uint64_t fallback) const;

  /// Positional arguments (non --flag tokens) in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Names of the options present on the command line (sorted; excludes
  /// environment fallbacks). Lets a driver reject misspelled flags instead
  /// of silently ignoring them.
  [[nodiscard]] std::vector<std::string> option_names() const;

  /// Name of the executable (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  [[nodiscard]] static std::string env_name(const std::string& name);

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Global convenience: bench scale factor from P2PVOD_SCALE (default 1.0).
/// Benches multiply trial counts / n by this so CI machines can shrink work.
[[nodiscard]] double bench_scale();

/// `base` scaled by bench_scale(), rounded to nearest, floored at
/// `min_value`. The floor keeps statistics meaningful at tiny scales (e.g. a
/// trial count never drops below 2 when the caller needs a fraction), so a
/// small-enough P2PVOD_SCALE pins every scaled quantity at its floor rather
/// than at zero.
[[nodiscard]] std::uint32_t scaled_count(std::uint32_t base,
                                         std::uint32_t min_value = 1);

/// Positive integer read from environment variable `name`: nullopt when the
/// variable is unset, unparsable, or <= 0. Shared by the integer runtime
/// knobs so their parsing cannot drift apart. Re-reads the environment on
/// every call — tests toggle these at runtime.
[[nodiscard]] std::optional<long> env_positive_long(const char* name);

}  // namespace p2pvod::util
