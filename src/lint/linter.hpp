// p2pvod_lint — the repo-specific determinism linter.
//
// The repo's central reproducibility contract is that every scenario emits
// byte-identical BENCH_<id>.json at any thread count. That contract dies the
// moment a result path iterates an unordered container (iteration order is
// implementation-defined and address-dependent), seeds from std::random_device
// or wall time, or spawns threads outside the fork-join executor (whose
// reductions are order-invariant by construction). The runtime baseline diffs
// catch such breaks only when a scenario happens to exercise them; this
// scanner catches them at the source level, in every file, before they ship.
//
// It is a token-level ("AST-lite") scanner, not a compiler plugin: comments
// and string/char literals are stripped, the remainder is tokenized, and each
// rule matches short token sequences. That is deliberately simple — the rules
// target constructs whose *presence* is the problem, so no type information
// is needed beyond tracking which local/member names were declared with an
// unordered container type.
//
// Escape hatch: a comment containing `p2pvod-lint: allow(<rule>)` on the
// violating line or the line directly above suppresses that rule there.
// Suppressions are expected to carry a rationale in the same comment.
#pragma once

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace p2pvod::lint {

/// The determinism rules. Names (see rule_name) double as the allow() keys
/// and the [tag] printed in diagnostics.
enum class Rule {
  /// Range-for or begin()/end() iteration over std::unordered_{map,set}
  /// (and multi variants). Iteration order is address-dependent, so any
  /// result derived from it varies run to run. Use std::map/std::set, sort
  /// the keys first, or allow() with a proof that order cannot escape.
  kUnorderedIteration,
  /// std::rand/srand, std::random_device, std::random_shuffle, or wall-time
  /// seeding (time(nullptr)). All randomness must flow from the explicit
  /// 64-bit seeds in src/util/rng.* so trials replay bit-for-bit.
  kBannedRandom,
  /// std::chrono::{steady,system,high_resolution}_clock::now(). Wall-clock
  /// reads are fine for *reporting* (wall_time fields in result documents)
  /// but must never influence simulation state; only the timing-whitelisted
  /// files may call them.
  kWallClock,
  /// Raw std::thread construction or .detach(). All parallelism goes through
  /// util::ThreadPool, whose deterministic reductions are what make results
  /// thread-count-invariant; a detached thread additionally outlives scope
  /// and races shutdown.
  kRawThread,
};

/// Stable kebab-case rule name used in diagnostics and allow() comments.
[[nodiscard]] std::string_view rule_name(Rule rule);

/// One-line human rationale for the rule (shown by `p2pvod_lint --rules`).
[[nodiscard]] std::string_view rule_summary(Rule rule);

/// Inverse of rule_name; nullopt for an unknown name.
[[nodiscard]] std::optional<Rule> rule_from_name(std::string_view name);

/// All rules, in a fixed order (for listing and iteration).
[[nodiscard]] const std::vector<Rule>& all_rules();

struct Diagnostic {
  std::string file;
  std::size_t line = 0;  // 1-based
  Rule rule = Rule::kUnorderedIteration;
  std::string message;

  /// gcc-style "file:line: error: [rule] message" for terminal output.
  [[nodiscard]] std::string format() const;
};

/// Per-rule path allowlists. An entry exempts a file when the file's
/// generic (forward-slash) path contains the entry as a substring — so
/// "bench/" matches every file under bench/ and "src/util/rng." matches
/// rng.hpp and rng.cpp. Keep entries anchored with directory separators or
/// extension dots so they cannot match accidentally.
struct Config {
  std::vector<std::string> banned_random_allowed;
  std::vector<std::string> wall_clock_allowed;
  std::vector<std::string> raw_thread_allowed;
  std::vector<std::string> unordered_iteration_allowed;

  /// The repo's contract: randomness only in src/util/rng.*, wall-clock only
  /// in the timing layer (sweep_result, thread_pool) and bench/example mains
  /// (their stdout is never diffed), raw threads only inside the ThreadPool
  /// implementation and the bench/ harnesses that measure it.
  [[nodiscard]] static Config repo_default();
};

/// Lint one in-memory source. `path` is used for diagnostics and for the
/// allowlist match; `text` is the full file content.
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view path,
                                                  std::string_view text,
                                                  const Config& config);

/// Lint one on-disk file. Throws std::runtime_error if unreadable.
[[nodiscard]] std::vector<Diagnostic> lint_file(
    const std::filesystem::path& file, const Config& config);

/// Lint every C++ source (.hpp/.cpp/.h/.cc) under the given directories,
/// recursively, in sorted path order (diagnostics are deterministic too).
/// Nonexistent directories are skipped so callers can pass the canonical
/// {src, bench, examples, tools} set unconditionally.
[[nodiscard]] std::vector<Diagnostic> lint_dirs(
    const std::vector<std::filesystem::path>& dirs, const Config& config);

/// The canonical scan set for a repo checkout: src/, bench/, examples/,
/// tools/ under `root`.
[[nodiscard]] std::vector<Diagnostic> lint_tree(
    const std::filesystem::path& root, const Config& config);

}  // namespace p2pvod::lint
