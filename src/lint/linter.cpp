#include "lint/linter.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace p2pvod::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule metadata
// ---------------------------------------------------------------------------

struct RuleInfo {
  Rule rule;
  std::string_view name;
  std::string_view summary;
};

constexpr std::array<RuleInfo, 4> kRules = {{
    {Rule::kUnorderedIteration, "unordered-iteration",
     "iteration over std::unordered_{map,set} is address-ordered and breaks "
     "byte-identical results; use an ordered container or sort first"},
    {Rule::kBannedRandom, "banned-random",
     "std::rand/random_device/time(nullptr) bypass the explicit-seed contract "
     "in src/util/rng.*; trials must replay bit-for-bit from a seed"},
    {Rule::kWallClock, "wall-clock",
     "chrono clock reads outside the timing whitelist can leak wall time "
     "into simulation state; results must not depend on when they ran"},
    {Rule::kRawThread, "raw-thread",
     "raw std::thread/detach bypasses util::ThreadPool, whose deterministic "
     "reductions make results thread-count-invariant"},
}};

// ---------------------------------------------------------------------------
// Pass 1: strip comments and literals, collect allow() escapes per line
// ---------------------------------------------------------------------------

struct Stripped {
  // Code with comments and string/char literal *contents* blanked; one entry
  // per source line (1-based access via line - 1).
  std::vector<std::string> code;
  // Rules suppressed by a `p2pvod-lint: allow(...)` comment on each line.
  std::vector<std::set<Rule>> allows;
};

/// Parse every `p2pvod-lint: allow(a, b)` occurrence in one line's comment
/// text. Unknown rule names are ignored (a typo then fails loudly because the
/// diagnostic it meant to suppress still fires).
std::set<Rule> parse_allows(const std::string& comment_text) {
  std::set<Rule> allows;
  static constexpr std::string_view kMarker = "p2pvod-lint:";
  std::size_t pos = 0;
  while ((pos = comment_text.find(kMarker, pos)) != std::string::npos) {
    pos += kMarker.size();
    const std::size_t open = comment_text.find("allow(", pos);
    if (open == std::string::npos) break;
    const std::size_t close = comment_text.find(')', open);
    if (close == std::string::npos) break;
    std::string names = comment_text.substr(open + 6, close - open - 6);
    std::replace(names.begin(), names.end(), ',', ' ');
    std::istringstream stream(names);
    std::string name;
    while (stream >> name) {
      if (const auto rule = rule_from_name(name)) allows.insert(*rule);
    }
    pos = close;
  }
  return allows;
}

/// True if text[pos] starts a raw-string literal's opening quote, i.e. the
/// characters before it spell an encoding prefix ending in R (R", u8R", ...).
bool is_raw_string_quote(std::string_view text, std::size_t quote) {
  if (quote == 0 || text[quote - 1] != 'R') return false;
  // Check the char before the R is not part of a longer identifier (so a
  // variable named `xR` followed by a string does not parse as raw).
  std::size_t prefix_begin = quote - 1;
  while (prefix_begin > 0) {
    const char c = text[prefix_begin - 1];
    if (c == 'u' || c == 'U' || c == 'L' || c == '8') {
      --prefix_begin;
    } else {
      break;
    }
  }
  if (prefix_begin > 0) {
    const char before = text[prefix_begin - 1];
    if (std::isalnum(static_cast<unsigned char>(before)) || before == '_')
      return false;
  }
  return true;
}

Stripped strip(std::string_view text) {
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  Stripped out;
  std::string code_line;
  std::string comment_line;
  State state = State::kCode;
  std::string raw_delim;  // for kRawString: the ")delim" terminator

  auto end_line = [&] {
    out.code.push_back(code_line);
    out.allows.push_back(parse_allows(comment_line));
    code_line.clear();
    comment_line.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      end_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' && is_raw_string_quote(text, i)) {
          state = State::kRawString;
          raw_delim = ")";
          for (std::size_t j = i + 1; j < text.size() && text[j] != '('; ++j)
            raw_delim += text[j];
          raw_delim += '"';
          code_line += ' ';
        } else if (c == '"') {
          state = State::kString;
          code_line += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += ' ';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char (an escaped newline is rare; accept)
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  end_line();  // final (possibly newline-less) line
  return out;
}

// ---------------------------------------------------------------------------
// Pass 2: tokenize the stripped code
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  std::size_t line = 0;  // 1-based
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> tokenize(const Stripped& stripped) {
  std::vector<Token> tokens;
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    const std::string& line = stripped.code[li];
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (is_ident_char(c)) {
        std::size_t j = i + 1;
        while (j < line.size() && is_ident_char(line[j])) ++j;
        tokens.push_back({line.substr(i, j - i), li + 1});
        i = j;
      } else if (c == ':' && i + 1 < line.size() && line[i + 1] == ':') {
        tokens.push_back({"::", li + 1});
        i += 2;
      } else {
        tokens.push_back({std::string(1, c), li + 1});
        ++i;
      }
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Pass 3: rule matching over the token stream
// ---------------------------------------------------------------------------

const std::unordered_set<std::string_view> kUnorderedTemplates = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::unordered_set<std::string_view> kClockNames = {
    "steady_clock", "system_clock", "high_resolution_clock"};

// Only the begin() family: `it != container.end()` is the supported find()
// idiom, so end() alone must not fire — iteration always needs a begin.
const std::unordered_set<std::string_view> kIterationMembers = {
    "begin", "cbegin", "rbegin"};

struct Matcher {
  const std::vector<Token>& tokens;

  std::string_view at(std::size_t i) const {
    static const std::string kEmpty;
    return i < tokens.size() ? std::string_view(tokens[i].text) : kEmpty;
  }

  /// Skip a balanced <...> starting at `i` (which must point at "<");
  /// returns the index one past the closing ">". The tokenizer emits ">"
  /// one char at a time, so ">>" closes two levels as in the grammar.
  std::size_t skip_template_args(std::size_t i) const {
    int depth = 0;
    while (i < tokens.size()) {
      if (at(i) == "<") ++depth;
      if (at(i) == ">" && --depth == 0) return i + 1;
      ++i;
    }
    return i;
  }
};

/// Names declared in this file with an unordered container type, including
/// names introduced by `using X = std::unordered_map<...>` aliases.
struct UnorderedNames {
  std::set<std::string> variables;
  std::set<std::string> type_aliases;

  bool is_unordered_expr_token(std::string_view tok) const {
    return kUnorderedTemplates.count(tok) != 0 ||
           type_aliases.count(std::string(tok)) != 0 ||
           variables.count(std::string(tok)) != 0;
  }
};

UnorderedNames collect_unordered_names(const Matcher& m) {
  UnorderedNames names;
  const auto& tokens = m.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const bool is_template = kUnorderedTemplates.count(m.at(i)) != 0;
    const bool is_alias =
        names.type_aliases.count(std::string(m.at(i))) != 0 &&
        (i == 0 || (m.at(i - 1) != "::" && m.at(i - 1) != "." &&
                    m.at(i - 1) != "="));
    if (!is_template && !is_alias) continue;
    // `using Alias = [std::] unordered_map<...>` introduces a type alias.
    if (is_template) {
      std::size_t back = i;
      if (back >= 2 && m.at(back - 1) == "::" && m.at(back - 2) == "std")
        back -= 2;
      if (back >= 3 && m.at(back - 1) == "=" && m.at(back - 3) == "using") {
        names.type_aliases.insert(std::string(m.at(back - 2)));
        continue;
      }
    }
    // A declaration: the identifier right after the (possibly templated)
    // type name, skipping reference/pointer declarators so parameters like
    // `const std::unordered_map<K, V>& cache` are tracked too.
    std::size_t after = i + 1;
    if (m.at(after) == "<") after = m.skip_template_args(after);
    while (m.at(after) == "&" || m.at(after) == "*") ++after;
    if (after < tokens.size() && !tokens[after].text.empty() &&
        is_ident_char(tokens[after].text[0]) &&
        !std::isdigit(static_cast<unsigned char>(tokens[after].text[0]))) {
      // Exclude keywords that follow a type in non-declaration positions.
      static const std::unordered_set<std::string_view> kNotVars = {
          "const",  "constexpr", "static", "return", "new",
          "typename", "using",   "struct", "class"};
      if (kNotVars.count(m.at(after)) == 0)
        names.variables.insert(std::string(m.at(after)));
    }
  }
  return names;
}

void match_banned_random(const Matcher& m, std::vector<std::size_t>& hits,
                         std::vector<std::string>& what) {
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const std::string_view tok = m.at(i);
    if (tok == "rand" || tok == "srand" || tok == "random_device" ||
        tok == "random_shuffle") {
      hits.push_back(i);
      what.emplace_back(tok);
    } else if (tok == "time" && m.at(i + 1) == "(" &&
               (m.at(i + 2) == "nullptr" || m.at(i + 2) == "NULL" ||
                m.at(i + 2) == "0") &&
               m.at(i + 3) == ")") {
      hits.push_back(i);
      what.emplace_back("wall-time seeding via time()");
    }
  }
}

void match_wall_clock(const Matcher& m, std::vector<std::size_t>& hits,
                      std::vector<std::string>& what) {
  for (std::size_t i = 0; i + 2 < m.tokens.size(); ++i) {
    if (kClockNames.count(m.at(i)) != 0 && m.at(i + 1) == "::" &&
        m.at(i + 2) == "now") {
      hits.push_back(i);
      what.push_back(std::string(m.at(i)) + "::now()");
    }
  }
}

void match_raw_thread(const Matcher& m, std::vector<std::size_t>& hits,
                      std::vector<std::string>& what) {
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    if (m.at(i) == "std" && m.at(i + 1) == "::" && m.at(i + 2) == "thread") {
      hits.push_back(i + 2);
      what.emplace_back("std::thread");
    } else if (m.at(i) == "detach" && m.at(i + 1) == "(" && i > 0 &&
               (m.at(i - 1) == "." ||
                (m.at(i - 1) == ">" && i > 1 && m.at(i - 2) == "-"))) {
      hits.push_back(i);
      what.emplace_back(".detach()");
    }
  }
}

void match_unordered_iteration(const Matcher& m,
                               std::vector<std::size_t>& hits,
                               std::vector<std::string>& what) {
  const UnorderedNames names = collect_unordered_names(m);
  const auto& tokens = m.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Range-for over an unordered expression: `for (decl : range)` where the
    // range tokens mention an unordered template/alias/variable.
    if (m.at(i) == "for" && m.at(i + 1) == "(") {
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < tokens.size(); ++j) {
        if (m.at(j) == "(") ++depth;
        if (m.at(j) == ")" && --depth == 0) break;
        if (depth == 1 && m.at(j) == ";") break;  // classic for loop
        if (depth == 1 && m.at(j) == ":") {
          colon = j;
          break;
        }
      }
      if (colon != 0) {
        int range_depth = 1;
        for (std::size_t j = colon + 1;
             j < tokens.size() && range_depth > 0; ++j) {
          if (m.at(j) == "(") ++range_depth;
          if (m.at(j) == ")") --range_depth;
          if (range_depth >= 1 && names.is_unordered_expr_token(m.at(j))) {
            hits.push_back(i);
            what.push_back("range-for over unordered container ('" +
                           std::string(m.at(j)) + "')");
            break;
          }
        }
      }
    }
    // Iterator walk: unordered_var.begin() / ->begin() and friends.
    if (names.variables.count(std::string(m.at(i))) != 0) {
      std::size_t member = 0;
      if (m.at(i + 1) == ".") member = i + 2;
      if (m.at(i + 1) == "-" && m.at(i + 2) == ">") member = i + 3;
      if (member != 0 && kIterationMembers.count(m.at(member)) != 0 &&
          m.at(member + 1) == "(") {
        hits.push_back(i);
        what.push_back("iterator over unordered container '" +
                       std::string(m.at(i)) + "." +
                       std::string(m.at(member)) + "()'");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driving
// ---------------------------------------------------------------------------

std::string generic_path(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool path_allowed(const std::string& path,
                  const std::vector<std::string>& entries) {
  return std::any_of(entries.begin(), entries.end(),
                     [&](const std::string& entry) {
                       return path.find(entry) != std::string::npos;
                     });
}

const std::vector<std::string>& allowlist_for(const Config& config,
                                              Rule rule) {
  switch (rule) {
    case Rule::kUnorderedIteration:
      return config.unordered_iteration_allowed;
    case Rule::kBannedRandom:
      return config.banned_random_allowed;
    case Rule::kWallClock:
      return config.wall_clock_allowed;
    case Rule::kRawThread:
      return config.raw_thread_allowed;
  }
  throw std::logic_error("allowlist_for: bad rule");
}

}  // namespace

std::string_view rule_name(Rule rule) {
  for (const RuleInfo& info : kRules)
    if (info.rule == rule) return info.name;
  return "unknown";
}

std::string_view rule_summary(Rule rule) {
  for (const RuleInfo& info : kRules)
    if (info.rule == rule) return info.summary;
  return "";
}

std::optional<Rule> rule_from_name(std::string_view name) {
  for (const RuleInfo& info : kRules)
    if (info.name == name) return info.rule;
  return std::nullopt;
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> out;
    for (const RuleInfo& info : kRules) out.push_back(info.rule);
    return out;
  }();
  return rules;
}

std::string Diagnostic::format() const {
  std::ostringstream out;
  out << file << ':' << line << ": error: [" << rule_name(rule) << "] "
      << message;
  return out.str();
}

Config Config::repo_default() {
  Config config;
  // Randomness: only the seed-plumbing layer itself.
  config.banned_random_allowed = {"src/util/rng."};
  // Wall clock: ONLY the obs clock TU. Every timing read in the tree goes
  // through obs::monotonic_ns()/obs::WallTimer, so this single entry is the
  // complete accounting of where wall time can enter the process. Other
  // files — including the rest of src/obs/ — must use obs::clock or an
  // inline allow() with a per-site rationale.
  config.wall_clock_allowed = {"src/obs/clock."};
  // Threads: only the fork-join executor may construct them.
  config.raw_thread_allowed = {"src/util/thread_pool."};
  return config;
}

std::vector<Diagnostic> lint_source(std::string_view path,
                                    std::string_view text,
                                    const Config& config) {
  const std::string file = generic_path(path);
  const Stripped stripped = strip(text);
  const std::vector<Token> tokens = tokenize(stripped);
  const Matcher matcher{tokens};

  std::vector<Diagnostic> diagnostics;
  const auto run_rule = [&](Rule rule, auto&& match) {
    if (path_allowed(file, allowlist_for(config, rule))) return;
    std::vector<std::size_t> hits;
    std::vector<std::string> what;
    match(matcher, hits, what);
    for (std::size_t h = 0; h < hits.size(); ++h) {
      const std::size_t line = tokens[hits[h]].line;
      const auto line_allows = [&](std::size_t l) {
        return l >= 1 && l <= stripped.allows.size() &&
               stripped.allows[l - 1].count(rule) != 0;
      };
      if (line_allows(line) || line_allows(line - 1)) continue;
      Diagnostic diag;
      diag.file = file;
      diag.line = line;
      diag.rule = rule;
      diag.message = what[h];
      diag.message += " — ";
      diag.message += rule_summary(rule);
      diag.message += " (suppress with `// p2pvod-lint: allow(";
      diag.message += rule_name(rule);
      diag.message += ")` and a rationale)";
      diagnostics.push_back(std::move(diag));
    }
  };

  run_rule(Rule::kUnorderedIteration, match_unordered_iteration);
  run_rule(Rule::kBannedRandom, match_banned_random);
  run_rule(Rule::kWallClock, match_wall_clock);
  run_rule(Rule::kRawThread, match_raw_thread);

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return a.line < b.line;
            });
  return diagnostics;
}

std::vector<Diagnostic> lint_file(const std::filesystem::path& file,
                                  const Config& config) {
  std::ifstream stream(file, std::ios::binary);
  if (!stream) {
    throw std::runtime_error("p2pvod_lint: cannot read " + file.string());
  }
  std::ostringstream content;
  content << stream.rdbuf();
  return lint_source(file.generic_string(), content.str(), config);
}

std::vector<Diagnostic> lint_dirs(
    const std::vector<std::filesystem::path>& dirs, const Config& config) {
  std::vector<std::filesystem::path> files;
  for (const auto& dir : dirs) {
    if (!std::filesystem::is_directory(dir)) continue;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h")
        files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Diagnostic> diagnostics;
  for (const auto& file : files) {
    auto file_diags = lint_file(file, config);
    diagnostics.insert(diagnostics.end(),
                       std::make_move_iterator(file_diags.begin()),
                       std::make_move_iterator(file_diags.end()));
  }
  return diagnostics;
}

std::vector<Diagnostic> lint_tree(const std::filesystem::path& root,
                                  const Config& config) {
  return lint_dirs(
      {root / "src", root / "bench", root / "examples", root / "tools"},
      config);
}

}  // namespace p2pvod::lint
