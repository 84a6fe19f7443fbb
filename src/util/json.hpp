// Minimal JSON document model, parser, and writer.
//
// The bench driver's machine-readable result sinks (BENCH_<id>.json) and the
// baseline regression diff need structured output without adding a third
// party dependency. This is deliberately small: a Value variant (null, bool,
// number, string, array, object), a strict recursive-descent parser, and a
// writer whose number formatting round-trips doubles. Object keys keep
// insertion order so emitted files diff cleanly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace p2pvod::util::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Value>;
  /// Insertion-ordered; lookup is linear (documents here are tiny).
  using Object = std::vector<std::pair<std::string, Value>>;

  Value() noexcept : kind_(Kind::kNull) {}
  Value(bool value) noexcept : kind_(Kind::kBool), bool_(value) {}
  Value(double value) noexcept : kind_(Kind::kNumber), number_(value) {}
  Value(int value) noexcept : Value(static_cast<double>(value)) {}
  Value(std::int64_t value) noexcept : Value(static_cast<double>(value)) {}
  Value(std::uint64_t value) noexcept : Value(static_cast<double>(value)) {}
  Value(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
  Value(const char* value) : Value(std::string(value)) {}
  Value(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}
  Value(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const Value* find(const std::string& key) const noexcept;
  /// Object member by key; throws std::runtime_error when absent.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// Append a member to an object value (throws on non-objects).
  void set(std::string key, Value value);

  /// Serialize. indent < 0 gives a compact single line; indent >= 0 pretty
  /// prints with that many spaces per level. Numbers round-trip: integral
  /// values in the exact double range print without a fraction, others with
  /// max_digits10 precision.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Deepest nesting of arrays and objects that parse accepts. The parser
/// recurses once per level, so an unbounded depth lets a hostile document
/// exhaust the stack; this is far above what the library writes (result
/// files nest at most 7 levels, a profile 2 per span frame).
inline constexpr int kMaxDepth = 256;

/// Parse a complete JSON document (trailing garbage is an error). Throws
/// std::runtime_error with a byte offset on malformed input, on nesting
/// deeper than kMaxDepth, and on a \u escape of a lone UTF-16 surrogate
/// (a pair decodes to one four-byte UTF-8 character).
[[nodiscard]] Value parse(const std::string& text);

/// Read and parse a JSON file; throws std::runtime_error on I/O failure.
[[nodiscard]] Value parse_file(const std::string& path);

/// Write `value.dump(indent)` plus a trailing newline to `path`; throws
/// std::runtime_error on I/O failure.
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace p2pvod::util::json
