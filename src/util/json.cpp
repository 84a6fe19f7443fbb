#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace p2pvod::util::json {

namespace {

[[noreturn]] void kind_error(const char* wanted) {
  throw std::runtime_error(std::string("json::Value: not a ") + wanted);
}

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buffer;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

std::string format_number(double value) {
  if (std::isnan(value) || std::isinf(value)) {
    // JSON has no NaN/Inf; null is the least-bad encoding and the parser of
    // record (this file) reads it back as such.
    return "null";
  }
  // Exact integers print without a fraction so counts stay readable.
  if (value == std::floor(value) && std::fabs(value) < 9.0e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    return buffer;
  }
  std::ostringstream out;
  out.precision(17);  // max_digits10: round-trips every double
  out << value;
  return out.str();
}

void dump_value(const Value& value, int indent, int depth, std::string& out) {
  // indent < 0 means compact output; otherwise both operands are non-negative
  // (depth counts nesting), so the size_t casts below cannot change values.
  const std::size_t unit =
      indent < 0 ? 0 : static_cast<std::size_t>(indent);
  const std::size_t level = depth < 0 ? 0 : static_cast<std::size_t>(depth);
  const std::string pad =
      indent < 0 ? std::string() : std::string(unit * (level + 1), ' ');
  const std::string close_pad =
      indent < 0 ? std::string() : std::string(unit * level, ' ');
  const char* newline = indent < 0 ? "" : "\n";
  const char* colon = indent < 0 ? ":" : ": ";
  switch (value.kind()) {
    case Value::Kind::kNull: out += "null"; return;
    case Value::Kind::kBool: out += value.as_bool() ? "true" : "false"; return;
    case Value::Kind::kNumber: out += format_number(value.as_number()); return;
    case Value::Kind::kString: append_escaped(out, value.as_string()); return;
    case Value::Kind::kArray: {
      const auto& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      out += newline;
      for (std::size_t i = 0; i < array.size(); ++i) {
        out += pad;
        dump_value(array[i], indent, depth + 1, out);
        if (i + 1 < array.size()) out += ',';
        out += newline;
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Value::Kind::kObject: {
      const auto& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      out += newline;
      for (std::size_t i = 0; i < object.size(); ++i) {
        out += pad;
        append_escaped(out, object[i].first);
        out += colon;
        dump_value(object[i].second, indent, depth + 1, out);
        if (i + 1 < object.size()) out += ',';
        out += newline;
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json::parse: " + message + " at byte " +
                             std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t length = 0;
    while (literal[length] != '\0') ++length;
    if (text_.compare(pos_, length, literal) != 0) return false;
    pos_ += length;
    return true;
  }

  Value parse_value() {
    const char ch = peek();
    switch (ch) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case '"': return Value(parse_string());
      case '[': return nested([this] { return parse_array(); });
      case '{': return nested([this] { return parse_object(); });
      default: return parse_number();
    }
  }

  /// Parses one array or object a level deeper, failing past kMaxDepth.
  template <typename Parse>
  Value nested(Parse parse) {
    if (depth_ == kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    ++depth_;
    Value value = parse();
    --depth_;
    return value;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      return pos_ > before;
    };
    if (!digits()) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("invalid number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) fail("invalid number exponent");
    }
    try {
      return Value(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      // stod throws std::out_of_range (a logic_error) on e.g. 1e999; keep
      // the documented std::runtime_error contract.
      fail("number out of range");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // A UTF-16 surrogate is only half a character: a high one must be
          // followed by a low one, and a low one never stands first.
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("lone surrogate escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (text_.compare(pos_, 2, "\\u") != 0)
              fail("lone surrogate escape");
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("lone surrogate escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// The four hex digits of a \u escape.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char hex = text_[pos_++];
      code <<= 4;
      if (hex >= '0' && hex <= '9') code |= unsigned(hex - '0');
      else if (hex >= 'a' && hex <= 'f') code |= unsigned(hex - 'a' + 10);
      else if (hex >= 'A' && hex <= 'F') code |= unsigned(hex - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return code;
  }

  Value parse_array() {
    expect('[');
    Value::Array out;
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      if (ch == ']') {
        ++pos_;
        return Value(std::move(out));
      }
      fail("expected ',' or ']'");
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object out;
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(out));
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      out.emplace_back(std::move(key), parse_value());
      const char ch = peek();
      if (ch == ',') {
        ++pos_;
        continue;
      }
      if (ch == '}') {
        ++pos_;
        return Value(std::move(out));
      }
      fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open around pos_
};

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}

const Value::Array& Value::as_array() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return array_;
}

const Value::Object& Value::as_object() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return object_;
}

const Value* Value::find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  if (const Value* value = find(key); value != nullptr) return *value;
  throw std::runtime_error("json::Value: missing key '" + key + "'");
}

void Value::set(std::string key, Value value) {
  if (kind_ != Kind::kObject) kind_error("object");
  object_.emplace_back(std::move(key), std::move(value));
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("json::parse_file: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str());
}

void write_file(const std::string& path, const Value& value, int indent) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("json::write_file: cannot open " + path);
  file << value.dump(indent) << '\n';
  if (!file) throw std::runtime_error("json::write_file: write failed " + path);
}

}  // namespace p2pvod::util::json
