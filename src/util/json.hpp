// The one JSON writer and the one JSON reader (DESIGN.md §4.3). Numbers
// have one format: integral values with |v| < 1e15 exactly, anything else
// as %.6g, NaN and ±inf as null. The reader takes RFC 8259 and nothing
// more, and bounds nesting at kMaxJsonDepth.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gryphon {

class JsonWriter {
 public:
  /// kPretty indents two spaces per level and writes `"key": value`;
  /// kCompact writes no whitespace except where line_break() asks.
  enum class Style { kPretty, kCompact };

  explicit JsonWriter(std::string& out, Style style = Style::kPretty)
      : out_(out), pretty_(style == Style::kPretty) {}

  /// `inline_items` keeps the object, and all it holds, on one line in the
  /// pretty style: {"count": 1, "p50": 2}.
  JsonWriter& begin_object(bool inline_items = false) { return open('{', inline_items); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('[', false); }
  JsonWriter& end_array() { return close(']'); }

  /// Names the next value of the enclosing object.
  JsonWriter& key(std::string_view name) {
    prefix();
    append_string(name);
    out_ += pretty_ ? ": " : ":";
    after_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    prefix();
    append_string(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    return number(static_cast<double>(v));
  }
  /// A value another JsonWriter already serialized, copied verbatim.
  JsonWriter& raw(std::string_view json) {
    prefix();
    out_ += json;
    return *this;
  }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// Starts the next element, or the closing bracket, on a new line.
  JsonWriter& line_break() {
    break_next_ = true;
    return *this;
  }

 private:
  struct Frame {
    bool inline_items;
    bool has_items;
  };

  JsonWriter& open(char bracket, bool inline_items);
  JsonWriter& close(char bracket);
  JsonWriter& number(double v);
  /// The separator and line break before an element.
  void prefix();
  void newline();
  void append_string(std::string_view s);

  std::string& out_;
  bool pretty_;
  bool after_key_ = false;
  bool break_next_ = false;
  std::vector<Frame> stack_;
};

/// Deepest container nesting parse_json() accepts.
constexpr std::size_t kMaxJsonDepth = 256;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // document order

  /// The first member named `key`; null if absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// That member's value if it is a number / a string.
  [[nodiscard]] std::optional<double> number_at(std::string_view key) const;
  [[nodiscard]] const std::string* string_at(std::string_view key) const;
};

/// Parses a whole document. On failure returns nullopt and, if `error` is
/// given, says what went wrong at which byte.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

/// Reads a whole file into `out`; false if it cannot be opened or read.
[[nodiscard]] bool read_file(const std::string& path, std::string& out);

/// Writes `text` to `path`, truncating it; false unless every byte reached
/// the file (open, write and close all succeeded).
[[nodiscard]] bool write_file(const std::string& path, std::string_view text);

}  // namespace gryphon
