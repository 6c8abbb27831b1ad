#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

namespace gryphon {

// ------------------------------------------------------------------ writer

void JsonWriter::newline() {
  out_ += '\n';
  if (pretty_) out_.append(2 * stack_.size(), ' ');
  break_next_ = false;
}

void JsonWriter::prefix() {
  if (after_key_ || stack_.empty()) {
    after_key_ = false;
    return;
  }
  Frame& f = stack_.back();
  if (f.has_items) out_ += ',';
  if (break_next_ || (pretty_ && !f.inline_items)) {
    newline();
  } else if (pretty_ && f.has_items) {
    out_ += ' ';
  }
  f.has_items = true;
}

JsonWriter& JsonWriter::open(char bracket, bool inline_items) {
  prefix();
  out_ += bracket;
  stack_.push_back({inline_items || (!stack_.empty() && stack_.back().inline_items), false});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  const Frame f = stack_.back();
  stack_.pop_back();
  if (break_next_ || (pretty_ && !f.inline_items && f.has_items)) newline();
  out_ += bracket;
  return *this;
}

JsonWriter& JsonWriter::number(double v) {
  char buf[32] = "null";
  // Range check before the cast: converting NaN or |v| >= 2^63 to an
  // integer is undefined behaviour.
  if (v > -1e15 && v < 1e15 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return raw(buf);
}

void JsonWriter::append_string(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

// ------------------------------------------------------------------ reader

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<double> JsonValue::number_at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->kind != Kind::kNumber) return std::nullopt;
  return v->number;
}

const std::string* JsonValue::string_at(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? &v->string : nullptr;
}

namespace {

// Recursive descent over the RFC 8259 grammar.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size() || fail("trailing characters");
  }

  [[nodiscard]] std::string error() const {
    return err_ + " at byte " + std::to_string(pos_);
  }

 private:
  bool at(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }
  std::size_t digits() {
    const std::size_t from = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ - from;
  }
  bool fail(const char* what) {
    if (err_.empty()) err_ = what;
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (pos_ >= s_.size()) return fail("unexpected end");
    switch (s_[pos_]) {
      case '{':
      case '[':
        if (depth == kMaxJsonDepth) return fail("nesting too deep");
        return parse_container(out, depth + 1);
      case '"': out.kind = JsonValue::Kind::kString; return parse_string(out.string);
      case 't': out.kind = JsonValue::Kind::kBool; out.boolean = true; return literal("true");
      case 'f': out.kind = JsonValue::Kind::kBool; out.boolean = false; return literal("false");
      case 'n': out.kind = JsonValue::Kind::kNull; return literal("null");
      default: return parse_number(out);
    }
  }

  // An object or an array: the same loop, objects reading a key first.
  bool parse_container(JsonValue& out, std::size_t depth) {
    const bool object = at('{');
    const char close = object ? '}' : ']';
    out.kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    ++pos_;
    skip_ws();
    if (at(close)) { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (object) {
        if (!at('"') || !parse_string(key)) return fail("expected object key");
        skip_ws();
        if (!at(':')) return fail("expected ':'");
        ++pos_;
        skip_ws();
      }
      JsonValue value;
      if (!parse_value(value, depth)) return false;
      if (object) {
        out.object.emplace_back(std::move(key), std::move(value));
      } else {
        out.array.push_back(std::move(value));
      }
      skip_ws();
      if (at(',')) { ++pos_; continue; }
      if (at(close)) { ++pos_; return true; }
      return fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c != '\\') { out += c; continue; }
      if (pos_ >= s_.size()) break;
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': if (!parse_unicode_escape(out)) return false; break;
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  // One UTF-16 unit to UTF-8; the writer escapes only control characters,
  // so surrogate pairs are not combined.
  bool parse_unicode_escape(std::string& out) {
    unsigned cp = 0;
    const char* hex = s_.data() + pos_;
    if (pos_ + 4 > s_.size() || std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
      return fail("bad \\u escape");
    }
    pos_ += 4;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return true;
  }

  // -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (digits() == 0) {
      return fail("bad number");
    }
    if (at('.')) {
      ++pos_;
      if (digits() == 0) return fail("bad number");
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) return fail("bad number");
    }
    // strtod sees the validated span only; out-of-range magnitudes become
    // ±inf or 0.
    out.number = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  JsonParser parser(text);
  JsonValue value;
  if (parser.parse(value)) return value;
  if (error != nullptr) *error = parser.error();
  return std::nullopt;
}

// ------------------------------------------------------------------- files

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  out.assign(std::istreambuf_iterator<char>(in), {});
  return in.is_open() && !in.bad();
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  // fclose flushes the stdio buffer: a full device surfaces here.
  return std::fclose(f) == 0 && written;
}

}  // namespace gryphon
