#include "common/json.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace gcs::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return parse_number();
    }
  }

  static Value make_bool(bool b) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.boolean = b;
    return v;
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out); break;
        default: fail("bad escape");
      }
    }
  }

  void append_codepoint(std::string& out) {
    const unsigned cp = parse_hex4();
    // Encode as UTF-8; surrogate pairs are not emitted by our own
    // serializers, so a lone surrogate is encoded as-is (round-trippable
    // garbage beats a hard failure in a post-mortem reader).
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
  }

  unsigned parse_hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return cp;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = parsed;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (u < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", u);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace gcs::json
