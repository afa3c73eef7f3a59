// Minimal JSON reader for the analysis tooling, plus the one string
// escaper the trace, Chrome and BENCH emitters share.
//
// The repo's artefact formats (rank traces and flight-recorder dumps,
// BENCH_*.json) are all emitted by our own serializers, but the consumers —
// measure/trace_merge (for gcs_analyze), tools/bench_compare and
// tools/gcs_top (the /health summary) — must load them back, possibly
// produced by a different build or a crashed process. This is the one
// JSON parser, deliberately tiny:
//
//   * full JSON value grammar (null/bool/number/string/array/object),
//   * numbers parsed as double: integers are exact only up to 2^53, so an
//     emitter whose 64-bit values can exceed that (collective tags, which
//     set bit 63) writes them as decimal strings instead,
//   * \uXXXX escapes decoded to UTF-8,
//   * no streaming and no writer beyond escape() — serialization stays
//     with each artefact's own emitter so formats remain greppable at the
//     producer.
//
// Errors throw gcs::Error with a byte offset, so a truncated post-mortem
// dump names where it broke instead of silently yielding half a tree.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace gcs::json {

/// One parsed JSON value. A plain tagged struct (not std::variant): the
/// consumers walk traces with thousands of spans, so accessors must be
/// trivially inlinable and never throw on a missing key.
class Value {
 public:
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> items;                              ///< kArray
  std::vector<std::pair<std::string, Value>> members;    ///< kObject

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Convenience accessors with defaults, for optional fields.
  double num_or(std::string_view key, double fallback) const noexcept {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
  }
  std::string str_or(std::string_view key, std::string fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->kind == Kind::kString ? v->str
                                                    : std::move(fallback);
  }
};

/// Parses one JSON document (trailing whitespace allowed, trailing junk
/// is an error). Throws gcs::Error on malformed input.
Value parse(std::string_view text);

/// `s` as the body of a JSON string literal (no surrounding quotes):
/// '"' and '\\' are backslash-escaped, \n \t \r use their short forms and
/// every other control character becomes \u00XX, so parse() gets back
/// exactly `s`.
std::string escape(std::string_view s);

}  // namespace gcs::json
