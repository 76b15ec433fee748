// A minimal JSON reader/writer for the bf_serve request/response
// protocol (newline-delimited JSON objects). Supports the full value
// grammar (objects, arrays, strings with escapes, numbers, booleans,
// null) but is tuned for the small flat objects the server exchanges;
// numbers are parsed through bf::parse_double so trailing garbage is an
// error, not a silent truncation.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bf::serve {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  /// Member lookup (objects only); nullptr when absent.
  const JsonValue* find(std::string_view key) const;
};

/// Deepest array/object nesting parse_json accepts. Requests are flat
/// objects; the bound keeps hostile nesting from exhausting the stack of
/// the recursive parser and of ~JsonValue.
inline constexpr int kMaxJsonDepth = 64;

/// Parse one JSON document; throws bf::Error on malformed input, nesting
/// deeper than kMaxJsonDepth, or trailing non-whitespace.
JsonValue parse_json(std::string_view text);

/// Escape a string for embedding between double quotes.
std::string json_escape(std::string_view s);

/// Render a double as JSON: shortest round-trip decimal; non-finite
/// values (which JSON cannot carry) become null.
std::string json_number(double v);

}  // namespace bf::serve
