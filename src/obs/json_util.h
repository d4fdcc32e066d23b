#ifndef GPIVOT_OBS_JSON_UTIL_H_
#define GPIVOT_OBS_JSON_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpivot::obs {

// Returns `s` as a quoted JSON string literal: wrapped in double quotes
// with ", \, and control characters escaped.
std::string JsonQuote(std::string_view s);

// Strict validity check for a complete JSON document: ParseJson succeeds.
// Enough for tests and CI to assert that exported trace/metrics files are
// well-formed without pulling in a JSON library.
bool IsValidJson(std::string_view s);

// A parsed JSON document — the small DOM tools use to *read back* the
// artifacts this library writes (BENCH_*.json, cost reports, epoch
// records). Numbers are kept as double (every number we emit fits);
// object members keep source order and duplicate keys are rejected.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses a complete JSON document: one value spanning the whole input,
// modulo whitespace; duplicate object keys and unpaired surrogate escapes
// rejected; escapes decoded — \uXXXX outside ASCII is kept as UTF-8.
// Returns nullopt on malformed input and, when `error` is non-null, stores
// a byte-offset diagnostic there.
std::optional<JsonValue> ParseJson(std::string_view s,
                                   std::string* error = nullptr);

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_JSON_UTIL_H_
