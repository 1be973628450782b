// A small recursive-descent JSON parser for tests: they parse the stats
// and trace documents the program emits (obs::JsonWriter) and check their
// schema. It reads null where a number is expected as NaN, so the writer's
// non-finite doubles (emitted as null) fail "all percentiles finite"
// checks.

#ifndef LIBRA_TESTS_SUPPORT_JSON_PARSE_H_
#define LIBRA_TESTS_SUPPORT_JSON_PARSE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace libra::obs {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }

  // Object member access; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses a complete JSON document. Returns false (and sets *error when
// non-null) on malformed input or trailing garbage.
bool JsonParse(std::string_view text, JsonValue* out,
               std::string* error = nullptr);

}  // namespace libra::obs

#endif  // LIBRA_TESTS_SUPPORT_JSON_PARSE_H_
