// Minimal JSON DOM — just enough to parse, validate, and re-emit Chrome
// trace-event files without an external dependency. Supports the full
// JSON value grammar (objects, arrays, strings with escapes, numbers,
// bools, null); numbers are held as double. Parse errors — including
// arrays/objects nested more than 64 deep — throw InvalidArgument with a
// byte offset.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cbc::obs {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::Number), number_(n) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::String), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }

  /// Typed accessors; throw InvalidArgument on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Compact JSON re-serialization.
  [[nodiscard]] std::string dump() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // Indirect so JsonValue stays movable/copyable with incomplete siblings.
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Parses one JSON document (rejecting trailing garbage). Throws
/// InvalidArgument on malformed input.
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace cbc::obs
