#include "obs/json_lite.h"

#include <cctype>
#include <charconv>
#include <sstream>

#include "obs/trace.h"
#include "util/ensure.h"

namespace cbc::obs {

JsonValue::JsonValue(JsonArray a)
    : kind_(Kind::Array), array_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : kind_(Kind::Object),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

bool JsonValue::as_bool() const {
  require(kind_ == Kind::Bool, "json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  require(kind_ == Kind::Number, "json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  require(kind_ == Kind::String, "json: not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  require(kind_ == Kind::Array, "json: not an array");
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  require(kind_ == Kind::Object, "json: not an object");
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) {
    return nullptr;
  }
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

namespace {

void dump_string(std::ostream& out, const std::string& s) {
  out << '"' << json_escape(s) << '"';
}

void dump_value(std::ostream& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null:
      out << "null";
      break;
    case JsonValue::Kind::Bool:
      out << (v.as_bool() ? "true" : "false");
      break;
    case JsonValue::Kind::Number: {
      const double n = v.as_number();
      // Integral values print without a fraction (trace ts/pid fields).
      if (n == static_cast<double>(static_cast<long long>(n))) {
        out << static_cast<long long>(n);
      } else {
        out << n;
      }
      break;
    }
    case JsonValue::Kind::String:
      dump_string(out, v.as_string());
      break;
    case JsonValue::Kind::Array: {
      out << '[';
      bool first = true;
      for (const JsonValue& item : v.as_array()) {
        if (!first) {
          out << ',';
        }
        first = false;
        dump_value(out, item);
      }
      out << ']';
      break;
    }
    case JsonValue::Kind::Object: {
      out << '{';
      bool first = true;
      for (const auto& [key, item] : v.as_object()) {
        if (!first) {
          out << ',';
        }
        first = false;
        dump_string(out, key);
        out << ':';
        dump_value(out, item);
      }
      out << '}';
      break;
    }
  }
}

class Parser {
 public:
  /// Deepest array/object nesting accepted. The repo's own documents
  /// nest at most 4 deep; the cap turns a hostile `[[[[...` body (trace
  /// files, scraped /metrics.json pages) into InvalidArgument instead of
  /// a stack overflow in the recursive descent.
  static constexpr std::size_t kMaxDepth = 64;

  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    require(pos_ == text_.size(), error("trailing characters"));
    return value;
  }

 private:
  [[nodiscard]] std::string error(const std::string& what) const {
    return "json parse error at byte " + std::to_string(pos_) + ": " + what;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    require(pos_ < text_.size(), error("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    require(peek() == c,
            error(std::string("expected '") + c + "', got '" + text_[pos_] +
                  "'"));
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        require(depth_ < kMaxDepth, error("nesting too deep"));
        ++depth_;
        JsonValue nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"':
        return JsonValue(parse_string());
      case 't':
        require(consume_literal("true"), error("bad literal"));
        return JsonValue(true);
      case 'f':
        require(consume_literal("false"), error("bad literal"));
        return JsonValue(false);
      case 'n':
        require(consume_literal("null"), error("bad literal"));
        return {};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject object;
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      require(peek() == '"', error("expected object key"));
      std::string key = parse_string();
      expect(':');
      object.emplace(std::move(key), parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(object));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray array;
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), error("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      require(pos_ < text_.size(), error("unterminated escape"));
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), error("truncated \\u escape"));
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              require(false, error("bad \\u escape"));
            }
          }
          // UTF-8 encode (surrogate pairs unsupported; trace text is
          // ASCII in practice, so map them to U+FFFD-style bytes).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default:
          require(false, error("bad escape"));
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    require(pos_ > start, error("expected a value"));
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    require(ec == std::errc() && ptr == text_.data() + pos_,
            error("bad number"));
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

std::string JsonValue::dump() const {
  std::ostringstream out;
  dump_value(out, *this);
  return out.str();
}

JsonValue json_parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace cbc::obs
