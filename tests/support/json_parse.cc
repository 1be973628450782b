#include "tests/support/json_parse.h"

#include <cctype>
#include <cstdlib>
#include <limits>

namespace libra::obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters");
    }
    return true;
  }

 private:
  bool Fail(const char* msg) {
    if (error_ != nullptr) {
      *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (++depth_ > 128) {
      return Fail("nesting too deep");
    }
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    bool ok = false;
    switch (text_[pos_]) {
      case '{':
        ok = ParseObject(out);
        break;
      case '[':
        ok = ParseArray(out);
        break;
      case '"':
        out->type = JsonValue::Type::kString;
        ok = ParseString(&out->string_value);
        break;
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_value = true;
        ok = Literal("true") || Fail("bad literal");
        break;
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_value = false;
        ok = Literal("false") || Fail("bad literal");
        break;
      case 'n':
        // null parses as a NaN-valued null; numeric schema checks that
        // require finite values will reject it.
        out->type = JsonValue::Type::kNull;
        out->number = std::numeric_limits<double>::quiet_NaN();
        ok = Literal("null") || Fail("bad literal");
        break;
      default:
        ok = ParseNumber(out);
    }
    --depth_;
    return ok;
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    Consume('{');
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      if (!ParseValue(&out->object[key])) {
        return false;
      }
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    Consume('[');
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!ParseValue(&out->array.back())) {
        return false;
      }
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return Fail("expected string");
    }
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          *out += esc;
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("bad \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs pass through as-is).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool any = false;
    auto digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      digits();
    }
    if (!any) {
      return Fail("expected value");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                              nullptr);
    return true;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonParse(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text, error).Parse(out);
}

}  // namespace libra::obs
