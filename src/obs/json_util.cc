#include "obs/json_util.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace gpivot::obs {

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

// Cursor-based recursive-descent parser building the JsonValue DOM, with
// escape decoding, duplicate-key rejection, and byte-offset diagnostics.
class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  std::optional<JsonValue> ParseDocument(std::string* error) {
    SkipWs();
    std::optional<JsonValue> value = ParseValue();
    if (value.has_value()) {
      SkipWs();
      if (pos_ != s_.size()) {
        value.reset();
        Fail("trailing data after document");
      }
    }
    if (!value.has_value() && error != nullptr) {
      *error = error_.empty() ? "malformed JSON" : error_;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void Fail(const char* what) {
    if (error_.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s at byte %zu", what, pos_);
      error_ = buf;
    }
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseLiteral(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      Fail("invalid literal");
      return false;
    }
    pos_ += word.size();
    return true;
  }

  // Appends `code` (a Unicode scalar value) to `out` as UTF-8.
  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseHex4(uint32_t* out) {
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= s_.size() ||
          !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
        Fail("bad \\u escape");
        return false;
      }
      char c = s_[pos_++];
      uint32_t digit = c <= '9'   ? static_cast<uint32_t>(c - '0')
                       : c <= 'F' ? static_cast<uint32_t>(c - 'A' + 10)
                                  : static_cast<uint32_t>(c - 'a' + 10);
      value = value * 16 + digit;
    }
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Eat('"')) {
      Fail("expected string");
      return false;
    }
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        Fail("raw control character in string");
        return false;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          if (code >= 0xD800 && code <= 0xDBFF && pos_ + 1 < s_.size() &&
              s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              Fail("unpaired surrogate");
              return false;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          Fail("bad escape");
          return false;
      }
    }
    Fail("unterminated string");
    return false;
  }

  std::optional<JsonValue> ParseNumber() {
    size_t start = pos_;
    // Match the number's span — no leading zeros, digits after '.' and
    // after an exponent — then convert it.
    Eat('-');
    if (pos_ >= s_.size() ||
        !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      Fail("invalid number");
      return std::nullopt;
    }
    if (s_[pos_] == '0') {
      ++pos_;
    } else {
      EatDigits();
    }
    if (Eat('.') && !EatDigits()) {
      Fail("invalid number");
      return std::nullopt;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!EatDigits()) {
        Fail("invalid number");
        return std::nullopt;
      }
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number_value = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    return value;
  }

  bool EatDigits() {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  std::optional<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) {
      Fail("nesting too deep");
      return std::nullopt;
    }
    SkipWs();
    std::optional<JsonValue> value;
    if (pos_ >= s_.size()) {
      Fail("unexpected end of input");
    } else if (s_[pos_] == '{') {
      value = ParseObject();
    } else if (s_[pos_] == '[') {
      value = ParseArray();
    } else if (s_[pos_] == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      if (ParseString(&v.string_value)) value = std::move(v);
    } else if (s_[pos_] == 't' || s_[pos_] == 'f') {
      bool truth = s_[pos_] == 't';
      if (ParseLiteral(truth ? "true" : "false")) {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.bool_value = truth;
        value = std::move(v);
      }
    } else if (s_[pos_] == 'n') {
      if (ParseLiteral("null")) value = JsonValue{};
    } else {
      value = ParseNumber();
    }
    --depth_;
    return value;
  }

  std::optional<JsonValue> ParseObject() {
    Eat('{');
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Eat('}')) return value;
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return std::nullopt;
      if (value.Find(key) != nullptr) {
        Fail("duplicate object key");
        return std::nullopt;
      }
      SkipWs();
      if (!Eat(':')) {
        Fail("expected ':'");
        return std::nullopt;
      }
      std::optional<JsonValue> member = ParseValue();
      if (!member.has_value()) return std::nullopt;
      value.object.emplace_back(std::move(key), std::move(*member));
      SkipWs();
      if (Eat('}')) return value;
      if (!Eat(',')) {
        Fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  std::optional<JsonValue> ParseArray() {
    Eat('[');
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Eat(']')) return value;
    for (;;) {
      std::optional<JsonValue> element = ParseValue();
      if (!element.has_value()) return std::nullopt;
      value.array.push_back(std::move(*element));
      SkipWs();
      if (Eat(']')) return value;
      if (!Eat(',')) {
        Fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool IsValidJson(std::string_view s) { return ParseJson(s).has_value(); }

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<JsonValue> ParseJson(std::string_view s, std::string* error) {
  return JsonParser(s).ParseDocument(error);
}

}  // namespace gpivot::obs
