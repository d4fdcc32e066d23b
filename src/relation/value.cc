#include "relation/value.h"

#include <cstdlib>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace gpivot {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

void Value::SetString(std::string_view v) {
  if (v.size() <= kInlineCapacity) {
    kind_ = Kind::kInline;
    inline_size_ = static_cast<uint8_t>(v.size());
    if (!v.empty()) std::memcpy(bytes_, v.data(), v.size());
  } else {
    kind_ = Kind::kShared;
    new (bytes_) SharedString(std::make_shared<const std::string>(v));
  }
}

DataType Value::type() const {
  if (is_null()) return DataType::kNull;
  if (is_int()) return DataType::kInt64;
  if (is_double()) return DataType::kDouble;
  return DataType::kString;
}

void Value::WrongKind(const char* accessor) const {
  GPIVOT_CHECK(false) << accessor << " on " << ToString();
  std::abort();
}

bool Value::EqualsSlow(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_string() != other.is_string()) return false;
  if (is_string()) return AsString() == other.AsString();
  return AsNumeric() == other.AsNumeric();
}

bool Value::Identical(const Value& other) const {
  if (type() != other.type()) return false;
  if (is_int()) return AsInt() == other.AsInt();
  if (is_double()) {
    const double a = AsDouble(), b = other.AsDouble();
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  }
  return !is_string() || AsString() == other.AsString();
}

bool Value::operator<(const Value& other) const {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_int() || v.is_double()) return 1;
    return 2;
  };
  int ra = rank(*this), rb = rank(other);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // NULL == NULL
  if (ra == 1) {
    if (is_int() && other.is_int()) return AsInt() < other.AsInt();
    return AsNumeric() < other.AsNumeric();
  }
  return AsString() < other.AsString();
}

std::string Value::ToString() const {
  if (is_null()) return "⊥";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream out;
    out << AsDouble();
    return out.str();
  }
  return std::string(AsString());
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace gpivot
