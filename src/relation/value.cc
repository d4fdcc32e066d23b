#include "relation/value.h"

#include <cmath>
#include <functional>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/hash_util.h"

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

int64_t Value::AsInt() const {
  GPIVOT_CHECK(is_int()) << "Value::AsInt on " << ToString();
  return Load<int64_t>();
}

double Value::AsDouble() const {
  GPIVOT_CHECK(is_double()) << "Value::AsDouble on " << ToString();
  return Load<double>();
}

std::string_view Value::AsString() const {
  GPIVOT_CHECK(is_string()) << "Value::AsString on " << ToString();
  if (kind_ == Kind::kInline) {
    return std::string_view(reinterpret_cast<const char*>(bytes_),
                            inline_size_);
  }
  return **shared();
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(Load<int64_t>());
  GPIVOT_CHECK(is_double()) << "Value::AsNumeric on " << ToString();
  return Load<double>();
}

bool Value::operator==(const Value& other) const {
  // Cross-type numeric equality (an INT64 3 equals a DOUBLE 3.0): group-by
  // and key matching treat numerics uniformly.
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_string() != other.is_string()) return false;
  if (is_string()) return AsString() == other.AsString();
  if (is_int() && other.is_int()) return AsInt() == other.AsInt();
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

size_t Value::Hash() const {
  if (is_null()) return 0x9d3f;
  if (is_string()) return std::hash<std::string_view>{}(AsString());
  if (is_int()) {
    // Hash integral doubles and int64s identically so that == and Hash agree.
    return std::hash<double>{}(static_cast<double>(AsInt()));
  }
  return std::hash<double>{}(AsDouble());
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
