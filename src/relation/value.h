#ifndef GPIVOT_RELATION_VALUE_H_
#define GPIVOT_RELATION_VALUE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <memory>
#include <new>
#include <string>
#include <string_view>

#include "util/hash_util.h"

namespace gpivot {

// Column data types. kNull is the type of the untyped NULL literal; columns
// themselves are declared with one of the concrete types and may hold NULLs.
enum class DataType {
  kNull,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType type);

// Hash of a NULL cell, as Value::Hash and ColumnVector::CellHash give it.
inline constexpr size_t kNullHash = 0x9d3f;

// Hash of a numeric cell: murmur3's 64-bit finalizer over the double's bits.
// Callers pass an int64 as its (nearest) double, so numerics that compare
// equal hash equal; -0.0 is folded onto 0.0, which it equals.
inline size_t HashNumber(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return static_cast<size_t>(Fmix64(bits));
}

// A single SQL value: NULL (the paper's '⊥'), a 64-bit integer, a double, or
// a string. Values are ordered NULL-first only inside Sort; comparison
// predicates over NULL evaluate to NULL/false (null-intolerant semantics),
// which is handled at the expression layer, not here.
class Value {
 public:
  // NULL / ⊥.
  Value() = default;
  explicit Value(int64_t v) : kind_(Kind::kInt) { Store(v); }
  explicit Value(double v) : kind_(Kind::kDouble) { Store(v); }
  explicit Value(std::string_view v) { SetString(v); }
  explicit Value(const std::string& v) : Value(std::string_view(v)) {}
  explicit Value(const char* v) : Value(std::string_view(v)) {}

  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { MoveFrom(&other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      Reset();
      CopyFrom(other);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  ~Value() { Reset(); }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string_view v) { return Value(v); }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const {
    return kind_ == Kind::kInline || kind_ == Kind::kShared;
  }

  DataType type() const;

  // Accessors abort when the value holds a different alternative. They and
  // ==/Hash are inline: every operator reads, compares and hashes cells on
  // its hot path, and only the failure and mixed-type cases go out of line.
  int64_t AsInt() const {
    if (kind_ != Kind::kInt) [[unlikely]] WrongKind("Value::AsInt");
    return Load<int64_t>();
  }
  double AsDouble() const {
    if (kind_ != Kind::kDouble) [[unlikely]] WrongKind("Value::AsDouble");
    return Load<double>();
  }
  // Valid while this Value lives and is not assigned to.
  std::string_view AsString() const {
    if (kind_ == Kind::kInline) {
      return std::string_view(reinterpret_cast<const char*>(bytes_),
                              inline_size_);
    }
    if (kind_ != Kind::kShared) [[unlikely]] WrongKind("Value::AsString");
    return **shared();
  }

  // Numeric view: int64 and double both convert; aborts on string/NULL.
  double AsNumeric() const {
    if (kind_ == Kind::kInt) return static_cast<double>(Load<int64_t>());
    if (kind_ != Kind::kDouble) [[unlikely]] WrongKind("Value::AsNumeric");
    return Load<double>();
  }

  // Total equality: NULL == NULL is true here (used for grouping/keys and
  // bag-difference row matching, where SQL uses "IS NOT DISTINCT FROM").
  // Numerics compare across types (an INT64 3 equals a DOUBLE 3.0).
  bool operator==(const Value& other) const {
    if (kind_ == other.kind_) {
      switch (kind_) {
        case Kind::kNull:
          return true;
        case Kind::kInt:
          return Load<int64_t>() == other.Load<int64_t>();
        case Kind::kDouble:
          return Load<double>() == other.Load<double>();
        default:
          break;
      }
    }
    return EqualsSlow(other);
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Identity: the same type and the same bits (an INT64 1 is not a DOUBLE
  // 1.0, and -0.0 is not 0.0). Plan interning compares literals with this,
  // never with == or ToString, which both conflate distinct values.
  bool Identical(const Value& other) const;

  // Total order for deterministic sorting: NULL < ints/doubles < strings;
  // ints and doubles compare numerically.
  bool operator<(const Value& other) const;

  // Consistent with ==: numerics hash through HashNumber, so an INT64 hashes
  // as the equal DOUBLE and 0.0 as -0.0; strings keep std::hash.
  size_t Hash() const {
    switch (kind_) {
      case Kind::kNull:
        return kNullHash;
      case Kind::kInt:
        return HashNumber(static_cast<double>(Load<int64_t>()));
      case Kind::kDouble:
        return HashNumber(Load<double>());
      default:
        return std::hash<std::string_view>{}(AsString());
    }
  }

  // "⊥" for NULL; otherwise the literal text.
  std::string ToString() const;

 private:
  // 24 bytes, against 40 for a variant holding a std::string: tables are
  // mostly numeric cells, and a published view keeps two versions of every
  // row. A string of up to kInlineCapacity bytes is stored in place, so
  // copying it is a plain byte copy; a longer one lives out of line behind
  // a shared immutable pointer that copies of the row share.
  enum class Kind : uint8_t { kNull, kInt, kDouble, kInline, kShared };
  using SharedString = std::shared_ptr<const std::string>;
  static constexpr size_t kInlineCapacity = 22;

  template <typename T>
  void Store(const T& v) {
    static_assert(sizeof(T) <= kInlineCapacity);
    std::memcpy(bytes_, &v, sizeof(T));
  }
  template <typename T>
  T Load() const {
    T v;
    std::memcpy(&v, bytes_, sizeof(T));
    return v;
  }
  SharedString* shared() {
    return std::launder(reinterpret_cast<SharedString*>(bytes_));
  }
  const SharedString* shared() const {
    return std::launder(reinterpret_cast<const SharedString*>(bytes_));
  }
  void SetString(std::string_view v);
  // Aborts (GPIVOT_CHECK) naming `accessor` and this value.
  [[noreturn]] void WrongKind(const char* accessor) const;
  // == for different kinds and for strings.
  bool EqualsSlow(const Value& other) const;
  // Copies and moves stay inline: rows are copied cell by cell on every
  // operator's hot path.
  void CopyFrom(const Value& other) {
    if (other.kind_ == Kind::kShared) {
      new (bytes_) SharedString(*other.shared());
    } else {
      std::memcpy(bytes_, other.bytes_, kInlineCapacity);
      inline_size_ = other.inline_size_;
    }
    kind_ = other.kind_;
  }
  void MoveFrom(Value* other) noexcept {
    if (other->kind_ == Kind::kShared) {
      new (bytes_) SharedString(std::move(*other->shared()));
    } else {
      std::memcpy(bytes_, other->bytes_, kInlineCapacity);
      inline_size_ = other->inline_size_;
    }
    kind_ = other->kind_;
    other->Reset();  // a moved-from Value is NULL
  }
  void Reset() {
    if (kind_ == Kind::kShared) shared()->~SharedString();
    kind_ = Kind::kNull;
  }

  alignas(8) unsigned char bytes_[kInlineCapacity] = {};
  uint8_t inline_size_ = 0;
  Kind kind_ = Kind::kNull;
};

static_assert(sizeof(Value) == 24);

std::ostream& operator<<(std::ostream& os, const Value& value);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_VALUE_H_
