#ifndef GPIVOT_UTIL_STATUS_H_
#define GPIVOT_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace gpivot {

// Error categories used across the library. `kOk` carries no state.
enum class StatusCode {
  kOk = 0,
  // A request that is syntactically valid but semantically wrong, e.g. a
  // pivot whose (K, A1..Am) columns do not form a key of the input.
  kInvalidArgument,
  // A named entity (column, table, view) was not found.
  kNotFound,
  // A rewrite or propagation rule does not apply to the given plan shape.
  kNotApplicable,
  // An internal invariant was violated; indicates a bug in this library.
  kInternal,
  // Data violates a declared constraint (duplicate key, type mismatch).
  kConstraintViolation,
  // The object is in a state that forbids the call, e.g. a split epoch
  // entry point on a manager whose epochs must be durable.
  kFailedPrecondition,
};

// Returns a stable human-readable name, e.g. "Invalid argument".
const char* StatusCodeToString(StatusCode code);

// Arrow/RocksDB-style status object. The OK status is represented by a null
// state pointer, so passing OK around is cheap. Statuses are copyable and
// movable; moved-from statuses are OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message);

  Status(const Status& other);
  Status& operator=(const Status& other);
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status NotApplicable(std::string message) {
    return Status(StatusCode::kNotApplicable, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status ConstraintViolation(std::string message) {
    return Status(StatusCode::kConstraintViolation, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const {
    return state_ == nullptr ? StatusCode::kOk : state_->code;
  }
  const std::string& message() const;

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsNotApplicable() const { return code() == StatusCode::kNotApplicable; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsConstraintViolation() const {
    return code() == StatusCode::kConstraintViolation;
  }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }

  // "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  std::unique_ptr<State> state_;
};

}  // namespace gpivot

// Propagates a non-OK status to the caller.
#define GPIVOT_RETURN_NOT_OK(expr)                 \
  do {                                             \
    ::gpivot::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (false)

#endif  // GPIVOT_UTIL_STATUS_H_
