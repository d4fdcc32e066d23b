#include "util/status.h"

namespace gpivot {

namespace {
const std::string& EmptyString() {
  static const std::string* const kEmpty = new std::string();
  return *kEmpty;
}
}  // namespace

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kNotApplicable:
      return "Not applicable";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kConstraintViolation:
      return "Constraint violation";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string message) {
  if (code != StatusCode::kOk) {
    state_ = std::make_unique<State>(State{code, std::move(message)});
  }
}

Status::Status(const Status& other) {
  if (other.state_ != nullptr) {
    state_ = std::make_unique<State>(*other.state_);
  }
}

Status& Status::operator=(const Status& other) {
  if (this != &other) {
    state_ = other.state_ == nullptr ? nullptr
                                     : std::make_unique<State>(*other.state_);
  }
  return *this;
}

const std::string& Status::message() const {
  return state_ == nullptr ? EmptyString() : state_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result = StatusCodeToString(code());
  result += ": ";
  result += message();
  return result;
}

}  // namespace gpivot
