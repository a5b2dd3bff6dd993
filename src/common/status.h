#ifndef DMTL_COMMON_STATUS_H_
#define DMTL_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace dmtl {

// Error categories used across the library. Mirrors the RocksDB/Arrow
// convention of a small closed set of codes plus a free-form message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kParseError,        // text could not be parsed into a program/database
  kNotStratifiable,   // program has negation/aggregation inside a cycle
  kUnsafeRule,        // a rule variable cannot be bound
  kEvalError,         // runtime evaluation failure (e.g. division by zero)
  kNotFound,          // queried predicate/fact does not exist
  kResourceExhausted, // horizon/fact budget exceeded
  kDeadlineExceeded,  // wall-clock deadline passed (EngineOptions::deadline)
  kCancelled,         // cooperative cancellation (CancellationToken)
  kInternal,          // invariant violation - a bug in this library
};

// Returns a stable human-readable name, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

// Status carries success or a (code, message) error. No exceptions cross the
// public API; fallible operations return Status or Result<T>.
class Status {
 public:
  // Success.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotStratifiable(std::string msg) {
    return Status(StatusCode::kNotStratifiable, std::move(msg));
  }
  static Status UnsafeRule(std::string msg) {
    return Status(StatusCode::kUnsafeRule, std::move(msg));
  }
  static Status EvalError(std::string msg) {
    return Status(StatusCode::kEvalError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "ParseError: unexpected token ..." - for logs and test output.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Result<T> holds either a value or an error Status (Arrow's Result /
// absl::StatusOr pattern).
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : rep_(std::move(value)) {}
  Result(Status status) : rep_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    if (ok()) return kOkStatus;
    return std::get<Status>(rep_);
  }

  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T value() && { return std::move(std::get<T>(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  // A class constant, not a function-local static: the local's guarded
  // initialization made GCC assume every Result could hold a Status.
  static inline const Status kOkStatus;
  std::variant<T, Status> rep_;
};

// Propagates errors out of the current function (expression statement form).
#define DMTL_RETURN_IF_ERROR(expr)                \
  do {                                            \
    ::dmtl::Status _dmtl_status = (expr);         \
    if (!_dmtl_status.ok()) return _dmtl_status;  \
  } while (false)

// Unwraps a Result<T> into `lhs` or propagates the error.
#define DMTL_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                               \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value();

#define DMTL_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define DMTL_ASSIGN_OR_RETURN_NAME(a, b) DMTL_ASSIGN_OR_RETURN_CONCAT(a, b)
#define DMTL_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  DMTL_ASSIGN_OR_RETURN_IMPL(                                              \
      DMTL_ASSIGN_OR_RETURN_NAME(_dmtl_result_, __LINE__), lhs, rexpr)

}  // namespace dmtl

#endif  // DMTL_COMMON_STATUS_H_
