// Status / Result error-handling primitives, modeled after Apache Arrow.
//
// Library code in mgardp does not throw exceptions across public API
// boundaries: fallible operations return Status (no payload) or Result<T>
// (payload or error). Use the MGARDP_RETURN_NOT_OK / MGARDP_ASSIGN_OR_RETURN
// macros to propagate failures.

#ifndef MGARDP_UTIL_STATUS_H_
#define MGARDP_UTIL_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

namespace mgardp {

// Machine-readable category for a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kIOError,
  kFailedPrecondition,
  kInternal,
  kDataLoss,
  kOverloaded,
};

// Returns a short human-readable name for `code` (e.g. "Invalid argument").
const char* StatusCodeToString(StatusCode code);

// A success-or-error value without payload.
class Status {
 public:
  // Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  // Unrecoverable corruption of stored data (checksum mismatch, torn
  // write): unlike kIOError it is permanent, so retrying is pointless.
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  // The service shed this request at admission (queue full, tenant over
  // quota). The work was never started; the client may back off and
  // resubmit. Distinct from kFailedPrecondition so load shedding is
  // machine-distinguishable from caller bugs.
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "Invalid argument: why" or "OK".
  std::string ToString() const;

  // Aborts the process with a diagnostic if this status is not OK.
  // Intended for callers that have already established success is invariant.
  void Abort(const char* context = nullptr) const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// A value of type T or a Status describing why it is absent.
template <typename T>
class Result {
 public:
  // Implicit construction from a value or an error keeps call sites terse:
  //   Result<int> F() { if (bad) return Status::Invalid("..."); return 42; }
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    if (std::get<Status>(repr_).ok()) {
      // An OK status carries no value; treat as a programming error.
      std::cerr << "Result constructed from OK status" << std::endl;
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(repr_);
  }

  // Access the contained value. Must only be called when ok().
  T& value() & { return std::get<T>(repr_); }
  const T& value() const& { return std::get<T>(repr_); }
  T&& value() && { return std::get<T>(std::move(repr_)); }

  // Returns the value or aborts with the error message. For tests and
  // examples where failure is unrecoverable anyway.
  T ValueOrDie() && {
    if (!ok()) {
      status().Abort("Result::ValueOrDie");
    }
    return std::get<T>(std::move(repr_));
  }

 private:
  std::variant<Status, T> repr_;
};

namespace internal {
// Token pasting helpers for unique temporary names inside macros.
#define MGARDP_CONCAT_IMPL(x, y) x##y
#define MGARDP_CONCAT(x, y) MGARDP_CONCAT_IMPL(x, y)
}  // namespace internal

// Uniform way to pull a Status out of a Status or a Result<T>.
inline const Status& GetStatus(const Status& s) { return s; }
template <typename T>
const Status& GetStatus(const Result<T>& r) {
  return r.status();
}

// Evaluates `expr` (a Status or Result) and returns its error from the
// current function if it failed.
#define MGARDP_RETURN_NOT_OK(expr)                        \
  do {                                                    \
    auto&& MGARDP_CONCAT(_st_, __LINE__) = (expr);        \
    if (!MGARDP_CONCAT(_st_, __LINE__).ok()) {            \
      return GetStatus(MGARDP_CONCAT(_st_, __LINE__));    \
    }                                                     \
  } while (false)

// Evaluates a Result expression; on success moves the value into `lhs`,
// on failure returns the error. `lhs` may be a declaration.
#define MGARDP_ASSIGN_OR_RETURN(lhs, rexpr)                 \
  MGARDP_ASSIGN_OR_RETURN_IMPL(                             \
      MGARDP_CONCAT(_result_, __LINE__), lhs, rexpr)

#define MGARDP_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                 \
  if (!result_name.ok()) {                                    \
    return result_name.status();                              \
  }                                                           \
  lhs = std::move(result_name).value()

}  // namespace mgardp

#endif  // MGARDP_UTIL_STATUS_H_
