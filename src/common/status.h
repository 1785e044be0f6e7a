// Status and Result<T>: error handling primitives used throughout tfrkv.
//
// We follow the convention of returning a Status (or Result<T>) from every
// operation that can fail for a reason the caller is expected to handle
// (node unavailable, region offline, transaction conflict, ...). Exceptions
// are reserved for programming errors.
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace tfr {

enum class Code {
  kOk = 0,
  kNotFound,         // key / file / znode does not exist
  kAlreadyExists,    // create of an existing object
  kInvalidArgument,  // caller error detectable from arguments alone
  kUnavailable,      // node crashed / region offline / session expired; retryable
  kAborted,          // transaction aborted (conflict or explicit)
  kTimeout,          // operation exceeded its deadline
  kClosed,           // object has been shut down
  kCorruption,       // stored data failed to decode
  kInternal,         // invariant violation inside the library
  kWrongEpoch,       // write bears a stale ownership epoch; relocate and retry
  kServerDown,       // the answering server has crashed: proof, not silence.
                     // A refinement of kUnavailable — is_unavailable() holds
                     // too, so every retry loop retries it
};

/// Human-readable name of a status code ("Ok", "NotFound", ...).
std::string_view code_name(Code c);

/// A cheap, copyable success-or-error value.
class [[nodiscard]] Status {
 public:
  Status() = default;  // Ok
  Status(Code code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status not_found(std::string m) { return {Code::kNotFound, std::move(m)}; }
  static Status already_exists(std::string m) { return {Code::kAlreadyExists, std::move(m)}; }
  static Status invalid_argument(std::string m) { return {Code::kInvalidArgument, std::move(m)}; }
  static Status unavailable(std::string m) { return {Code::kUnavailable, std::move(m)}; }
  static Status aborted(std::string m) { return {Code::kAborted, std::move(m)}; }
  static Status timeout(std::string m) { return {Code::kTimeout, std::move(m)}; }
  static Status closed(std::string m) { return {Code::kClosed, std::move(m)}; }
  static Status corruption(std::string m) { return {Code::kCorruption, std::move(m)}; }
  static Status internal(std::string m) { return {Code::kInternal, std::move(m)}; }
  static Status wrong_epoch(std::string m) { return {Code::kWrongEpoch, std::move(m)}; }
  static Status server_down(std::string m) { return {Code::kServerDown, std::move(m)}; }

  bool is_ok() const { return code_ == Code::kOk; }
  explicit operator bool() const { return is_ok(); }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  bool is_not_found() const { return code_ == Code::kNotFound; }
  bool is_unavailable() const {
    return code_ == Code::kUnavailable || code_ == Code::kServerDown;
  }
  bool is_server_down() const { return code_ == Code::kServerDown; }
  bool is_aborted() const { return code_ == Code::kAborted; }
  bool is_timeout() const { return code_ == Code::kTimeout; }
  bool is_wrong_epoch() const { return code_ == Code::kWrongEpoch; }

  /// "Ok" or "NotFound: no such row".
  std::string to_string() const;

 private:
  Code code_ = Code::kOk;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) { return os << s.to_string(); }

/// A value or a Status explaining why there is none.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}               // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {        // NOLINT(google-explicit-constructor)
    assert(!status_.is_ok() && "Result constructed from Ok status without a value");
  }

  bool is_ok() const { return value_.has_value(); }
  explicit operator bool() const { return is_ok(); }

  const Status& status() const { return status_; }

  T& value() & {
    assert(is_ok());
    return *value_;
  }
  const T& value() const& {
    assert(is_ok());
    return *value_;
  }
  T&& value() && {
    assert(is_ok());
    return std::move(*value_);
  }

  T value_or(T fallback) const { return value_.has_value() ? *value_ : std::move(fallback); }

 private:
  std::optional<T> value_;
  Status status_;  // Ok iff value_ present
};

/// Propagate a non-ok Status to the caller.
#define TFR_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::tfr::Status _tfr_status = (expr);            \
    if (!_tfr_status.is_ok()) return _tfr_status;  \
  } while (0)

namespace internal {
// Overload set so TFR_IGNORE_STATUS works on Status and Result<T> alike.
inline void ignore_status(const Status&) {}
template <typename T>
void ignore_status(const Result<T>&) {}
}  // namespace internal

/// The only sanctioned way to drop a Status/Result on the floor. `why` must
/// be a string literal saying in one line why ignoring the error is correct
/// at this site ("best-effort X; Y is the backstop"). scripts/lint.sh
/// rejects raw `(void)call()` casts in src/, so every discard is greppable
/// (`git grep TFR_IGNORE_STATUS`) and carries its justification.
#define TFR_IGNORE_STATUS(expr, why)                                            \
  do {                                                                          \
    static_assert(sizeof(why "") > 1, "TFR_IGNORE_STATUS needs a non-empty "    \
                                      "string-literal justification");          \
    ::tfr::internal::ignore_status((expr));                                     \
  } while (0)

}  // namespace tfr
