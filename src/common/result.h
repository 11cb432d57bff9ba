// Typed errors and graceful degradation (DESIGN.md §12).
//
// The data-dependent paths of the authentication pipeline — onset
// detection, preprocessing, extraction, verification, persistence — see
// whatever a real earphone delivers: dropped samples, clipped axes, NaN
// bursts, truncated files. Those are not programmer errors, so they must
// not surface as exceptions racing up through worker threads; they are
// *reject reasons* a caller routes on (ask the user to retry, fall back
// to the backup store generation, alert on a saturated sensor).
//
// common::Result<T> is a lightweight ok-or-error sum type:
//
//   common::Result<SignalArray> r = prep.try_process(recording);
//   if (!r.ok()) {
//     log(r.error().message);          // human-readable detail
//     switch (r.error().code) { ... }  // machine-routable taxonomy
//   }
//
// Every Error constructed through make_error() increments the
// "fault.reject.<code>" obs counter, so degradation is visible in every
// BENCH_*.json report without call sites doing their own accounting.
//
// Two throwing entry points remain as thin wrappers that raise() the
// error: Preprocessor::process (training-time data collection) and
// MandiPass::rekey (an existing caller catches its SignalError); DESIGN.md
// §12 gives the reasons. MANDIPASS_EXPECTS stays the tool for genuine
// precondition violations (programmer error).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/error.h"

namespace mandipass::common {

/// The fault taxonomy. Names are stable: they key the
/// "fault.reject.<name>" obs counters and appear in bench baselines.
enum class ErrorCode : std::uint8_t {
  InvalidInput,       ///< malformed request (empty probe, ragged axes, bad rate)
  SegmentTooShort,    ///< fewer than n samples available after the onset
  OnsetNotFound,      ///< no vibration onset in the recording
  SensorSaturated,    ///< axis pinned at full scale — clipped capture
  NonFiniteSample,    ///< NaN/Inf in the data-dependent path
  UnknownUser,        ///< no enrolment for the requested user id
  DimensionMismatch,  ///< probe/template length disagreement (corrupt store?)
  IoError,            ///< transient I/O failure (EIO-class; retryable)
  NoSpace,            ///< persistent I/O failure (ENOSPC-class)
  CorruptData,        ///< checksum/format failure on persisted state
  DeadlineExceeded,   ///< request budget expired before the work ran
  Overloaded,         ///< load shed: admission queue full or circuit open
};

/// Stable snake_case name, e.g. "onset_not_found".
std::string_view error_code_name(ErrorCode code);

/// The obs counter fed by make_error for this code
/// ("fault.reject.<name>").
std::string_view reject_counter_name(ErrorCode code);

/// A structured reject reason: taxonomy code + human-readable detail.
struct [[nodiscard]] Error {
  ErrorCode code = ErrorCode::InvalidInput;
  std::string message;
};

/// Builds an Error and increments its fault.reject.<code> counter. All
/// reject paths construct through this so degradation is observable.
Error make_error(ErrorCode code, std::string message);

/// Throws the legacy exception matching `error` (SignalError for signal-
/// quality codes, SerializationError for persistence codes). Used by the
/// compatibility wrappers around the Result-returning APIs.
[[noreturn]] void raise(const Error& error);

/// Ok-or-error sum type. Deliberately minimal: construction is implicit
/// from either alternative, access asserts the active one.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(google-explicit-constructor)
  Result(Error error) : v_(std::move(error)) {}      // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  /// Active alternative accessors; MANDIPASS_EXPECTS the right state.
  const T& value() const& {
    MANDIPASS_EXPECTS(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    MANDIPASS_EXPECTS(ok());
    return std::get<T>(v_);
  }
  /// Moves the value out (the common "consume on success" form).
  T take() {
    MANDIPASS_EXPECTS(ok());
    return std::move(std::get<T>(v_));
  }
  const Error& error() const {
    MANDIPASS_EXPECTS(!ok());
    return std::get<Error>(v_);
  }
  ErrorCode code() const { return error().code; }

 private:
  std::variant<T, Error> v_;
};

/// Result<void>: success carries no payload.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)), ok_(false) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  const Error& error() const {
    MANDIPASS_EXPECTS(!ok_);
    return error_;
  }
  ErrorCode code() const { return error().code; }

 private:
  Error error_;
  bool ok_ = true;
};

}  // namespace mandipass::common
