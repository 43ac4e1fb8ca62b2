// Typed error taxonomy shared by every module.
//
// Yardstick's offline phase is handed artifacts that outlive the process
// that produced them (archived traces, network files) and is asked
// open-ended questions whose cost is unbounded in the worst case. Callers
// therefore need to distinguish *why* an operation failed — bad input,
// corrupt artifact, exhausted budget, cancellation, I/O — without parsing
// exception messages. Every throw in the library carries one of the codes
// below plus structured context (input source/line, the budget that
// tripped).
//
// Hierarchy:
//   * InvalidInputError derives from std::invalid_argument (precondition
//     violations on API calls and malformed *user-authored* input);
//   * everything else derives from StatusError -> std::runtime_error
//     (environmental/runtime failures).
// Both branches expose code() so a single catch can dispatch, and both
// stay catchable by the standard base classes existing callers use.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace yardstick::ys {

enum class Error : uint8_t {
  Ok = 0,
  /// Caller passed something semantically invalid (bad parameters,
  /// malformed network file, out-of-range prefix).
  InvalidInput,
  /// A persisted coverage trace failed validation (truncated, checksum
  /// mismatch, hostile node structure).
  CorruptTrace,
  /// A resource budget (wall-clock deadline, BDD node cap) was exhausted.
  BudgetExceeded,
  /// A cooperative cancellation flag was raised.
  Cancelled,
  /// The operating system refused an I/O operation.
  IoError,
  /// A bug: an invariant the library promises was violated.
  Internal,
};

[[nodiscard]] inline const char* to_string(Error e) {
  switch (e) {
    case Error::Ok: return "ok";
    case Error::InvalidInput: return "invalid-input";
    case Error::CorruptTrace: return "corrupt-trace";
    case Error::BudgetExceeded: return "budget-exceeded";
    case Error::Cancelled: return "cancelled";
    case Error::IoError: return "io-error";
    case Error::Internal: return "internal";
  }
  return "?";
}

/// Structured context attached to a typed error. Fields are optional;
/// empty/zero means "not applicable".
struct ErrorContext {
  /// Input source: a file path or a human-readable input name.
  std::string source{};
  /// 1-based line of the input at fault (0 = not line-addressable).
  size_t line = 0;
  /// Description of the budget that tripped ("deadline 5s", "bdd-nodes 10000").
  std::string budget{};
};

namespace detail {
inline std::string render(Error code, const std::string& message,
                          const ErrorContext& ctx) {
  std::string out(to_string(code));
  out += ": ";
  if (!ctx.source.empty()) {
    out += ctx.source;
    if (ctx.line != 0) out += ", line " + std::to_string(ctx.line);
    out += ": ";
  }
  out += message;
  if (!ctx.budget.empty()) out += " [budget: " + ctx.budget + "]";
  return out;
}
}  // namespace detail

/// Base of the runtime branch of the taxonomy.
class StatusError : public std::runtime_error {
 public:
  StatusError(Error code, const std::string& message, ErrorContext ctx = {})
      : std::runtime_error(detail::render(code, message, ctx)),
        code_(code),
        context_(std::move(ctx)) {}

  [[nodiscard]] Error code() const { return code_; }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  Error code_;
  ErrorContext context_;
};

/// A persisted trace failed validation. `Detail` distinguishes an input
/// that simply ran out (interrupted transfer, partial write by a crashed
/// producer) from one whose bytes are present but wrong (bit rot, hostile
/// tampering) — operators handle the two differently.
class CorruptTraceError : public StatusError {
 public:
  enum class Detail : uint8_t { Truncated, Corrupted };

  CorruptTraceError(Detail detail, const std::string& message, ErrorContext ctx = {})
      : StatusError(Error::CorruptTrace,
                    std::string(detail == Detail::Truncated ? "(truncated) " : "(corrupted) ") +
                        message,
                    std::move(ctx)),
        detail_(detail),
        bare_message_(message) {}

  [[nodiscard]] Detail detail() const { return detail_; }

  /// The message without the code/source/detail prefixes — for callers
  /// that re-raise with richer context (e.g. adding the file path).
  [[nodiscard]] const std::string& bare_message() const { return bare_message_; }

 private:
  Detail detail_;
  std::string bare_message_;
};

/// A resource budget tripped; context().budget names which one.
class BudgetExceededError : public StatusError {
 public:
  explicit BudgetExceededError(const std::string& budget_description)
      : StatusError(Error::BudgetExceeded, "resource budget exhausted",
                    ErrorContext{.source = {}, .line = 0, .budget = budget_description}) {}
};

/// The caller's cooperative cancel flag was raised.
class CancelledError : public StatusError {
 public:
  explicit CancelledError(const std::string& where)
      : StatusError(Error::Cancelled, "operation cancelled at " + where) {}
};

/// The operating system refused an I/O operation.
class IoError : public StatusError {
 public:
  explicit IoError(const std::string& message, ErrorContext ctx = {})
      : StatusError(Error::IoError, message, std::move(ctx)) {}
};

/// Precondition violation; stays catchable as std::invalid_argument so
/// long-standing callers (and tests) keep working.
class InvalidInputError : public std::invalid_argument {
 public:
  explicit InvalidInputError(const std::string& message, ErrorContext ctx = {})
      : std::invalid_argument(detail::render(Error::InvalidInput, message, ctx)),
        context_(std::move(ctx)) {}

  [[nodiscard]] Error code() const { return Error::InvalidInput; }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  ErrorContext context_;
};

/// True for the codes on which partial results are acceptable: the caller
/// asked us to stop, so degrading gracefully (truncated flag) is correct;
/// every other code is a hard failure.
[[nodiscard]] inline bool is_resource_exhaustion(Error e) {
  return e == Error::BudgetExceeded || e == Error::Cancelled;
}

/// Runs fn. Returns true when a resource budget stopped it; any other
/// failure propagates.
template <typename Fn>
bool exhausted_during(Fn&& fn) {
  try {
    fn();
  } catch (const StatusError& e) {
    if (!is_resource_exhaustion(e.code())) throw;
    return true;
  }
  return false;
}

}  // namespace yardstick::ys
