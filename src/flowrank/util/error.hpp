// Structured error taxonomy.
//
// The trace/ingest/report layers used to throw bare std::runtime_error,
// which left callers — above all the continuous monitor, which must keep
// running through corrupt input but fail loudly on a wedged shard — no
// way to tell a malformed record from a full disk from a broken internal
// invariant. flowrank::Error carries an explicit category plus the
// subsystem context, and still derives from std::runtime_error so every
// existing catch site (and test expectation) keeps working.
#pragma once

#include <stdexcept>
#include <string>

namespace flowrank {

/// What went wrong, at the granularity callers dispatch on.
enum class ErrorCategory {
  kCorruptInput,  ///< malformed external data (bad magic, truncated record)
  kIo,            ///< the environment failed us (unreadable file, full disk)
  kSpec,          ///< invalid configuration (spec file / CLI grammar)
  kOverload,      ///< declared capacity exceeded under a non-degrading policy
  kStalled,       ///< watchdog: a source or shard missed its deadline
  kInternal,      ///< a library invariant broke (always a bug)
  kCorruptSummary,  ///< a per-agent FlowSummary failed framing/checksum validation
};

/// Stable lower-case name for a category ("corrupt-input", "io", ...).
[[nodiscard]] const char* error_category_name(ErrorCategory category) noexcept;

/// A categorized error. what() reads "context: message [category]" so
/// uncategorized catch sites still log everything.
class Error : public std::runtime_error {
 public:
  Error(ErrorCategory category, std::string context, const std::string& message);

  [[nodiscard]] ErrorCategory category() const noexcept { return category_; }
  /// The subsystem that threw ("trace_io", "ingest", "report", ...).
  [[nodiscard]] const std::string& context() const noexcept { return context_; }
  /// The message without context and category, for a caller that rethrows
  /// it under a more precise context.
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

 private:
  ErrorCategory category_;
  std::string context_;
  std::string message_;
};

}  // namespace flowrank
