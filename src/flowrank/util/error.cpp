#include "flowrank/util/error.hpp"

#include <utility>

namespace flowrank {

const char* error_category_name(ErrorCategory category) noexcept {
  switch (category) {
    case ErrorCategory::kCorruptInput: return "corrupt-input";
    case ErrorCategory::kIo: return "io";
    case ErrorCategory::kSpec: return "spec";
    case ErrorCategory::kOverload: return "overload";
    case ErrorCategory::kStalled: return "stalled";
    case ErrorCategory::kInternal: return "internal";
    case ErrorCategory::kCorruptSummary: return "corrupt-summary";
  }
  return "?";
}

Error::Error(ErrorCategory category, std::string context,
             const std::string& message)
    : std::runtime_error(context + ": " + message + " [" +
                         error_category_name(category) + "]"),
      category_(category),
      context_(std::move(context)),
      message_(message) {}

}  // namespace flowrank
