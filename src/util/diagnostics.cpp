#include "util/diagnostics.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace iecd::util {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarning:
      return "WARN";
    case Severity::kError:
      return "ERROR";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  std::string out = iecd::util::to_string(severity);
  out += ' ';
  out += component;
  out += ": ";
  out += message;
  return out;
}

void DiagnosticList::info(std::string component, std::string message) {
  items_.push_back({Severity::kInfo, std::move(component), std::move(message)});
}

void DiagnosticList::warning(std::string component, std::string message) {
  items_.push_back(
      {Severity::kWarning, std::move(component), std::move(message)});
}

void DiagnosticList::error(std::string component, std::string message) {
  items_.push_back(
      {Severity::kError, std::move(component), std::move(message)});
}

void DiagnosticList::require(bool ok, std::string component, const char* rule,
                             double value) {
  if (!ok) {
    error(std::move(component), format("must be %s (got %g)", rule, value));
  }
}

void DiagnosticList::add(Diagnostic diagnostic) {
  items_.push_back(std::move(diagnostic));
}

void DiagnosticList::merge(const DiagnosticList& other,
                           const std::string& prefix) {
  for (const Diagnostic& item : other.items_) {
    items_.push_back({item.severity, prefix + item.component, item.message});
  }
}

bool DiagnosticList::has_errors() const {
  return std::any_of(items_.begin(), items_.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
}

bool DiagnosticList::has_warnings() const {
  return std::any_of(items_.begin(), items_.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kWarning;
  });
}

std::string DiagnosticList::to_string() const {
  std::string out;
  for (const Diagnostic& d : items_) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace iecd::util
