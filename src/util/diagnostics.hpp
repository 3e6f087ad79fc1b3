/// \file diagnostics.hpp
/// User-facing diagnostic reporting for expected failures (bean validation,
/// model consistency checks, codegen constraints).  Programming errors use
/// exceptions; *expected* errors accumulate into a DiagnosticList so a whole
/// configuration can be checked in one pass, mirroring the immediate
/// verification the Processor Expert "Bean Inspector" performs.
#pragma once

#include <string>
#include <vector>

namespace iecd::util {

enum class Severity {
  kInfo,     ///< informational note (e.g. a derived parameter was adjusted)
  kWarning,  ///< suspicious but usable configuration
  kError,    ///< configuration cannot be used
};

/// Converts a severity to a short uppercase tag ("INFO", "WARN", "ERROR").
const char* to_string(Severity severity);

/// One finding attributed to a component (bean, block, signal, ...).
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string component;  ///< dotted path, e.g. "beans.PWM1.period"
  std::string message;

  /// Renders as "ERROR beans.PWM1.period: message".
  std::string to_string() const;
};

/// Accumulator passed through validation passes.
class DiagnosticList {
 public:
  void info(std::string component, std::string message);
  void warning(std::string component, std::string message);
  void error(std::string component, std::string message);
  /// A numeric config rule: unless \p ok, an error on \p component that
  /// reads "must be <rule> (got <value>)".
  void require(bool ok, std::string component, const char* rule,
               double value);
  void add(Diagnostic diagnostic);

  /// Appends all diagnostics from \p other, with \p prefix put before
  /// each component (e.g. "servo." over a nested config's rule).
  void merge(const DiagnosticList& other, const std::string& prefix = "");

  bool has_errors() const;
  bool has_warnings() const;
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  const std::vector<Diagnostic>& items() const { return items_; }

  /// Multi-line rendering, one diagnostic per line.
  std::string to_string() const;

  void clear() { items_.clear(); }

 private:
  std::vector<Diagnostic> items_;
};

}  // namespace iecd::util
