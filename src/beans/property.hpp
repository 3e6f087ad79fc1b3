/// \file property.hpp
/// Typed, validated bean properties — the data model behind the Bean
/// Inspector (paper Fig. 4.1).  Every settable aspect of a bean is a
/// property with a declared type, range or choice list; writes are checked
/// immediately and rejected with a diagnostic instead of silently
/// configuring the hardware wrong ("the selected parameters are verified by
/// PE").  Derived (read-only) properties carry values the expert system
/// computed, e.g. the achieved timer period.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/diagnostics.hpp"

namespace iecd::beans {

using PropertyValue = std::variant<bool, std::int64_t, double, std::string>;

enum class PropertyType { kBool, kInt, kReal, kEnum, kString };

const char* to_string(PropertyType type);
std::string value_to_string(const PropertyValue& value);

struct PropertySpec {
  std::string name;
  PropertyType type = PropertyType::kString;
  std::string description;
  PropertyValue default_value;
  bool read_only = false;  ///< derived by the expert system, not user-set

  // Range constraints (ints / reals).
  std::optional<std::int64_t> int_min;
  std::optional<std::int64_t> int_max;
  std::optional<double> real_min;
  std::optional<double> real_max;

  // Choice list (enums).
  std::vector<std::string> choices;

  static PropertySpec boolean(std::string name, bool dflt, std::string desc);
  static PropertySpec integer(std::string name, std::int64_t dflt,
                              std::int64_t min, std::int64_t max,
                              std::string desc);
  static PropertySpec real(std::string name, double dflt, double min,
                           double max, std::string desc);
  static PropertySpec enumeration(std::string name, std::string dflt,
                                  std::vector<std::string> choices,
                                  std::string desc);
  static PropertySpec text(std::string name, std::string dflt,
                           std::string desc);

  PropertySpec& derived() {
    read_only = true;
    return *this;
  }
};

/// An ordered collection of properties with immediate validation.
class PropertySet {
 public:
  /// Declares a property; the value starts at the spec default.
  void declare(PropertySpec spec);

  bool has(const std::string& name) const;
  const PropertySpec& spec(const std::string& name) const;
  const std::vector<PropertySpec>& specs() const { return specs_; }

  /// Validated user write.  Appends diagnostics (type mismatch, range,
  /// unknown name, read-only) under component "\p owner.\p name" and
  /// returns true only if the value was accepted.
  bool set(const std::string& owner, const std::string& name,
           const PropertyValue& value, util::DiagnosticList& diagnostics);

  /// Unchecked write used by the expert system for derived properties.
  void set_derived(const std::string& name, const PropertyValue& value);
  /// Puts every derived property back to its declared default, the value
  /// of a bean nothing has been solved for.
  void reset_derived();

  const PropertyValue& get(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_real(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// Bean-Inspector-style listing: one "name = value  (description)" line
  /// per property, derived ones marked.
  std::string render() const;

 private:
  std::size_t index_of(const std::string& name) const;

  std::vector<PropertySpec> specs_;
  std::vector<PropertyValue> values_;
};

}  // namespace iecd::beans
