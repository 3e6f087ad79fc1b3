#include "beans/property.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace iecd::beans {

const char* to_string(PropertyType type) {
  switch (type) {
    case PropertyType::kBool:
      return "bool";
    case PropertyType::kInt:
      return "int";
    case PropertyType::kReal:
      return "real";
    case PropertyType::kEnum:
      return "enum";
    case PropertyType::kString:
      return "string";
  }
  return "?";
}

std::string value_to_string(const PropertyValue& value) {
  if (const auto* b = std::get_if<bool>(&value)) return *b ? "true" : "false";
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return std::to_string(*i);
  }
  if (const auto* r = std::get_if<double>(&value)) {
    return util::format("%.9g", *r);
  }
  return std::get<std::string>(value);
}

PropertySpec PropertySpec::boolean(std::string name, bool dflt,
                                   std::string desc) {
  PropertySpec s;
  s.name = std::move(name);
  s.type = PropertyType::kBool;
  s.default_value = dflt;
  s.description = std::move(desc);
  return s;
}

PropertySpec PropertySpec::integer(std::string name, std::int64_t dflt,
                                   std::int64_t min, std::int64_t max,
                                   std::string desc) {
  PropertySpec s;
  s.name = std::move(name);
  s.type = PropertyType::kInt;
  s.default_value = dflt;
  s.int_min = min;
  s.int_max = max;
  s.description = std::move(desc);
  return s;
}

PropertySpec PropertySpec::real(std::string name, double dflt, double min,
                                double max, std::string desc) {
  PropertySpec s;
  s.name = std::move(name);
  s.type = PropertyType::kReal;
  s.default_value = dflt;
  s.real_min = min;
  s.real_max = max;
  s.description = std::move(desc);
  return s;
}

PropertySpec PropertySpec::enumeration(std::string name, std::string dflt,
                                       std::vector<std::string> choices,
                                       std::string desc) {
  PropertySpec s;
  s.name = std::move(name);
  s.type = PropertyType::kEnum;
  s.default_value = std::move(dflt);
  s.choices = std::move(choices);
  s.description = std::move(desc);
  return s;
}

PropertySpec PropertySpec::text(std::string name, std::string dflt,
                                std::string desc) {
  PropertySpec s;
  s.name = std::move(name);
  s.type = PropertyType::kString;
  s.default_value = std::move(dflt);
  s.description = std::move(desc);
  return s;
}

void PropertySet::declare(PropertySpec spec) {
  if (has(spec.name)) {
    throw std::logic_error("PropertySet: duplicate property " + spec.name);
  }
  values_.push_back(spec.default_value);
  specs_.push_back(std::move(spec));
}

bool PropertySet::has(const std::string& name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return true;
  }
  return false;
}

std::size_t PropertySet::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name == name) return i;
  }
  throw std::invalid_argument("PropertySet: unknown property " + name);
}

const PropertySpec& PropertySet::spec(const std::string& name) const {
  return specs_[index_of(name)];
}

namespace {

bool type_matches(const PropertySpec& spec, const PropertyValue& value) {
  switch (spec.type) {
    case PropertyType::kBool:
      return std::holds_alternative<bool>(value);
    case PropertyType::kInt:
      return std::holds_alternative<std::int64_t>(value);
    case PropertyType::kReal:
      // Accept ints for real-typed properties (promoted).
      return std::holds_alternative<double>(value) ||
             std::holds_alternative<std::int64_t>(value);
    case PropertyType::kEnum:
    case PropertyType::kString:
      return std::holds_alternative<std::string>(value);
  }
  return false;
}

}  // namespace

bool PropertySet::set(const std::string& owner, const std::string& name,
                      const PropertyValue& value,
                      util::DiagnosticList& diagnostics) {
  const std::string component = owner + "." + name;
  if (!has(name)) {
    diagnostics.error(component, "unknown property");
    return false;
  }
  const std::size_t idx = index_of(name);
  const PropertySpec& s = specs_[idx];
  if (s.read_only) {
    diagnostics.error(component, "property is derived (read-only)");
    return false;
  }
  if (!type_matches(s, value)) {
    diagnostics.error(component,
                      util::format("type mismatch: expected %s",
                                   to_string(s.type)));
    return false;
  }
  PropertyValue stored = value;
  if (s.type == PropertyType::kReal &&
      std::holds_alternative<std::int64_t>(value)) {
    stored = static_cast<double>(std::get<std::int64_t>(value));
  }
  if (s.type == PropertyType::kInt) {
    const std::int64_t v = std::get<std::int64_t>(stored);
    if ((s.int_min && v < *s.int_min) || (s.int_max && v > *s.int_max)) {
      diagnostics.error(
          component,
          util::format("value %lld out of range [%lld, %lld]",
                       static_cast<long long>(v),
                       static_cast<long long>(s.int_min.value_or(INT64_MIN)),
                       static_cast<long long>(s.int_max.value_or(INT64_MAX))));
      return false;
    }
  }
  if (s.type == PropertyType::kReal) {
    const double v = std::get<double>(stored);
    if ((s.real_min && v < *s.real_min) || (s.real_max && v > *s.real_max)) {
      diagnostics.error(component,
                        util::format("value %g out of range [%g, %g]", v,
                                     s.real_min.value_or(-1e308),
                                     s.real_max.value_or(1e308)));
      return false;
    }
  }
  if (s.type == PropertyType::kEnum) {
    const std::string& v = std::get<std::string>(stored);
    bool ok = false;
    for (const auto& c : s.choices) {
      if (c == v) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      diagnostics.error(component, "invalid choice '" + v + "' (expected " +
                                       util::join(s.choices, " | ") + ")");
      return false;
    }
  }
  values_[idx] = std::move(stored);
  return true;
}

void PropertySet::set_derived(const std::string& name,
                              const PropertyValue& value) {
  values_[index_of(name)] = value;
}

void PropertySet::reset_derived() {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].read_only) values_[i] = specs_[i].default_value;
  }
}

const PropertyValue& PropertySet::get(const std::string& name) const {
  return values_[index_of(name)];
}

bool PropertySet::get_bool(const std::string& name) const {
  return std::get<bool>(get(name));
}

std::int64_t PropertySet::get_int(const std::string& name) const {
  return std::get<std::int64_t>(get(name));
}

double PropertySet::get_real(const std::string& name) const {
  const PropertyValue& v = get(name);
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  return std::get<double>(v);
}

const std::string& PropertySet::get_string(const std::string& name) const {
  return std::get<std::string>(get(name));
}

std::string PropertySet::render() const {
  std::string out;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    out += util::format("  %-24s = %-16s %s%s\n", specs_[i].name.c_str(),
                        value_to_string(values_[i]).c_str(),
                        specs_[i].read_only ? "[derived] " : "",
                        specs_[i].description.c_str());
  }
  return out;
}

}  // namespace iecd::beans
