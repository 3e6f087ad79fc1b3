/// \file json.hpp
/// The two JSON primitives every emitter in the tree shares (Chrome trace
/// export, health reports, campaign reports, evidence manifests and
/// verification reports): string escaping and the deterministic number
/// format.  One definition each, so every document escapes and rounds the
/// same way.
#pragma once

#include <cstdio>
#include <string>

namespace iecd::util {

/// Escapes \p s for a JSON string literal: quote, backslash and the named
/// control characters get their short escapes, any other control character
/// a \u00XX escape; everything else (UTF-8 included) passes through.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A double as a JSON number with nine significant digits (%.9g): the
/// deterministic rendering every golden document is pinned to.
inline std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace iecd::util
