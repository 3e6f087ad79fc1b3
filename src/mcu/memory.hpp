/// \file memory.hpp
/// Program/data memory accounting for the simulated MCU.  The PIL phase of
/// the paper reports "memory and stack requirements"; the code generator
/// charges flash (code + const tables) and RAM (signal arena + states +
/// stack) against the derivative's capacity and the expert system flags
/// overflows.
#pragma once

#include <cstdint>
#include <string>

#include "util/diagnostics.hpp"

namespace iecd::mcu {

struct MemoryCapacity {
  std::uint32_t flash_bytes = 0;
  std::uint32_t ram_bytes = 0;
};

class MemoryMap {
 public:
  explicit MemoryMap(MemoryCapacity capacity) : capacity_(capacity) {}

  void charge_flash(std::uint32_t bytes, const std::string& what);
  void charge_ram(std::uint32_t bytes, const std::string& what);

  std::uint32_t flash_used() const { return flash_used_; }
  std::uint32_t ram_used() const { return ram_used_; }
  const MemoryCapacity& capacity() const { return capacity_; }

  double flash_utilisation() const;
  double ram_utilisation() const;

  /// Emits errors for over-capacity sections.
  void validate(util::DiagnosticList& diagnostics) const;

  /// Human-readable footprint summary.
  std::string report() const;

 private:
  MemoryCapacity capacity_;
  std::uint32_t flash_used_ = 0;
  std::uint32_t ram_used_ = 0;
  std::string breakdown_;
};

}  // namespace iecd::mcu
