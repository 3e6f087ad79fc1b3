#include "mcu/memory.hpp"

#include "util/strings.hpp"

namespace iecd::mcu {

void MemoryMap::charge_flash(std::uint32_t bytes, const std::string& what) {
  flash_used_ += bytes;
  breakdown_ += util::format("flash %6u B  %s\n", bytes, what.c_str());
}

void MemoryMap::charge_ram(std::uint32_t bytes, const std::string& what) {
  ram_used_ += bytes;
  breakdown_ += util::format("ram   %6u B  %s\n", bytes, what.c_str());
}

double MemoryMap::flash_utilisation() const {
  return capacity_.flash_bytes
             ? static_cast<double>(flash_used_) / capacity_.flash_bytes
             : 0.0;
}

double MemoryMap::ram_utilisation() const {
  return capacity_.ram_bytes
             ? static_cast<double>(ram_used_) / capacity_.ram_bytes
             : 0.0;
}

void MemoryMap::validate(util::DiagnosticList& diagnostics) const {
  if (flash_used_ > capacity_.flash_bytes) {
    diagnostics.error("mcu.memory",
                      util::format("flash overflow: %u B used, %u B available",
                                   flash_used_, capacity_.flash_bytes));
  }
  if (ram_used_ > capacity_.ram_bytes) {
    diagnostics.error("mcu.memory",
                      util::format("RAM overflow: %u B used, %u B available",
                                   ram_used_, capacity_.ram_bytes));
  }
}

std::string MemoryMap::report() const {
  return util::format("flash %u/%u B (%.1f%%), ram %u/%u B (%.1f%%)\n",
                      flash_used_, capacity_.flash_bytes,
                      flash_utilisation() * 100.0, ram_used_,
                      capacity_.ram_bytes, ram_utilisation() * 100.0) +
         breakdown_;
}

}  // namespace iecd::mcu
