/// \file serial_fault_hook.hpp
/// Test helper: a serial byte fault hook that corrupts exactly one byte.
#pragma once

#include <cstdint>

#include "sim/serial_link.hpp"

namespace iecd::testhooks {

/// Returns a hook that XORs the first byte it sees with \p xor_mask and
/// passes every later byte through.  Installing it arms it: the byte hit is
/// the next one the channel delivers.
inline sim::SerialChannel::ByteFaultHook flip_first_byte(
    std::uint8_t xor_mask) {
  return [xor_mask, armed = true](std::uint8_t) mutable {
    sim::SerialChannel::ByteFault fault;
    if (armed) {
      fault = {sim::SerialChannel::ByteFaultAction::kCorrupt, xor_mask};
      armed = false;
    }
    return fault;
  };
}

}  // namespace iecd::testhooks
