/// \file encoder.hpp
/// Incremental rotary encoder (IRC): converts the motor shaft angle into
/// quadrature counts and index pulses feeding the quadrature-decoder
/// peripheral — the case study's feedback path (100 lines -> 400 counts per
/// revolution, one index pulse per revolution).
///
/// The encoder's count function is the decoder's read hook, so a register
/// read costs no queue events and sees the count at its own instant:
/// periph::angle_to_counts' kernel on the plant's angle, plus the fault
/// slips drawn so far.  Reading never moves the plant's trajectory.  Faults
/// keep a 50 us poll grid: one fault draw per poll instant, in order,
/// whenever it is made.  A decoder that acts on the index pulse (an index
/// interrupt or clear-on-index) keeps it too: one queue wake-up per poll,
/// raising the pulse at the poll instant where the shaft entered a new
/// revolution, with the plant committing on the grid.  Any other decoder
/// counts the revolutions crossed since its last register read at that
/// read and latches the position it reads there.  The plant and the
/// decoder must outlive the encoder.
#pragma once

#include <cstdint>
#include <functional>

#include "periph/quadrature_decoder.hpp"
#include "plant/dc_motor.hpp"
#include "sim/world.hpp"

namespace iecd::plant {

/// The encoder's poll grid: fault draws and index wake-ups.
inline constexpr sim::SimTime kPollInterval = sim::microseconds(50);

struct EncoderParams {
  int lines = 100;  ///< optical lines; counts per rev = 4 * lines
};

class IncrementalEncoder {
 public:
  IncrementalEncoder(sim::World& world, DcMotorSim& motor,
                     periph::QuadDecPeripheral& qdec, EncoderParams params,
                     std::string name = "encoder");

  const std::string& name() const { return name_; }

  /// Detaches from the decoder.
  ~IncrementalEncoder();

  /// Starts counting (idempotent): installs the decoder's read hook and,
  /// for a decoder that acts on the index pulse, the index wake-up and the
  /// plant's commit grid; the destructor clears them.
  void start();

  /// Draws the fault slips of every poll instant up to and including
  /// now().  Call it at the end of a run, so the final instant's draw is
  /// counted.
  void flush();

  int counts_per_rev() const { return params_.lines * 4; }

  /// Fault-injection hook (see src/fault/): called once per poll instant,
  /// it returns the count slip that poll adds to the decoder's input (EMI
  /// edges, missed transitions; 0 = none).  A slip persists as a decoder
  /// offset, exactly what a real miscount does until the next
  /// index/homing.  Null (the default) draws nothing.
  using CountFaultHook = std::function<std::int32_t()>;
  void set_count_fault_hook(CountFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  /// The decoder's input now: the shaft's count plus every slip drawn
  /// for the poll instants before now.
  std::int64_t counts();
  /// Draws the slips of the poll instants up to and including \p through.
  void draw_slips(sim::SimTime through);
  /// The index wake-up: pulses if the shaft entered a new revolution.
  void poll_index();

  sim::World& world_;
  DcMotorSim& motor_;
  periph::QuadDecPeripheral& qdec_;
  EncoderParams params_;
  std::string name_;
  bool running_ = false;
  CountFaultHook fault_hook_;
  sim::SimTime next_draw_ = kPollInterval;
  std::int64_t slips_ = 0;
  sim::EventId index_wakeup_ = 0;
  std::int64_t last_index_rev_ = 0;
};

}  // namespace iecd::plant
