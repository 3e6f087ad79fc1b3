/// \file encoder.hpp
/// Incremental rotary encoder (IRC): converts the motor shaft angle into
/// quadrature counts and index pulses feeding the quadrature-decoder
/// peripheral — the case study's feedback path (100 lines -> 400 counts per
/// revolution, one index pulse per revolution).  Coupling is polled: the
/// plant samples the shaft on its fixed 50 us poll grid (plant::
/// kPollInterval) and the encoder pushes the count delta; at that rate this
/// is indistinguishable from per-edge coupling for control purposes.
///
/// Polls cost no queue events.  The plant delivers them lazily, whenever it
/// integrates past a poll instant, and a decoder register read first brings
/// the plant up to the last poll strictly before the read's instant: a
/// read and a poll at the same instant order read-first, and reading never
/// moves the plant's integration grid.  Only a decoder with an index
/// interrupt keeps one queue wake-up per poll, so the IRQ is raised at its
/// poll instant.  The plant and the decoder must outlive the encoder.
#pragma once

#include <cmath>
#include <functional>

#include "periph/quadrature_decoder.hpp"
#include "plant/dc_motor.hpp"
#include "sim/world.hpp"

namespace iecd::plant {

struct EncoderParams {
  int lines = 100;  ///< optical lines; counts per rev = 4 * lines
};

class IncrementalEncoder {
 public:
  IncrementalEncoder(sim::World& world, DcMotorSim& motor,
                     periph::QuadDecPeripheral& qdec, EncoderParams params,
                     std::string name = "encoder");

  const std::string& name() const { return name_; }

  /// Detaches from the plant and the decoder.
  ~IncrementalEncoder();

  /// Starts sampling (idempotent): installs the plant's sampler and the
  /// decoder's read hook, both cleared again by the destructor.
  void start();

  /// Hands every poll up to and including now() to the decoder.  Call it
  /// at the end of a run, so the final instant's poll (and its fault draw)
  /// is counted.
  void flush();

  int counts_per_rev() const { return params_.lines * 4; }

  /// Fault-injection hook (see src/fault/): maps the true count delta of a
  /// poll to the delta actually pushed into the decoder — EMI edges, missed
  /// transitions.  Consulted once per poll; the encoder keeps tracking the
  /// true shaft count, so an injected glitch is a persistent decoder offset
  /// (exactly what a real miscount does until the next index/homing).  Null
  /// (the default) or an identity hook leaves the count stream untouched.
  using CountFaultHook = std::function<std::int32_t(std::int32_t true_delta)>;
  void set_count_fault_hook(CountFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

 private:
  void sample(double angle);

  sim::World& world_;
  DcMotorSim& motor_;
  periph::QuadDecPeripheral& qdec_;
  EncoderParams params_;
  std::string name_;
  bool running_ = false;
  CountFaultHook fault_hook_;
  sim::EventId index_wakeup_ = 0;
  std::int64_t last_counts_ = 0;
  std::int64_t last_index_rev_ = 0;
};

}  // namespace iecd::plant
