/// \file engine.hpp
/// Simulation engine: multirate discrete execution plus a fixed-step RK4
/// solver for continuous states.  This is the MIL (model-in-the-loop)
/// executor of the development cycle — the whole closed loop, plant and
/// controller, runs here before any code generation happens.
///
/// initialize() compiles the whole model hierarchy into one flat program:
/// every atomic Subsystem's interior, Inport and Outport boundary blocks
/// included, is spliced into its parent's sorted order at the subsystem's
/// position.  Function-call subsystems stay single triggered entries.  The
/// blocks holding continuous states get fixed offsets in one state vector,
/// so an RK4 stage is one state write, one output pass over the stage
/// program and one derivatives pass.
///
/// The stage program is the derivative cone: the state holders and the
/// continuous blocks whose outputs reach a state holder's inputs, found by
/// walking back across Inport/Outport boundaries.  Other continuous blocks
/// run only in the major pass.  A cone block that holds no state, declares
/// Block::output_is_pure() and reads only held values (discrete signals or
/// other such blocks) is step-invariant: it runs once per major step, at
/// the start of integrate() with stage 1's context.
///
/// When every block left in the stage program is a state holder with an
/// exact step (Block::has_exact_step()) whose inputs are all held, the
/// major step is one Block::step_exact() per holder over the base period
/// instead of the RK4 stages.  The servo's DC motor is that case; every
/// other model keeps RK4.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "model/model.hpp"

namespace iecd::model {

struct EngineOptions {
  double stop_time = 1.0;    ///< [s]
  double base_period = 0.0;  ///< [s]; 0 derives it from the discrete rates
  int minor_steps = 4;       ///< RK4 substeps per major step (RK4 path)
};

class Engine {
 public:
  /// Throws std::invalid_argument on minor_steps < 1, a NaN stop_time or a
  /// negative or non-finite base_period.
  Engine(Model& model, EngineOptions options);

  /// Resolves sample times, initializes blocks, compiles the flat program.
  /// Throws std::logic_error on inconsistent rates or algebraic loops.
  void initialize();

  /// Executes one major step.  Returns false once stop_time is reached.
  bool step();

  /// Runs until stop_time.  Throws std::logic_error if it is infinite.
  void run();

  /// Steps until time() >= t (used by the PIL host to advance the plant
  /// model in lockstep with the co-simulation world).  Unlike run(), legal
  /// with an infinite stop_time.
  void advance_to(double t);

  double time() const;
  double base_period() const { return base_period_; }
  std::uint64_t major_steps() const { return major_index_; }

 private:
  /// One entry of the flat program.  Rate checks on the major-step path
  /// are pure integer arithmetic (no double->ns conversions, no
  /// sample-time struct reads).
  struct ExecEntry {
    Block* block = nullptr;
    std::uint64_t period_ticks = 0;  ///< 0 = continuous (runs every step)
    std::uint64_t offset_ticks = 0;
  };

  /// A block's continuous states inside the engine's state vector.
  struct StateSlice {
    Block* block = nullptr;
    std::size_t offset = 0;
    std::size_t count = 0;
  };

  static bool due(const ExecEntry& e, std::uint64_t major) {
    if (e.period_ticks == 0) return true;  // continuous
    if (major < e.offset_ticks) return false;
    if (e.period_ticks == 1) return true;  // base rate
    return (major - e.offset_ticks) % e.period_ticks == 0;
  }

  void resolve_sample_times();
  void build_program();
  void splice(const Model& model, std::uint64_t parent_offset_ticks);
  void build_stage_program();
  bool program_stale() const;
  void eval_derivatives(double t, std::vector<double>& candidate,
                        std::vector<double>& dx);
  void integrate(double t0);

  Model& model_;
  EngineOptions options_;
  double base_period_ = 0.0;
  std::int64_t base_period_ns_ = 0;
  std::uint64_t major_index_ = 0;
  bool initialized_ = false;

  std::vector<ExecEntry> exec_;    ///< the flat program, global sorted order
  /// The step-invariant cone blocks, run once at the start of integrate().
  std::vector<Block*> hoisted_;
  /// The other cone blocks, run in every RK4 stage; both in program order.
  std::vector<Block*> stages_;
  /// Every stage block steps exactly: integrate() calls step_exact().
  bool exact_ = false;
  std::vector<StateSlice> layout_;
  /// Every model spliced into the program with the order epoch it had; a
  /// mismatch on any of them rebuilds the program.
  std::vector<std::pair<const Model*, std::uint64_t>> epochs_;
  std::vector<double> states_;
  std::vector<double> k1_, k2_, k3_, k4_, scratch_;
};

}  // namespace iecd::model
