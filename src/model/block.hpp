/// \file block.hpp
/// Block base class of the data-flow modelling environment.  A block has
/// typed output ports, input connections, a sample time, optional internal
/// continuous states, and three execution hooks mirroring Simulink's
/// semantics: output() (compute outputs), update() (advance discrete
/// state), derivatives() (continuous state slopes for the solver).  Blocks
/// also carry the code-generation hooks: per-step operation counts for the
/// target cost model, state/output storage sizes, and a C emitter (the
/// per-block "TLC script").
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mcu/cost_model.hpp"
#include "model/value.hpp"

namespace iecd::model {

class Block;
class Model;

/// Context handed to every execution hook.
struct SimContext {
  double t = 0.0;      ///< current simulated time [s]
  double dt = 0.0;     ///< base (major) step of the engine [s]
  bool minor = false;  ///< true inside solver minor (derivative) evaluations
};

struct SampleTime {
  enum class Kind { kContinuous, kDiscrete, kInherited };
  Kind kind = Kind::kInherited;
  double period = 0.0;  ///< [s], kDiscrete only
  double offset = 0.0;  ///< [s], kDiscrete only

  static SampleTime continuous() {
    return {Kind::kContinuous, 0.0, 0.0};
  }
  static SampleTime discrete(double period, double offset = 0.0) {
    return {Kind::kDiscrete, period, offset};
  }
  static SampleTime inherited() { return {Kind::kInherited, 0.0, 0.0}; }
};

/// Name resolution context for the per-block C emitters: maps ports to the
/// C variable names the generator assigned.
struct EmitContext {
  std::vector<std::string> inputs;   ///< C expression per input port
  std::vector<std::string> outputs;  ///< C lvalue per output port
  std::string state_prefix;          ///< prefix for state variables
  bool fixed_point = false;          ///< emit integer arithmetic
};

class Block {
 public:
  Block(std::string name, int inputs, int outputs);
  /// Unbinds every input this block drives, so a consumer in any model
  /// reads 0 once its driver is gone.
  virtual ~Block();

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  const std::string& name() const { return name_; }
  void rename(std::string name) { name_ = std::move(name); }

  /// Block type for reports/emitters, e.g. "Gain".
  virtual const char* type_name() const = 0;

  int input_count() const { return static_cast<int>(inputs_.size()); }
  int output_count() const { return static_cast<int>(outputs_.size()); }

  // --- Types ---
  void set_output_type(int port, DataType type,
                       std::optional<fixpt::FixedFormat> fmt = std::nullopt);
  DataType output_type(int port) const;
  const std::optional<fixpt::FixedFormat>& output_format(int port) const;

  // --- Sample time ---
  SampleTime sample_time() const { return sample_time_; }
  void set_sample_time(SampleTime st) { sample_time_ = st; }
  /// Engine-resolved effective period (for discrete state updates).
  double resolved_period() const { return resolved_period_; }
  void set_resolved_period(double p) { resolved_period_ = p; }
  /// Engine-resolved continuity (after inheritance propagation).
  bool resolved_continuous() const { return resolved_continuous_; }
  void set_resolved_continuous(bool c) { resolved_continuous_ = c; }

  /// False for blocks whose outputs do not depend on current inputs
  /// (UnitDelay, Integrator, ...) — these break algebraic loops.
  virtual bool has_direct_feedthrough() const { return true; }

  // --- Execution hooks ---
  virtual void initialize(const SimContext& ctx);
  virtual void output(const SimContext& ctx) = 0;
  virtual void update(const SimContext& ctx) { (void)ctx; }
  /// The model the engine splices into its flat program in place of this
  /// block (an atomic subsystem's interior); nullptr for every other block.
  virtual const Model* spliced_interior() const { return nullptr; }
  /// True when output() is a pure function of the inputs and parameters:
  /// it reads neither the context nor any state of its own.  The engine
  /// runs such a block once per major step instead of in every RK4 stage
  /// when all it reads is held across the stages (see model/engine.hpp).
  virtual bool output_is_pure() const { return false; }
  /// The block whose output() writes output \p port as the flat program
  /// runs: a spliced subsystem's bound Outport, this block otherwise.
  virtual const Block* port_writer(int port) const {
    (void)port;
    return this;
  }
  /// Appends the blocks whose outputs this block's output() reads, each
  /// seen through port_writer(); an Inport reads its subsystem's input.
  virtual void append_sources(std::vector<const Block*>& into) const;

  // --- Continuous states ---
  virtual int continuous_state_count() const { return 0; }
  virtual void read_states(std::span<double> into) const { (void)into; }
  virtual void write_states(std::span<const double> from) { (void)from; }
  virtual void derivatives(const SimContext& ctx, std::span<double> dx) const {
    (void)ctx;
    (void)dx;
  }
  /// True when step_exact() is implemented.  The engine then advances this
  /// block by one exact step per major step instead of RK4, provided every
  /// block in its stage program is such a state holder reading only held
  /// values (see model/engine.hpp).
  virtual bool has_exact_step() const { return false; }
  /// Advances the continuous states from ctx.t by \p h with every input
  /// held at its current value, and leaves the outputs showing the new
  /// state.
  virtual void step_exact(const SimContext& ctx, double h) {
    (void)ctx;
    (void)h;
  }

  // --- Code generation hooks ---
  /// Elementary operations one step of this block costs on the target.
  virtual mcu::OpCounts step_ops(bool fixed_point) const;
  /// Discrete state bytes this block needs in the generated application.
  virtual std::uint32_t state_bytes() const { return 0; }
  /// Emits the C statement(s) computing this block's outputs.
  virtual std::string emit_c(const EmitContext& ctx) const;
  /// Emits the C statement(s) advancing this block's discrete state; they
  /// run after ALL outputs of the step, exactly like the engine's update
  /// phase (empty for stateless blocks).
  virtual std::string emit_c_update(const EmitContext& ctx) const {
    (void)ctx;
    return {};
  }

  // --- Port access ---
  /// Latched output value.  It lives in this block for the block's whole
  /// lifetime, so the reference stays valid across graph edits and runs.
  const Value& out(int port) const {
    if (static_cast<std::size_t>(port) >= outputs_.size()) {
      throw_bad_port(port, /*output=*/true);
    }
    return outputs_[static_cast<std::size_t>(port)];
  }
  /// Latched value at the block feeding input \p port (engine executed it
  /// earlier in sorted order).  Unconnected inputs read 0.0.
  Value in_value(int port) const { return in_ref(port); }
  bool input_connected(int port) const;

  struct Connection {
    const Block* src = nullptr;
    int src_port = 0;
  };
  const Connection& input(int port) const;

 protected:
  /// Writes an output, quantizing to the port's declared type.  The
  /// dominant double->double case is a single store.
  void set_out(int port, double real) {
    const auto p = static_cast<std::size_t>(port);
    if (p >= outputs_.size()) throw_bad_port(port, /*output=*/true);
    if (out_types_[p] == DataType::kDouble) {
      outputs_[p].assign_double(real);
    } else {
      outputs_[p] = Value::quantize(real, out_types_[p], out_fmts_[p]);
    }
  }
  /// Writes a whole value: a plain copy when it already has the port's
  /// type, a conversion through double otherwise.
  void set_out_value(int port, const Value& v) {
    const auto p = static_cast<std::size_t>(port);
    if (p >= outputs_.size()) throw_bad_port(port, /*output=*/true);
    if (v.type() == out_types_[p]) {
      outputs_[p] = v;
    } else {
      set_out(port, v.as_double());
    }
  }
  /// Reference to the value feeding input \p port: the driver's output,
  /// bound by Model::connect, or the shared zero when unconnected.
  const Value& in_ref(int port) const {
    const auto p = static_cast<std::size_t>(port);
    if (p >= in_src_.size()) throw_bad_port(port, /*output=*/false);
    return *in_src_[p];
  }
  double in(int port) const { return in_ref(port).as_double(); }
  bool in_bool(int port) const { return in_ref(port).as_bool(); }

 private:
  friend class Model;

  /// Points input \p port at \p src's output \p src_port (nullptr: at the
  /// shared zero) and keeps the drivers' sink lists in step.
  void bind_input(int port, Block* src, int src_port);
  [[noreturn]] void throw_bad_port(int port, bool output) const;
  /// Shared slot for unconnected inputs (always reads double 0).
  static const Value& zero_value();

  std::string name_;
  std::vector<Connection> inputs_;
  /// The only storage of the outputs; sized once, so never reallocated.
  std::vector<Value> outputs_;
  std::vector<DataType> out_types_;
  std::vector<std::optional<fixpt::FixedFormat>> out_fmts_;
  SampleTime sample_time_ = SampleTime::inherited();
  double resolved_period_ = 0.0;
  bool resolved_continuous_ = false;
  /// Per-input source value: the driver's output or zero_value().
  std::vector<const Value*> in_src_;
  /// The (consumer, input port) pairs this block's outputs drive.
  mutable std::vector<std::pair<Block*, int>> sinks_;
};

}  // namespace iecd::model
