/// \file subsystem.hpp
/// Hierarchical composition: a Subsystem is a block containing a nested
/// model with Inport/Outport boundary blocks.  The paper's "single model
/// approach" builds on exactly two of these — the plant subsystem and the
/// controller subsystem in a closed loop — with code generated for the
/// controller subsystem only.  Function-call subsystems are not scheduled
/// periodically: a bean event (interrupt) or chart transition triggers each
/// execution, giving the event-driven part of the application.
#pragma once

#include <functional>
#include <memory>

#include "model/block.hpp"
#include "model/model.hpp"

namespace iecd::model {

class Subsystem;

/// Boundary block: presents a subsystem input inside the nested model.
/// Once bound, each output() copies that input, converted to this port's
/// type.
class Inport : public Block {
 public:
  explicit Inport(std::string name) : Block(std::move(name), 0, 1) {}
  const char* type_name() const override { return "Inport"; }
  void output(const SimContext& ctx) override;
  bool output_is_pure() const override { return true; }
  void append_sources(std::vector<const Block*>& into) const override;

 private:
  friend class Subsystem;
  const Subsystem* owner_ = nullptr;
  int port_ = 0;
};

/// Boundary block: exposes a value as a subsystem output.  Each output()
/// copies its input into its own port and, once bound, on into the
/// subsystem's output port, each converted to the receiving type.
class Outport : public Block {
 public:
  explicit Outport(std::string name) : Block(std::move(name), 1, 1) {}
  const char* type_name() const override { return "Outport"; }
  void output(const SimContext& ctx) override;
  bool output_is_pure() const override { return true; }

 private:
  friend class Subsystem;
  Subsystem* owner_ = nullptr;
  int port_ = 0;
};

/// An atomic subsystem.  The engine splices its interior, boundary blocks
/// included, into the flat program at the subsystem's position (see
/// model/engine.hpp); interior blocks run at the rates initialize()
/// resolves for them.  Callers that walk a model one level deep (a
/// function-call subsystem, the generated controller's step task) reach
/// the interior through output() and update() instead.
class Subsystem : public Block {
 public:
  Subsystem(std::string name, int inputs, int outputs);

  const char* type_name() const override { return "SubSystem"; }

  Model& inner() { return inner_; }
  const Model& inner() const { return inner_; }

  /// Subsystems conservatively report direct feedthrough; a purely dynamic
  /// interior (e.g. a plant whose outputs come from states only) may clear
  /// this to break the apparent loop in the closed-loop top model.
  void set_direct_feedthrough(bool feedthrough) {
    feedthrough_ = feedthrough;
  }
  bool has_direct_feedthrough() const override { return feedthrough_; }

  /// Declares which interior blocks are the boundary ports, in port order,
  /// and binds them to this block's ports.  Must be called once the
  /// interior is fully built.
  void bind_ports(std::vector<Inport*> inports, std::vector<Outport*> outports);

  /// Resolves the interior rates (inherited blocks take this subsystem's,
  /// explicit ones keep their own) and initializes the interior blocks.
  void initialize(const SimContext& ctx) override;
  /// Runs every interior block's output(); the Inports and Outports copy
  /// the values across the boundary.
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  const Model* spliced_interior() const override { return &inner_; }
  /// While spliced, the bound Outport writes output \p port.
  const Block* port_writer(int port) const override;

  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::uint32_t state_bytes() const override;

 protected:
  friend class Outport;

  Model inner_;
  bool ports_bound_ = false;
  bool feedthrough_ = true;
};

/// A subsystem executed only when explicitly triggered (by a bean event in
/// the generated application, or by the simulated event source in MIL).
class FunctionCallSubsystem : public Subsystem {
 public:
  FunctionCallSubsystem(std::string name, int inputs, int outputs);

  const char* type_name() const override { return "FunctionCallSubSystem"; }

  /// Periodic execution does nothing; only trigger() runs the interior.
  void output(const SimContext& ctx) override { (void)ctx; }
  void update(const SimContext& ctx) override { (void)ctx; }
  /// Triggered, so never spliced.
  const Model* spliced_interior() const override { return nullptr; }

  /// Executes one activation (outputs + updates of the interior); between
  /// activations the outputs hold their last values.
  void trigger(const SimContext& ctx);

  std::uint64_t activations() const { return activations_; }

 private:
  std::uint64_t activations_ = 0;
};

/// An output event port: blocks that raise events (PE interrupt blocks,
/// charts) hold one of these per event; wiring a FunctionCallSubsystem to
/// it makes the event drive that subsystem.
class EventSource {
 public:
  void attach(FunctionCallSubsystem& subsystem);
  void attach(std::function<void(const SimContext&)> listener);
  void fire(const SimContext& ctx);

 private:
  std::vector<std::function<void(const SimContext&)>> listeners_;
};

}  // namespace iecd::model
