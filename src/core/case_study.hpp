/// \file case_study.hpp
/// The paper's Section 7 application, assembled with the public API: speed
/// control of a DC motor actuated by PWM, fed back through an incremental
/// encoder on the quadrature decoder, with a push-button keyboard for the
/// set-point and the manual/automatic mode, on a 16-bit DSC without an
/// FPU.  The class drives the whole development cycle of Fig. 6.1:
/// MIL simulation, PEERT code generation, PIL co-simulation over RS232 and
/// HIL execution against the peripheral-level plant.
#pragma once

#include <memory>

#include "batch/speed_pi.hpp"
#include "beans/bean_project.hpp"
#include "blocks/discrete.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "core/model_sync.hpp"
#include "core/pe_blocks.hpp"
#include "core/peert.hpp"
#include "model/engine.hpp"
#include "obs/monitor.hpp"
#include "model/metrics.hpp"
#include "model/statechart.hpp"
#include "pil/pil_session.hpp"
#include "plant/dc_motor.hpp"
#include "plant/encoder.hpp"
#include "rt/runtime.hpp"

namespace iecd::fault {
class FaultInjector;
}

namespace iecd::core {

struct ServoConfig {
  std::string derivative = mcu::kDefaultDerivative;
  double period_s = 0.001;        ///< control (sample) period
  double setpoint = 100.0;        ///< speed set-point [rad/s]
  double setpoint_time = 0.05;    ///< step instant [s]
  double duration_s = 1.0;
  bool fixed_point = false;       ///< quantize controller signals to 16 bit
  double kp = 0.004;              ///< PI proportional gain [duty / rad/s]
  double ki = 0.12;               ///< PI integral gain
  double manual_duty = 0.2;       ///< duty in manual mode
  double pwm_frequency_hz = 20000.0;
  int encoder_lines = 100;
  int speed_filter_taps = batch::kSpeedFilterTaps;
  /// MIL hardware fidelity of the PE blocks.  false = the "trivial
  /// pass-through" simulation other code-generation targets offer (the
  /// ablation of the paper's fidelity claim); target/PIL/HIL behaviour is
  /// never affected.
  bool mil_hw_fidelity = true;
  plant::DcMotorParams motor;
};

/// Numeric checks of a ServoConfig: the controller fields must pass
/// batch::validate(SpeedPiParams) (reported as "servo.<field>"); the PWM
/// frequency must be positive; set-point and step instant finite; the
/// duration non-negative; the motor must pass plant::validate, whose
/// errors are reported as "servo.motor.<field>".  The motor's exact step
/// is stable for any stiffness, so no step-size rule applies.  No bean
/// solving happens here; the bean project checks achievability.
util::DiagnosticList validate(const ServoConfig& config);

/// The PWM counter modulo ServoSystem(config)'s PWM bean solves for
/// config.pwm_frequency_hz on config.derivative: the duty granularity
/// run_mil() latches, and the ServoBatchConfig::pwm_modulo that keeps a
/// batch lane bit-identical to it.  0 when the frequency is not
/// achievable.
std::int64_t pwm_modulo(const ServoConfig& config);

/// The assembled single-model application plus its bean project.
class ServoSystem {
 public:
  explicit ServoSystem(ServoConfig config);

  const ServoConfig& config() const { return config_; }
  model::Model& top() { return top_; }
  model::Subsystem& controller() { return *controller_; }
  model::Subsystem& plant_subsystem() { return *plant_; }
  beans::BeanProject& project() { return project_; }
  ModelSync& sync() { return *sync_; }

  QuadDecPeBlock& qdec_block() { return *qdec_block_; }
  PwmPeBlock& pwm_block() { return *pwm_block_; }
  /// MIL plant block (e.g. to attach a load-torque disturbance before
  /// run_mil(); PIL/HIL use their own DcMotorSim instances).
  plant::DcMotorBlock& motor_block() { return *motor_block_; }
  BitIoPeBlock& key_mode_block() { return *key_mode_; }
  BitIoPeBlock& key_up_block() { return *key_up_; }
  model::StateChart& mode_chart() { return *mode_chart_; }
  model::FunctionCallSubsystem& setpoint_bump() { return *sp_up_; }
  blocks::DiscretePidBlock& pid() { return *pid_; }

  /// core::validate(config()) plus the expert-system pass over the bean
  /// project.
  util::DiagnosticList validate();

  // ------------------------------------------------------------- phases

  struct MilResult {
    model::SampleLog speed;
    model::SampleLog duty;
    model::StepMetrics metrics;
    double iae = 0.0;
  };
  /// Model-in-the-loop: the closed loop entirely inside the engine.
  /// Throws std::invalid_argument when core::validate(config()) reports an
  /// error or the PWM bean holds no solved modulo (frequency not
  /// achievable on the derivative).
  MilResult run_mil();

  /// Code generation through the PEERT target.
  PeertTarget::BuildResult build_target(const std::string& app_name = "servo");

  struct HilOptions {
    double duration_s = 0.0;  ///< 0: use config duration
    /// Deterministic activation jitter injected into the sample timer.
    std::function<sim::SimTime(std::uint64_t)> timer_jitter;
    /// Extra input-output latency charged to every control step [cycles].
    std::uint64_t extra_latency_cycles = 0;
    /// Press the set-point button at these times (exercises the
    /// event-driven task path).
    std::vector<sim::SimTime> key_up_presses;
    /// Online observability: when set, the runtime's dispatch path feeds
    /// per-task TimingMonitors in this hub, the hub's poll (one per control
    /// period) tracks event-queue depth, and deadline misses trigger the
    /// flight recorder.  Passive — attaching a hub does not change the
    /// simulated trajectory or the HilResult timing fields, which are read
    /// from the same monitors (so give each run a fresh hub).
    obs::MonitorHub* monitors = nullptr;
    /// Fault injection (see src/fault/): wires interrupt-latency spikes,
    /// task overruns, encoder glitches and load-torque disturbance pulses
    /// into this run.  Null — or an injector whose plan is empty — leaves
    /// the run bit-identical to an unwired one.
    fault::FaultInjector* faults = nullptr;
  };
  struct HilResult {
    model::SampleLog speed;
    model::StepMetrics metrics;
    double iae = 0.0;
    /// Periodic step timing, read off its TimingMonitor: ISR execution
    /// mean/max [us], worst response completion - release [us] (the
    /// schedulability-analysis convention) and worst |activation interval
    /// - period| [us].
    double exec_us_mean = 0.0;
    double exec_us_max = 0.0;
    double response_us_max = 0.0;
    double jitter_us = 0.0;
    double cpu_utilisation = 0.0;
    std::uint32_t observed_stack_bytes = 0;
    std::uint64_t activations = 0;
    std::uint64_t overruns = 0;
    codegen::MemoryEstimate memory;
    /// One TimingMonitor::state_line() per monitored task.
    std::string profile_report;
  };
  /// Hardware-in-the-loop: generated code on the simulated MCU, plant
  /// coupled at the peripheral level (PWM duty -> motor, encoder -> QDEC).
  HilResult run_hil(const HilOptions& options);
  HilResult run_hil() { return run_hil(HilOptions{}); }

  struct PilRunOptions {
    std::uint32_t baud = 115200;  ///< bit clock (SPI: SCK frequency)
    double duration_s = 0.0;      ///< 0: use config duration
    pil::PilSession::LinkKind link = pil::PilSession::LinkKind::kRs232;
    /// Control steps per exchanged frame (1 = classic per-period exchange).
    int batch = 1;
    /// Online observability (see HilOptions::monitors): per-exchange RTT
    /// monitor, UART TX FIFO watermark, resync/overrun anomaly triggers.
    obs::MonitorHub* monitors = nullptr;
    /// Fault injection (see src/fault/): wires serial byte faults on both
    /// link directions, PIL frame truncation/delay, interrupt-latency
    /// spikes and task overruns.  Null or empty-plan: bit-identical run.
    fault::FaultInjector* faults = nullptr;
    /// Timeout/retransmit recovery for the exchange protocol
    /// (HostEndpoint::Recovery); disabled by default.
    pil::HostEndpoint::Recovery recovery{};
  };
  struct PilResult {
    model::SampleLog speed;
    model::StepMetrics metrics;
    double iae = 0.0;
    pil::PilReport report;
  };
  /// Processor-in-the-loop: PIL code variant on the board, plant model on
  /// the simulator PC, RS232 in between (Fig. 6.2).
  PilResult run_pil(const PilRunOptions& options);
  PilResult run_pil() { return run_pil(PilRunOptions{}); }

 private:
  void build_controller();
  void build_plant();
  void apply_fixed_point_types();

  ServoConfig config_;
  model::Model top_;
  beans::BeanProject project_;
  model::Subsystem* controller_ = nullptr;
  model::Subsystem* plant_ = nullptr;
  std::unique_ptr<ModelSync> sync_;
  PeertTarget target_;

  // Controller interior handles.
  QuadDecPeBlock* qdec_block_ = nullptr;
  PwmPeBlock* pwm_block_ = nullptr;
  BitIoPeBlock* key_mode_ = nullptr;
  BitIoPeBlock* key_up_ = nullptr;
  TimerIntPeBlock* timer_block_ = nullptr;
  model::StateChart* mode_chart_ = nullptr;
  model::FunctionCallSubsystem* sp_up_ = nullptr;
  blocks::DiscretePidBlock* pid_ = nullptr;
  blocks::StepBlock* setpoint_ = nullptr;

  // Top-level handles.
  plant::DcMotorBlock* motor_block_ = nullptr;
  blocks::ScopeBlock* speed_scope_ = nullptr;
  blocks::ScopeBlock* duty_scope_ = nullptr;
};

}  // namespace iecd::core
