#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mcu/derivative.hpp"
#include "mcu/mcu.hpp"
#include "periph/adc.hpp"
#include "periph/gpio.hpp"
#include "periph/pwm.hpp"
#include "periph/quadrature_decoder.hpp"
#include "periph/timer.hpp"
#include "periph/uart.hpp"
#include "sim/world.hpp"
#include "sim/zoh_signal.hpp"

namespace iecd::periph {
namespace {

class PeriphFixture : public ::testing::Test {
 protected:
  sim::World world;
  mcu::Mcu mcu{world, mcu::find_derivative("DSC56F8367")};

  void install_counter_isr(mcu::IrqVector vec, int& counter,
                           std::uint64_t cycles = 60) {
    mcu::IsrHandler h;
    h.name = "count";
    h.body = [&counter, cycles]() -> std::uint64_t {
      ++counter;
      return cycles;
    };
    mcu.intc().register_vector(vec, 0, std::move(h));
  }
};

// ---------------------------------------------------------------- ZohSignal

TEST(ZohSignal, ValueAtAndIntegrate) {
  sim::ZohSignal s(1.0);
  s.set(sim::seconds_i(1), 3.0);
  s.set(sim::seconds_i(2), -1.0);
  EXPECT_DOUBLE_EQ(s.value_at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(sim::seconds_i(1)), 3.0);
  EXPECT_DOUBLE_EQ(s.value_at(sim::milliseconds(1500)), 3.0);
  EXPECT_DOUBLE_EQ(s.value(), -1.0);
  // Integral over [0.5s, 2.5s] = 0.5*1 + 1*3 + 0.5*(-1) = 3.0.
  EXPECT_NEAR(s.integrate(sim::milliseconds(500), sim::milliseconds(2500)),
              3.0, 1e-12);
}

TEST(ZohSignal, PruneKeepsCurrentValue) {
  sim::ZohSignal s(0.0);
  for (int i = 1; i <= 100; ++i) s.set(sim::milliseconds(i), i);
  s.prune_before(sim::milliseconds(90));
  EXPECT_LE(s.change_count(), 12u);
  EXPECT_DOUBLE_EQ(s.value_at(sim::milliseconds(90)), 90.0);
  EXPECT_DOUBLE_EQ(s.value(), 100.0);
}

TEST(ZohSignal, RejectsNonMonotonicWrites) {
  sim::ZohSignal s(0.0);
  s.set(100, 1.0);
  EXPECT_THROW(s.set(50, 2.0), std::invalid_argument);
}

// ---------------------------------------------------------------------- ADC

TEST_F(PeriphFixture, AdcQuantizesTo12Bits) {
  AdcConfig cfg;
  cfg.resolution_bits = 12;
  cfg.vref_high = 3.3;
  AdcPeripheral adc(mcu, cfg);
  adc.set_analog_source(0, [](sim::SimTime) { return 1.65; });
  EXPECT_TRUE(adc.start_conversion(0));
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(adc.conversions_completed(), 1u);
  // Mid-scale: code ~ 2048 out of 4095.
  EXPECT_NEAR(adc.result(0), 2048, 1);
  // Quantization: reconstructed voltage within 1 LSB.
  EXPECT_NEAR(adc.code_to_volts(adc.result(0)), 1.65, 3.3 / 4095.0);
}

TEST_F(PeriphFixture, AdcClampsOutOfRangeInputs) {
  AdcPeripheral adc(mcu, AdcConfig{});
  adc.set_analog_source(0, [](sim::SimTime) { return -5.0; });
  adc.start_conversion(0);
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(adc.result(0), 0u);
  adc.set_analog_source(0, [](sim::SimTime) { return 99.0; });
  adc.start_conversion(0);
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(adc.result(0), adc.max_code());
}

TEST_F(PeriphFixture, AdcConversionTakesConfiguredTimeAndRaisesEoc) {
  AdcConfig cfg;
  cfg.conversion_time = sim::microseconds(10);
  cfg.eoc_vector = kIrqAdcBase;
  AdcPeripheral adc(mcu, cfg);
  int eoc = 0;
  install_counter_isr(kIrqAdcBase, eoc);
  adc.set_analog_source(0, [](sim::SimTime) { return 1.0; });
  adc.start_conversion(0);
  EXPECT_TRUE(adc.busy());
  world.run_for(sim::microseconds(9));
  EXPECT_EQ(eoc, 0);
  EXPECT_TRUE(adc.busy());
  world.run_for(sim::microseconds(2));
  EXPECT_EQ(eoc, 1);
  EXPECT_FALSE(adc.busy());
}

TEST_F(PeriphFixture, AdcSamplesAtConversionStart) {
  // Input changes mid-conversion; result must reflect the start value.
  AdcConfig cfg;
  cfg.conversion_time = sim::microseconds(10);
  AdcPeripheral adc(mcu, cfg);
  adc.set_analog_source(0, [](sim::SimTime t) {
    return t < sim::microseconds(5) ? 1.0 : 3.0;
  });
  adc.start_conversion(0);
  world.run_for(sim::milliseconds(1));
  EXPECT_NEAR(adc.code_to_volts(adc.result(0)), 1.0, 0.01);
}

TEST_F(PeriphFixture, AdcRejectsStartWhileBusy) {
  AdcPeripheral adc(mcu, AdcConfig{});
  EXPECT_TRUE(adc.start_conversion(0));
  EXPECT_FALSE(adc.start_conversion(1));
  world.run_for(sim::milliseconds(1));
  EXPECT_TRUE(adc.start_conversion(1));
}

TEST_F(PeriphFixture, AdcContinuousModeKeepsConverting) {
  AdcConfig cfg;
  cfg.continuous = true;
  cfg.conversion_time = sim::microseconds(100);
  AdcPeripheral adc(mcu, cfg);
  adc.set_analog_source(0, [](sim::SimTime) { return 1.0; });
  adc.start_conversion(0);
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(adc.conversions_completed(), 10u);
}

TEST_F(PeriphFixture, AdcValidatesConfig) {
  AdcConfig bad;
  bad.resolution_bits = 0;
  EXPECT_THROW(AdcPeripheral(mcu, bad, "a1"), std::invalid_argument);
  AdcConfig bad2;
  bad2.vref_high = bad2.vref_low = 1.0;
  EXPECT_THROW(AdcPeripheral(mcu, bad2, "a2"), std::invalid_argument);
}

// ---------------------------------------------------------------------- PWM

TEST_F(PeriphFixture, PwmPeriodFromPrescalerAndModulo) {
  PwmConfig cfg;
  cfg.prescaler = 4;
  cfg.modulo = 1500;  // 4*1500/60MHz = 100 us
  PwmPeripheral pwm(mcu, cfg);
  EXPECT_EQ(pwm.period(), sim::microseconds(100));
}

TEST_F(PeriphFixture, PwmDutyIsDoubleBuffered) {
  PwmConfig cfg;
  cfg.prescaler = 1;
  cfg.modulo = 6000;  // 100 us
  PwmPeripheral pwm(mcu, cfg);
  pwm.start();
  world.run_for(sim::microseconds(10));
  pwm.set_duty_ratio(0.5);
  // Still inside the first period: active duty unchanged.
  EXPECT_DOUBLE_EQ(pwm.duty_ratio(), 0.0);
  world.run_for(sim::microseconds(100));
  EXPECT_DOUBLE_EQ(pwm.duty_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(pwm.average_output().value(), 0.5);
}

TEST_F(PeriphFixture, PwmAverageOutputIntegratesCorrectly) {
  PwmConfig cfg;
  cfg.prescaler = 1;
  cfg.modulo = 60000;  // 1 ms period
  PwmPeripheral pwm(mcu, cfg);
  pwm.set_duty_ratio(0.25);
  pwm.start();  // duty latched immediately at first period start
  world.run_for(sim::milliseconds(10));
  // Average output has been 0.25 for 10 ms -> integral 2.5 ms*unit.
  EXPECT_NEAR(pwm.average_output().integrate(0, sim::milliseconds(10)),
              0.25 * 0.010, 1e-9);
}

TEST_F(PeriphFixture, PwmEdgeEventsMatchDuty) {
  PwmConfig cfg;
  cfg.prescaler = 1;
  cfg.modulo = 6000;  // 100 us
  cfg.edge_events = true;
  PwmPeripheral pwm(mcu, cfg);
  std::vector<std::pair<bool, sim::SimTime>> edges;
  pwm.set_edge_callback([&](bool level, sim::SimTime t) {
    edges.emplace_back(level, t);
  });
  pwm.set_duty_ratio(0.3);
  pwm.start();
  world.run_for(sim::microseconds(250));
  // Expect rise at 0, fall at 30us, rise at 100us, fall at 130us, ...
  ASSERT_GE(edges.size(), 4u);
  EXPECT_TRUE(edges[0].first);
  EXPECT_EQ(edges[0].second, 0);
  EXPECT_FALSE(edges[1].first);
  EXPECT_EQ(edges[1].second, sim::microseconds(30));
  EXPECT_TRUE(edges[2].first);
  EXPECT_EQ(edges[2].second, sim::microseconds(100));
}

TEST_F(PeriphFixture, PwmReloadInterruptFiresPerPeriod) {
  PwmConfig cfg;
  cfg.prescaler = 1;
  cfg.modulo = 60000;  // 1 ms
  cfg.reload_vector = kIrqPwmBase;
  PwmPeripheral pwm(mcu, cfg);
  int reloads = 0;
  install_counter_isr(kIrqPwmBase, reloads);
  pwm.start();
  world.run_for(sim::milliseconds(5) + sim::microseconds(10));
  EXPECT_EQ(reloads, 6);  // t=0,1,2,3,4,5 ms
}

TEST_F(PeriphFixture, PwmStopDropsOutputToZero) {
  PwmPeripheral pwm(mcu, PwmConfig{});
  pwm.set_duty_ratio(0.8);
  pwm.start();
  world.run_for(sim::milliseconds(1));
  pwm.stop();
  EXPECT_DOUBLE_EQ(pwm.average_output().value(), 0.0);
  EXPECT_FALSE(pwm.running());
}

// -------------------------------------------------------------------- Timer

TEST_F(PeriphFixture, TimerTicksAtExactPeriodWithoutDrift) {
  TimerConfig cfg;
  cfg.prescaler = 1;
  cfg.modulo = 60000;  // 1 ms
  cfg.overflow_vector = kIrqTimerBase;
  TimerPeripheral timer(mcu, cfg);
  std::vector<sim::SimTime> at;
  mcu::IsrHandler h;
  h.name = "tick";
  h.body = [&]() -> std::uint64_t {
    at.push_back(world.now());
    return 60;
  };
  mcu.intc().register_vector(kIrqTimerBase, 0, std::move(h));
  timer.start();
  world.run_for(sim::milliseconds(100));
  ASSERT_EQ(at.size(), 100u);
  for (std::size_t i = 0; i < at.size(); ++i) {
    EXPECT_EQ(at[i], sim::milliseconds(static_cast<std::int64_t>(i + 1)));
  }
  EXPECT_EQ(timer.ticks(), 100u);
}

TEST_F(PeriphFixture, TimerJitterHookShiftsActivations) {
  TimerConfig cfg;
  cfg.prescaler = 1;
  cfg.modulo = 60000;
  cfg.overflow_vector = kIrqTimerBase;
  TimerPeripheral timer(mcu, cfg);
  timer.set_jitter_hook([](std::uint64_t k) {
    return (k % 2 == 0) ? sim::microseconds(50) : -sim::microseconds(50);
  });
  std::vector<sim::SimTime> at;
  mcu::IsrHandler h;
  h.name = "tick";
  h.body = [&]() -> std::uint64_t {
    at.push_back(world.now());
    return 60;
  };
  mcu.intc().register_vector(kIrqTimerBase, 0, std::move(h));
  timer.start();
  world.run_for(sim::milliseconds(4) + sim::microseconds(100));
  ASSERT_GE(at.size(), 4u);
  EXPECT_EQ(at[0], sim::milliseconds(1) - sim::microseconds(50));
  EXPECT_EQ(at[1], sim::milliseconds(2) + sim::microseconds(50));
  EXPECT_EQ(at[2], sim::milliseconds(3) - sim::microseconds(50));
}

TEST_F(PeriphFixture, TimerStopHaltsTicks) {
  TimerConfig cfg;
  cfg.overflow_vector = kIrqTimerBase;
  TimerPeripheral timer(mcu, cfg);
  int ticks = 0;
  install_counter_isr(kIrqTimerBase, ticks);
  timer.start();
  world.run_for(sim::milliseconds(5));
  const int seen = ticks;
  EXPECT_GT(seen, 0);
  timer.stop();
  world.run_for(sim::milliseconds(5));
  EXPECT_EQ(ticks, seen);
}

// ----------------------------------------------------------- QuadDecoder

TEST_F(PeriphFixture, QdecCountsEdgesWithDirection) {
  QuadDecPeripheral qdec(mcu, QuadDecConfig{});
  std::int64_t edges = 0;
  qdec.set_read_hook([&] { return edges; });
  for (int i = 0; i < 10; ++i) edges += 1;
  for (int i = 0; i < 3; ++i) edges -= 1;
  EXPECT_EQ(qdec.position(), 7);
  EXPECT_EQ(qdec.extended_position(), 7);
}

TEST_F(PeriphFixture, QdecPositionRegisterWrapsAt16Bits) {
  QuadDecPeripheral qdec(mcu, QuadDecConfig{});
  std::int64_t edges = 0;
  qdec.set_read_hook([&] { return edges; });
  edges += 32767;
  EXPECT_EQ(qdec.position(), 32767);
  edges += 1;
  EXPECT_EQ(qdec.position(), -32768);  // hardware register wraps
  EXPECT_EQ(qdec.extended_position(), 32768);  // sw extension does not
}

TEST_F(PeriphFixture, QdecIndexLatchesAndOptionallyClears) {
  QuadDecConfig cfg;
  cfg.clear_on_index = true;
  cfg.index_vector = kIrqQdecBase;
  QuadDecPeripheral qdec(mcu, cfg);
  int index_irqs = 0;
  install_counter_isr(kIrqQdecBase, index_irqs);
  std::int64_t edges = 0;
  qdec.set_read_hook([&] { return edges; });
  edges += 400;
  qdec.index_pulse();
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(qdec.index_latch(), 400);
  EXPECT_EQ(qdec.position(), 0);
  EXPECT_EQ(qdec.index_pulses(), 1u);
  EXPECT_EQ(index_irqs, 1);
}

// --------------------------------------------------------------------- GPIO

TEST_F(PeriphFixture, GpioOutputWriteReadAndObserver) {
  GpioPort port(mcu, GpioConfig{});
  port.set_direction(0, PinDirection::kOutput);
  std::vector<std::pair<int, bool>> observed;
  port.set_output_observer([&](int pin, bool level, sim::SimTime) {
    observed.emplace_back(pin, level);
  });
  port.write(0, true);
  port.write(0, true);  // no change, no event
  port.write(0, false);
  EXPECT_EQ(observed.size(), 2u);
  EXPECT_FALSE(port.read(0));
  EXPECT_THROW(port.write(1, true), std::logic_error);  // pin 1 is input
}

TEST_F(PeriphFixture, GpioEdgeInterruptsRespectSense) {
  GpioConfig cfg;
  cfg.irq_base = kIrqGpioBase;
  GpioPort port(mcu, cfg);
  int falls = 0;
  install_counter_isr(kIrqGpioBase + 2, falls);
  port.set_direction(2, PinDirection::kInput);
  port.set_edge_sense(2, EdgeSense::kFalling);
  port.drive_external(2, true);   // rising: ignored
  world.run_for(sim::microseconds(10));
  EXPECT_EQ(falls, 0);
  port.drive_external(2, false);  // falling: fires
  world.run_for(sim::microseconds(10));
  EXPECT_EQ(falls, 1);
}

TEST_F(PeriphFixture, PushButtonBouncesThenSettles) {
  GpioConfig cfg;
  cfg.irq_base = kIrqGpioBase;
  GpioPort port(mcu, cfg);
  PushButton button(port, 3, /*active_low=*/true);
  port.set_edge_sense(3, EdgeSense::kBoth);
  int edges = 0;
  install_counter_isr(kIrqGpioBase + 3, edges);
  button.press_at(sim::milliseconds(1), sim::milliseconds(50));
  world.run_for(sim::milliseconds(100));
  // More edges than the 2 ideal transitions => bounce present.
  EXPECT_GT(edges, 2);
  // And the line settled back to the idle (pulled-up) level.
  EXPECT_TRUE(port.read(3));
}

// --------------------------------------------------------------------- UART

TEST_F(PeriphFixture, UartRoundTripOverSerialLink) {
  sim::SerialConfig scfg;
  scfg.baud_rate = 115200;
  sim::SerialLink link(world, scfg);
  UartConfig ucfg;
  ucfg.rx_vector = kIrqUartRxBase;
  UartPeripheral uart(mcu, ucfg);
  uart.connect(link.b_to_a(), link.a_to_b());  // board TX -> a; host a2b -> RX

  std::vector<std::uint8_t> received;
  mcu::IsrHandler h;
  h.name = "rx";
  h.body = [&]() -> std::uint64_t {
    if (auto b = uart.read()) received.push_back(*b);
    return 120;
  };
  mcu.intc().register_vector(kIrqUartRxBase, 0, std::move(h));

  const std::uint8_t msg[] = {0xAA, 0x55, 0x01};
  link.a_to_b().transmit(msg, sizeof msg);
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(received, (std::vector<std::uint8_t>{0xAA, 0x55, 0x01}));
  EXPECT_EQ(uart.overruns(), 0u);
  EXPECT_EQ(uart.bytes_received(), 3u);
}

TEST_F(PeriphFixture, UartOverrunWhenIsrTooSlow) {
  sim::SerialConfig scfg;
  scfg.baud_rate = 460800;  // fast line
  sim::SerialLink link(world, scfg);
  UartConfig ucfg;
  ucfg.rx_vector = kIrqUartRxBase;
  UartPeripheral uart(mcu, ucfg);
  uart.connect(link.b_to_a(), link.a_to_b());

  mcu::IsrHandler h;
  h.name = "slow_rx";
  h.body = [&]() -> std::uint64_t {
    (void)uart.read();
    return 60000;  // 1 ms: far slower than byte arrival (~21.7 us)
  };
  mcu.intc().register_vector(kIrqUartRxBase, 0, std::move(h));

  std::uint8_t burst[16] = {};
  link.a_to_b().transmit(burst, sizeof burst);
  world.run_for(sim::milliseconds(20));
  EXPECT_GT(uart.overruns(), 0u);
}

TEST_F(PeriphFixture, UartSendTransmitsOntoWire) {
  sim::SerialLink link(world, sim::SerialConfig{});
  UartPeripheral uart(mcu, UartConfig{});
  uart.connect(link.b_to_a(), link.a_to_b());
  std::vector<std::uint8_t> host_rx;
  link.b_to_a().set_receiver(
      [&](std::uint8_t b, sim::SimTime) { host_rx.push_back(b); });
  const std::uint8_t out[] = {1, 2, 3, 4};
  EXPECT_EQ(uart.send(out, sizeof out), 4u);
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(host_rx, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(uart.bytes_sent(), 4u);
}

}  // namespace
}  // namespace iecd::periph
