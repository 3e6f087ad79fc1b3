#include <gtest/gtest.h>

#include <vector>

#include "mcu/clock.hpp"
#include "mcu/cost_model.hpp"
#include "mcu/derivative.hpp"
#include "mcu/mcu.hpp"
#include "sim/world.hpp"

namespace iecd::mcu {
namespace {

TEST(Clock, CycleTimeConversions) {
  Clock clk(60e6);  // 60 MHz -> 16.67 ns / cycle
  EXPECT_EQ(clk.cycles_to_time(60), 1000);   // 60 cycles = 1 us
  EXPECT_EQ(clk.cycles_to_time(0), 0);
  EXPECT_GE(clk.cycles_to_time(1), 1);       // never rounds to zero
  EXPECT_EQ(clk.time_to_cycles(sim::microseconds(1)), 60u);
  EXPECT_THROW(Clock(0), std::invalid_argument);
}

TEST(CostModel, PricesOpsLinearly) {
  CostModel cm;
  OpCounts ops;
  ops.alu16 = 10;
  ops.mul16 = 2;
  ops.fadd = 1;
  const std::uint64_t base = cm.cycles(ops);
  EXPECT_EQ(base, 10 * cm.alu16 + 2 * cm.mul16 + cm.fadd);
  const OpCounts doubled = ops * 2;
  EXPECT_EQ(cm.cycles(doubled), 2 * base);
  OpCounts sum = ops;
  sum += ops;
  EXPECT_EQ(cm.cycles(sum), 2 * base);
}

TEST(CostModel, FloatFarCostlierThanFixedOnNoFpuParts) {
  const auto& dsc = find_derivative("DSC56F8367");
  OpCounts fixed_op;
  fixed_op.mul16 = 1;
  OpCounts float_op;
  float_op.fmul = 1;
  EXPECT_GT(dsc.costs.cycles(float_op), 50 * dsc.costs.cycles(fixed_op));
}

TEST(DerivativeRegistry, ContainsAllFourFamilies) {
  const auto& regs = derivative_registry();
  EXPECT_EQ(regs.size(), 4u);
  EXPECT_NO_THROW(find_derivative("DSC56F8367"));
  EXPECT_NO_THROW(find_derivative("HCS12X128"));
  EXPECT_NO_THROW(find_derivative("MCF5235"));
  EXPECT_NO_THROW(find_derivative("HCS08GB60"));
  EXPECT_THROW(find_derivative("Z80"), std::invalid_argument);
}

TEST(DerivativeRegistry, SpecsAreInternallyConsistent) {
  for (const auto& d : derivative_registry()) {
    EXPECT_GT(d.clock_hz, 0) << d.name;
    EXPECT_GT(d.memory.ram_bytes, 0u) << d.name;
    EXPECT_GT(d.adc_channels, 0) << d.name;
    EXPECT_FALSE(d.timer_prescalers.empty()) << d.name;
    EXPECT_GT(d.uarts, 0) << d.name;
  }
}

TEST(InterruptController, PriorityOrdering) {
  InterruptController intc;
  std::vector<int> served;
  auto handler = [&served](int id) {
    IsrHandler h;
    h.name = "h" + std::to_string(id);
    h.body = [&served, id]() -> std::uint64_t {
      served.push_back(id);
      return 10;
    };
    return h;
  };
  intc.register_vector(1, /*priority=*/5, handler(1));
  intc.register_vector(2, /*priority=*/1, handler(2));
  intc.register_vector(3, /*priority=*/3, handler(3));

  intc.raise(1, 0);
  intc.raise(2, 0);
  intc.raise(3, 0);
  EXPECT_EQ(intc.acknowledge(), 2);  // best priority first
  EXPECT_EQ(intc.acknowledge(), 3);
  EXPECT_EQ(intc.acknowledge(), 1);
  EXPECT_EQ(intc.acknowledge(), -1);
}

TEST(InterruptController, MaskedVectorsLoseRequests) {
  InterruptController intc;
  IsrHandler h;
  h.body = []() -> std::uint64_t { return 1; };
  intc.register_vector(7, 0, std::move(h));
  intc.set_enabled(7, false);
  EXPECT_FALSE(intc.raise(7, 0));
  EXPECT_FALSE(intc.any_pending());
  intc.set_enabled(7, true);
  EXPECT_TRUE(intc.raise(7, 0));
  EXPECT_TRUE(intc.any_pending());
}

TEST(InterruptController, OverrunCountsRepeatedRaises) {
  InterruptController intc;
  IsrHandler h;
  h.body = []() -> std::uint64_t { return 1; };
  intc.register_vector(4, 0, std::move(h));
  EXPECT_TRUE(intc.raise(4, 10));
  EXPECT_FALSE(intc.raise(4, 11));  // still pending -> lost
  EXPECT_EQ(intc.overruns(), 1u);
}

TEST(InterruptController, RejectsDuplicateAndInvalidRegistration) {
  InterruptController intc;
  IsrHandler h;
  h.body = []() -> std::uint64_t { return 1; };
  intc.register_vector(1, 0, h);
  EXPECT_THROW(intc.register_vector(1, 0, h), std::logic_error);
  IsrHandler empty;
  EXPECT_THROW(intc.register_vector(2, 0, std::move(empty)),
               std::invalid_argument);
}

class McuFixture : public ::testing::Test {
 protected:
  sim::World world;
  Mcu mcu{world, find_derivative("DSC56F8367")};
};

TEST_F(McuFixture, IsrExecutionChargesCycleTime) {
  std::vector<DispatchRecord> records;
  mcu.cpu().set_dispatch_observer(
      [&](const DispatchRecord& r) { records.push_back(r); });

  bool committed = false;
  IsrHandler h;
  h.name = "tick";
  h.body = []() -> std::uint64_t { return 600; };  // 10 us at 60 MHz
  h.commit = [&] { committed = true; };
  mcu.intc().register_vector(1, 0, std::move(h));

  world.queue().schedule_at(sim::microseconds(5), [&] { mcu.raise_irq(1); });
  world.run_for(sim::milliseconds(1));

  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(committed);
  EXPECT_EQ(records[0].raise_time, sim::microseconds(5));
  EXPECT_EQ(records[0].start_time, sim::microseconds(5));
  const auto total_cycles =
      600 + mcu.spec().costs.isr_entry + mcu.spec().costs.isr_exit;
  EXPECT_EQ(records[0].end_time - records[0].start_time,
            mcu.clock().cycles_to_time(total_cycles));
  EXPECT_EQ(records[0].body_cycles, 600u);
}

TEST_F(McuFixture, NonPreemptiveInterruptWaitsForRunningIsr) {
  std::vector<DispatchRecord> records;
  mcu.cpu().set_dispatch_observer(
      [&](const DispatchRecord& r) { records.push_back(r); });

  IsrHandler slow;
  slow.name = "slow";
  slow.body = []() -> std::uint64_t { return 6000; };  // 100 us
  mcu.intc().register_vector(1, /*priority=*/2, std::move(slow));

  IsrHandler urgent;
  urgent.name = "urgent";
  urgent.body = []() -> std::uint64_t { return 60; };
  mcu.intc().register_vector(2, /*priority=*/0, std::move(urgent));

  world.queue().schedule_at(sim::microseconds(10), [&] { mcu.raise_irq(1); });
  // Raised in the middle of the slow ISR: must wait (non-preemptive).
  world.queue().schedule_at(sim::microseconds(50), [&] { mcu.raise_irq(2); });
  world.run_for(sim::milliseconds(1));

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "slow");
  EXPECT_EQ(records[1].name, "urgent");
  // The urgent ISR starts only after the slow one retires.
  EXPECT_GE(records[1].start_time, records[0].end_time);
  // Its response time shows the blocking.
  EXPECT_GT(records[1].start_time - records[1].raise_time,
            sim::microseconds(40));
}

TEST_F(McuFixture, PendingInterruptsServedByPriorityAfterBlocking) {
  std::vector<std::string> order;
  auto make = [&](const char* name, std::uint64_t cycles) {
    IsrHandler h;
    h.name = name;
    h.body = [&order, name, cycles]() -> std::uint64_t {
      order.emplace_back(name);
      return cycles;
    };
    return h;
  };
  mcu.intc().register_vector(1, 3, make("low", 60));
  mcu.intc().register_vector(2, 1, make("high", 60));
  mcu.intc().register_vector(3, 2, make("mid", 60));

  // A long-running first ISR blocks while all three become pending.
  mcu.intc().register_vector(9, 0, make("first", 60000));
  world.queue().schedule_at(1, [&] { mcu.raise_irq(9); });
  world.queue().schedule_at(100, [&] { mcu.raise_irq(1); });
  world.queue().schedule_at(101, [&] { mcu.raise_irq(3); });
  world.queue().schedule_at(102, [&] { mcu.raise_irq(2); });
  world.run_for(sim::milliseconds(10));

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "high");
  EXPECT_EQ(order[2], "mid");
  EXPECT_EQ(order[3], "low");
}

TEST_F(McuFixture, BackgroundTaskRunsWhenIdleAndYieldsToInterrupts) {
  int background_chunks = 0;
  mcu.cpu().set_background([&]() -> std::uint64_t {
    if (background_chunks >= 100) return 0;  // idle after 100 chunks
    ++background_chunks;
    return 600;  // 10 us per chunk
  });
  int isr_runs = 0;
  IsrHandler h;
  h.name = "evt";
  h.body = [&]() -> std::uint64_t {
    ++isr_runs;
    return 60;
  };
  mcu.intc().register_vector(1, 0, std::move(h));

  mcu.cpu().kick();  // start background processing
  world.queue().schedule_at(sim::microseconds(55), [&] { mcu.raise_irq(1); });
  world.run_for(sim::milliseconds(5));

  EXPECT_EQ(background_chunks, 100);
  EXPECT_EQ(isr_runs, 1);
}

TEST_F(McuFixture, StackAccountingTracksDeepestHandler) {
  mcu.cpu().set_main_stack_bytes(256);
  IsrHandler big;
  big.name = "big";
  big.stack_bytes = 512;
  big.body = []() -> std::uint64_t { return 10; };
  mcu.intc().register_vector(1, 0, std::move(big));
  IsrHandler small;
  small.name = "small";
  small.stack_bytes = 64;
  small.body = []() -> std::uint64_t { return 10; };
  mcu.intc().register_vector(2, 1, std::move(small));

  world.queue().schedule_at(1, [&] { mcu.raise_irq(1); });
  world.queue().schedule_at(2, [&] { mcu.raise_irq(2); });
  world.run_for(sim::milliseconds(1));
  EXPECT_EQ(mcu.cpu().max_stack_bytes(), 256u + 512u);
}

TEST_F(McuFixture, BusyTimeAccumulatesUtilisation) {
  IsrHandler h;
  h.name = "work";
  h.body = []() -> std::uint64_t { return 6000; };  // 100 us per run
  mcu.intc().register_vector(1, 0, std::move(h));
  for (int i = 0; i < 5; ++i) {
    world.queue().schedule_at(sim::milliseconds(i + 1),
                              [&] { mcu.raise_irq(1); });
  }
  world.run_for(sim::milliseconds(10));
  EXPECT_EQ(mcu.cpu().dispatches(), 5u);
  const auto per_run = mcu.clock().cycles_to_time(
      6000 + mcu.spec().costs.isr_entry + mcu.spec().costs.isr_exit);
  EXPECT_EQ(mcu.cpu().busy_time(), 5 * per_run);
}

}  // namespace
}  // namespace iecd::mcu
