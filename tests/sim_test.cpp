#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/serial_link.hpp"
#include "sim/time.hpp"
#include "sim/world.hpp"
#include "sim/zoh_signal.hpp"

#include "serial_fault_hook.hpp"

namespace iecd::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(microseconds(3), 3'000);
  EXPECT_EQ(seconds_i(2), 2'000'000'000);
  EXPECT_EQ(from_seconds(0.5), 500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds_i(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel reports failure
  q.run_all();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilHonoursWindowAndAdvancesClock) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] { ++count; });
  q.schedule_at(20, [&] { ++count; });
  q.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.run_until(100), 1u);
  EXPECT_EQ(q.now(), 100);  // clock advances to the window edge
}

TEST(EventQueue, EventsScheduledDuringRunAreHonoured) {
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule_at(10, [&] {
    times.push_back(q.now());
    q.schedule_in(5, [&] { times.push_back(q.now()); });
  });
  q.run_until(20);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueue, SelfReschedulingComponentTicksPeriodically) {
  EventQueue q;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    q.schedule_in(100, tick);
  };
  q.schedule_at(100, tick);
  q.run_until(1000);
  EXPECT_EQ(ticks, 10);
}

TEST(EventQueue, RejectsPastSchedulingAndEmptyActions) {
  EventQueue q;
  q.schedule_at(50, [] {});
  q.run_all();
  EXPECT_THROW(q.schedule_at(10, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(100, nullptr), std::invalid_argument);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.next_time(), 10);
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, ScheduleEveryFiresAtExactPeriodMultiples) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule_every(10, [&] { fired.push_back(q.now()); });
  q.run_until(55);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40, 50}));
  EXPECT_EQ(q.now(), 55);
  EXPECT_EQ(q.pending(), 1u);  // still armed for t = 60
}

TEST(EventQueue, ScheduleEveryHonoursFirstDelay) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule_every(3, 10, [&] { fired.push_back(q.now()); });
  q.run_until(30);
  EXPECT_EQ(fired, (std::vector<SimTime>{3, 13, 23}));
}

TEST(EventQueue, CancelStopsRecurrence) {
  EventQueue q;
  int ticks = 0;
  const auto id = q.schedule_every(10, [&] { ++ticks; });
  q.run_until(35);
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  q.run_until(100);
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RecurringCallbackMayCancelItself) {
  EventQueue q;
  int ticks = 0;
  EventId id = 0;
  id = q.schedule_every(10, [&] {
    if (++ticks == 4) q.cancel(id);
  });
  q.run_all();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(q.now(), 40);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RecurringInterleavesFifoWithOneShots) {
  // A recurring event re-armed after each occurrence takes a fresh insertion
  // rank — exactly like the classic reschedule-at-end-of-handler pattern —
  // so a one-shot scheduled earlier for the same timestamp runs first.
  EventQueue q;
  std::vector<std::string> order;
  q.schedule_every(10, [&] { order.push_back("recurring"); });
  q.schedule_at(20, [&] { order.push_back("oneshot"); });
  q.run_until(20);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "recurring");  // t=10
  EXPECT_EQ(order[1], "oneshot");    // t=20: scheduled before the re-arm
  EXPECT_EQ(order[2], "recurring");  // t=20: re-armed at t=10
}

TEST(ZohSignal, ReadBehindThePrunedHorizonThrows) {
  ZohSignal s(0.0);
  s.set(milliseconds(10), 1.0);
  s.set(milliseconds(20), 2.0);
  s.prune_before(milliseconds(15));
  // At 5 ms the signal was 0.0; that record is gone, so no value is right.
  EXPECT_THROW(s.value_at(milliseconds(5)), std::logic_error);
  EXPECT_THROW(s.integrate(milliseconds(5), milliseconds(25)),
               std::logic_error);
  EXPECT_DOUBLE_EQ(s.value_at(milliseconds(15)), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(milliseconds(25)), 2.0);
  const ZohSignal::Piece piece = s.piece_at(milliseconds(16));
  EXPECT_DOUBLE_EQ(piece.value, 1.0);
  EXPECT_EQ(piece.end, milliseconds(20));
  EXPECT_EQ(s.piece_at(milliseconds(20)).end, kNever);
}

TEST(SerialConfig, ByteTimeMatchesBaud) {
  SerialConfig cfg;
  cfg.baud_rate = 115200;
  EXPECT_EQ(cfg.bits_per_byte(), 10);  // 8N1
  // 10 bits at 115200 baud = 86.805... us.
  EXPECT_NEAR(static_cast<double>(cfg.byte_time()), 86805.0, 1.0);
}

TEST(SerialLink, DeliversBytesInOrderWithWireTiming) {
  World w;
  SerialConfig cfg;
  cfg.baud_rate = 9600;
  SerialLink link(w, cfg);
  std::vector<std::uint8_t> rx;
  std::vector<SimTime> at;
  link.a_to_b().set_receiver([&](std::uint8_t b, SimTime t) {
    rx.push_back(b);
    at.push_back(t);
  });
  const std::uint8_t msg[] = {0x11, 0x22, 0x33};
  link.a_to_b().transmit(msg, sizeof msg);
  w.run_for(seconds_i(1));
  ASSERT_EQ(rx.size(), 3u);
  EXPECT_EQ(rx[0], 0x11);
  EXPECT_EQ(rx[2], 0x33);
  const SimTime byte_time = cfg.byte_time();
  EXPECT_EQ(at[0], byte_time);
  EXPECT_EQ(at[1], 2 * byte_time);  // serialized, not parallel
  EXPECT_EQ(at[2], 3 * byte_time);
  EXPECT_EQ(link.a_to_b().bytes_transferred(), 3u);
  EXPECT_EQ(link.a_to_b().busy_time(), 3 * byte_time);
}

TEST(SerialLink, FullDuplexDirectionsAreIndependent) {
  World w;
  SerialLink link(w, SerialConfig{});
  int a_rx = 0;
  int b_rx = 0;
  link.a_to_b().set_receiver([&](std::uint8_t, SimTime) { ++b_rx; });
  link.b_to_a().set_receiver([&](std::uint8_t, SimTime) { ++a_rx; });
  link.a_to_b().transmit(1);
  link.b_to_a().transmit(2);
  link.b_to_a().transmit(3);
  w.run_for(seconds_i(1));
  EXPECT_EQ(b_rx, 1);
  EXPECT_EQ(a_rx, 2);
}

TEST(SerialLink, CorruptionInjectionFlipsExactlyOneByte) {
  World w;
  SerialLink link(w, SerialConfig{});
  std::vector<std::uint8_t> rx;
  link.a_to_b().set_receiver([&](std::uint8_t b, SimTime) { rx.push_back(b); });
  link.a_to_b().set_fault_hook(testhooks::flip_first_byte(0xFF));
  link.a_to_b().transmit(0x0F);
  link.a_to_b().transmit(0x0F);
  w.run_for(seconds_i(1));
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_EQ(rx[0], 0xF0);
  EXPECT_EQ(rx[1], 0x0F);
}

TEST(SerialLink, LowerBaudIsProportionallySlower) {
  World w;
  SerialConfig slow;
  slow.baud_rate = 9600;
  SerialConfig fast;
  fast.baud_rate = 115200;
  EXPECT_NEAR(static_cast<double>(slow.byte_time()) /
                  static_cast<double>(fast.byte_time()),
              12.0, 0.01);
}

}  // namespace
}  // namespace iecd::sim
