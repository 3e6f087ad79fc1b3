// Communication fast path: table-driven CRC, bit-accurate byte timing,
// burst delivery equivalence, decoder resynchronization under fuzz, the
// allocation-free framing guarantee, and the RTT-vs-baud regression that
// motivated the per-sequence round-trip bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/case_study.hpp"
#include "fault/rng.hpp"
#include "pil/frame.hpp"
#include "sim/serial_link.hpp"
#include "sim/world.hpp"
#include "util/crc16.hpp"

#include "serial_fault_hook.hpp"

namespace iecd {
namespace {

// ---------------------------------------------------------------- CRC-16

/// Bit-by-bit CRC-16/CCITT-FALSE reference, independent of the table.
std::uint16_t crc16_bitwise(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

TEST(Crc16, CheckValueIsStandard) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(util::crc16_ccitt(check), 0x29B1);
}

TEST(Crc16, TableMatchesBitwiseReference) {
  std::uint32_t lcg = 12345;
  std::vector<std::uint8_t> data;
  for (int len = 0; len < 64; ++len) {
    EXPECT_EQ(util::crc16_ccitt(data), crc16_bitwise(data)) << "len " << len;
    lcg = lcg * 1664525u + 1013904223u;
    data.push_back(static_cast<std::uint8_t>(lcg >> 24));
  }
}

// ------------------------------------------------------------ byte timing

TEST(SerialTiming, ByteTimeHandComputed8N1) {
  // 115200 baud, 8N1: 10 bits at 8680.55 ns = 86805.5 ns, rounded.
  EXPECT_EQ(sim::SerialConfig::rs232(115200).byte_time(), 86806);
  // 9600 baud, 8N1: 10 bits at 104166.6 ns.
  EXPECT_EQ(sim::SerialConfig::rs232(9600).byte_time(), 1041667);
}

TEST(SerialTiming, SynchronousByteIsDataBitsOnly) {
  // SPI at 1 MHz: 8 clocks of 1 us, no framing bits.
  const sim::SerialConfig cfg = sim::SerialConfig::spi(1000000);
  EXPECT_EQ(cfg.bits_per_byte(), 8);
  EXPECT_EQ(cfg.byte_time(), 8000);
}

// ------------------------------------------------- burst delivery parity

struct Arrival {
  std::uint8_t byte;
  sim::SimTime when;
  bool operator==(const Arrival&) const = default;
};

/// Drives the same traffic pattern into a channel and returns the per-byte
/// arrival log, either from the per-byte receiver or reconstructed from
/// burst callbacks via first_done + k * byte_time.
std::vector<Arrival> drive(bool burst_mode) {
  sim::World world;
  sim::SerialChannel ch(world.queue(), sim::SerialConfig::rs232(115200),
                        "ch");
  std::vector<Arrival> log;
  if (burst_mode) {
    ch.set_burst_receiver([&](std::span<const std::uint8_t> data,
                              sim::SimTime first_done, sim::SimTime bt) {
      for (std::size_t k = 0; k < data.size(); ++k) {
        log.push_back({data[k], first_done + bt * static_cast<sim::SimTime>(k)});
      }
    });
  } else {
    ch.set_receiver([&](std::uint8_t byte, sim::SimTime when) {
      log.push_back({byte, when});
    });
  }
  const std::uint8_t first[] = {0x10, 0x11, 0x12, 0x13};
  ch.transmit(first, sizeof(first));
  // Extend the burst while it is still on the wire...
  world.queue().schedule_in(ch.config().byte_time() * 5 / 2, [&ch] {
    const std::uint8_t more[] = {0x20, 0x21, 0x22};
    ch.transmit(more, sizeof(more));
  });
  // ...and start a fresh burst after the line went idle.
  world.queue().schedule_in(sim::milliseconds(5), [&ch] {
    ch.transmit(0x30);
    ch.transmit(0x31);
  });
  world.run_for(sim::milliseconds(20));
  return log;
}

TEST(SerialBurst, TimestampsIdenticalToPerByteDelivery) {
  const auto per_byte = drive(false);
  const auto burst = drive(true);
  ASSERT_EQ(per_byte.size(), 9u);
  EXPECT_EQ(per_byte, burst);
}

TEST(SerialBurst, CorruptionHitsTheNextByte) {
  sim::World world;
  sim::SerialChannel ch(world.queue(), sim::SerialConfig::rs232(115200),
                        "ch");
  std::vector<std::uint8_t> seen;
  ch.set_burst_receiver([&](std::span<const std::uint8_t> data, sim::SimTime,
                            sim::SimTime) {
    seen.insert(seen.end(), data.begin(), data.end());
  });
  ch.set_fault_hook(testhooks::flip_first_byte(0xFF));
  const std::uint8_t data[] = {0x0F, 0x0F};
  ch.transmit(data, sizeof(data));
  world.run_for(sim::milliseconds(1));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 0xF0);  // first byte flipped
  EXPECT_EQ(seen[1], 0x0F);  // second untouched
}

// ----------------------------------------------------- decoder resync fuzz

TEST(FrameDecoderFuzz, EveryEmbeddedFrameIsRecovered) {
  std::uint32_t lcg = 0xC0FFEE;
  const auto rnd = [&lcg](std::uint32_t mod) {
    lcg = lcg * 1664525u + 1013904223u;
    return (lcg >> 16) % mod;
  };

  std::vector<std::uint8_t> stream;
  std::vector<pil::Frame> sent;
  std::uint8_t seq = 0;
  for (int i = 0; i < 400; ++i) {
    if (rnd(4) == 0) {
      pil::Frame f;
      f.type = pil::FrameType::kActuatorData;
      f.seq = seq++;
      const std::uint32_t len = rnd(9);
      for (std::uint32_t b = 0; b < len; ++b) {
        f.payload.push_back(static_cast<std::uint8_t>(rnd(256)));
      }
      const auto bytes = pil::encode_frame(f);
      stream.insert(stream.end(), bytes.begin(), bytes.end());
      sent.push_back(std::move(f));
    } else {
      // Garbage — including stray sync bytes that open false frames which
      // can swallow the start of a real one.
      const std::uint32_t n = 1 + rnd(10);
      for (std::uint32_t b = 0; b < n; ++b) {
        stream.push_back(rnd(6) == 0 ? pil::kSyncByte
                                     : static_cast<std::uint8_t>(rnd(256)));
      }
    }
  }

  // Flush: a trailing garbage sync byte can open a false frame whose length
  // field swallows the tail of the stream; the decoder only resolves it (and
  // rescans the real frames inside) once enough further bytes arrive.  On a
  // live line traffic keeps flowing — model that with non-sync padding.
  stream.insert(stream.end(), 2000, 0x00);

  pil::FrameDecoder decoder;
  std::vector<pil::Frame> got;
  decoder.set_callback([&](const pil::Frame& f) { got.push_back(f); });
  decoder.feed(std::span<const std::uint8_t>(stream));

  // Every frame placed in the stream must come out, in order (garbage may
  // additionally decode as frames only if its CRC matches by chance, so
  // check for a subsequence rather than equality).
  std::size_t cursor = 0;
  for (const auto& f : sent) {
    bool found = false;
    for (; cursor < got.size(); ++cursor) {
      if (got[cursor].type == f.type && got[cursor].seq == f.seq &&
          got[cursor].payload == f.payload) {
        ++cursor;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "frame with seq " << int(f.seq) << " lost";
  }
}

TEST(FrameDecoderResync, LengthCorruptedUpwardSpansIntoNextFrameAndResyncs) {
  // Frame A's length byte is corrupted upward, so the decoder's false
  // payload swallows frames B and C entirely.  The CRC check at the false
  // frame's end fails, the raw bytes are rescanned from the next sync, and
  // both swallowed frames must come out intact.
  pil::Frame a, b, c;
  a.seq = 1;
  a.payload = {10, 11, 12, 13};
  b.seq = 2;
  b.payload = {20, 21};
  c.seq = 3;
  c.payload = {30, 31, 32};
  auto bytes_a = pil::encode_frame(a);
  const auto bytes_b = pil::encode_frame(b);
  const auto bytes_c = pil::encode_frame(c);
  bytes_a[3] = static_cast<std::uint8_t>(a.payload.size() + 40);  // len byte

  std::vector<std::uint8_t> stream = bytes_a;
  stream.insert(stream.end(), bytes_b.begin(), bytes_b.end());
  stream.insert(stream.end(), bytes_c.begin(), bytes_c.end());
  // Keep the line talking so the oversized false frame resolves.
  stream.insert(stream.end(), 64, 0x00);

  pil::FrameDecoder decoder;
  std::vector<pil::Frame> got;
  decoder.set_callback([&](const pil::Frame& f) { got.push_back(f); });
  decoder.feed(std::span<const std::uint8_t>(stream));

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].seq, b.seq);
  EXPECT_EQ(got[0].payload, b.payload);
  EXPECT_EQ(got[1].seq, c.seq);
  EXPECT_EQ(got[1].payload, c.payload);
  EXPECT_GE(decoder.crc_errors(), 1u);
  EXPECT_EQ(decoder.frames_ok(), 2u);
}

TEST(FrameDecoderResync, LengthCorruptedDownwardResyncsOnNextFrame) {
  // Frame A's length byte shrinks: the CRC is checked too early and fails,
  // and A's tail bytes become garbage the decoder scans through.  B must
  // still decode.
  pil::Frame a, b;
  a.seq = 1;
  a.payload = {10, 11, 12, 13, 14, 15};
  b.seq = 2;
  b.payload = {20, 21, 22};
  auto bytes_a = pil::encode_frame(a);
  const auto bytes_b = pil::encode_frame(b);
  bytes_a[3] = 2;  // claim a 2-byte payload

  std::vector<std::uint8_t> stream = bytes_a;
  stream.insert(stream.end(), bytes_b.begin(), bytes_b.end());

  pil::FrameDecoder decoder;
  std::vector<pil::Frame> got;
  decoder.set_callback([&](const pil::Frame& f) { got.push_back(f); });
  decoder.feed(std::span<const std::uint8_t>(stream));

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].seq, b.seq);
  EXPECT_EQ(got[0].payload, b.payload);
  EXPECT_GE(decoder.crc_errors(), 1u);
}

TEST(FrameDecoderFuzz, SeededBurstCorruptionNeverLosesACleanFrame) {
  // feed_burst under seeded corruption and truncation: a damaged frame may
  // lose itself, but the rescan must recover every clean frame behind it —
  // resynchronization within one frame — with no out-of-bounds access
  // (this test runs under the ASan job).
  fault::Xoshiro256ss rng(0xFEEDFACE);
  const auto rnd = [&rng](std::uint64_t mod) { return rng.next() % mod; };

  std::vector<std::uint8_t> stream;
  std::vector<pil::Frame> clean;
  std::uint64_t damaged = 0;
  for (int i = 0; i < 300; ++i) {
    pil::Frame f;
    f.type = rnd(2) ? pil::FrameType::kSensorData
                    : pil::FrameType::kActuatorData;
    f.seq = static_cast<std::uint8_t>(i);
    const std::uint64_t len = rnd(33);
    for (std::uint64_t b = 0; b < len; ++b) {
      f.payload.push_back(static_cast<std::uint8_t>(rnd(256)));
    }
    auto bytes = pil::encode_frame(f);
    const std::uint64_t dice = rnd(10);
    if (dice == 0) {
      // Single-bit corruption anywhere in the frame (sync, header, length,
      // payload or CRC).
      bytes[rnd(bytes.size())] ^= static_cast<std::uint8_t>(1u << rnd(8));
      ++damaged;
    } else if (dice == 1) {
      // Truncation: the tail never reaches the wire (reset mid-send).
      bytes.resize(1 + rnd(bytes.size() - 1));
      ++damaged;
    } else {
      clean.push_back(f);
    }
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  stream.insert(stream.end(), 600, 0x00);  // flush any dangling false frame

  pil::FrameDecoder decoder;
  std::vector<pil::Frame> got;
  decoder.set_callback([&](const pil::Frame& f) { got.push_back(f); });

  // Deliver as bursts of random size, the way the serial channel does.
  const sim::SimTime byte_time = 86806;
  sim::SimTime t = 0;
  std::size_t cursor = 0;
  while (cursor < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rnd(64), stream.size() - cursor);
    decoder.feed_burst(
        std::span<const std::uint8_t>(stream.data() + cursor, n), t,
        byte_time);
    cursor += n;
    t += static_cast<sim::SimTime>(n) * byte_time;
  }

  EXPECT_GT(damaged, 10u);
  EXPECT_GE(decoder.crc_errors(), 1u);
  // Every clean frame survives, in order.
  std::size_t scan = 0;
  for (const auto& f : clean) {
    bool found = false;
    for (; scan < got.size(); ++scan) {
      if (got[scan].type == f.type && got[scan].seq == f.seq &&
          got[scan].payload == f.payload) {
        ++scan;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "clean frame with seq " << int(f.seq) << " lost";
  }
}

TEST(FrameDecoderBurst, LastFrameTimeIsTheClosingByteArrival) {
  pil::FrameDecoder decoder;
  decoder.set_callback([](const pil::Frame&) {});
  pil::Frame f;
  f.payload = {1, 2, 3};
  const auto bytes = pil::encode_frame(f);
  const sim::SimTime first = 1000000;
  const sim::SimTime bt = 86806;
  EXPECT_EQ(decoder.feed_burst(bytes, first, bt), 1u);
  EXPECT_EQ(decoder.last_frame_time(),
            first + bt * static_cast<sim::SimTime>(bytes.size() - 1));
}

// ------------------------------------------------------ allocation counting

}  // namespace
}  // namespace iecd

namespace iecd::testhooks {
// External linkage: only ONE global operator new may exist per binary, so
// every zero-allocation test in the suite (framing here, the obs record
// path in obs_test.cpp) shares this counter.
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace iecd::testhooks

namespace iecd {
namespace {
using testhooks::g_allocations;
}  // namespace
}  // namespace iecd

// Counting allocator for the zero-allocation guarantee below.  Linked into
// the whole test binary; the test only inspects deltas around its own
// single-threaded region.
void* operator new(std::size_t size) {
  ++iecd::testhooks::g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The deallocation functions stay out of line: inlined into a caller, GCC
// pairs their free() with the caller's operator new and reports a mismatch
// (-Wmismatched-new-delete), although both ends are this malloc/free pair.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace iecd {
namespace {

TEST(FrameFastPath, SteadyStateEncodeDecodeIsAllocationFree) {
  pil::FrameDecoder decoder;
  std::uint64_t frames = 0;
  decoder.set_callback([&frames](const pil::Frame&) { ++frames; });

  std::vector<double> values = {1.5, -2.25, 100.0};
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> wire;

  // Warm-up: let every buffer reach its steady-state capacity.
  for (int i = 0; i < 4; ++i) {
    payload.clear();
    wire.clear();
    pil::encode_signals_into(values, payload);
    pil::encode_frame_into(pil::FrameType::kSensorData,
                           static_cast<std::uint8_t>(i), payload, wire);
    decoder.feed(std::span<const std::uint8_t>(wire));
  }

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    payload.clear();
    wire.clear();
    pil::encode_signals_into(values, payload);
    pil::encode_frame_into(pil::FrameType::kSensorData,
                           static_cast<std::uint8_t>(i), payload, wire);
    decoder.feed(std::span<const std::uint8_t>(wire));
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state encode/decode touched the heap";
  EXPECT_EQ(frames, 1004u);
}

// ------------------------------------------------------- RTT vs baud (E3)

TEST(PilRoundTrip, FasterLineReportsShorterRoundTrip) {
  // Regression for the E3 anomaly: at 115200 baud the true round trip
  // (1.83 ms) exceeds the 1 ms period, and the old single-slot timestamp
  // paired each response with the NEXT send, reporting 0.83 ms — below the
  // 230400 figure.  Per-sequence FIFO pairing must keep RTT monotonic.
  const auto rtt = [](std::uint32_t baud) {
    core::ServoConfig cfg;
    cfg.duration_s = 0.25;
    core::ServoSystem servo(cfg);
    core::ServoSystem::PilRunOptions opts;
    opts.baud = baud;
    return servo.run_pil(opts).report.round_trip_us().mean();
  };
  const double at_115200 = rtt(115200);
  const double at_230400 = rtt(230400);
  EXPECT_GT(at_115200, 1000.0);  // honest: longer than the control period
  EXPECT_LT(at_230400, at_115200);
}

}  // namespace
}  // namespace iecd
