#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "util/crc16.hpp"
#include "util/diagnostics.hpp"
#include "util/latency_histogram.hpp"
#include "util/small_function.hpp"
#include "util/statistics.hpp"
#include "util/strings.hpp"

namespace iecd::util {
namespace {

TEST(Diagnostics, SeverityClassification) {
  DiagnosticList list;
  EXPECT_FALSE(list.has_errors());
  list.info("a", "note");
  list.warning("b", "careful");
  EXPECT_FALSE(list.has_errors());
  EXPECT_TRUE(list.has_warnings());
  list.error("c", "broken");
  EXPECT_TRUE(list.has_errors());
  EXPECT_EQ(list.size(), 3u);
}

TEST(Diagnostics, RenderingIncludesComponentAndSeverity) {
  DiagnosticList list;
  list.error("beans.PWM1.period", "period not achievable");
  const std::string text = list.to_string();
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("beans.PWM1.period"), std::string::npos);
}

TEST(Diagnostics, MergeConcatenates) {
  DiagnosticList a;
  DiagnosticList b;
  a.info("x", "1");
  b.error("y", "2");
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.has_errors());
}

TEST(RunningStats, MeanAndStddevMatchClosedForm) {
  RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Population variance of 1..100 is (n^2-1)/12 = 833.25.
  EXPECT_NEAR(s.variance(), 833.25, 1e-9);
}

TEST(RunningStats, MergeEqualsSequential) {
  std::mt19937 rng(42);
  std::normal_distribution<double> dist(3.0, 2.0);
  RunningStats whole;
  RunningStats part1;
  RunningStats part2;
  for (int i = 0; i < 1000; ++i) {
    const double x = dist(rng);
    whole.add(x);
    (i < 400 ? part1 : part2).add(x);
  }
  part1.merge(part2);
  EXPECT_NEAR(part1.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(part1.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(part1.count(), whole.count());
}

TEST(LatencyHistogram, PercentilesAreOrdered) {
  LatencyHistogram h;
  for (int i = 100; i >= 1; --i) h.record(i);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  // The exact linear-rank median is 50.5; the histogram's answer lies
  // within its bucket resolution of it.
  EXPECT_NEAR(h.percentile(50), 50.5,
              50.5 * util::LatencyHistogram::kRelativeErrorBound);
  EXPECT_LE(h.percentile(25), h.percentile(75));
}

TEST(LatencyHistogram, PercentileEdgeCases) {
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  LatencyHistogram single;
  single.record(7.5);
  EXPECT_DOUBLE_EQ(single.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(single.percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(single.percentile(100), 7.5);

  LatencyHistogram pair;
  pair.record(10.0);
  pair.record(20.0);
  EXPECT_DOUBLE_EQ(pair.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(pair.percentile(100), 20.0);
  EXPECT_DOUBLE_EQ(pair.mean(), 15.0);
  // The p50 rank (0.5) falls between the two samples, which sit in
  // different buckets: the answer interpolates between them, as the exact
  // percentile (15) does, within the bucket resolution.
  constexpr double kBound = util::LatencyHistogram::kRelativeErrorBound;
  EXPECT_NEAR(pair.percentile(50), 15.0, 15.0 * kBound);
  EXPECT_NEAR(pair.percentile(90), 19.0, 19.0 * kBound);
  // Out-of-range p clamps rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(pair.percentile(-10), 10.0);
  EXPECT_DOUBLE_EQ(pair.percentile(250), 20.0);
  // NaN p yields NaN instead of undefined clamping.
  EXPECT_TRUE(std::isnan(pair.percentile(std::nan(""))));
  // A later, smaller sample moves the exact minimum.
  pair.record(0.0);
  EXPECT_DOUBLE_EQ(pair.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(pair.percentile(100), 20.0);
}

TEST(Crc16, KnownVector) {
  // CRC-16/CCITT-FALSE("123456789") == 0x29B1.
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(msg), 0x29B1);
}

TEST(Crc16, AppendingCrcYieldsZeroResidual) {
  std::vector<std::uint8_t> msg = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  const std::uint16_t crc = crc16_ccitt(msg);
  msg.push_back(static_cast<std::uint8_t>(crc >> 8));
  msg.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  EXPECT_EQ(crc16_ccitt(msg), 0);
}

TEST(Crc16, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> msg = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint16_t good = crc16_ccitt(msg);
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = msg;
      bad[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crc16_ccitt(bad), good);
    }
  }
}

TEST(Strings, FormatAndJoin) {
  EXPECT_EQ(format("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, CIdentifierChecks) {
  EXPECT_TRUE(is_c_identifier("model_step"));
  EXPECT_TRUE(is_c_identifier("_x9"));
  EXPECT_FALSE(is_c_identifier("9x"));
  EXPECT_FALSE(is_c_identifier("a-b"));
  EXPECT_FALSE(is_c_identifier(""));
  EXPECT_EQ(sanitize_c_identifier("PWM 1/out"), "PWM_1_out");
  EXPECT_EQ(sanitize_c_identifier("9lives"), "_9lives");
  EXPECT_TRUE(is_c_identifier(sanitize_c_identifier("x – ü")));
}

TEST(Strings, IndentPreservesStructure) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");  // blank lines stay blank
}

TEST(SmallFunction, SmallCapturesStayInline) {
  int hits = 0;
  int* p = &hits;
  SmallFunction<void(), 48> fn([p] { ++*p; });
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_FALSE(fn.uses_heap());
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, LargeCapturesSpillToHeap) {
  struct Big {
    double payload[16] = {};  // 128 bytes > 48-byte inline buffer
  } big;
  big.payload[3] = 42.0;
  double seen = 0.0;
  double* out = &seen;
  SmallFunction<void(), 48> fn([big, out] { *out = big.payload[3]; });
  EXPECT_TRUE(fn.uses_heap());
  fn();
  EXPECT_EQ(seen, 42.0);
}

TEST(SmallFunction, MoveTransfersTargetAndEmptiesSource) {
  int calls = 0;
  int* p = &calls;
  SmallFunction<void(), 48> a([p] { ++*p; });
  SmallFunction<void(), 48> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  SmallFunction<void(), 48> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFunction, NullAndReturnValues) {
  SmallFunction<int(int), 32> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  SmallFunction<int(int), 32> twice([](int v) { return 2 * v; });
  EXPECT_EQ(twice(21), 42);
  twice = nullptr;
  EXPECT_FALSE(static_cast<bool>(twice));
}

TEST(SmallFunction, AcceptsStdFunctionLvalue) {
  // The event queue's public API historically took std::function; callers
  // passing one (by value or lvalue) must keep working.
  std::function<void()> stdfn;
  int hits = 0;
  stdfn = [&hits] { ++hits; };
  SmallFunction<void(), 48> fn(stdfn);
  fn();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace iecd::util
