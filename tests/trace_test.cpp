// Tests for the unified trace & telemetry subsystem: recorder semantics
// (ring wraparound, interning, disabled path), MetricsRegistry, exporter
// validity, and the headline determinism guarantee — two identical PIL
// runs export byte-identical Chrome traces spanning all stack layers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "core/case_study.hpp"
#include "sim/can_bus.hpp"
#include "sim/event_queue.hpp"
#include "sim/world.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace iecd {
namespace {

TEST(TraceRecorder, RecordsTypedEventsInOrder) {
  trace::TraceRecorder rec(16);
  rec.span_begin("sim", "work", "trackA", 100);
  rec.counter("sim", "depth", "trackA", 150, 3.0);
  rec.span_end("sim", "work", "trackA", 200);
  rec.instant("pil", "mark", "trackB", 250);
  rec.span_complete("mcu", "isr", "cpu", 300, 450, 42.0);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].type, trace::EventType::kSpanBegin);
  EXPECT_EQ(events[1].type, trace::EventType::kCounter);
  EXPECT_DOUBLE_EQ(events[1].value, 3.0);
  EXPECT_EQ(events[2].type, trace::EventType::kSpanEnd);
  EXPECT_EQ(events[3].type, trace::EventType::kInstant);
  EXPECT_EQ(events[4].type, trace::EventType::kSpanComplete);
  EXPECT_EQ(events[4].time, 300);
  EXPECT_EQ(events[4].duration, 150);
  // Monotonic sequence numbers.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
  // Interning: same string, same id; resolution round-trips.
  EXPECT_EQ(events[0].name, events[2].name);
  EXPECT_EQ(rec.string_at(events[4].track), "cpu");
}

TEST(TraceRecorder, RingBufferWraparoundKeepsNewest) {
  trace::TraceRecorder rec(8);
  for (int i = 0; i < 20; ++i) {
    rec.instant("sim", "tick", "t", i, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first iteration over the surviving (newest) window: 12..19.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].time, static_cast<sim::SimTime>(12 + i));
    EXPECT_EQ(events[i].seq, 12 + i);
  }
}

TEST(TraceRecorder, DisabledTracerRecordsNothing) {
  // No recorder installed: instrumented hot paths run, nothing is stored.
  ASSERT_EQ(trace::TraceRecorder::active(), nullptr);
  sim::EventQueue q;
  int hits = 0;
  for (int i = 0; i < 64; ++i) q.schedule_at(i + 1, [&hits] { ++hits; });
  q.run_all();
  EXPECT_EQ(hits, 64);

  trace::TraceRecorder rec(64);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, SessionInstallsAndRestores) {
  trace::TraceRecorder outer(32);
  {
    trace::TraceSession session(outer);
    EXPECT_EQ(trace::TraceRecorder::active(), &outer);
    trace::TraceRecorder inner(32);
    {
      trace::TraceSession nested(inner);
      EXPECT_EQ(trace::TraceRecorder::active(), &inner);
    }
    EXPECT_EQ(trace::TraceRecorder::active(), &outer);
  }
  EXPECT_EQ(trace::TraceRecorder::active(), nullptr);
}

TEST(TraceRecorder, EventQueueDispatchEmitsSpans) {
  trace::TraceRecorder rec(256);
  trace::TraceSession session(rec);
  sim::EventQueue q;
  q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.run_all();
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);  // begin/end per dispatch
  EXPECT_EQ(events[0].type, trace::EventType::kSpanBegin);
  EXPECT_EQ(events[0].time, 10);
  EXPECT_EQ(events[1].type, trace::EventType::kSpanEnd);
  EXPECT_EQ(events[2].time, 20);
  EXPECT_EQ(rec.string_at(events[0].category), "sim");
  EXPECT_EQ(rec.string_at(events[0].track), "event_queue");
}

TEST(TraceRecorder, CanBusEmitsFrameSpans) {
  trace::TraceRecorder rec(256);
  trace::TraceSession session(rec);
  sim::World world;
  sim::CanBus bus(world, 500000);
  bus.attach_node("rx", [](const sim::CanFrame&, sim::SimTime) {});
  const auto tx = bus.attach_node("tx", nullptr);
  bus.transmit(tx, {0x123, {1, 2, 3}});
  world.run_for(sim::milliseconds(5));

  bool saw_frame_span = false;
  rec.for_each([&](const trace::Event& e) {
    if (e.type == trace::EventType::kSpanComplete &&
        rec.string_at(e.track) == "can") {
      saw_frame_span = true;
      EXPECT_EQ(rec.string_at(e.name), "tx");
      EXPECT_DOUBLE_EQ(e.value, double{0x123});
      EXPECT_GT(e.duration, 0);
    }
  });
  EXPECT_TRUE(saw_frame_span);
}

TEST(MetricsRegistry, HandlesAllMetricKinds) {
  trace::MetricsRegistry m;
  m.counter("frames").increment();
  m.counter("frames").increment(4);
  m.gauge("ratio") = 0.25;
  m.stats("exec").add(1.0);
  m.stats("exec").add(3.0);
  m.series("rtt").record(10.0);
  m.series("rtt").record(20.0);

  EXPECT_EQ(m.find_counter("frames")->value, 5u);
  EXPECT_DOUBLE_EQ(*m.find_gauge("ratio"), 0.25);
  EXPECT_DOUBLE_EQ(m.find_stats("exec")->mean(), 2.0);
  // A series is a histogram: its p50 is the exact 15 within the bucket
  // resolution, and its mean is exact.
  const auto* rtt = m.find_series("rtt");
  EXPECT_NEAR(rtt->percentile(50), 15.0,
              15.0 * util::LatencyHistogram::kRelativeErrorBound);
  EXPECT_DOUBLE_EQ(rtt->mean(), 15.0);
  EXPECT_EQ(m.find_counter("missing"), nullptr);

  const std::string report = m.report();
  EXPECT_NE(report.find("frames"), std::string::npos);
  EXPECT_NE(report.find("rtt"), std::string::npos);
  const std::string csv = m.to_csv();
  EXPECT_NE(csv.find("frames,counter,5"), std::string::npos);
  // A series row leaves stddev empty: a histogram keeps no second moment.
  // p50 and p99 interpolate between the two samples' bucket estimates
  // (10.125, the middle of 10's bucket, and 20, the exact max).
  EXPECT_NE(csv.find("rtt,series,2,,15,,10,20,15.0625,19.90125\n"),
            std::string::npos);
}

TEST(MetricsRegistry, MergeCombines) {
  trace::MetricsRegistry a;
  trace::MetricsRegistry b;
  a.counter("n").increment(2);
  b.counter("n").increment(3);
  a.series("s").record(1.0);
  b.series("s").record(3.0);
  a.stats("w").add(10.0);
  b.stats("w").add(20.0);
  a.merge(b);
  EXPECT_EQ(a.find_counter("n")->value, 5u);
  EXPECT_EQ(a.find_series("s")->count(), 2u);
  // Merging adds buckets: the merged series equals one fed both samples.
  util::LatencyHistogram both;
  both.record(1.0);
  both.record(3.0);
  EXPECT_EQ(*a.find_series("s"), both);
  EXPECT_DOUBLE_EQ(a.find_stats("w")->mean(), 15.0);
}

// A registry series is the sample series every report reads: its
// percentiles hold at the edges, also once it has been merged.
TEST(MetricsSeries, PercentileEdgeCases) {
  trace::MetricsRegistry m;
  const auto& empty = m.series("empty");
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);

  auto& pair = m.series("pair");
  pair.record(10.0);
  pair.record(20.0);
  EXPECT_DOUBLE_EQ(pair.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(pair.percentile(100), 20.0);
  // Out-of-range p clamps rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(pair.percentile(-10), 10.0);
  EXPECT_DOUBLE_EQ(pair.percentile(250), 20.0);
  // NaN p yields NaN instead of undefined clamping.
  EXPECT_TRUE(std::isnan(pair.percentile(std::nan(""))));

  // A merged-in smaller sample moves the exact minimum; the maximum stays.
  trace::MetricsRegistry later;
  later.series("pair").record(0.0);
  m.merge(later);
  EXPECT_DOUBLE_EQ(m.find_series("pair")->percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(m.find_series("pair")->percentile(100), 20.0);
  // Merging an empty series leaves the other one as it was.
  trace::MetricsRegistry none;
  none.series("pair");
  const util::LatencyHistogram before = *m.find_series("pair");
  m.merge(none);
  EXPECT_EQ(*m.find_series("pair"), before);
}

TEST(MetricsSeries, SingleAndEmptyBehaviour) {
  trace::MetricsRegistry m;
  const auto& e = m.series("e");
  EXPECT_EQ(e.percentile(50), 0.0);
  EXPECT_EQ(e.mean(), 0.0);
  auto& s = m.series("s");
  s.record(3.0);
  EXPECT_EQ(s.percentile(0), 3.0);
  EXPECT_EQ(s.percentile(100), 3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.min(), s.max());
  // Both rows are exact; stddev stays empty, as for every series row.
  const std::string csv = m.to_csv();
  EXPECT_NE(csv.find("e,series,0,,0,,0,0,0,0\n"), std::string::npos);
  EXPECT_NE(csv.find("s,series,1,,3,,3,3,3,3\n"), std::string::npos);
}

TEST(TraceExport, ChromeTraceIsStructurallyValidJson) {
  trace::TraceRecorder rec(64);
  rec.span_begin("sim", "a \"quoted\" name", "track\\1", 1000);
  rec.span_end("sim", "a \"quoted\" name", "track\\1", 3000);
  rec.counter("mcu", "load", "cpu", 2000, 0.5);
  rec.instant("pil", "mark", "host", 2500);
  rec.span_complete("model", "step", "engine", 0, 1000000, 7.0);

  const std::string json = trace::to_chrome_trace(rec);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process names
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);

  // Balanced braces/brackets outside strings => structurally valid.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceExport, ExportersReturnZeroWhenNothingDropped) {
  trace::TraceRecorder rec(16);
  rec.instant("sim", "x", "t", 5);
  std::ostringstream chrome, csv;
  EXPECT_EQ(trace::write_chrome_trace(rec, chrome), 0u);
  EXPECT_EQ(trace::write_csv(rec, csv), 0u);
  EXPECT_EQ(chrome.str().find("trace_dropped_events"), std::string::npos);
  EXPECT_NE(csv.str().rfind("seq,", 0), std::string::npos);  // no comment line
}

TEST(TraceExport, ExportersSurfaceRingDrops) {
  trace::TraceRecorder rec(8);
  for (int i = 0; i < 20; ++i) rec.instant("sim", "x", "t", i);
  ASSERT_EQ(rec.dropped(), 12u);

  std::ostringstream chrome;
  EXPECT_EQ(trace::write_chrome_trace(rec, chrome), 12u);
  const std::string json = chrome.str();
  // Metadata record carries the warning into the file itself.
  EXPECT_NE(json.find("\"name\":\"trace_dropped_events\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":12"), std::string::npos);
  EXPECT_NE(json.find("\"retained\":8"), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":20"), std::string::npos);

  std::ostringstream csv;
  EXPECT_EQ(trace::write_csv(rec, csv), 12u);
  EXPECT_EQ(csv.str().rfind("# dropped 12 events", 0), 0u);
}

TEST(TraceExport, CsvListsEveryEvent) {
  trace::TraceRecorder rec(8);
  rec.instant("sim", "x", "t", 5);
  rec.counter("sim", "y", "t", 6, 1.5);
  const std::string csv = trace::to_csv(rec);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_NE(csv.find("0,instant,sim,x,t,5,0,0"), std::string::npos);
  EXPECT_NE(csv.find("1,counter,sim,y,t,6,0,1.5"), std::string::npos);
}

// The acceptance check: a PIL servo run with tracing on yields a valid
// Chrome trace containing spans from >= 4 distinct layers, and two
// identical runs export byte-identical output.
TEST(TraceIntegration, PilRunIsCrossLayerAndDeterministic) {
  auto traced_pil_run = []() -> std::string {
    trace::TraceRecorder rec(std::size_t{1} << 18);
    trace::TraceSession session(rec);
    core::ServoConfig cfg;
    cfg.duration_s = 0.05;
    core::ServoSystem servo(cfg);
    (void)servo.run_pil({.baud = 460800});
    return trace::to_chrome_trace(rec);
  };

  const std::string first = traced_pil_run();
  const std::string second = traced_pil_run();
  EXPECT_EQ(first, second) << "trace export must be bit-identical";

  // Spans from at least four distinct layers of the stack: walk the
  // exported events line by line and collect the category of every span.
  std::set<std::string> span_cats;
  std::istringstream lines(first);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"B\"") == std::string::npos &&
        line.find("\"ph\":\"X\"") == std::string::npos) {
      continue;
    }
    const std::string key = "\"cat\":\"";
    const std::size_t cat_pos = line.find(key);
    if (cat_pos == std::string::npos) continue;
    const std::size_t start = cat_pos + key.size();
    span_cats.insert(line.substr(start, line.find('"', start) - start));
  }
  EXPECT_GE(span_cats.size(), 4u) << "layers seen: " << span_cats.size();
  EXPECT_TRUE(span_cats.count("sim"));
  EXPECT_TRUE(span_cats.count("mcu"));
  EXPECT_TRUE(span_cats.count("pil"));
}

TEST(TraceIntegration, PilReportCarriesMetricsRegistry) {
  core::ServoConfig cfg;
  cfg.duration_s = 0.05;
  core::ServoSystem servo(cfg);
  const auto pil = servo.run_pil({.baud = 460800});
  const auto& m = pil.report.metrics;
  ASSERT_NE(m.find_counter("pil.exchanges"), nullptr);
  EXPECT_EQ(m.find_counter("pil.exchanges")->value, pil.report.exchanges);
  // The round-trip samples live once, in the registry series; the
  // report's accessor is a view of it.
  ASSERT_NE(m.find_series("pil.round_trip_us"), nullptr);
  EXPECT_EQ(&pil.report.round_trip_us(), m.find_series("pil.round_trip_us"));
  EXPECT_GT(pil.report.round_trip_us().count(), 0u);
  ASSERT_NE(m.find_gauge("pil.observed_stack_bytes"), nullptr);
  EXPECT_DOUBLE_EQ(*m.find_gauge("pil.observed_stack_bytes"),
                   pil.report.observed_stack_bytes);
}

}  // namespace
}  // namespace iecd
