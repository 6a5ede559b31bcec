// Unit tests of the observability registry: merge semantics per metric
// kind, power-of-two histogram bucketing, canonical JSON snapshots, and
// the shard wire format round trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cds::obs {
namespace {

TEST(ObsMetrics, CounterGaugeTimerBasics) {
  Registry r;
  Counter& c = r.counter("a.count");
  c.add();
  c.add(41);
  EXPECT_EQ(r.counter_value("a.count"), 42u);
  EXPECT_EQ(r.counter_value("missing"), 0u);

  Gauge& g = r.gauge("a.peak");
  g.set_max(7);
  g.set_max(3);  // lower: ignored
  EXPECT_EQ(r.gauges().at("a.peak").value, 7u);
  g.set(2);  // explicit set overrides
  EXPECT_EQ(r.gauges().at("a.peak").value, 2u);

  Timer& t = r.timer("a.time");
  t.add_ns(1'500'000'000);
  t.add_ns(500'000'000);
  EXPECT_EQ(r.timers().at("a.time").count, 2u);
  EXPECT_DOUBLE_EQ(r.timers().at("a.time").total_seconds(), 2.0);

  // Lookup-or-create returns stable references: the cached pointer idiom
  // the engine hot path relies on.
  EXPECT_EQ(&r.counter("a.count"), &c);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // Bucket 0 holds 0; bucket k >= 1 holds [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  // The last bucket absorbs the unbounded tail.
  EXPECT_EQ(Histogram::bucket_of(~0ull), Histogram::kBuckets - 1);

  Histogram h;
  h.record(0);
  h.record(1);
  h.record(6);
  h.record(6);
  EXPECT_EQ(h.samples, 4u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 2u);
}

TEST(ObsMetrics, MergeSemanticsPerKind) {
  Registry a;
  a.counter("c").add(10);
  a.gauge("g").set(5);
  a.timer("t").add_ns(100);
  a.histogram("h").record(3);

  Registry b;
  b.counter("c").add(32);
  b.counter("only_b").add(1);
  b.gauge("g").set(3);  // lower than a's: max wins
  b.timer("t").add_ns(50);
  b.histogram("h").record(3);
  b.histogram("h").record(100);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 42u);          // counters sum
  EXPECT_EQ(a.counter_value("only_b"), 1u);      // missing = implicit 0
  EXPECT_EQ(a.gauges().at("g").value, 5u);       // gauges max
  EXPECT_EQ(a.timers().at("t").total_ns, 150u);  // timers sum
  EXPECT_EQ(a.timers().at("t").count, 2u);
  EXPECT_EQ(a.histograms().at("h").samples, 3u);  // histograms sum buckets
  EXPECT_EQ(a.histograms().at("h").buckets[2], 2u);
}

TEST(ObsMetrics, MergeIsCommutative) {
  // Shard results merge in whatever order workers finish; the snapshot
  // must not depend on it.
  auto populate_a = [](Registry& r) {
    r.counter("x").add(3);
    r.gauge("p").set(9);
    r.histogram("d").record(17);
  };
  auto populate_b = [](Registry& r) {
    r.counter("x").add(4);
    r.counter("y").add(1);
    r.gauge("p").set(2);
    r.histogram("d").record(1);
  };
  Registry ab, a, b;
  populate_a(ab);
  populate_a(a);
  populate_b(b);
  ab.merge(b);
  b.merge(a);
  EXPECT_EQ(ab.to_json(), b.to_json());
}

TEST(ObsMetrics, JsonSnapshotIsCanonical) {
  // Same contents registered in different orders render identical bytes.
  Registry r1;
  r1.counter("b").add(2);
  r1.counter("a").add(1);
  r1.gauge("z").set(3);
  Registry r2;
  r2.gauge("z").set(3);
  r2.counter("a").add(1);
  r2.counter("b").add(2);
  EXPECT_EQ(r1.to_json(), r2.to_json());

  // Golden schema: the exact shape CI and downstream dashboards parse.
  Registry g;
  g.counter("engine.executions").add(12);
  g.gauge("parallel.jobs").set(4);
  g.timer("engine.explore").add_ns(1000);
  g.histogram("engine.trail_depth").record(0);
  g.histogram("engine.trail_depth").record(2);
  EXPECT_EQ(g.to_json(),
            "{\n"
            "  \"schema\": \"cdsspec-metrics-v1\",\n"
            "  \"counters\": {\n"
            "    \"engine.executions\": 12\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"parallel.jobs\": 4\n"
            "  },\n"
            "  \"timers_ns\": {\n"
            "    \"engine.explore\": {\"total_ns\": 1000, \"count\": 1}\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"engine.trail_depth\": {\"samples\": 2, \"buckets\": [1, 0, 1]}\n"
            "  }\n"
            "}\n");
}

TEST(ObsMetrics, WireFormatRoundTrips) {
  Registry src;
  src.counter("engine.executions").add(1279);
  src.gauge("engine.mem_estimate_peak_bytes").set(123456);
  src.timer("engine.explore").add_ns(987654321);
  src.histogram("engine.rf_fanout").record(1);
  src.histogram("engine.rf_fanout").record(9);

  Registry dst;
  std::string err;
  for (const std::string& line : src.render_wire()) {
    ASSERT_TRUE(dst.parse_wire_line(line, &err)) << err;
  }
  EXPECT_EQ(dst.to_json(), src.to_json());
}

TEST(ObsMetrics, WireParserRejectsMalformedLines) {
  Registry r;
  std::string err;
  EXPECT_FALSE(r.parse_wire_line("", &err));
  EXPECT_FALSE(r.parse_wire_line("c name", &err));           // missing value
  EXPECT_FALSE(r.parse_wire_line("c name twelve", &err));    // non-numeric
  EXPECT_FALSE(r.parse_wire_line("q name 1", &err));         // unknown kind
  EXPECT_FALSE(r.parse_wire_line("t name 100", &err));       // missing count
  EXPECT_FALSE(err.empty());
  // A histogram with more buckets than the fixed shape must be rejected,
  // not silently truncated.
  std::string too_many = "h big 1";
  for (std::size_t i = 0; i < Histogram::kBuckets + 1; ++i) too_many += " 1";
  EXPECT_FALSE(r.parse_wire_line(too_many, &err));
}

TEST(ObsMetrics, WireParserRejectsNumbersPastU64) {
  Registry r;
  std::string err;
  // Values past 2^64 - 1 are rejected, not wrapped (once read as 1 and
  // 7766279631452241919).
  EXPECT_FALSE(r.parse_wire_line("c x 18446744073709551617", &err));
  EXPECT_FALSE(r.parse_wire_line("t y 99999999999999999999 1", &err));
  EXPECT_FALSE(r.parse_wire_line("t y 1 18446744073709551616", &err));
  EXPECT_FALSE(r.parse_wire_line("h z 1 0 18446744073709551616", &err));
  EXPECT_FALSE(r.parse_wire_line("g w +5", &err));
  EXPECT_TRUE(r.counters().empty() && r.timers().empty() &&
              r.histograms().empty() && r.gauges().empty());
  ASSERT_TRUE(r.parse_wire_line("c x 18446744073709551615", &err)) << err;
  EXPECT_EQ(r.counter_value("x"), 18446744073709551615u);
}

}  // namespace
}  // namespace cds::obs
