// Tests for the telemetry subsystem: the metrics registry (labeled families,
// callbacks, and its behaviour under concurrent registration + updates,
// which the TSan CI job replays), the GK-backed latency histogram,
// metric-name validation, and the
// TraceContext span machinery (parent links, ordering, the span cap, and
// the sampling gate).

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry.h"
#include "common/trace.h"

namespace fairrank {
namespace {

// ---------------------------------------------------------------------------
// MetricHistogram

TEST(MetricHistogramTest, EmptyHistogramReadsZero) {
  MetricHistogram histogram;
  MetricHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.p50_seconds, 0.0);
  EXPECT_EQ(snapshot.p99_seconds, 0.0);
}

TEST(MetricHistogramTest, QuantilesTrackUniformStream) {
  MetricHistogram histogram;
  // 1ms..1000ms uniform: p50 ~ 0.5s, p99 ~ 0.99s.
  for (int i = 1; i <= 1000; ++i) {
    histogram.Observe(static_cast<double>(i) / 1000.0);
  }
  MetricHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_DOUBLE_EQ(snapshot.max_seconds, 1.0);
  EXPECT_NEAR(snapshot.sum_seconds, 500.5, 1e-9);
  // GK epsilon=0.005 over 1000 samples: ±5 ranks = ±0.005s, plus slack.
  EXPECT_NEAR(snapshot.p50_seconds, 0.5, 0.02);
  EXPECT_NEAR(snapshot.p90_seconds, 0.9, 0.02);
  EXPECT_NEAR(snapshot.p99_seconds, 0.99, 0.02);
  EXPECT_LT(snapshot.p50_seconds, snapshot.p99_seconds);
}

TEST(MetricHistogramTest, SingleObservationIsEveryQuantile) {
  MetricHistogram histogram;
  histogram.Observe(0.25);
  MetricHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.p50_seconds, 0.25);
  EXPECT_DOUBLE_EQ(snapshot.p90_seconds, 0.25);
  EXPECT_DOUBLE_EQ(snapshot.p99_seconds, 0.25);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, GetReturnsStablePointerPerName) {
  MetricsRegistry registry;
  MetricCounter* a = registry.GetCounter("fairrank_example_total", "help");
  MetricCounter* b = registry.GetCounter("fairrank_example_total", "other");
  EXPECT_EQ(a, b);
  // One pointer per (name, label value).
  MetricCounter* audit = registry.GetCounter("fairrank_labeled_total", "help",
                                             {"endpoint", "/audit"});
  EXPECT_EQ(audit, registry.GetCounter("fairrank_labeled_total", "help",
                                       {"endpoint", "/audit"}));
  EXPECT_NE(audit, registry.GetCounter("fairrank_labeled_total", "help",
                                       {"endpoint", "/stats"}));
  MetricHistogram* h =
      registry.GetHistogram("fairrank_example_seconds", "help");
  EXPECT_EQ(h, registry.GetHistogram("fairrank_example_seconds", "help"));
}

TEST(MetricsRegistryTest, RenderPrometheusEmitsAllFamiliesSorted) {
  MetricsRegistry registry;
  registry.GetCounter("fairrank_zz_total", "Last counter")->Increment(3);
  registry.GetCounter("fairrank_aa_total", "First counter")->Increment(1);
  registry.AddCallback("fairrank_depth_count", "A gauge", MetricType::kGauge,
                       {}, [] { return int64_t{-7}; });
  MetricHistogram* h = registry.GetHistogram("fairrank_mid_seconds", "Mid");
  h->Observe(0.5);
  h->Observe(1.5);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP fairrank_aa_total First counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fairrank_zz_total counter"), std::string::npos);
  EXPECT_NE(text.find("fairrank_zz_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fairrank_depth_count gauge"),
            std::string::npos);
  EXPECT_NE(text.find("fairrank_depth_count -7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fairrank_mid_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("fairrank_mid_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("fairrank_mid_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  // Deterministic ordering: sorted by name.
  EXPECT_LT(text.find("fairrank_aa_total"), text.find("fairrank_zz_total"));
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(MetricsRegistryTest, LabeledFamilyHasOneHeaderAndSortedSamples) {
  MetricsRegistry registry;
  // Registered out of label order; the unlabeled sibling stays separate.
  registry.GetCounter("fairrank_shed_total", "Shed", {"reason", "total"});
  registry.GetCounter("fairrank_shed_total", "Shed", {"reason", "overloaded"})
      ->Increment(2);
  registry.GetCounter("fairrank_shed_total", "Shed", {"reason", "draining"})
      ->Increment();
  registry.AddCallback("fairrank_events_total", "Events", MetricType::kCounter,
                       {"event", "hits"}, [] { return int64_t{7}; });
  registry.AddCallback("fairrank_depth_count", "Depth", MetricType::kGauge, {},
                       [] { return int64_t{-3}; });
  // A declared family renders its header before it has any child.
  registry.AddFamily("fairrank_idle_total", "Idle", MetricType::kCounter,
                     "endpoint");

  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(CountOf(text, "# HELP fairrank_shed_total Shed\n"), 1u) << text;
  EXPECT_EQ(CountOf(text, "# TYPE fairrank_shed_total counter\n"), 1u)
      << text;
  const size_t draining =
      text.find("fairrank_shed_total{reason=\"draining\"} 1\n");
  const size_t overloaded =
      text.find("fairrank_shed_total{reason=\"overloaded\"} 2\n");
  const size_t total = text.find("fairrank_shed_total{reason=\"total\"} 0\n");
  ASSERT_NE(draining, std::string::npos) << text;
  ASSERT_NE(overloaded, std::string::npos) << text;
  ASSERT_NE(total, std::string::npos) << text;
  EXPECT_LT(draining, overloaded);
  EXPECT_LT(overloaded, total);
  EXPECT_NE(text.find("# TYPE fairrank_events_total counter\n"
                      "fairrank_events_total{event=\"hits\"} 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE fairrank_depth_count gauge\n"
                      "fairrank_depth_count -3\n"),
            std::string::npos)
      << text;

  EXPECT_NE(text.find("# TYPE fairrank_idle_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("fairrank_idle_total{"), std::string::npos) << text;

  // The snapshot carries the same children in the same order.
  const auto snapshot = registry.Snapshot();
  const MetricsRegistry::Family& shed = snapshot.at("fairrank_shed_total");
  EXPECT_EQ(shed.label, "reason");
  ASSERT_EQ(shed.samples.size(), 3u);
  EXPECT_EQ(shed.samples[0].label_value, "draining");
  EXPECT_EQ(shed.samples[2].label_value, "total");
  ASSERT_NE(shed.Find("overloaded"), nullptr);
  EXPECT_EQ(shed.Find("overloaded")->value, 2);
  EXPECT_EQ(shed.Find("queue_full"), nullptr);
}

TEST(MetricsRegistryTest, LabeledSummaryPutsFamilyLabelBeforeQuantile) {
  MetricsRegistry registry;
  MetricHistogram* audit = registry.GetHistogram(
      "fairrank_request_seconds", "Latency", {"endpoint", "/audit"});
  registry.GetHistogram("fairrank_request_seconds", "Latency",
                        {"endpoint", "/stats"});  // Never observed.
  audit->Observe(0.25);
  audit->Observe(0.75);

  const std::string text = registry.RenderPrometheus();
  EXPECT_EQ(CountOf(text, "# TYPE fairrank_request_seconds summary\n"), 1u)
      << text;
  for (const char* quantile : {"0.5", "0.9", "0.99"}) {
    EXPECT_NE(text.find(std::string("fairrank_request_seconds{endpoint=\"/"
                                     "audit\",quantile=\"") +
                        quantile + "\"} "),
              std::string::npos)
        << quantile << "\n"
        << text;
  }
  EXPECT_NE(text.find(
                "fairrank_request_seconds_sum{endpoint=\"/audit\"} 1.000000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("fairrank_request_seconds_count{endpoint=\"/audit\"} 2\n"),
      std::string::npos)
      << text;
  // An empty child renders _sum/_count but no quantiles.
  EXPECT_EQ(text.find("{endpoint=\"/stats\",quantile="), std::string::npos)
      << text;
  EXPECT_NE(
      text.find("fairrank_request_seconds_count{endpoint=\"/stats\"} 0\n"),
      std::string::npos)
      << text;
}

// The TSan job runs this: concurrent registration of the SAME names plus
// lock-free updates from many threads must be race-free and lose nothing.
TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // Every thread races GetCounter for the same name — first one
      // registers, the rest must get the same pointer.
      MetricCounter* counter =
          registry.GetCounter("fairrank_race_total", "contended");
      MetricHistogram* histogram =
          registry.GetHistogram("fairrank_race_seconds", "histogram");
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        counter->Increment();
        if (i % 100 == 0) histogram->Observe(0.001 * (i % 7));
        // Labeled children registered while other threads bump them and
        // a snapshot reads them.
        if (i % 1000 == 0) {
          const MetricLabel label{"shard", std::to_string(i / 1000 % 4)};
          registry.GetCounter("fairrank_race_labeled_total", "labeled", label)
              ->Increment();
          registry.GetHistogram("fairrank_race_labeled_seconds", "labeled",
                                label)
              ->Observe(0.001);
          (void)registry.RenderPrometheus();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto families = registry.Snapshot();
  const MetricsRegistry::Family& labeled =
      families.at("fairrank_race_labeled_total");
  ASSERT_EQ(labeled.samples.size(), 4u);
  int64_t labeled_total = 0;
  for (const MetricsRegistry::Sample& sample : labeled.samples) {
    labeled_total += sample.value;
  }
  EXPECT_EQ(labeled_total,
            static_cast<int64_t>(kThreads) * (kIncrementsPerThread / 1000));
  EXPECT_EQ(registry.GetCounter("fairrank_race_total", "")->value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
  MetricHistogram::Snapshot snapshot =
      registry.GetHistogram("fairrank_race_seconds", "")->TakeSnapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<uint64_t>(kThreads) * (kIncrementsPerThread / 100));
}

TEST(MetricsRegistryTest, IsValidMetricName) {
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("fairrank_audits_total"));
  EXPECT_TRUE(
      MetricsRegistry::IsValidMetricName("fairrank_audit_search_seconds"));
  EXPECT_TRUE(
      MetricsRegistry::IsValidMetricName("fairrank_response_cache_bytes"));
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("fairrank_queue_depth_count"));
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("fairrank_hit_ratio"));
  EXPECT_TRUE(MetricsRegistry::IsValidMetricName("fairrank_draining_info"));

  EXPECT_FALSE(MetricsRegistry::IsValidMetricName(""));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("audits_total"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("fairrank_Audits_total"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("fairrank_audits"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("fairrank__audits_total"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("fairrank_audits_total_"));
  EXPECT_FALSE(MetricsRegistry::IsValidMetricName("fairrank_audits-total"));
}

// ---------------------------------------------------------------------------
// TraceContext

TEST(TraceContextTest, SpanParentChildOrdering) {
  TraceContext trace;
  EXPECT_TRUE(trace.sampled());
  EXPECT_FALSE(trace.trace_id().empty());

  const int64_t root = trace.StartSpan("audit");
  const int64_t search = trace.StartSpan("search", root);
  const int64_t expand = trace.StartSpan("expand", search);
  trace.EndSpan(expand);
  trace.EndSpan(search);
  trace.Event("cache-hit", search);
  trace.EndSpan(root);

  std::vector<TraceContext::Span> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Ids are assigned in start order and equal the snapshot index.
  EXPECT_EQ(spans[0].id, root);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, search);
  EXPECT_EQ(spans[3].parent, search);
  EXPECT_STREQ(spans[3].name, "cache-hit");
  // Every span closed; children end no later than their parents here.
  for (const TraceContext::Span& span : spans) {
    EXPECT_GE(span.end_ns, span.start_ns) << span.name;
    EXPECT_NE(span.end_ns, 0u) << span.name;
  }
  EXPECT_LE(spans[2].end_ns, spans[1].end_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

TEST(TraceContextTest, TotalsAggregateByNameSorted) {
  TraceContext trace;
  const int64_t root = trace.StartSpan("audit");
  trace.AddEvent("emd", root, 100);
  trace.AddEvent("emd", root, 200);
  trace.AddEvent("histogram", root, 50);
  trace.EndSpan(root);

  std::vector<TraceContext::NamedTotal> totals = trace.Totals();
  ASSERT_EQ(totals.size(), 3u);  // audit, emd, histogram — sorted by name.
  EXPECT_EQ(totals[0].name, "audit");
  EXPECT_EQ(totals[1].name, "emd");
  EXPECT_EQ(totals[1].count, 2u);
  EXPECT_EQ(totals[1].total_ns, 300u);
  EXPECT_EQ(totals[2].name, "histogram");
  EXPECT_EQ(totals[2].count, 1u);
}

TEST(TraceContextTest, UnsampledContextRecordsNothing) {
  TraceContext trace(/*sampled=*/false);
  EXPECT_FALSE(trace.sampled());
  EXPECT_EQ(trace.StartSpan("audit"), -1);
  trace.EndSpan(-1);
  trace.AddEvent("emd", -1, 100);
  EXPECT_EQ(trace.span_count(), 0u);
  EXPECT_TRUE(trace.Totals().empty());
}

TEST(TraceContextTest, SpanCapDropsButTotalsStayExact) {
  TraceContext trace(/*sampled=*/true, /*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    trace.AddEvent("emd", -1, 10);
  }
  EXPECT_EQ(trace.span_count(), 4u);
  EXPECT_EQ(trace.spans_dropped(), 6u);
  std::vector<TraceContext::NamedTotal> totals = trace.Totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].count, 10u);  // All ten, not just the four kept.
  EXPECT_EQ(totals[0].total_ns, 100u);
}

TEST(TraceContextTest, ScopedSpansPastTheCapStillCountInTotals) {
  TraceContext trace(/*sampled=*/true, /*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&trace, "expand");
    EXPECT_EQ(span.id() < 0, i >= 2) << i;
  }
  EXPECT_EQ(trace.span_count(), 2u);
  EXPECT_EQ(trace.spans_dropped(), 3u);
  std::vector<TraceContext::NamedTotal> totals = trace.Totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].name, "expand");
  EXPECT_EQ(totals[0].count, 5u);  // All five, not just the two kept.
}

TEST(TraceContextTest, FormatTreeShowsHierarchyAndTotals) {
  TraceContext trace;
  const int64_t root = trace.StartSpan("audit");
  const int64_t search = trace.StartSpan("search", root);
  trace.EndSpan(search);
  trace.EndSpan(root);

  const std::string tree = trace.FormatTree();
  EXPECT_NE(tree.find("trace " + trace.trace_id()), std::string::npos);
  EXPECT_NE(tree.find("- audit "), std::string::npos);
  EXPECT_NE(tree.find("  - search "), std::string::npos);  // Indented child.
  EXPECT_NE(tree.find("totals:"), std::string::npos);
  EXPECT_LT(tree.find("- audit "), tree.find("- search "));
}

// Span recording from many threads (the pairwise-distance pool does this)
// must be race-free; run under TSan in CI.
TEST(TraceContextTest, ConcurrentSpanRecording) {
  TraceContext trace;
  const int64_t root = trace.StartSpan("audit");
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, root] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        trace.AddEvent("emd", root, 5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  trace.EndSpan(root);
  std::vector<TraceContext::NamedTotal> totals = trace.Totals();
  ASSERT_EQ(totals.size(), 2u);  // audit + emd.
  EXPECT_EQ(totals[1].count,
            static_cast<uint64_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(trace.span_count() + trace.spans_dropped(),
            static_cast<uint64_t>(kThreads) * kEventsPerThread + 1);
}

TEST(TraceContextTest, TraceIdsAreUnique) {
  TraceContext a;
  TraceContext b;
  EXPECT_NE(a.trace_id(), b.trace_id());
}

TEST(RequestIdTest, NextRequestIdIsUniquePrintableAndBounded) {
  const std::string a = NextRequestId();
  const std::string b = NextRequestId();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("req-", 0), 0u);
  EXPECT_LE(a.size(), 64u);
  for (char c : a) {
    EXPECT_GE(c, 0x20);
    EXPECT_LE(c, 0x7E);
  }
}

}  // namespace
}  // namespace fairrank
