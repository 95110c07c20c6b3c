// Flight-recorder tests: span pairing, the disabled fast path, ring
// wraparound (oldest events dropped, drains stay well-formed), concurrent
// emitters, the self-time summary, and the acceptance property that a traced
// OS-DPOS run yields a valid Chrome trace whose root span accounts for
// nearly all of the measured search wall-clock.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "models/model_zoo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/memtrack.h"

namespace fastt {
namespace {

// The tracer is process-global; every test re-Enables (which resets the ring
// buffers and the epoch) and leaves it disabled and drained behind.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetRingCapacity(1 << 16);
    Tracer::Global().Enable();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Drain();
  }
};

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST_F(TracerTest, PairsNestedSpansAndKeepsPoints) {
  {
    FASTT_TRACE_SPAN("outer");
    {
      FASTT_TRACE_SPAN("inner");
      FASTT_TRACE_INSTANT("mark", 7.0);
    }
    FASTT_TRACE_COUNTER("queue", 3.0);
  }
  Tracer::Global().Disable();
  const TraceDump dump = Tracer::Global().Drain();

  ASSERT_EQ(dump.spans.size(), 2u);
  EXPECT_EQ(dump.dropped_events, 0u);
  EXPECT_EQ(dump.dropped_spans, 0u);
  // Sorted parent-before-child: outer starts first (or ties with a longer
  // duration), and inner nests inside it.
  const TraceSpan& outer = dump.spans[0];
  const TraceSpan& inner = dump.spans[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_LE(outer.start_s, inner.start_s);
  EXPECT_GE(outer.end_s(), inner.end_s());

  ASSERT_EQ(dump.points.size(), 2u);
  EXPECT_STREQ(dump.points[0].name, "mark");
  EXPECT_FALSE(dump.points[0].is_counter);
  EXPECT_EQ(dump.points[0].value, 7.0);
  EXPECT_STREQ(dump.points[1].name, "queue");
  EXPECT_TRUE(dump.points[1].is_counter);

  // A second drain starts empty.
  EXPECT_TRUE(Tracer::Global().Drain().spans.empty());
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  Tracer::Global().Disable();
  {
    FASTT_TRACE_SPAN("ghost");
    FASTT_TRACE_INSTANT("ghost_mark", 1.0);
  }
  const TraceDump dump = Tracer::Global().Drain();
  EXPECT_TRUE(dump.spans.empty());
  EXPECT_TRUE(dump.points.empty());
  EXPECT_EQ(dump.dropped_events, 0u);
}

TEST_F(TracerTest, RingWraparoundDropsOldestAndStaysWellFormed) {
  Tracer::Global().SetRingCapacity(8);
  Tracer::Global().Enable();
  // The begin below is overwritten by the instants before its end arrives.
  Tracer::Global().BeginSpan("victim");
  for (int i = 0; i < 20; ++i) FASTT_TRACE_INSTANT("spam", i);
  Tracer::Global().EndSpan("victim");
  Tracer::Global().Disable();
  const TraceDump dump = Tracer::Global().Drain();

  // 22 events through a ring of 8: 14 overwritten, and the orphaned end
  // becomes a dropped span instead of a bogus emitted one.
  EXPECT_EQ(dump.dropped_events, 14u);
  EXPECT_GE(dump.dropped_spans, 1u);
  EXPECT_TRUE(dump.spans.empty());
  EXPECT_LE(dump.points.size(), 8u);
  for (const TracePoint& p : dump.points) EXPECT_STREQ(p.name, "spam");

  // Loss is advertised, not silent: the Chrome export's metadata block
  // carries the drop counters for anyone loading the trace.
  const std::string json = TraceToChromeJson(dump);
  EXPECT_TRUE(JsonValidate(json)) << json;
  JsonValue doc;
  ASSERT_TRUE(JsonParse(json, &doc));
  const JsonValue* metadata = doc.Find("metadata");
  ASSERT_NE(metadata, nullptr);
  EXPECT_EQ(metadata->Find("dropped_events")->IntOr(0), 14);
  EXPECT_GE(metadata->Find("dropped_spans")->IntOr(0), 1);

  // And the summary feeding `fastt report` carries them too.
  const TraceSummary summary = SummarizeTrace(dump);
  EXPECT_EQ(summary.dropped_events, 14u);
  EXPECT_GE(summary.dropped_spans, 1u);
  EXPECT_NE(RenderTraceSummary(summary).find("dropped 14 events"),
            std::string::npos);
}

TEST_F(TracerTest, WraparoundOverManySpansKeepsDrainSorted) {
  Tracer::Global().SetRingCapacity(16);
  Tracer::Global().Enable();
  for (int i = 0; i < 100; ++i) {
    FASTT_TRACE_SPAN("unit");
  }
  Tracer::Global().Disable();
  const TraceDump dump = Tracer::Global().Drain();
  EXPECT_EQ(dump.dropped_events, 2u * 100u - 16u);
  EXPECT_GE(dump.spans.size(), 7u);  // 16 slots = 8 pairs, minus a torn pair
  for (size_t i = 1; i < dump.spans.size(); ++i) {
    EXPECT_LE(dump.spans[i - 1].start_s, dump.spans[i].start_s);
  }
  for (const TraceSpan& s : dump.spans) EXPECT_GE(s.dur_s, 0.0);
  EXPECT_TRUE(JsonValidate(TraceToChromeJson(dump)));
}

TEST_F(TracerTest, ConcurrentEmittersGetTheirOwnThreadRows) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Tracer::Global().SetCurrentThreadName("emitter " + std::to_string(t));
      for (int i = 0; i < kSpans; ++i) {
        FASTT_TRACE_SPAN("work");
        FASTT_TRACE_COUNTER("i", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  Tracer::Global().Disable();
  const TraceDump dump = Tracer::Global().Drain();

  EXPECT_EQ(dump.dropped_events, 0u);
  EXPECT_EQ(dump.dropped_spans, 0u);
  EXPECT_EQ(dump.spans.size(), static_cast<size_t>(kThreads * kSpans));
  // Spans are grouped by tid and time-ordered within each.
  for (size_t i = 1; i < dump.spans.size(); ++i) {
    const TraceSpan& a = dump.spans[i - 1];
    const TraceSpan& b = dump.spans[i];
    EXPECT_TRUE(a.tid < b.tid || (a.tid == b.tid && a.start_s <= b.start_s));
  }
  int named = 0;
  for (const TraceThreadInfo& info : dump.threads) {
    if (info.name.rfind("emitter ", 0) == 0) ++named;
  }
  EXPECT_EQ(named, kThreads);
  EXPECT_TRUE(JsonValidate(TraceToChromeJson(dump)));
}

TEST(TraceSummary, SelfTimeSubtractsChildren) {
  // Hand-built: parent [0,10] with children [2,5] and [6,8] on tid 0, plus
  // a second thread with one span [1,4].
  TraceDump dump;
  dump.threads = {{0, "main"}, {1, "worker"}};
  dump.spans = {
      {"parent", 0, 0.0, 10.0},
      {"child", 0, 2.0, 3.0},
      {"child", 0, 6.0, 2.0},
      {"other", 1, 1.0, 3.0},
  };
  const TraceSummary summary = SummarizeTrace(dump);

  ASSERT_EQ(summary.phases.size(), 3u);
  EXPECT_EQ(summary.phases[0].name, "parent");  // sorted by total_s desc
  EXPECT_NEAR(summary.phases[0].total_s, 10.0, 1e-12);
  EXPECT_NEAR(summary.phases[0].self_s, 5.0, 1e-12);  // 10 - 3 - 2
  const TracePhase& child =
      summary.phases[1].name == "child" ? summary.phases[1]
                                        : summary.phases[2];
  EXPECT_EQ(child.count, 2);
  EXPECT_NEAR(child.total_s, 5.0, 1e-12);
  EXPECT_NEAR(child.self_s, 5.0, 1e-12);  // leaves keep their full time

  ASSERT_EQ(summary.threads.size(), 2u);
  EXPECT_NEAR(summary.threads[0].busy_s, 10.0, 1e-12);
  EXPECT_NEAR(summary.threads[1].busy_s, 3.0, 1e-12);
  EXPECT_NEAR(summary.wall_s, 10.0, 1e-12);
  EXPECT_NEAR(summary.root_span_s, 13.0, 1e-12);  // parent + other
  EXPECT_EQ(summary.span_count, 4u);

  const std::string rendered = RenderTraceSummary(summary);
  EXPECT_NE(rendered.find("parent"), std::string::npos);
  EXPECT_NE(rendered.find("worker"), std::string::npos);
}

// Acceptance: tracing a real search produces a valid Chrome trace whose
// root span covers (well over) 90% of the measured wall-clock.
TEST_F(TracerTest, TracedSearchCoversMeasuredWallClock) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, spec.strong_batch, 2,
                              Scaling::kStrong);
  const std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
  const Graph graph = std::move(dp.graph);
  const Cluster cluster = Cluster::SingleServer(2);
  SimOptions so;
  so.noise_cv = 0.03;
  so.seed = 11;
  CompCostModel comp;
  CommCostModel comm;
  const RunProfile profile =
      ExtractProfile(graph, Simulate(graph, placement, cluster, so));
  comp.AddProfile(profile);
  comm.AddProfile(profile);

  Tracer::Global().Enable();
  {
    // First emit on a thread allocates its ring buffer; keep that out of
    // the measured window.
    FASTT_TRACE_SPAN("warmup");
  }
  const double t0 = NowS();
  {
    FASTT_TRACE_SPAN("search/total");
    const OsDposResult os = OsDpos(graph, cluster, comp, comm);
    EXPECT_GT(os.schedule.ft_exit, 0.0);
  }
  const double wall_s = NowS() - t0;
  Tracer::Global().Disable();
  const TraceDump dump = Tracer::Global().Drain();

  // The instrumented internals showed up under the wrapper span.
  ASSERT_FALSE(dump.spans.empty());
  const TraceSummary summary = SummarizeTrace(dump);
  double total_s = 0.0;
  bool saw_dpos = false;
  for (const TracePhase& phase : summary.phases) {
    if (phase.name == "search/total") total_s = phase.total_s;
    if (phase.name == "dpos/total") saw_dpos = true;
  }
  EXPECT_TRUE(saw_dpos);
  ASSERT_GT(total_s, 0.0);
  EXPECT_GE(total_s, 0.9 * wall_s)
      << "span tree covers " << total_s << "s of " << wall_s << "s measured";
  EXPECT_EQ(dump.dropped_spans, 0u);

  // And the exported timeline is a valid JSON document.
  const std::string json = TraceToChromeJson(dump);
  EXPECT_TRUE(JsonValidate(json));
  JsonValue root;
  ASSERT_TRUE(JsonParse(json, &root));
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  EXPECT_GE(events->items.size(), dump.spans.size());
}

// With the heap tracker enabled alongside the tracer, the instrumented
// subsystems emit mem/<tag>/live_bytes counter samples, which the Chrome
// export turns into "C"-phase counter tracks — memory next to time.
TEST_F(TracerTest, SearchWithMemTrackerEmitsLiveBytesCounterTracks) {
  const ModelSpec& spec = FindModel("lenet");
  auto dp = BuildDataParallel(spec.build, spec.name, spec.strong_batch, 2,
                              Scaling::kStrong);
  const std::vector<DeviceId> placement = CanonicalDataParallelPlacement(dp);
  const Graph graph = std::move(dp.graph);
  const Cluster cluster = Cluster::SingleServer(2);
  CompCostModel comp;
  CommCostModel comm;
  const RunProfile profile = ExtractProfile(
      graph, Simulate(graph, placement, cluster, SimOptions{}));
  comp.AddProfile(profile);
  comm.AddProfile(profile);

  MemTracker::Global().Enable();
  Tracer::Global().Enable();
  const OsDposResult os = OsDpos(graph, cluster, comp, comm);
  EXPECT_GT(os.schedule.ft_exit, 0.0);
  Tracer::Global().Disable();
  MemTracker::Global().Disable();
  const TraceDump dump = Tracer::Global().Drain();

  size_t mem_counters = 0;
  bool saw_total = false;
  for (const TracePoint& p : dump.points) {
    if (!p.is_counter) continue;
    const std::string name = p.name;
    if (name.rfind("mem/", 0) == 0) {
      ++mem_counters;
      if (name == "mem/total/live_bytes") saw_total = true;
      EXPECT_GE(p.value, 0.0);
    }
  }
  EXPECT_GE(mem_counters, 1u);
  EXPECT_TRUE(saw_total);

  // The exported trace carries them as counter ("C") events.
  const std::string json = TraceToChromeJson(dump);
  EXPECT_TRUE(JsonValidate(json));
  EXPECT_NE(json.find("mem/total/live_bytes"), std::string::npos);
}

}  // namespace
}  // namespace fastt
