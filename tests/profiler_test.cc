// Sampling-profiler tests: the zero-cost disabled contract (no SIGPROF
// handler installed, no samples), hot-function capture and symbolization,
// innermost-span attribution, ring wraparound drop accounting, the
// fastt-prof/1 export/parse/diff surfaces. Timing-sensitive assertions use
// generous margins: the sampler ticks on per-thread CPU time, so a loaded
// machine slows the test down but does not starve it of samples.
#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof_export.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"

namespace fastt {

// External linkage + noinline so the frame survives optimization and lands
// in the dynamic symbol table (CMAKE_ENABLE_EXPORTS), where dladdr finds it.
__attribute__((noinline)) double ProfilerTestSpin(double iters) {
  volatile double acc = 0.0;
  for (double i = 0.0; i < iters; i += 1.0) acc = acc + i * 1.000001;
  return acc;
}

namespace {

void SpinFor(double seconds) {
  // The iteration count goes through a volatile: with a literal argument GCC
  // clones ProfilerTestSpin into a local .constprop copy that dladdr cannot
  // name, and the symbolization assertion below would see module+offset.
  volatile double iters = 20000.0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < seconds) {
    ProfilerTestSpin(iters);
  }
}

bool SigprofHandlerInstalled() {
  struct sigaction sa;
  sigaction(SIGPROF, nullptr, &sa);
  if ((sa.sa_flags & SA_SIGINFO) != 0) return true;
  return sa.sa_handler != SIG_DFL && sa.sa_handler != SIG_IGN;
}

bool AnyFrameContains(const SymbolizedProfile& prof, const char* needle) {
  for (const ProfFrameRow& row : prof.frames) {
    if (row.name.find(needle) != std::string::npos) return true;
  }
  return false;
}

// The profiler is process-global; every test drains and stops behind itself.
class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    CpuProfiler::Global().Stop();
    CpuProfiler::Global().Drain();
    Tracer::Global().Disable();
    Tracer::Global().Drain();
  }
};

TEST_F(ProfilerTest, DisabledMeansNoHandlerAndNoSamples) {
  ASSERT_FALSE(ProfilingActive());
  EXPECT_FALSE(SigprofHandlerInstalled());
  CpuProfiler::Global().Drain();  // clear anything a prior test left behind
  RegisterProfiledThread("test main");
  SpinFor(0.05);
  const ProfileDump dump = CpuProfiler::Global().Drain();
  EXPECT_EQ(dump.samples_total, 0u);
  EXPECT_EQ(dump.samples_dropped, 0u);
}

TEST_F(ProfilerTest, CapturesAndSymbolizesTheHotFunction) {
  RegisterProfiledThread("test main");
  CpuProfilerOptions opts;
  opts.hz = 1997;
  ASSERT_TRUE(CpuProfiler::Global().Start(opts));
  EXPECT_TRUE(ProfilingActive());
  EXPECT_TRUE(SigprofHandlerInstalled());
  // Starting again while active must fail rather than double-install.
  EXPECT_FALSE(CpuProfiler::Global().Start(opts));
  SpinFor(0.3);
  CpuProfiler::Global().Stop();
  // The whole point of Stop's SIG_IGN flush: after it returns, the process
  // is back to the default disposition with nothing pending.
  EXPECT_FALSE(SigprofHandlerInstalled());
  EXPECT_FALSE(ProfilingActive());

  const ProfileDump dump = CpuProfiler::Global().Drain();
  EXPECT_GT(dump.samples_total, 20u);
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  EXPECT_TRUE(AnyFrameContains(prof, "ProfilerTestSpin"))
      << RenderProfileTable(prof, 10);
  // The sampler's own machinery must never leak into user stacks.
  EXPECT_FALSE(AnyFrameContains(prof, "FasttProfSignalHandler"));
  EXPECT_FALSE(AnyFrameContains(prof, "ProfCaptureStack"));
}

TEST_F(ProfilerTest, AttributesSamplesToInnermostSpan) {
  RegisterProfiledThread("test main");
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  CpuProfilerOptions opts;
  opts.hz = 1997;
  opts.epoch_ns = tracer.epoch_ns();
  ASSERT_TRUE(CpuProfiler::Global().Start(opts));
  {
    FASTT_TRACE_SPAN("prof/outer");
    {
      FASTT_TRACE_SPAN("prof/inner");
      SpinFor(0.25);
    }
  }
  CpuProfiler::Global().Stop();
  const ProfileDump dump = CpuProfiler::Global().Drain();
  ASSERT_GT(dump.samples_total, 20u);
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  // Nearly all CPU time burned inside the inner span: attribution must be
  // the innermost name, and near-total.
  EXPECT_GE(static_cast<double>(prof.span_attributed),
            0.9 * static_cast<double>(prof.samples_total));
  bool inner_seen = false;
  for (const ProfStackRow& row : prof.stacks) {
    if (row.span == "prof/inner") inner_seen = true;
    EXPECT_NE(row.span, "prof/outer")
        << "sample attributed to the outer span while inner was open";
  }
  EXPECT_TRUE(inner_seen);

  // The merged Chrome export places samples on offset tids with span args.
  const TraceDump trace;  // empty span dump is fine for the format check
  const std::string chrome = TraceToChromeJson(trace, dump);
  JsonValue doc;
  ASSERT_TRUE(JsonParse(chrome, &doc));
  EXPECT_EQ(doc.Find("metadata")->Find("samples")->IntOr(0),
            static_cast<int64_t>(dump.samples_total));
  EXPECT_NE(chrome.find("cpu samples: test main"), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"cpu_sample\""), std::string::npos);
}

TEST_F(ProfilerTest, TinyRingWrapsAndCountsDropsLoudly) {
  RegisterProfiledThread("test main");
  CpuProfilerOptions opts;
  opts.hz = 1997;
  opts.ring_capacity = 8;
  ASSERT_TRUE(CpuProfiler::Global().Start(opts));
  SpinFor(0.25);  // ~500 periods into 8 slots
  CpuProfiler::Global().Stop();
  const ProfileDump dump = CpuProfiler::Global().Drain();
  EXPECT_GT(dump.samples_dropped, 0u);
  for (const ProfThreadDump& td : dump.threads) {
    EXPECT_LE(td.samples.size(), 8u);
  }
  // Drops are surfaced, not silent: the JSON export and the table header
  // both carry the count.
  const SymbolizedProfile prof = SymbolizeProfile(dump);
  EXPECT_EQ(prof.samples_dropped, dump.samples_dropped);
  JsonValue doc;
  ASSERT_TRUE(JsonParse(ProfileToJson(prof, {}), &doc));
  EXPECT_EQ(doc.Find("samples")->Find("dropped")->IntOr(0),
            static_cast<int64_t>(dump.samples_dropped));
  EXPECT_NE(RenderProfileTable(prof, 5).find("dropped"), std::string::npos);
}

// ---- fastt-prof/1 export, parse and diff ----------------------------------

SymbolizedProfile MakeProfile(uint64_t dpos_self, uint64_t total) {
  SymbolizedProfile prof;
  prof.hz = 997;
  prof.duration_s = 1.0;
  prof.samples_total = total;
  prof.span_attributed = total;
  ProfStackRow hot;
  hot.frames = {"main", "fastt::OsDpos", "fastt::Dpos"};
  hot.span = "dpos/run";
  hot.count = dpos_self;
  ProfStackRow rest;
  rest.frames = {"main", "fastt::OsDpos"};
  rest.count = total - dpos_self;
  prof.stacks = {hot, rest};
  prof.frames = {
      {"fastt::Dpos", dpos_self, dpos_self},
      {"fastt::OsDpos", total - dpos_self, total},
      {"main", 0, total},
  };
  return prof;
}

TEST(ProfExport, FoldedFormatIsOneStackPerLine) {
  const std::string folded = ProfileToFolded(MakeProfile(30, 100));
  EXPECT_EQ(folded,
            "main;fastt::OsDpos;fastt::Dpos 30\n"
            "main;fastt::OsDpos 70\n");
}

TEST(ProfExport, JsonRoundTripsThroughParseProfDoc) {
  const std::string json =
      ProfileToJson(MakeProfile(30, 100), {{"model", "lenet"}});
  ProfDoc doc;
  std::string error;
  ASSERT_TRUE(ParseProfDoc(json, &doc, &error)) << error;
  EXPECT_EQ(doc.params.at("model"), "lenet");
  EXPECT_EQ(doc.hz, 997);
  EXPECT_EQ(doc.samples_total, 100u);
  EXPECT_EQ(doc.span_attributed, 100u);
  ASSERT_EQ(doc.frames.size(), 3u);
  EXPECT_EQ(doc.frames[0].name, "fastt::Dpos");
  EXPECT_EQ(doc.frames[0].self, 30u);

  ProfDoc bad;
  EXPECT_FALSE(ParseProfDoc("{\"schema\":\"fastt-bench/1\"}", &bad, &error));
  EXPECT_NE(error.find("fastt-prof/1"), std::string::npos);
}

ProfDoc DocWithShares(uint64_t dpos_self, uint64_t total) {
  ProfDoc doc;
  std::string error;
  const bool ok =
      ParseProfDoc(ProfileToJson(MakeProfile(dpos_self, total), {}), &doc,
                   &error);
  EXPECT_TRUE(ok) << error;
  return doc;
}

TEST(ProfDiff, InjectedHotFrameRegressionFailsHard) {
  // fastt::Dpos self-share 10% -> 30%: +20pp, far past 2pp*2.
  const ProfDiffResult result =
      DiffProfiles(DocWithShares(100, 1000), DocWithShares(300, 1000), {});
  EXPECT_EQ(result.hard_regressions, 1);
  ASSERT_FALSE(result.entries.empty());
  EXPECT_EQ(result.entries.front().frame, "fastt::Dpos");
  EXPECT_EQ(result.entries.front().verdict,
            ProfDiffEntry::Verdict::kHardRegression);
  EXPECT_NEAR(result.entries.front().delta_pp, 20.0, 1e-9);
  // The shrinking counterpart is an improvement, not a second regression.
  EXPECT_EQ(result.improvements, 1);
}

TEST(ProfDiff, SmallDriftOnlyWarnsAndTinyProfilesNeverFailHard) {
  ProfDiffOptions options;
  options.threshold_pp = 2.0;
  options.hard_factor = 2.0;
  // +3pp: past the warn bar, below the 4pp hard bar.
  const ProfDiffResult warn =
      DiffProfiles(DocWithShares(100, 1000), DocWithShares(130, 1000),
                   options);
  EXPECT_EQ(warn.hard_regressions, 0);
  EXPECT_EQ(warn.warnings, 1);
  // +20pp but only 20 samples a side — below min_samples, so the hard
  // verdict is withheld (a near-empty profile can't fail CI by itself).
  options.min_samples = 50;
  const ProfDiffResult tiny =
      DiffProfiles(DocWithShares(2, 20), DocWithShares(6, 20), options);
  EXPECT_EQ(tiny.hard_regressions, 0);
  EXPECT_GE(tiny.warnings, 1);
}

TEST(ProfDiff, RenderNamesTheVerdictsAndThresholds) {
  const ProfDiffResult result =
      DiffProfiles(DocWithShares(100, 1000), DocWithShares(300, 1000), {});
  const std::string text = RenderProfDiff(result, {});
  EXPECT_NE(text.find("HARD REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("fastt::Dpos"), std::string::npos);
  EXPECT_NE(text.find("1 hard regression(s)"), std::string::npos);
}

}  // namespace
}  // namespace fastt
