#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.NextU64() == b.NextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(13), 13u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleRange) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.NextDouble(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(17);
  OnlineMean mean;
  for (int i = 0; i < 20000; ++i) mean.Add(rng.NextGaussian());
  EXPECT_NEAR(mean.mean(), 0.0, 0.05);
  EXPECT_NEAR(mean.stddev(), 1.0, 0.05);
}

TEST(Rng, GaussianShifted) {
  Rng rng(18);
  OnlineMean mean;
  for (int i = 0; i < 20000; ++i) mean.Add(rng.NextGaussian(5.0, 2.0));
  EXPECT_NEAR(mean.mean(), 5.0, 0.1);
  EXPECT_NEAR(mean.stddev(), 2.0, 0.1);
}

TEST(Rng, NextBoolProbability) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(OnlineMean, MatchesBatchStatistics) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineMean m;
  for (double x : xs) m.Add(x);
  EXPECT_DOUBLE_EQ(m.mean(), Mean(xs));
  EXPECT_NEAR(m.stddev(), Stddev(xs), 1e-12);
  EXPECT_EQ(m.count(), xs.size());
}

TEST(OnlineMean, EmptyAndSingle) {
  OnlineMean m;
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance(), 0.0);
  m.Add(3.5);
  EXPECT_DOUBLE_EQ(m.mean(), 3.5);
  EXPECT_EQ(m.variance(), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs = {3.0, -1.0, 7.0};
  EXPECT_EQ(Min(xs), -1.0);
  EXPECT_EQ(Max(xs), 7.0);
  EXPECT_EQ(Min({}), 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(Stats, LerpClampsFraction) {
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, -3.0), 10.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 7.0), 20.0);
}

TEST(Stats, PercentileSortedMatchesPercentile) {
  std::vector<double> sorted = {1, 2, 3, 4, 5};
  for (double p : {0.0, 25.0, 50.0, 90.0, 100.0}) {
    EXPECT_DOUBLE_EQ(PercentileSorted(sorted, p), Percentile(sorted, p)) << p;
  }
  EXPECT_DOUBLE_EQ(PercentileSorted({}, 50), 0.0);
}

TEST(Stats, ComputeSampleStatsDerivesEverythingFromOneSort) {
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  const SampleStats stats = ComputeSampleStats(xs);
  EXPECT_EQ(stats.n, 5u);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.stddev, Stddev(xs));
  EXPECT_DOUBLE_EQ(stats.p50, 3.0);
  EXPECT_DOUBLE_EQ(stats.p90, Percentile(xs, 90));
  EXPECT_DOUBLE_EQ(stats.p99, Percentile(xs, 99));
  const SampleStats empty = ComputeSampleStats({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(3.5 * 1024 * 1024), "3.50 MiB");
  EXPECT_EQ(HumanBytes(1.5 * 1024 * 1024 * 1024), "1.50 GiB");
  EXPECT_EQ(HumanBytes(2.0 * 1024 * 1024 * 1024 * 1024), "2.00 TiB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(2.0), "2.000 s");
  EXPECT_EQ(HumanSeconds(0.0123), "12.300 ms");
  EXPECT_EQ(HumanSeconds(45e-6), "45.0 us");
}

TEST(Strings, Predicates) {
  EXPECT_TRUE(StartsWith("rep0/conv1", "rep0/"));
  EXPECT_FALSE(StartsWith("rep0", "rep0/"));
  EXPECT_TRUE(EndsWith("fc6/wgrad", "/wgrad"));
  EXPECT_TRUE(Contains("a/b/c", "/b/"));
  EXPECT_FALSE(Contains("abc", "z"));
}

TEST(Table, RendersAlignedRows) {
  TablePrinter t({"model", "speed"});
  t.AddRow({"vgg", "1.0"});
  t.AddRow({"inception_v3", "22.5"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| model"), std::string::npos);
  EXPECT_NE(out.find("inception_v3"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NE(t.Render().find("only"), std::string::npos);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int workers : {0, 1, 4}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(64);
    pool.Run(64, [&](size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << workers << " workers";
  }
}

TEST(ThreadPool, InWorkerIsFalseOutsidePoolTasks) {
  EXPECT_FALSE(ThreadPool::InWorker());
  ThreadPool pool(2);
  pool.Run(8, [](size_t) {});
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(SearchJobs, ClampsToAtLeastOne) {
  SetSearchJobs(0);
  EXPECT_EQ(SearchJobs(), 1);
  SetSearchJobs(-3);
  EXPECT_EQ(SearchJobs(), 1);
  SetSearchJobs(4);
  EXPECT_EQ(SearchJobs(), 4);
  SetSearchJobs(1);
}

TEST(ParallelFor, BitIdenticalForAnyJobCount) {
  const size_t n = 1000;
  auto fill = [&](std::vector<double>& out) {
    ParallelFor(
        n,
        [&](size_t i) {
          Rng rng(static_cast<uint64_t>(i) * 37 + 5);
          out[i] = rng.NextDouble() * static_cast<double>(i + 1);
        },
        /*min_parallel=*/2);
  };
  SetSearchJobs(1);
  std::vector<double> reference(n, 0.0);
  fill(reference);
  for (int jobs : {2, 3, 8}) {
    SetSearchJobs(jobs);
    std::vector<double> out(n, 0.0);
    fill(out);
    EXPECT_EQ(out, reference) << "jobs " << jobs;
  }
  SetSearchJobs(1);
}

TEST(ParallelFor, RunsSeriallyBelowMinParallel) {
  SetSearchJobs(8);
  const auto caller = std::this_thread::get_id();
  ParallelFor(
      3, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*min_parallel=*/4);
  SetSearchJobs(1);
}

TEST(ParallelFor, NestedLoopRunsInlineOnTheWorkerThread) {
  SetSearchJobs(4);
  std::atomic<bool> inline_ok{true};
  ParallelFor(
      8,
      [&](size_t) {
        const auto outer_thread = std::this_thread::get_id();
        // The inner loop must not re-enter the pool (deadlock risk) and so
        // runs every index on the thread that called it.
        ParallelFor(
            4,
            [&](size_t) {
              if (std::this_thread::get_id() != outer_thread)
                inline_ok = false;
            },
            /*min_parallel=*/1);
      },
      /*min_parallel=*/1);
  EXPECT_TRUE(inline_ok.load());
  SetSearchJobs(1);
}

TEST(ParallelFor, NestedLoopInTheCallersChunkStaysOffThePool) {
  // The submitting thread runs chunks too; a nested loop there must run
  // inline like on a worker, or it re-enters the pool as a second batch.
  SetSearchJobs(2);
  const uint64_t before = SearchPoolStats().batches;
  const auto caller = std::this_thread::get_id();
  std::atomic<int> caller_chunks{0};
  // Two indices, two chunks. A worker holding one chunk waits until the
  // caller has taken the other, so the caller always runs a nested loop.
  ParallelFor(
      2,
      [&](size_t) {
        if (std::this_thread::get_id() == caller) {
          ++caller_chunks;
        } else {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (caller_chunks.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        }
        ParallelFor(4, [](size_t) {}, /*min_parallel=*/1);
      },
      /*min_parallel=*/1);
  EXPECT_GE(caller_chunks.load(), 1);
  EXPECT_EQ(SearchPoolStats().batches - before, 1u);
  EXPECT_FALSE(ThreadPool::InWorker());
  SetSearchJobs(1);
}

}  // namespace
}  // namespace fastt
