#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cost/comm_cost.h"
#include "cost/comp_cost.h"
#include "cost/cost_table.h"
#include "cost/linreg.h"
#include "cost/stability.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace fastt {
namespace {

TEST(LinearRegression, RecoversExactLine) {
  LinearRegression lr;
  for (double x : {1.0, 2.0, 5.0, 9.0}) lr.Add(x, 3.0 + 2.0 * x);
  EXPECT_NEAR(lr.intercept(), 3.0, 1e-9);
  EXPECT_NEAR(lr.slope(), 2.0, 1e-9);
  EXPECT_NEAR(lr.Predict(10.0), 23.0, 1e-9);
}

TEST(LinearRegression, SinglePointIsConstant) {
  LinearRegression lr;
  lr.Add(4.0, 7.0);
  EXPECT_DOUBLE_EQ(lr.slope(), 0.0);
  EXPECT_DOUBLE_EQ(lr.Predict(100.0), 7.0);
}

TEST(LinearRegression, IdenticalXFallsBackToMean) {
  LinearRegression lr;
  lr.Add(5.0, 10.0);
  lr.Add(5.0, 20.0);
  EXPECT_DOUBLE_EQ(lr.slope(), 0.0);
  EXPECT_NEAR(lr.Predict(5.0), 15.0, 1e-9);
}

TEST(LinearRegression, EmptyPredictsZero) {
  LinearRegression lr;
  EXPECT_DOUBLE_EQ(lr.Predict(42.0), 0.0);
}

TEST(CompCost, LookupAveragesSamples) {
  CompCostModel m;
  m.AddSample("conv1", 0, 0.010);
  m.AddSample("conv1", 0, 0.020);
  ASSERT_TRUE(m.Lookup("conv1", 0).has_value());
  EXPECT_NEAR(*m.Lookup("conv1", 0), 0.015, 1e-12);
  EXPECT_FALSE(m.Lookup("conv1", 1).has_value());
  EXPECT_FALSE(m.Lookup("conv2", 0).has_value());
}

TEST(CompCost, ExplorationPricesUnknownAtZero) {
  CompCostModel m;
  Operation op;
  op.name = "mystery";
  EXPECT_DOUBLE_EQ(m.EstimateOrExplore(op, 0), 0.0);
}

TEST(CompCost, BasisFallbackScales) {
  CompCostModel m;
  m.AddSample("conv1", 2, 0.010);
  Operation sub;
  sub.name = "conv1/part0";
  sub.cost_key = "conv1#batch/2";
  sub.cost_basis_key = "conv1";
  sub.cost_scale = 0.5;
  EXPECT_NEAR(m.EstimateOrExplore(sub, 2), 0.005, 1e-12);
  // Exact profile takes precedence over the basis once it exists.
  m.AddSample("conv1#batch/2", 2, 0.008);
  EXPECT_NEAR(m.EstimateOrExplore(sub, 2), 0.008, 1e-12);
}

TEST(CompCost, MaxTimeOverDevices) {
  CompCostModel m;
  m.AddSample("op", 0, 0.003);
  m.AddSample("op", 2, 0.007);
  Operation op;
  op.name = "op";
  EXPECT_NEAR(m.MaxTimeOverDevices(op, 4), 0.007, 1e-12);
}

TEST(CompCost, SerializeRoundTrip) {
  CompCostModel m;
  m.AddSample("a", 0, 0.001);
  m.AddSample("a", 0, 0.003);
  m.AddSample("b", 1, 0.5);
  const CompCostModel copy = CompCostModel::Deserialize(m.Serialize());
  EXPECT_NEAR(*copy.Lookup("a", 0), 0.002, 1e-9);
  EXPECT_NEAR(*copy.Lookup("b", 1), 0.5, 1e-9);
  EXPECT_EQ(copy.num_entries(), 2u);
}

TEST(CompCost, KnowsAndClear) {
  CompCostModel m;
  EXPECT_FALSE(m.Knows("x"));
  m.AddSample("x", 0, 1.0);
  EXPECT_TRUE(m.Knows("x"));
  m.Clear();
  EXPECT_FALSE(m.Knows("x"));
}

TEST(CommCost, SameDeviceIsFree) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.Estimate(1, 1, 1 << 20), 0.0);
}

TEST(CommCost, UnknownPairExplores) {
  CommCostModel m;
  EXPECT_DOUBLE_EQ(m.Estimate(0, 1, 1 << 20), 0.0);
  EXPECT_FALSE(m.KnowsPair(0, 1));
}

TEST(CommCost, RecoversLatencyAndBandwidth) {
  CommCostModel m;
  // Ground truth: 10 us latency + bytes / 10 GB/s.
  auto truth = [](int64_t bytes) { return 1e-5 + bytes / 10e9; };
  for (int64_t bytes : {int64_t{1} << 20, int64_t{1} << 26})
    m.AddSample(0, 1, bytes, truth(bytes));
  ASSERT_TRUE(m.KnowsPair(0, 1));
  const auto [intercept, slope] = *m.InterceptSlope(0, 1);
  EXPECT_NEAR(intercept, 1e-5, 1e-7);
  EXPECT_NEAR(1.0 / slope, 10e9, 1e7);
  EXPECT_NEAR(m.Estimate(0, 1, 100 << 20), truth(100 << 20), 1e-4);
}

TEST(CommCost, PairsAreIndependentAndDirectional) {
  CommCostModel m;
  m.AddSample(0, 1, 1000, 1.0);
  EXPECT_GT(m.Estimate(0, 1, 1000), 0.0);
  EXPECT_DOUBLE_EQ(m.Estimate(1, 0, 1000), 0.0);
}

TEST(CommCost, MaxOverPairs) {
  CommCostModel m;
  m.AddSample(0, 1, 1 << 20, 0.001);
  m.AddSample(0, 1, 1 << 22, 0.004);
  m.AddSample(2, 3, 1 << 20, 0.010);
  m.AddSample(2, 3, 1 << 22, 0.040);
  EXPECT_NEAR(m.MaxOverPairs(1 << 22), 0.040, 1e-6);
}

TEST(CommCost, NegativePredictionsClampToZero) {
  CommCostModel m;
  // Descending samples produce a negative slope; estimates must stay >= 0.
  m.AddSample(0, 1, 100, 1.0);
  m.AddSample(0, 1, 200, 0.1);
  EXPECT_GE(m.Estimate(0, 1, 100000), 0.0);
}

TEST(CommCost, SerializeRoundTrip) {
  CommCostModel m;
  m.AddSample(0, 1, 1 << 20, 1e-5 + (1 << 20) / 9e9);
  m.AddSample(0, 1, 1 << 26, 1e-5 + (1 << 26) / 9e9);
  m.AddSample(2, 0, 1 << 20, 5e-5 + (1 << 20) / 3e9);
  m.AddSample(2, 0, 1 << 24, 5e-5 + (1 << 24) / 3e9);
  const CommCostModel copy = CommCostModel::Deserialize(m.Serialize());
  EXPECT_EQ(copy.num_pairs(), 2u);
  for (int64_t bytes : {int64_t{1} << 21, int64_t{1} << 25}) {
    EXPECT_NEAR(copy.Estimate(0, 1, bytes), m.Estimate(0, 1, bytes), 1e-9);
    EXPECT_NEAR(copy.Estimate(2, 0, bytes), m.Estimate(2, 0, bytes), 1e-9);
  }
  EXPECT_FALSE(copy.KnowsPair(1, 0));
}

TEST(Stability, StableAfterRepeatedObservations) {
  CompCostModel m;
  m.AddSample("op", 0, 0.010);
  StabilityDetector detector(0.05, 2);
  EXPECT_FALSE(detector.IsStable());
  detector.Observe(m, 1, {"op"});  // first observation: new entries
  EXPECT_FALSE(detector.IsStable());
  m.AddSample("op", 0, 0.0101);
  detector.Observe(m, 1, {"op"});
  m.AddSample("op", 0, 0.0099);
  detector.Observe(m, 1, {"op"});
  EXPECT_TRUE(detector.IsStable());
}

TEST(Stability, NewKeyResetsStability) {
  CompCostModel m;
  m.AddSample("op", 0, 0.010);
  StabilityDetector detector(0.05, 1);
  detector.Observe(m, 1, {"op"});
  detector.Observe(m, 1, {"op"});
  EXPECT_TRUE(detector.IsStable());
  m.AddSample("new_op", 0, 1.0);
  detector.Observe(m, 1, {"op", "new_op"});
  EXPECT_FALSE(detector.IsStable());
}

TEST(Stability, LargeChangeResetsCounter) {
  CompCostModel m;
  m.AddSample("op", 0, 0.010);
  StabilityDetector detector(0.05, 1);
  detector.Observe(m, 1, {"op"});
  // Shift the mean by >5%.
  for (int i = 0; i < 10; ++i) m.AddSample("op", 0, 0.030);
  const double change = detector.Observe(m, 1, {"op"});
  EXPECT_GT(change, 0.05);
  EXPECT_FALSE(detector.IsStable());
}

TEST(Stability, WindowStatisticsExposed) {
  CompCostModel m;
  m.AddSample("a", 0, 0.010);
  m.AddSample("b", 0, 0.020);
  StabilityDetector detector(0.05, 2);
  EXPECT_DOUBLE_EQ(detector.tolerance(), 0.05);
  EXPECT_EQ(detector.patience(), 2);

  // Before any observation the stats are the defaults.
  EXPECT_TRUE(detector.last_stats().new_entries);
  EXPECT_TRUE(std::isinf(detector.last_stats().max_change));

  // First observation: everything is new, the clock is reset.
  detector.Observe(m, 1, {"a", "b"});
  const StabilityStats first = detector.last_stats();
  EXPECT_TRUE(first.new_entries);
  EXPECT_EQ(first.entries, 0);
  EXPECT_TRUE(std::isinf(first.max_change));
  EXPECT_TRUE(std::isinf(first.margin));
  EXPECT_LT(first.margin, 0.0);
  EXPECT_EQ(first.stable_rounds, 0);

  // "a" mean moves 0.010 -> 0.0105 (+5%), "b" stays: max 0.05, mean 0.025.
  m.AddSample("a", 0, 0.011);
  detector.Observe(m, 1, {"a", "b"});
  const StabilityStats second = detector.last_stats();
  EXPECT_FALSE(second.new_entries);
  EXPECT_EQ(second.entries, 2);
  EXPECT_NEAR(second.max_change, 0.05, 1e-12);
  EXPECT_NEAR(second.mean_change, 0.025, 1e-12);
  EXPECT_NEAR(second.stddev_change, 0.05 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(second.margin, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(second.tolerance, 0.05);
  EXPECT_EQ(second.stable_rounds, 1);
  EXPECT_FALSE(detector.IsStable());

  // No further movement: stable after `patience` quiet rounds.
  detector.Observe(m, 1, {"a", "b"});
  const StabilityStats third = detector.last_stats();
  EXPECT_DOUBLE_EQ(third.max_change, 0.0);
  EXPECT_NEAR(third.margin, 0.05, 1e-12);
  EXPECT_EQ(third.stable_rounds, 2);
  EXPECT_TRUE(detector.IsStable());
}

TEST(Stability, StatisticsOverDuplicateAndPartlyProfiledKeys) {
  // Pinned statistics: a key listed twice counts twice, "b" is profiled on
  // devices 0 and 2 only until round 5, "z" has a zero mean (never a
  // relative change), and "c" first appears in round 3.
  CompCostModel m;
  for (DeviceId d = 0; d < 3; ++d) m.AddSample("a", d, 0.010 * (d + 1));
  m.AddSample("b", 0, 0.004);
  m.AddSample("b", 2, 0.006);
  m.AddSample("z", 0, 0.0);
  StabilityDetector detector(0.05, 2);
  std::vector<std::string> keys = {"a", "b", "a", "z"};
  std::vector<StabilityStats> got;
  auto observe = [&] {
    detector.Observe(m, 3, keys);
    got.push_back(detector.last_stats());
  };

  observe();
  m.AddSample("a", 0, 0.012);
  m.AddSample("b", 2, 0.0063);
  observe();
  m.AddSample("c", 1, 0.5);
  m.AddSample("a", 2, 0.0301);
  keys.push_back("c");
  observe();
  m.AddSample("a", 1, 0.0199);
  m.AddSample("c", 1, 0.51);
  observe();
  m.AddSample("b", 1, 0.005);
  observe();
  observe();

  struct Pinned {
    int entries;
    double max_change, mean_change, stddev_change;
    bool new_entries;
    int stable_rounds;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Pinned want[] = {
      {0, inf, 0.0, 0.0, true, 0},
      {8, 0.099999999999999908, 0.028124999999999976, 0.04519303833872769,
       false, 0},
      {8, inf, 0.00041666666666667862, 0.00077151674981048169, true, 0},
      {9, 0.010000000000000009, 0.0016666666666666451, 0.003307189138830735,
       false, 1},
      {9, inf, 0.0, 0.0, true, 0},
      {10, 0.0, 0.0, 0.0, false, 1},
  };
  ASSERT_EQ(got.size(), 6u);
  for (size_t round = 0; round < got.size(); ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round + 1);
    EXPECT_EQ(got[round].entries, want[round].entries);
    EXPECT_EQ(got[round].max_change, want[round].max_change);
    EXPECT_EQ(got[round].mean_change, want[round].mean_change);
    EXPECT_EQ(got[round].stddev_change, want[round].stddev_change);
    EXPECT_EQ(got[round].new_entries, want[round].new_entries);
    EXPECT_EQ(got[round].stable_rounds, want[round].stable_rounds);
  }
}

TEST(LinearRegression, RSquaredPerfectAndNoisy) {
  LinearRegression exact;
  for (double x : {1.0, 2.0, 5.0, 9.0}) exact.Add(x, 3.0 + 2.0 * x);
  EXPECT_NEAR(exact.r_squared(), 1.0, 1e-12);

  LinearRegression noisy;
  noisy.Add(1.0, 5.1);
  noisy.Add(2.0, 6.8);
  noisy.Add(3.0, 9.3);
  noisy.Add(4.0, 10.6);
  EXPECT_GT(noisy.r_squared(), 0.9);
  EXPECT_LT(noisy.r_squared(), 1.0);

  // Degenerate cases: <2 points and constant y are "perfectly explained";
  // constant x with varying y explains nothing.
  LinearRegression empty;
  EXPECT_DOUBLE_EQ(empty.r_squared(), 1.0);
  LinearRegression constant_y;
  constant_y.Add(1.0, 4.0);
  constant_y.Add(2.0, 4.0);
  EXPECT_DOUBLE_EQ(constant_y.r_squared(), 1.0);
  LinearRegression constant_x;
  constant_x.Add(5.0, 1.0);
  constant_x.Add(5.0, 9.0);
  EXPECT_DOUBLE_EQ(constant_x.r_squared(), 0.0);
}

TEST(CommCost, FitExposesRegressionDiagnostics) {
  CommCostModel m;
  EXPECT_FALSE(m.Fit(0, 1).has_value());
  EXPECT_TRUE(m.KnownPairs().empty());
  // Exact line: 10 us latency + 1 GB/s.
  for (int64_t bytes : {int64_t{1} << 20, int64_t{1} << 24, int64_t{1} << 26})
    m.AddSample(0, 1, bytes, 1e-5 + static_cast<double>(bytes) / 1e9);
  const auto fit = m.Fit(0, 1);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->intercept, 1e-5, 1e-9);
  EXPECT_NEAR(fit->slope, 1e-9, 1e-15);
  EXPECT_NEAR(fit->r2, 1.0, 1e-9);
  EXPECT_EQ(fit->samples, 3u);
  const auto pairs = m.KnownPairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, 0);
  EXPECT_EQ(pairs[0].second, 1);
}

// A tiny graph whose ops have distinct cost keys.
Graph CostTableGraph() {
  Graph g;
  for (int i = 0; i < 3; ++i) {
    Operation op;
    op.name = "t" + std::to_string(i);
    op.type = i == 0 ? OpType::kMatMul : OpType::kRelu;
    op.output_shape = TensorShape{8 << i};
    op.flops = 1e6 * (i + 1);
    g.AddOp(std::move(op));
  }
  return g;
}

TEST(CompCostTable, MatchesTheModelItSnapshotted) {
  const Graph g = CostTableGraph();
  CompCostModel comp;
  comp.AddSample(g.op(0).CostKey(), 0, 0.002);
  comp.AddSample(g.op(0).CostKey(), 1, 0.004);
  comp.AddSample(g.op(1).CostKey(), 1, 0.001);
  const CompCostTable table(g, comp, 2);
  for (OpId id : g.LiveOps()) {
    for (DeviceId d = 0; d < 2; ++d)
      EXPECT_EQ(table.Time(id, d), comp.EstimateOrExplore(g.op(id), d))
          << "op " << id << " dev " << d;
    EXPECT_EQ(table.MaxOverDevices(id),
              comp.MaxTimeOverDevices(g.op(id), 2));
  }
  EXPECT_TRUE(table.Fresh(g, comp));
}

TEST(CompCostTable, GoesStaleWhenTheModelLearns) {
  const Graph g = CostTableGraph();
  CompCostModel comp;
  const CompCostTable table(g, comp, 2);
  EXPECT_TRUE(table.Fresh(g, comp));
  comp.AddSample(g.op(0).CostKey(), 0, 0.003);
  EXPECT_FALSE(table.Fresh(g, comp));
  // A rebuilt snapshot is fresh again and reflects the new sample.
  const CompCostTable rebuilt(g, comp, 2);
  EXPECT_TRUE(rebuilt.Fresh(g, comp));
  EXPECT_EQ(rebuilt.Time(0, 0), comp.EstimateOrExplore(g.op(0), 0));
}

TEST(CompCostTable, GoesStaleWhenTheGraphGrows) {
  Graph g = CostTableGraph();
  CompCostModel comp;
  const CompCostTable table(g, comp, 2);
  Operation op;
  op.name = "extra";
  op.type = OpType::kRelu;
  op.output_shape = TensorShape{4};
  g.AddOp(std::move(op));
  EXPECT_FALSE(table.Fresh(g, comp));
}

TEST(CommCostTable, MatchesTheModelItSnapshotted) {
  CommCostModel comm;
  for (int64_t bytes : {1 << 10, 1 << 16, 1 << 20})
    comm.AddSample(0, 1, bytes, 1e-5 + 1e-9 * static_cast<double>(bytes));
  comm.AddSample(1, 0, 1 << 16, 3e-4);
  const CommCostTable table(comm, 2);
  for (int64_t bytes : {0L, 1L << 12, 1L << 20}) {
    for (DeviceId s = 0; s < 2; ++s)
      for (DeviceId d = 0; d < 2; ++d)
        EXPECT_EQ(table.Estimate(s, d, bytes), comm.Estimate(s, d, bytes));
    EXPECT_EQ(table.MaxOverPairs(bytes), comm.MaxOverPairs(bytes));
  }
  EXPECT_TRUE(table.Fresh(comm));
  comm.AddSample(0, 1, 1 << 8, 2e-5);
  EXPECT_FALSE(table.Fresh(comm));
}

TEST(CommCostTable, PrunedPairsMatchTheModelAtSixteenDevices) {
  // The table keeps only the pairs no other pair beats on both intercept and
  // slope. The first four fits each attain the max on their own byte range
  // (crossovers near 2e5, 2.7e5 and 6.7e5 bytes, so 2^17..2^20 see a
  // different winner each); the rest are beaten on both terms and tie one
  // of them on slope or on intercept. Every pair of a 16-device cluster
  // draws one at random, so each fit also recurs as exact duplicates, and
  // some pairs stay unfitted.
  constexpr int32_t kDevices = 16;
  const std::pair<double, double> fits[] = {
      {1e-4, 0.0},     {8e-5, 1e-10},  {0.0, 4e-10},   {-4e-4, 1e-9},
      {1e-4, -1e-11},  {8e-5, -1e-11}, {5e-5, 1e-10},  {-1e-3, 1e-9},
      {-1e-5, 4e-10},
  };
  Rng rng(20201207);
  CommCostModel comm;
  for (DeviceId s = 0; s < kDevices; ++s) {
    for (DeviceId d = 0; d < kDevices; ++d) {
      if (s == d || rng.NextBelow(8) == 0) continue;
      const auto [a, b] = fits[rng.NextBelow(std::size(fits))];
      comm.AddSample(s, d, 0, a);
      comm.AddSample(s, d, 1 << 20, a + b * (1 << 20));
    }
  }
  const CommCostTable table(comm, kDevices);
  std::vector<int64_t> sizes = {0, 1};
  for (int shift = 10; shift <= 31; ++shift)
    sizes.push_back(int64_t{1} << shift);
  for (int64_t bytes : sizes)
    EXPECT_EQ(table.MaxOverPairs(bytes), comm.MaxOverPairs(bytes))
        << bytes << " bytes";
  for (DeviceId s = 0; s < kDevices; ++s)
    for (DeviceId d = 0; d < kDevices; ++d)
      EXPECT_EQ(table.Estimate(s, d, 1 << 16), comm.Estimate(s, d, 1 << 16));
}

TEST(CommCostTable, UnknownPairsExplore) {
  CommCostModel comm;
  const CommCostTable table(comm, 3);
  EXPECT_EQ(table.Estimate(0, 2, 1 << 20), 0.0);
  EXPECT_EQ(table.Estimate(1, 1, 1 << 20), 0.0);
}

}  // namespace
}  // namespace fastt
