// Searcher arena differential tests: every registered searcher, on every
// zoo model, must (a) produce a strategy the verifier accepts with zero
// errors, (b) report an objective that an independent noise-free ExecSim
// re-simulation reproduces bit-exactly, and (c) never beat FastT's DPOS
// pipeline by more than a small tolerance — the paper's Fig. 3 ordering,
// pinned as a property. Plus: determinism across --jobs for the new
// searchers and the portfolio winner (the PR-2 idiom), and coverage of the
// previously untested SearchOptions::noise_cv path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "baselines/searcher_registry.h"
#include "baselines/searchers.h"
#include "core/portfolio.h"
#include "core/strategy_io.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

// Restores jobs = 1 (the suite-wide default) even when a test fails.
class JobsGuard {
 public:
  ~JobsGuard() { SetSearchJobs(1); }
};

// The FlexFlow-like annealer legitimately edges FastT out on some models
// (bench_fig3's shape note); the pin is that nothing beats FastT by more
// than this factor. Largest margin observed across the zoo at 2 GPUs is
// ~7.4% (bert_large), so 15% pins the ordering with headroom against cost
// surface drift without ever being the noisy assertion that cried wolf.
constexpr double kFig3Tolerance = 0.15;

const ArenaSearcher& SearcherNamed(const std::string& name) {
  const ArenaSearcher* s = FindSearcher(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

class ArenaZooSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ArenaZooSweep, EverySearcherVerifiesAndResimulatesExactly) {
  const ModelSpec& spec = FindModel(GetParam());
  const Cluster cluster = Cluster::SingleServer(2);

  PortfolioOptions options;
  options.budget_s = 0.0;  // no deadline: fully deterministic race
  const PortfolioResult result =
      PortfolioSearch(RegisteredSearchers(), spec.build, spec.name,
                      spec.strong_batch, cluster, options);

  ASSERT_GE(result.entries.size(), 7u);
  double fastt_s = 0.0;
  double best_rival_s = std::numeric_limits<double>::infinity();
  for (const PortfolioEntry& e : result.entries) {
    SCOPED_TRACE(spec.name + " / " + e.searcher);
    // (a) the verifier gate: zero errors for every contender.
    EXPECT_TRUE(e.verified);
    EXPECT_EQ(e.verify_errors, 0);
    // (b) the differential oracle: the searcher's reported objective is
    // exactly the independent re-simulation (noise_cv = 0 everywhere).
    EXPECT_EQ(e.iteration_s, e.resim_s);
    EXPECT_GT(e.evaluations, 0);
    EXPECT_GE(e.wall_s, 0.0);
    EXPECT_FALSE(e.stop_reason.empty());
    if (e.searcher == "fastt")
      fastt_s = e.resim_s;
    else
      best_rival_s = std::min(best_rival_s, e.resim_s);
  }
  // (c) Fig. 3 ordering: no rival beats FastT by more than the tolerance.
  ASSERT_GT(fastt_s, 0.0);
  EXPECT_GE(best_rival_s, fastt_s * (1.0 - kFig3Tolerance))
      << "a rival beat fastt by more than " << kFig3Tolerance * 100 << "%";

  // The winner is verified and its artifacts are consistent.
  ASSERT_GE(result.winner, 0);
  const PortfolioEntry& winner =
      result.entries[static_cast<size_t>(result.winner)];
  EXPECT_TRUE(winner.winner);
  EXPECT_TRUE(result.winner_verify.ok());
  EXPECT_EQ(result.iteration_s, winner.resim_s);
  EXPECT_EQ(result.strategy.predicted_makespan, winner.resim_s);
  // Provenance: one event per contender plus the winner event.
  EXPECT_EQ(result.events.size(), result.entries.size() + 1);
}

INSTANTIATE_TEST_SUITE_P(Zoo, ArenaZooSweep,
                         ::testing::Values("lenet", "alexnet", "vgg19",
                                           "inception_v3", "resnet200",
                                           "gnmt", "rnnlm", "transformer",
                                           "bert_large"));

// --- Determinism across --jobs -------------------------------------------

// Serialized (placement, order, splits) of a searcher's result — the
// byte-identity witness.
std::string Fingerprint(const SearchResult& result, const Cluster& cluster) {
  return SerializeStrategy(StrategyFromSearchResult(result, cluster));
}

class ArenaSearcherJobsSweep : public ::testing::TestWithParam<const char*> {
};

TEST_P(ArenaSearcherJobsSweep, ByteIdenticalAcrossJobs) {
  JobsGuard guard;
  const ArenaSearcher& searcher = SearcherNamed(GetParam());
  const Cluster cluster = Cluster::SingleServer(2);
  const ModelSpec& spec = FindModel("lenet");
  SearchOptions options;
  options.budget = 40;

  SetSearchJobs(1);
  const SearchResult serial =
      searcher.fn(spec.build, spec.name, spec.strong_batch, cluster, options);
  const std::string reference = Fingerprint(serial, cluster);

  for (int jobs : {4, 8}) {
    SetSearchJobs(jobs);
    const SearchResult parallel = searcher.fn(spec.build, spec.name,
                                              spec.strong_batch, cluster,
                                              options);
    EXPECT_EQ(Fingerprint(parallel, cluster), reference)
        << searcher.name << " jobs " << jobs;
    EXPECT_EQ(parallel.iteration_s, serial.iteration_s)
        << searcher.name << " jobs " << jobs;
    EXPECT_EQ(parallel.evaluations, serial.evaluations)
        << searcher.name << " jobs " << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(NewSearchers, ArenaSearcherJobsSweep,
                         ::testing::Values("fastt", "m-etf", "m-sct",
                                           "dp-pipeline", "critical-path"));

TEST(ArenaPortfolio, WinnerDeterministicAcrossJobs) {
  JobsGuard guard;
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  PortfolioOptions options;
  options.budget_s = 0.0;  // fixed budget: no wall-clock nondeterminism

  SetSearchJobs(1);
  const PortfolioResult serial =
      PortfolioSearch(RegisteredSearchers(), spec.build, spec.name,
                      spec.strong_batch, cluster, options);
  ASSERT_GE(serial.winner, 0);
  const std::string reference = SerializeStrategy(serial.strategy);

  for (int jobs : {4, 8}) {
    SetSearchJobs(jobs);
    const PortfolioResult parallel =
        PortfolioSearch(RegisteredSearchers(), spec.build, spec.name,
                        spec.strong_batch, cluster, options);
    EXPECT_EQ(parallel.winner, serial.winner) << "jobs " << jobs;
    EXPECT_EQ(SerializeStrategy(parallel.strategy), reference)
        << "jobs " << jobs;
    ASSERT_EQ(parallel.entries.size(), serial.entries.size());
    for (size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(parallel.entries[i].resim_s, serial.entries[i].resim_s)
          << serial.entries[i].searcher << " jobs " << jobs;
      EXPECT_EQ(parallel.entries[i].evaluations,
                serial.entries[i].evaluations)
          << serial.entries[i].searcher << " jobs " << jobs;
    }
  }
}

// --- SearchOptions::noise_cv ----------------------------------------------

// Every searcher must be reproducible under seeded evaluation noise, and
// noise_cv = 0 must be exactly the deterministic objective (the registry
// loop covers the four pre-arena baselines too).
TEST(ArenaNoise, SeededNoiseIsReproducible) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  for (const ArenaSearcher& searcher : RegisteredSearchers()) {
    SCOPED_TRACE(searcher.name);
    SearchOptions options;
    options.budget = 30;
    options.noise_cv = 0.2;
    options.seed = 99;
    const SearchResult a = searcher.fn(spec.build, spec.name,
                                       spec.strong_batch, cluster, options);
    const SearchResult b = searcher.fn(spec.build, spec.name,
                                       spec.strong_batch, cluster, options);
    EXPECT_EQ(a.iteration_s, b.iteration_s);
    EXPECT_EQ(a.placement, b.placement);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.stop_reason, b.stop_reason);
  }
}

TEST(ArenaNoise, ZeroNoiseIsTheDeterministicObjective) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  for (const ArenaSearcher& searcher : RegisteredSearchers()) {
    SCOPED_TRACE(searcher.name);
    SearchOptions options;
    options.budget = 30;
    options.noise_cv = 0.0;
    const SearchResult r = searcher.fn(spec.build, spec.name,
                                       spec.strong_batch, cluster, options);
    EXPECT_EQ(r.iteration_s, ResimulateIteration(r, cluster));
  }
}

TEST(ArenaNoise, NoiseChangesTheObservedObjective) {
  // Sanity that the noise path is actually live: with a large cv, the noisy
  // objective of the deterministic greedy construction differs from its
  // noise-free re-simulation (same placement, different observed time).
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  SearchOptions noisy;
  noisy.noise_cv = 0.3;
  noisy.seed = 5;
  const SearchResult r = GreedyRankPlacement(spec.build, spec.name,
                                             spec.strong_batch, cluster,
                                             noisy);
  EXPECT_NE(r.iteration_s, ResimulateIteration(r, cluster));
}

// --- stop_reason / wall_s / deadline --------------------------------------

TEST(ArenaStopReason, ConstructivesReportConstructed) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  for (const char* name :
       {"greedy-rank", "m-etf", "m-sct", "dp-pipeline", "critical-path"}) {
    SCOPED_TRACE(name);
    const SearchResult r = SearcherNamed(name).fn(
        spec.build, spec.name, spec.strong_batch, cluster, SearchOptions{});
    EXPECT_EQ(r.stop_reason, "constructed");
    EXPECT_EQ(r.evaluations, 1);
    EXPECT_GT(r.wall_s, 0.0);
  }
}

TEST(ArenaStopReason, BudgetExhaustionVsConvergence) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  SearchOptions budget_bound;
  budget_bound.budget = 25;
  const SearchResult exhausted = LocalSearchPlacement(
      spec.build, spec.name, spec.strong_batch, cluster, budget_bound);
  EXPECT_EQ(exhausted.stop_reason, "budget");

  SearchOptions patient = budget_bound;
  patient.budget = 5000;
  patient.patience = 3;
  const SearchResult converged = LocalSearchPlacement(
      spec.build, spec.name, spec.strong_batch, cluster, patient);
  EXPECT_EQ(converged.stop_reason, "converged");
  EXPECT_LT(converged.evaluations, patient.budget);
}

TEST(ArenaStopReason, DeadlineStopsIterativeSearchers) {
  const ModelSpec& spec = FindModel("lenet");
  const Cluster cluster = Cluster::SingleServer(2);
  SearchOptions options;
  options.budget = 1 << 30;  // would run forever without the deadline
  options.wall_budget_s = 1e-9;
  const SearchResult r = RandomSearchPlacement(
      spec.build, spec.name, spec.strong_batch, cluster, options);
  EXPECT_EQ(r.stop_reason, "deadline");
  // The single-device fallback still runs, so the result stays usable.
  EXPECT_GE(r.evaluations, 1);
  EXPECT_FALSE(r.placement.empty());
}

// --- Golden digests at 8 GPUs ---------------------------------------------
// The sweeps above accept any verified strategy at 2 GPUs; these digests pin
// every searcher's result bit-for-bit on the paper's 8-GPU server. Regenerate
// them only for an intended change to a searcher or to the simulator.

// FNV-1a over the result's placement, execution order, splits, objective
// bits, evaluation count and stop reason.
uint64_t DigestOf(const SearchResult& r) {
  uint64_t h = 14695981039346656037ULL;
  auto add_bytes = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  auto add = [&add_bytes](auto value) { add_bytes(&value, sizeof(value)); };
  for (DeviceId d : r.placement) add(d);
  for (OpId id : r.execution_order) add(id);
  for (const SplitDecision& s : r.splits) {
    add_bytes(s.op_name.data(), s.op_name.size());
    add(s.dim);
    add(s.num_splits);
  }
  add(r.iteration_s);
  add(r.evaluations);
  add_bytes(r.stop_reason.data(), r.stop_reason.size());
  return h;
}

struct ArenaGoldenCase {
  const char* searcher;
  const char* model;
  int gpus;
  uint64_t digest;
};

void PrintTo(const ArenaGoldenCase& c, std::ostream* os) { *os << c.searcher; }

class ArenaGolden : public ::testing::TestWithParam<ArenaGoldenCase> {};

TEST_P(ArenaGolden, SearcherMatchesRecordedDigest) {
  const ArenaGoldenCase& c = GetParam();
  const ModelSpec& spec = FindModel(c.model);
  SearchOptions options;
  options.budget = 60;  // no wall budget: the race is fully deterministic
  const SearchResult r = SearcherNamed(c.searcher).fn(
      spec.build, spec.name, spec.strong_batch, Cluster::SingleServer(c.gpus),
      options);
  const uint64_t digest = DigestOf(r);
  EXPECT_EQ(digest, c.digest) << c.searcher << " on " << c.model << std::hex
                              << " digest 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, ArenaGolden,
    ::testing::Values(
        ArenaGoldenCase{"fastt", "inception_v3", 8, 0x092e4ed11b26c2ffULL},
        ArenaGoldenCase{"random", "inception_v3", 8, 0xcd010fc3b673ee28ULL},
        ArenaGoldenCase{"greedy-rank", "inception_v3", 8,
                        0xefb4e3276d7c13f4ULL},
        ArenaGoldenCase{"local-search", "inception_v3", 8,
                        0xe46dc09063a2ef23ULL},
        ArenaGoldenCase{"cross-entropy", "inception_v3", 8,
                        0xe4cdb9ec9495204cULL},
        ArenaGoldenCase{"annealing", "inception_v3", 8, 0x7921c81521be71d4ULL},
        ArenaGoldenCase{"m-etf", "inception_v3", 8, 0xc7e62fbcb91fbfa2ULL},
        ArenaGoldenCase{"m-sct", "inception_v3", 8, 0xec1169a17f6ccf9dULL},
        ArenaGoldenCase{"dp-pipeline", "inception_v3", 8,
                        0xdec13b418442881cULL},
        ArenaGoldenCase{"critical-path", "inception_v3", 8,
                        0x25509f3fe4bd4d5aULL}),
    [](const ::testing::TestParamInfo<ArenaGoldenCase>& info) {
      std::string name = info.param.searcher;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Annealing never improves on the data-parallel start at 8 GPUs, so the
// digests above cannot see its trajectory. On these 2-GPU cases its best
// strategy carries an accepted split, so every move along the way counts.
INSTANTIATE_TEST_SUITE_P(
    SplitMoves, ArenaGolden,
    ::testing::Values(
        ArenaGoldenCase{"annealing", "vgg19", 2, 0xdb3410f71e40197fULL},
        ArenaGoldenCase{"annealing", "transformer", 2, 0x15208e48f0b42c86ULL}),
    [](const ::testing::TestParamInfo<ArenaGoldenCase>& info) {
      return std::string(info.param.model);
    });

}  // namespace
}  // namespace fastt
