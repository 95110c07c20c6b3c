// Differential tests for the parallel strategy search: with any --jobs
// setting, DPOS/OS-DPOS must produce strategies byte-identical (via the
// strategy_io serialization) to the serial jobs=1 reference. The search's
// parallelism is determinism-by-design — per-index result slots plus a
// serial reduction in a fixed order — and these sweeps are the proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "core/os_dpos.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

// Restores jobs = 1 (the suite-wide default) even when a test fails.
class JobsGuard {
 public:
  ~JobsGuard() { SetSearchJobs(1); }
};

// Cost models fed from one noisy profiled simulation; the seed varies the
// profile, so each seed exercises the search on a different cost surface.
void SeedCostModels(const Graph& g, const Cluster& cluster, uint64_t seed,
                    CompCostModel* comp, CommCostModel* comm) {
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  for (OpId id : g.LiveOps())
    placement[static_cast<size_t>(id)] =
        static_cast<DeviceId>(id % cluster.num_devices());
  SimOptions so;
  so.noise_cv = 0.05;
  so.seed = seed;
  const SimResult sim = Simulate(g, placement, cluster, so);
  const RunProfile profile = ExtractProfile(g, sim);
  comp->AddProfile(profile);
  comm->AddProfile(profile);
}

class ParallelSearchModelSweep : public ::testing::TestWithParam<const char*> {
};

TEST_P(ParallelSearchModelSweep, OsDposIsByteIdenticalAcrossJobs) {
  JobsGuard guard;
  const ModelSpec& spec = FindModel(GetParam());
  const Cluster cluster = Cluster::SingleServer(4);
  const Graph g = BuildSingle(spec, std::min<int64_t>(spec.strong_batch, 16));
  OsDposOptions options;
  options.max_probed_ops = 4;  // differential property is option-independent
  options.max_splits = 2;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CompCostModel comp;
    CommCostModel comm;
    SeedCostModels(g, cluster, seed, &comp, &comm);

    SetSearchJobs(1);
    const OsDposResult serial = OsDpos(g, cluster, comp, comm, options);
    const std::string reference =
        SerializeStrategy(serial.schedule.strategy);

    for (int jobs : {2, 8}) {
      SetSearchJobs(jobs);
      const OsDposResult parallel = OsDpos(g, cluster, comp, comm, options);
      EXPECT_EQ(SerializeStrategy(parallel.schedule.strategy), reference)
          << spec.name << " seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.probes, serial.probes)
          << spec.name << " seed " << seed << " jobs " << jobs;
      EXPECT_EQ(parallel.schedule.ft_exit, serial.schedule.ft_exit)
          << spec.name << " seed " << seed << " jobs " << jobs;
    }
    SetSearchJobs(1);
  }
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, ParallelSearchModelSweep,
                         ::testing::Values("lenet", "alexnet", "vgg19",
                                           "inception_v3", "resnet200",
                                           "gnmt", "rnnlm", "transformer",
                                           "bert_large"));

TEST(ParallelSearch, WideClusterIsByteIdenticalAcrossJobs) {
  // 16 devices makes the CP-device prefix scan inside each DPOS run wider
  // than the pool, so its chunks split unevenly across workers, and the
  // OS-DPOS trials that run those scans fan out on the same pool.
  JobsGuard guard;
  const ModelSpec& spec = FindModel("alexnet");
  const Cluster cluster = Cluster::SingleServer(16);
  const Graph g = BuildSingle(spec, 16);
  OsDposOptions options;
  options.max_probed_ops = 4;
  options.max_splits = 2;

  CompCostModel comp;
  CommCostModel comm;
  SeedCostModels(g, cluster, 7, &comp, &comm);

  SetSearchJobs(1);
  const OsDposResult serial = OsDpos(g, cluster, comp, comm, options);
  const std::string reference = SerializeStrategy(serial.schedule.strategy);

  for (int jobs : {2, 8}) {
    SetSearchJobs(jobs);
    const OsDposResult parallel = OsDpos(g, cluster, comp, comm, options);
    EXPECT_EQ(SerializeStrategy(parallel.schedule.strategy), reference)
        << "jobs " << jobs;
    EXPECT_EQ(parallel.schedule.ft_exit, serial.schedule.ft_exit)
        << "jobs " << jobs;
  }
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenCase {
  const char* model;
  int servers;
  int gpus_per_server;
  uint64_t digest[3];  // FNV-1a of the serialized strategy, seeds 1..3
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.model; }

class ParallelSearchGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ParallelSearchGolden, OsDposStrategyMatchesRecordedDigest) {
  // Byte-identity across job counts cannot catch a change that moves every
  // job count alike; these digests pin the strategy itself at the paper's
  // cluster sizes. Regenerate them only for an intended behaviour change.
  JobsGuard guard;
  const GoldenCase& c = GetParam();
  const ModelSpec& spec = FindModel(c.model);
  const Cluster cluster =
      c.servers == 1 ? Cluster::SingleServer(c.gpus_per_server)
                     : Cluster::MultiServer(c.servers, c.gpus_per_server);
  const Graph g = BuildSingle(spec, std::min<int64_t>(spec.strong_batch, 16));
  OsDposOptions options;
  options.max_probed_ops = 4;
  options.max_splits = 2;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CompCostModel comp;
    CommCostModel comm;
    SeedCostModels(g, cluster, seed, &comp, &comm);
    for (int jobs : {1, 2}) {
      SetSearchJobs(jobs);
      const OsDposResult result = OsDpos(g, cluster, comp, comm, options);
      const std::string bytes = SerializeStrategy(result.schedule.strategy);
      EXPECT_EQ(Fnv1a(bytes), c.digest[seed - 1])
          << c.model << " seed " << seed << " jobs " << jobs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, ParallelSearchGolden,
    ::testing::Values(GoldenCase{"rnnlm", 2, 8,
                                 {0x35672e62668c5fb2ULL, 0x481183c963c55a80ULL,
                                  0xb74c0c9e6b4025bdULL}},
                      GoldenCase{"inception_v3", 1, 8,
                                 {0x2dd8f664ebb40c29ULL, 0x2262e8c934ea5811ULL,
                                  0x23a35f589716ccfcULL}}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.model);
    });

TEST(ParallelSearch, FullWorkflowIsByteIdenticalAcrossJobs) {
  // End-to-end: the whole pre-training workflow (profiling rounds, OS-DPOS,
  // commit/rollback decisions) lands on the same strategy and the same
  // measured iteration time regardless of the jobs setting.
  JobsGuard guard;
  const ModelSpec& spec = FindModel("alexnet");
  const Cluster cluster = Cluster::SingleServer(4);
  CalculatorOptions options;
  options.max_rounds = 3;

  SetSearchJobs(1);
  const CalculatorResult serial = RunFastT(
      spec.build, spec.name, 32, Scaling::kStrong, cluster, options);
  SetSearchJobs(8);
  const CalculatorResult parallel = RunFastT(
      spec.build, spec.name, 32, Scaling::kStrong, cluster, options);

  EXPECT_EQ(SerializeStrategy(parallel.strategy),
            SerializeStrategy(serial.strategy));
  EXPECT_EQ(parallel.iteration_s, serial.iteration_s);
  EXPECT_EQ(parallel.rounds, serial.rounds);
  EXPECT_EQ(parallel.activations, serial.activations);
}

}  // namespace
}  // namespace fastt
