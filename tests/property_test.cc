// Property-based sweeps: structural invariants of the executor and the
// scheduling/rewrite stack over randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>

#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "graph/rewrite.h"
#include "models/model_zoo.h"
#include "sim/exec_sim.h"
#include "util/rng.h"

namespace fastt {
namespace {

// Random layered DAG with compute ops (deterministic per seed).
Graph RandomDag(uint64_t seed, int* n_ops_out) {
  Rng rng(seed);
  Graph g;
  const int n = 15 + static_cast<int>(rng.NextBelow(50));
  std::vector<OpId> ids;
  for (int i = 0; i < n; ++i) {
    Operation op;
    op.name = "op" + std::to_string(i);
    op.type = rng.NextBool(0.5) ? OpType::kMatMul : OpType::kRelu;
    op.output_shape = TensorShape{
        static_cast<int64_t>(1 + rng.NextBelow(1 << 16))};
    // A batch extent so the split-rewrite sweeps can partition these ops.
    op.batch = static_cast<int64_t>(4 + rng.NextBelow(8));
    op.flops = rng.NextDouble(0.0, 5e9);
    op.bytes_touched = static_cast<int64_t>(rng.NextBelow(1 << 24));
    const OpId id = g.AddOp(std::move(op));
    const uint64_t fanin = rng.NextBelow(3);
    for (uint64_t k = 0; k < fanin && !ids.empty(); ++k)
      g.AddEdge(ids[rng.NextBelow(ids.size())], id);
    ids.push_back(id);
  }
  *n_ops_out = n;
  return g;
}

class SimInvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimInvariantSweep, ExecutionIsWellFormed) {
  int n = 0;
  Graph g = RandomDag(GetParam(), &n);
  Rng rng(GetParam() * 13 + 1);
  const int devices = 1 + static_cast<int>(rng.NextBelow(4));
  std::vector<DeviceId> placement;
  placement.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    placement.push_back(
        static_cast<DeviceId>(rng.NextBelow(static_cast<uint64_t>(devices))));
  const Cluster cluster = Cluster::SingleServer(devices);
  SimOptions options;
  options.dispatch =
      rng.NextBool(0.5) ? DispatchMode::kFifo : DispatchMode::kRandom;
  options.seed = GetParam();
  const SimResult r = Simulate(g, placement, cluster, options);

  // 1. Every live op executed exactly once, on its assigned device.
  for (OpId id : g.LiveOps()) {
    const OpRecord& rec = r.op_records[static_cast<size_t>(id)];
    EXPECT_EQ(rec.device, placement[static_cast<size_t>(id)]);
    EXPECT_GE(rec.finish, rec.start);
    EXPECT_LE(rec.finish, r.makespan + 1e-12);
  }

  // 2. Serial devices: intervals on one device never overlap.
  std::map<DeviceId, std::vector<std::pair<double, double>>> by_device;
  for (OpId id : g.LiveOps()) {
    const OpRecord& rec = r.op_records[static_cast<size_t>(id)];
    by_device[rec.device].push_back({rec.start, rec.finish});
  }
  for (auto& [device, intervals] : by_device) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i)
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9)
          << "overlap on device " << device;
  }

  // 3. Precedence: a consumer starts no earlier than each producer ends
  // (plus transfer time when the edge crosses devices).
  for (OpId id : g.LiveOps()) {
    for (OpId pred : g.Preds(id)) {
      const auto& crec = r.op_records[static_cast<size_t>(id)];
      const auto& prec = r.op_records[static_cast<size_t>(pred)];
      EXPECT_GE(crec.start, prec.finish - 1e-9);
    }
  }

  // 4. Transfers only between distinct devices; arrivals before consumers.
  for (const TransferRecord& t : r.transfers) {
    EXPECT_NE(t.src, t.dst);
    EXPECT_GE(t.arrival, t.start);
    const auto& crec = r.op_records[static_cast<size_t>(t.dst_op)];
    EXPECT_GE(crec.start, t.arrival - 1e-9);
  }

  // 5. Busy time conservation.
  double busy = 0.0;
  for (double b : r.device_busy_s) busy += b;
  double durations = 0.0;
  for (OpId id : g.LiveOps())
    durations += r.op_records[static_cast<size_t>(id)].duration();
  EXPECT_NEAR(busy, durations, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SimInvariantSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

class DispatchModeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DispatchModeSweep, PriorityOrderIsHonoredAmongReadyOps) {
  // With all ops independent on one device, priority dispatch must execute
  // exactly in priority order.
  Rng rng(GetParam());
  Graph g;
  const int n = 8;
  std::vector<int64_t> priorities;
  for (int i = 0; i < n; ++i) {
    Operation op;
    op.name = "op" + std::to_string(i);
    op.type = OpType::kMatMul;
    op.output_shape = TensorShape{4};
    op.flops = 1e7;
    g.AddOp(std::move(op));
  }
  for (int i = 0; i < n; ++i) priorities.push_back(i);
  std::shuffle(priorities.begin(), priorities.end(),
               std::mt19937(static_cast<unsigned>(GetParam())));
  SimOptions options;
  options.dispatch = DispatchMode::kPriority;
  options.priorities = priorities;
  const SimResult r = Simulate(g, std::vector<DeviceId>(n, 0),
                               Cluster::SingleServer(1), options);
  std::vector<OpId> order(static_cast<size_t>(n));
  for (OpId id = 0; id < n; ++id) order[static_cast<size_t>(id)] = id;
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    return r.op_records[static_cast<size_t>(a)].start <
           r.op_records[static_cast<size_t>(b)].start;
  });
  for (size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(priorities[static_cast<size_t>(order[i - 1])],
              priorities[static_cast<size_t>(order[i])]);
}

INSTANTIATE_TEST_SUITE_P(Shuffles, DispatchModeSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{10}));

TEST(SplitEquivalence, SplitGraphDoesSameWork) {
  // Splitting an op preserves total FLOPs and the graph still executes to
  // completion with all fragments run.
  const ModelSpec& spec = FindModel("alexnet");
  Graph g = BuildSingle(spec, 64);
  const double flops_before = g.TotalFlops();
  const OpId conv = g.FindOp("conv3");
  ASSERT_NE(conv, kInvalidOp);
  SplitOperation(g, conv, SplitDim::kBatch, 4);
  EXPECT_NEAR(g.TotalFlops(), flops_before, flops_before * 1e-9);

  const Cluster cluster = Cluster::SingleServer(2);
  std::vector<DeviceId> placement(static_cast<size_t>(g.num_slots()), 0);
  // Scatter sub-ops across devices.
  for (int i = 0; i < 4; ++i) {
    const OpId sub = g.FindOp("conv3/part" + std::to_string(i));
    ASSERT_NE(sub, kInvalidOp);
    placement[static_cast<size_t>(sub)] = static_cast<DeviceId>(i % 2);
  }
  const SimResult r = Simulate(g, placement, cluster);
  EXPECT_GT(r.makespan, 0.0);
  for (OpId id : g.LiveOps())
    EXPECT_NE(r.op_records[static_cast<size_t>(id)].device, kInvalidDevice);
}

class OsDposModelSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(OsDposModelSweep, ProducesExecutableStrategies) {
  // For a cross-section of models: OS-DPOS strategies simulate to
  // completion with order enforcement and no precedence violations.
  const ModelSpec& spec = FindModel(GetParam());
  const Cluster cluster = Cluster::SingleServer(2);
  auto dp = BuildDataParallel(spec.build, spec.name,
                              std::min<int64_t>(spec.strong_batch, 64), 2,
                              Scaling::kStrong);
  CompCostModel comp;
  CommCostModel comm;
  {
    SimOptions so;
    const auto sim =
        Simulate(dp.graph, CanonicalDataParallelPlacement(dp), cluster, so);
    const auto profile = ExtractProfile(dp.graph, sim);
    comp.AddProfile(profile);
    comm.AddProfile(profile);
  }
  const OsDposResult os = OsDpos(dp.graph, cluster, comp, comm);
  SimOptions so;
  so.dispatch = DispatchMode::kPriority;
  so.priorities = PrioritiesFromOrder(os.schedule.strategy.execution_order,
                                      os.graph.num_slots());
  const SimResult r =
      Simulate(os.graph, os.schedule.strategy.placement, cluster, so);
  EXPECT_GT(r.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Models, OsDposModelSweep,
                         ::testing::Values("lenet", "alexnet", "rnnlm",
                                           "transformer"));

// ---- Simulator golden digests ----------------------------------------------
// The invariant sweeps above accept any well-formed execution; these digests
// pin Simulate's output bit-for-bit. Regenerate them only for an intended
// change to the simulator's behaviour.

// FNV-1a over the bytes of every field of a SimResult that a caller can
// observe.
uint64_t DigestOf(const Graph& g, const SimResult& r) {
  uint64_t h = 14695981039346656037ULL;
  auto add = [&h](auto value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  add(r.makespan);
  for (OpId id : g.LiveOps()) {
    const OpRecord& rec = r.op_records[static_cast<size_t>(id)];
    add(rec.device);
    add(rec.start);
    add(rec.finish);
  }
  for (const TransferRecord& t : r.transfers) {
    add(t.src_op);
    add(t.dst_op);
    add(t.src);
    add(t.dst);
    add(t.bytes);
    add(t.start);
    add(t.arrival);
  }
  for (double b : r.device_busy_s) add(b);
  add(r.total_compute_s);
  add(r.total_memcpy_s);
  for (int64_t p : r.peak_memory) add(p);
  add(r.oom);
  return h;
}

struct RandomGoldenCase {
  const char* name;
  DispatchMode dispatch;
  double noise_cv;
  uint64_t digest[8];  // RandomDag seeds 1..8
};

void PrintTo(const RandomGoldenCase& c, std::ostream* os) { *os << c.name; }

class SimGolden : public ::testing::TestWithParam<RandomGoldenCase> {};

TEST_P(SimGolden, RandomDagMatchesRecordedDigest) {
  const RandomGoldenCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    int n = 0;
    Graph g = RandomDag(seed, &n);
    Rng rng(seed * 53 + 11);
    const int devices = 2 + static_cast<int>(rng.NextBelow(3));
    std::vector<DeviceId> placement;
    for (int i = 0; i < n; ++i)
      placement.push_back(static_cast<DeviceId>(
          rng.NextBelow(static_cast<uint64_t>(devices))));
    // Two split rewrites leave tombstoned ops and edges in the graph.
    for (int splits = 0, attempt = 0; splits < 2 && attempt < 32; ++attempt) {
      const auto live = g.LiveOps();
      const OpId op = live[rng.NextBelow(live.size())];
      const int parts = 2 + static_cast<int>(rng.NextBelow(3));
      if (!CanSplit(g, op, SplitDim::kBatch, parts)) continue;
      SplitOperation(g, op, SplitDim::kBatch, parts);
      while (placement.size() < static_cast<size_t>(g.num_slots()))
        placement.push_back(static_cast<DeviceId>(
            rng.NextBelow(static_cast<uint64_t>(devices))));
      ++splits;
    }
    ASSERT_LT(g.LiveOps().size(), static_cast<size_t>(g.num_slots()))
        << "seed " << seed << " never split an op";

    SimOptions options;
    options.dispatch = c.dispatch;
    options.noise_cv = c.noise_cv;
    options.seed = seed;
    if (c.dispatch == DispatchMode::kPriority) {
      options.priorities.resize(static_cast<size_t>(g.num_slots()));
      for (auto& p : options.priorities)
        p = static_cast<int64_t>(rng.NextBelow(1000));
    }
    const uint64_t digest = DigestOf(
        g, Simulate(g, placement, Cluster::SingleServer(devices), options));
    EXPECT_EQ(digest, c.digest[seed - 1])
        << c.name << " seed " << seed << std::hex << " digest 0x" << digest;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dispatch, SimGolden,
    ::testing::Values(
        RandomGoldenCase{"fifo", DispatchMode::kFifo, 0.0,
                         {0xde550d4131578d0ULL, 0xd593f6e0401f7774ULL,
                          0xaecb5273ba33625eULL, 0x4130776f648bbca4ULL,
                          0xdf548b0dcd9e318eULL, 0x1489451f3e11f7a9ULL,
                          0x5bc7e05f5a51eca3ULL, 0xceddf5310a9d54f0ULL}},
        RandomGoldenCase{"fifo_noise", DispatchMode::kFifo, 0.1,
                         {0x462547074f768bd5ULL, 0x727fde8ef9cc2043ULL,
                          0x261f5946efe234a5ULL, 0xb24ce96fa07995b2ULL,
                          0xa4afe9aa181237c9ULL, 0x2e31c295ce303ec6ULL,
                          0x5f0f01f8d3c72d7ULL, 0x5cb3cab2c83a8ba7ULL}},
        RandomGoldenCase{"random", DispatchMode::kRandom, 0.0,
                         {0xea88a312178e5f66ULL, 0x5854f637206b8b10ULL,
                          0x2291470ac5211af4ULL, 0x399e098f7680b418ULL,
                          0x5ecb56733943ee52ULL, 0xb572b3d7a4285f53ULL,
                          0x62a60e005c321452ULL, 0xaf2daab1be2a6c80ULL}},
        RandomGoldenCase{"random_noise", DispatchMode::kRandom, 0.1,
                         {0xd7727232a3723d71ULL, 0xe172471c0c6c35b3ULL,
                          0xe3e6611773604bdcULL, 0x91955fee86f200fcULL,
                          0x62389c3d8ff8953eULL, 0xac58ccf76eb80089ULL,
                          0xe50f34cefad63f65ULL, 0x7e7a9fcd242d1475ULL}},
        RandomGoldenCase{"priority", DispatchMode::kPriority, 0.0,
                         {0x48c8b34b41f83fccULL, 0x905ecb80b673e7f7ULL,
                          0xca253c77a99b0718ULL, 0xffd4c322c4bb6ba0ULL,
                          0x73114d5ffed7c729ULL, 0x7daa9721cc99928eULL,
                          0x4271c69a4ba690e9ULL, 0xcc2d51daba18110dULL}},
        RandomGoldenCase{"priority_noise", DispatchMode::kPriority, 0.1,
                         {0x29e5d644586ec1c0ULL, 0x9ac29b55c0e80becULL,
                          0xef886875a0f9f409ULL, 0x1465a81b4f06df6fULL,
                          0x6251fcd197ab26edULL, 0xaac6b526011d4080ULL,
                          0x46cec92a9a539252ULL, 0xc5825f883a6062cULL}}),
    [](const ::testing::TestParamInfo<RandomGoldenCase>& info) {
      return std::string(info.param.name);
    });

struct ModelGoldenCase {
  const char* model;
  int servers;
  int gpus_per_server;
  uint64_t digest;
};

void PrintTo(const ModelGoldenCase& c, std::ostream* os) { *os << c.model; }

class SimModelGolden : public ::testing::TestWithParam<ModelGoldenCase> {};

TEST_P(SimModelGolden, DataParallelMatchesRecordedDigest) {
  const ModelGoldenCase& c = GetParam();
  const ModelSpec& spec = FindModel(c.model);
  const Cluster cluster =
      c.servers == 1 ? Cluster::SingleServer(c.gpus_per_server)
                     : Cluster::MultiServer(c.servers, c.gpus_per_server);
  const auto dp = BuildDataParallel(spec.build, spec.name, spec.strong_batch,
                                    cluster.num_devices(), Scaling::kStrong);
  SimOptions options;
  options.track_memory = true;
  const uint64_t digest = DigestOf(
      dp.graph,
      Simulate(dp.graph, CanonicalDataParallelPlacement(dp), cluster, options));
  EXPECT_EQ(digest, c.digest) << c.model << std::hex << " digest 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSizes, SimModelGolden,
    ::testing::Values(
        ModelGoldenCase{"inception_v3", 1, 8, 0x96ebc45c0507d9c0ULL},
        ModelGoldenCase{"rnnlm", 2, 8, 0xe3df65e8027801d8ULL}),
    [](const ::testing::TestParamInfo<ModelGoldenCase>& info) {
      return std::string(info.param.model);
    });

}  // namespace
}  // namespace fastt
