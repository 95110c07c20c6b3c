// Dense, read-mostly snapshots of the adaptive cost models.
//
// The cost models are keyed by strings (computation) and map lookups
// (communication) — fine for incremental updates from profiles, but the
// search interrogates them millions of times: every DPOS queue pop scores
// every candidate device, and OS-DPOS reschedules whole trial graphs per
// split probe. A table is built once per scheduler invocation (one string
// lookup per op key and one map lookup per device pair), after which every
// query is an array read. Tables are immutable after construction, so
// the parallel search reads them from many threads without synchronization,
// and each carries the model version it was built from so stale snapshots
// are detectable after a profiling round feeds the models.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/comm_cost.h"
#include "cost/comp_cost.h"
#include "graph/graph.h"
#include "util/memtrack.h"

namespace fastt {

// EstimateOrExplore for every (op slot, device) of one graph.
class CompCostTable {
 public:
  CompCostTable() = default;
  CompCostTable(const Graph& g, const CompCostModel& model,
                int32_t num_devices);

  // EstimateOrExplore(g.op(op), device), as an array read.
  double Time(OpId op, DeviceId device) const {
    return times_[static_cast<size_t>(op) * static_cast<size_t>(num_devices_) +
                  static_cast<size_t>(device)];
  }
  // MaxTimeOverDevices — the w_i term in rank_u.
  double MaxOverDevices(OpId op) const {
    return max_time_[static_cast<size_t>(op)];
  }

  int32_t num_devices() const { return num_devices_; }
  int32_t num_slots() const { return num_slots_; }
  // Version of the computation model this snapshot was built from.
  uint64_t model_version() const { return model_version_; }
  // True iff the snapshot still reflects `model` for a graph of this shape.
  bool Fresh(const Graph& g, const CompCostModel& model) const;

 private:
  int32_t num_devices_ = 0;
  int32_t num_slots_ = 0;
  uint64_t model_version_ = 0;
  // Snapshot storage is charged to MemTag::kCost wherever it is built.
  TaggedVector<double> times_{
      TaggedAlloc<double>(MemTag::kCost)};  // num_slots × num_devices
  TaggedVector<double> max_time_{TaggedAlloc<double>(MemTag::kCost)};
};

// Fitted (intercept, slope) for every ordered device pair.
class CommCostTable {
 public:
  CommCostTable() = default;
  CommCostTable(const CommCostModel& model, int32_t num_devices);

  // CommCostModel::Estimate, as arithmetic on snapshotted parameters.
  double Estimate(DeviceId src, DeviceId dst, int64_t bytes) const {
    if (src == dst) return 0.0;
    const Pair& p = pairs_[static_cast<size_t>(src) *
                               static_cast<size_t>(num_devices_) +
                           static_cast<size_t>(dst)];
    if (!p.known) return 0.0;  // unknown pair: explore
    const double t = p.intercept + p.slope * static_cast<double>(bytes);
    return t > 0.0 ? t : 0.0;
  }
  // CommCostModel::MaxOverPairs — the c_{i,j} term in rank_u. Exact for
  // bytes >= 0 (tensor sizes), which the pair pruning relies on.
  double MaxOverPairs(int64_t bytes) const;

  int32_t num_devices() const { return num_devices_; }
  uint64_t model_version() const { return model_version_; }
  bool Fresh(const CommCostModel& model) const;

 private:
  struct Pair {
    double intercept = 0.0;
    double slope = 0.0;
    bool known = false;
  };
  int32_t num_devices_ = 0;
  uint64_t model_version_ = 0;
  TaggedVector<Pair> pairs_{
      TaggedAlloc<Pair>(MemTag::kCost)};  // num_devices × num_devices
  // Known pairs that can attain MaxOverPairs for some bytes >= 0.
  TaggedVector<Pair> max_candidates_{TaggedAlloc<Pair>(MemTag::kCost)};
};

}  // namespace fastt
