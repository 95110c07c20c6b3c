#include "core/dpos.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>

#include "core/rank.h"
#include "core/timeline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/check.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ReadyOp {
  double rank = 0.0;
  OpId op = kInvalidOp;
  bool operator<(const ReadyOp& other) const {
    // max-heap by rank; ties resolved by smaller id for determinism.
    if (rank != other.rank) return rank < other.rank;
    return op > other.op;
  }
};

}  // namespace

DposResult Dpos(const Graph& g, const Cluster& cluster,
                const CompCostModel& comp, const CommCostModel& comm,
                const DposOptions& options) {
  // Resolve the ambient registry once; the latency histogram records
  // through an interned handle so the per-call instrumentation does no
  // string allocation (Dpos runs once per OS-DPOS trial on pool workers).
  MetricsRegistry& reg = CurrentMetrics();
  ScopedTimerRef total_timer(reg, reg.TimerRef("dpos/total"));
  FASTT_TRACE_SPAN("dpos/total");
  ScopedLatencyRef latency_hist(reg, reg.HistogramRef("dpos/latency_s"));
  // Everything Dpos allocates below — scratch vectors, the ready queue, the
  // timelines — inherits the dpos tag through the ambient scope.
  MemTagScope mem_scope(MemTag::kDpos);
  reg.AddCounter("dpos/invocations");
  const int32_t n_dev = cluster.num_devices();
  FASTT_CHECK(n_dev >= 1);
  const size_t slots = static_cast<size_t>(g.num_slots());

  // Read-mostly cost snapshots: one model lookup per (op, device) and per
  // device pair up front; every query below — including from worker threads —
  // is an unsynchronized array read.
  const CompCostTable comp_t(g, comp, n_dev);
  const CommCostTable comm_t(comm, n_dev);
  // Memoized per-slot placement memory demand (MemNeed walks successor
  // lists; the device-selection loops ask for it O(devices · CP) times).
  TaggedVector<int64_t> mem_need(slots, 0);
  for (OpId id : g.LiveOps())
    mem_need[static_cast<size_t>(id)] = MemNeed(g, id);

  // The CP prefix scan walks the whole remaining critical path per device,
  // so it fans out across the search pool from a handful of devices; each
  // device writes its verdict into its own slot and the reduction runs
  // serially in ascending device order, so the chosen device is identical
  // for any thread count (--jobs 1 is the reference semantics). Per-pop
  // candidate scoring stays serial: it is O(fan-in) per device, well under a
  // microsecond, and a pool hand-off per placed op costs more than scoring
  // every device.
  constexpr size_t kMinParallelDevices = 4;

  DposResult result;
  {
    FASTT_TRACE_SPAN("dpos/rank");
    result.rank = ComputeRankU(g, comp_t, comm_t);
    result.critical_path = CriticalPathByRank(g, result.rank);
  }
  EmitMemTraceCounters();
  result.start_time.assign(slots, 0.0);
  result.finish_time.assign(slots, 0.0);
  result.strategy.placement.assign(slots, kInvalidDevice);

  TaggedVector<int64_t> planned_mem(static_cast<size_t>(n_dev), 0);
  TaggedVector<int64_t> mem_budget(static_cast<size_t>(n_dev), 0);
  for (DeviceId d = 0; d < n_dev; ++d)
    mem_budget[static_cast<size_t>(d)] = static_cast<int64_t>(
        options.memory_headroom *
        static_cast<double>(cluster.device(d).usable_bytes()));
  std::vector<DeviceTimeline> timeline(static_cast<size_t>(n_dev));

  // ---- Critical-path device selection (Alg. 1 line 5) ---------------------
  // Walk the CP, and for the ops not yet assigned pick the device with the
  // smallest average compute time over the longest prefix it can host; when
  // its memory fills, pick the next CP device for the remainder.
  TaggedVector<DeviceId> cp_device(slots, kInvalidDevice);
  if (options.use_critical_path_device) {
    FASTT_TRACE_SPAN("dpos/cp_device");
    struct CpCandidate {
      double avg = kInf;
      size_t count = 0;
    };
    std::vector<CpCandidate> cands(static_cast<size_t>(n_dev));
    size_t pos = 0;
    while (pos < result.critical_path.size()) {
      // Per-device prefix scan, parallel across devices.
      ParallelFor(
          static_cast<size_t>(n_dev),
          [&](size_t di) {
            const DeviceId d = static_cast<DeviceId>(di);
            int64_t free = mem_budget[di] - planned_mem[di];
            double total = 0.0;
            size_t count = 0;
            for (size_t i = pos; i < result.critical_path.size(); ++i) {
              const OpId cp_op = result.critical_path[i];
              if (mem_need[static_cast<size_t>(cp_op)] > free) break;
              free -= mem_need[static_cast<size_t>(cp_op)];
              total += comp_t.Time(cp_op, d);
              ++count;
            }
            cands[di].count = count;
            cands[di].avg =
                count == 0 ? kInf : total / static_cast<double>(count);
          },
          kMinParallelDevices);
      DeviceId best = kInvalidDevice;
      double best_avg = kInf;
      size_t best_count = 0;
      for (DeviceId d = 0; d < n_dev; ++d) {
        const CpCandidate& c = cands[static_cast<size_t>(d)];
        if (c.count == 0) continue;
        if (c.avg < best_avg - 1e-15 ||
            (c.avg <= best_avg + 1e-15 && c.count > best_count)) {
          best_avg = c.avg;
          best = d;
          best_count = c.count;
        }
      }
      if (best == kInvalidDevice) {
        // No device can host even one more CP op: stop reserving; the
        // min-EFT fallback below will place the remainder.
        result.memory_overflow = true;
        break;
      }
      for (size_t i = pos; i < pos + best_count; ++i) {
        const OpId id = result.critical_path[i];
        cp_device[static_cast<size_t>(id)] = best;
        planned_mem[static_cast<size_t>(best)] +=
            mem_need[static_cast<size_t>(id)];
      }
      pos += best_count;
    }
  }

  // ---- List scheduling ------------------------------------------------------
  // Rank-ordered priority queue, gated by precedence (an op becomes eligible
  // once all predecessors are placed) so ready times are always computable.
  TaggedVector<int32_t> unplaced_preds(slots, 0);
  for (OpId id : g.LiveOps()) {
    for (EdgeId e : g.in_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.src).dead)
        ++unplaced_preds[static_cast<size_t>(id)];
    }
  }
  std::priority_queue<ReadyOp, TaggedVector<ReadyOp>> queue;
  for (OpId id : g.LiveOps())
    if (unplaced_preds[static_cast<size_t>(id)] == 0)
      queue.push(ReadyOp{result.rank[static_cast<size_t>(id)], id});

  // Channel model mirroring the executor: one egress and one ingress copy
  // engine per device, and TF rendezvous dedup (a tensor is sent once per
  // destination device). Without this, DPOS systematically under-prices
  // placements that funnel many large tensors into one device — the exact
  // error that made gradient-aggregation traffic look free.
  TaggedVector<double> egress_free(static_cast<size_t>(n_dev), 0.0);
  TaggedVector<double> ingress_free(static_cast<size_t>(n_dev), 0.0);
  // Arrival of op src's output on device d, at [src * n_dev + d]; negative
  // until the tensor is sent there.
  constexpr double kNotSent = -1.0;
  TaggedVector<double> sent_arrival(slots * static_cast<size_t>(n_dev),
                                    kNotSent);
  auto arrival_at = [&](OpId src, DeviceId d) -> double& {
    return sent_arrival[static_cast<size_t>(src) * static_cast<size_t>(n_dev) +
                        static_cast<size_t>(d)];
  };

  // Earliest data-ready time of `op` on device `d` given placed preds.
  // Evaluation-only: consults but does not advance the channel state, so
  // every candidate device of one op is scored against the same state.
  auto ready_time = [&](OpId op, DeviceId d) {
    double t = 0.0;
    for (EdgeId e : g.in_edges(op)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.src).dead) continue;
      const DeviceId pd =
          result.strategy.placement[static_cast<size_t>(edge.src)];
      const double ft = result.finish_time[static_cast<size_t>(edge.src)];
      double arrival = ft;
      if (pd != d) {
        const double sent = arrival_at(edge.src, d);
        if (sent >= 0.0) {
          arrival = sent;
        } else {
          const double start =
              std::max({ft, egress_free[static_cast<size_t>(pd)],
                        ingress_free[static_cast<size_t>(d)]});
          arrival = start + comm_t.Estimate(pd, d, edge.bytes);
        }
      }
      t = std::max(t, arrival);
    }
    return t;
  };

  auto schedule_on = [&](OpId op, DeviceId d) {
    // Commit incoming transfers to the copy engines (dedup'd per tensor).
    for (EdgeId e : g.in_edges(op)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.src).dead) continue;
      const DeviceId pd =
          result.strategy.placement[static_cast<size_t>(edge.src)];
      if (pd == d) continue;
      double& sent = arrival_at(edge.src, d);
      if (sent >= 0.0) continue;
      const double ft = result.finish_time[static_cast<size_t>(edge.src)];
      const double start =
          std::max({ft, egress_free[static_cast<size_t>(pd)],
                    ingress_free[static_cast<size_t>(d)]});
      const double dur = comm_t.Estimate(pd, d, edge.bytes);
      egress_free[static_cast<size_t>(pd)] = start + dur;
      ingress_free[static_cast<size_t>(d)] = start + dur;
      sent = start + dur;
    }
    const double w = comp_t.Time(op, d);
    const double ready = ready_time(op, d);
    const double start = timeline[static_cast<size_t>(d)].EarliestSlot(ready, w);
    timeline[static_cast<size_t>(d)].Commit(start, w, op);
    result.strategy.placement[static_cast<size_t>(op)] = d;
    result.start_time[static_cast<size_t>(op)] = start;
    result.finish_time[static_cast<size_t>(op)] = start + w;
  };

  // Candidate score of placing `op` on `d`: EFT plus the communication
  // affinity term. Returns +inf when the device lacks memory.
  auto device_score = [&](OpId op, DeviceId d) {
    if (planned_mem[static_cast<size_t>(d)] +
            mem_need[static_cast<size_t>(op)] >
        mem_budget[static_cast<size_t>(d)])
      return kInf;
    const double w = comp_t.Time(op, d);
    const double ready = ready_time(op, d);
    const double eft =
        timeline[static_cast<size_t>(d)].EarliestSlot(ready, w) + w;
    double score = eft;
    if (options.comm_affinity > 0.0) {
      double traffic = 0.0;
      for (EdgeId e : g.in_edges(op)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.src).dead) continue;
        const DeviceId pd =
            result.strategy.placement[static_cast<size_t>(edge.src)];
        traffic += comm_t.Estimate(pd, d, edge.bytes);
      }
      for (EdgeId e : g.out_edges(op)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.dst).dead) continue;
        // Consumers are unplaced, but colocation can already pin them
        // (gradients flowing toward a parameter's aggregation/update
        // site) — exactly the traffic §6.5's placements avoid.
        const OpId anchor = g.op(edge.dst).colocate_with;
        if (anchor == kInvalidOp) continue;
        const DeviceId ad =
            result.strategy.placement[static_cast<size_t>(anchor)];
        if (ad != kInvalidDevice)
          traffic += comm_t.Estimate(d, ad, edge.bytes);
      }
      score += options.comm_affinity * traffic;
    }
    return score;
  };

  const char* trace = std::getenv("FASTT_DPOS_TRACE");
  // Setting FASTT_DPOS_TRACE alone is enough to see the per-device score
  // lines: opt-in diagnostics imply debug verbosity for their own output.
  if (trace != nullptr) EnsureLogThresholdAtLeast(LogLevel::kDebug);

  // Full candidate table for one op, as the scheduler would have seen it at
  // decision time. Evaluation-only (ready_time / EarliestSlot / device_score
  // never mutate the channel or timeline state), so recording after the
  // decision but before schedule_on reproduces the decision's inputs exactly.
  auto record_decision = [&](OpId op, DeviceId chosen, PlacementReason reason) {
    PlacementDecision dec;
    dec.op = op;
    dec.op_name = g.op(op).name;
    dec.chosen = chosen;
    dec.reason = reason;
    dec.candidates.reserve(static_cast<size_t>(n_dev));
    for (DeviceId d = 0; d < n_dev; ++d) {
      CandidateScore c;
      c.device = d;
      const double w = comp_t.Time(op, d);
      c.est_s = ready_time(op, d);
      c.eft_s = timeline[static_cast<size_t>(d)].EarliestSlot(c.est_s, w) + w;
      c.score_s = device_score(op, d);
      c.memory_rejected = planned_mem[static_cast<size_t>(d)] +
                              mem_need[static_cast<size_t>(op)] >
                          mem_budget[static_cast<size_t>(d)];
      if (d == chosen) dec.chosen_eft_s = c.eft_s;
      dec.candidates.push_back(c);
    }
    result.provenance.push_back(std::move(dec));
  };

  FASTT_TRACE_SPAN("dpos/list_schedule");
  size_t placed = 0;
  while (!queue.empty()) {
    const OpId op = queue.top().op;
    queue.pop();
    FASTT_TRACE_COUNTER("dpos/ready_queue", queue.size());
    const Operation& o = g.op(op);

    DeviceId chosen = kInvalidDevice;
    PlacementReason reason = PlacementReason::kBestEft;
    bool charge_mem = true;
    const auto colocate = o.colocate_with;
    if (colocate != kInvalidOp &&
        result.strategy.placement[static_cast<size_t>(colocate)] !=
            kInvalidDevice) {
      chosen = result.strategy.placement[static_cast<size_t>(colocate)];
      reason = PlacementReason::kColocated;
    } else if (cp_device[static_cast<size_t>(op)] != kInvalidDevice) {
      chosen = cp_device[static_cast<size_t>(op)];
      reason = PlacementReason::kCriticalPathDevice;
      charge_mem = false;  // memory already reserved in phase 1
    } else {
      // Min-(EFT + communication affinity) over memory-feasible devices, in
      // device order: the first strict improvement wins ties.
      const bool tracing =
          trace != nullptr && o.name.find(trace) != std::string::npos;
      double best_score = kInf;
      for (DeviceId d = 0; d < n_dev; ++d) {
        const double score = device_score(op, d);
        if (tracing)
          FASTT_LOG(Debug, "dpos %-28s d%d: score=%.4f", o.name.c_str(), d,
                    score);
        if (score < best_score) {
          best_score = score;
          chosen = d;
        }
      }
      if (chosen == kInvalidDevice) {
        // Nothing fits: overflow onto the device with the most headroom so a
        // complete (if infeasible) schedule is still produced for diagnosis.
        result.memory_overflow = true;
        reason = PlacementReason::kMemoryOverflow;
        int64_t best_free = std::numeric_limits<int64_t>::min();
        for (DeviceId d = 0; d < n_dev; ++d) {
          const int64_t free = mem_budget[static_cast<size_t>(d)] -
                               planned_mem[static_cast<size_t>(d)];
          if (free > best_free) {
            best_free = free;
            chosen = d;
          }
        }
      }
    }

    if (options.record_provenance) record_decision(op, chosen, reason);
    if (charge_mem)
      planned_mem[static_cast<size_t>(chosen)] +=
          mem_need[static_cast<size_t>(op)];

    schedule_on(op, chosen);
    ++placed;

    // Count down once per out-edge. A successor fed by several edges is
    // pushed at its last one; the queue's (rank, id) order is total, so push
    // order cannot change the pop order.
    for (EdgeId e : g.out_edges(op)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.dst).dead) continue;
      if (--unplaced_preds[static_cast<size_t>(edge.dst)] == 0)
        queue.push(ReadyOp{result.rank[static_cast<size_t>(edge.dst)],
                           edge.dst});
    }
  }
  FASTT_CHECK_MSG(placed == static_cast<size_t>(g.num_live_ops()),
                  "DPOS failed to place every op (cycle?)");
  CurrentMetrics().AddCounter("dpos/ops_placed",
                                       static_cast<int64_t>(placed));
  if (result.memory_overflow)
    CurrentMetrics().AddCounter("dpos/memory_overflows");

  // ---- Execution order & objective ------------------------------------------
  // Sort by scheduled start time, ties broken topologically. Unknown costs
  // are priced 0, so whole chains can share one start time; a raw-id
  // tie-break then lets a consumer precede its producer (rewrites append
  // split/concat nodes at high slot ids), and the resulting priorities would
  // contradict the data deps (verifier rule order.deps).
  std::vector<int64_t> topo_pos(static_cast<size_t>(g.num_slots()), 0);
  {
    const std::vector<OpId> topo = g.TopoOrder();
    for (size_t i = 0; i < topo.size(); ++i)
      topo_pos[static_cast<size_t>(topo[i])] = static_cast<int64_t>(i);
  }
  std::vector<OpId> order = g.LiveOps();
  std::sort(order.begin(), order.end(), [&](OpId a, OpId b) {
    const double sa = result.start_time[static_cast<size_t>(a)];
    const double sb = result.start_time[static_cast<size_t>(b)];
    if (sa != sb) return sa < sb;
    return topo_pos[static_cast<size_t>(a)] < topo_pos[static_cast<size_t>(b)];
  });
  result.strategy.execution_order = std::move(order);
  for (OpId id : g.LiveOps())
    result.ft_exit =
        std::max(result.ft_exit, result.finish_time[static_cast<size_t>(id)]);
  result.strategy.predicted_makespan = result.ft_exit;
  EmitMemTraceCounters();
  return result;
}

std::vector<OpId> RealizedCriticalPath(const Graph& g,
                                       const DposResult& result,
                                       const CommCostModel& comm) {
  // Start from the op that finishes last, then repeatedly follow the
  // predecessor whose arrival bound the op's start (largest arrival time).
  OpId cur = kInvalidOp;
  for (OpId id : g.LiveOps()) {
    if (cur == kInvalidOp || result.finish_time[static_cast<size_t>(id)] >
                                 result.finish_time[static_cast<size_t>(cur)])
      cur = id;
  }
  std::vector<OpId> path;
  while (cur != kInvalidOp) {
    path.push_back(cur);
    OpId binding = kInvalidOp;
    double best_arrival = -1.0;
    const DeviceId d = result.strategy.placement[static_cast<size_t>(cur)];
    for (EdgeId e : g.in_edges(cur)) {
      const Edge& edge = g.edge(e);
      if (edge.dead || g.op(edge.src).dead) continue;
      const DeviceId pd =
          result.strategy.placement[static_cast<size_t>(edge.src)];
      const double arrival =
          result.finish_time[static_cast<size_t>(edge.src)] +
          (pd == d ? 0.0 : comm.Estimate(pd, d, edge.bytes));
      if (arrival > best_arrival) {
        best_arrival = arrival;
        binding = edge.src;
      }
    }
    cur = binding;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace fastt
