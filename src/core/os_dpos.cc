#include "core/os_dpos.h"

#include <algorithm>
#include <utility>

#include "graph/rewrite.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/memtrack.h"
#include "util/thread_pool.h"

namespace fastt {
namespace {

std::vector<int> CandidateSplitCounts(int num_devices) {
  std::vector<int> counts;
  for (int n = 2; n <= num_devices; n *= 2) counts.push_back(n);
  if (num_devices >= 2 &&
      (counts.empty() || counts.back() != num_devices))
    counts.push_back(num_devices);
  return counts;
}

}  // namespace

OsDposResult OsDpos(const Graph& g, const Cluster& cluster,
                    const CompCostModel& comp, const CommCostModel& comm,
                    const OsDposOptions& options) {
  FASTT_TRACE_SPAN("osdpos/total");
  MetricsRegistry& metrics = CurrentMetrics();
  metrics.AddCounter("os_dpos/invocations");
  OsDposResult result;
  result.graph = g;
  result.schedule = Dpos(result.graph, cluster, comp, comm, options.dpos);
  double ft_old = result.schedule.ft_exit;

  // Critical path realized by the initial placement, by descending compute
  // time (the heaviest ops are the most promising split candidates).
  std::vector<OpId> cp =
      RealizedCriticalPath(result.graph, result.schedule, comm);
  std::sort(cp.begin(), cp.end(), [&](OpId a, OpId b) {
    const auto& fa = result.schedule;
    const double wa = fa.finish_time[static_cast<size_t>(a)] -
                      fa.start_time[static_cast<size_t>(a)];
    const double wb = fa.finish_time[static_cast<size_t>(b)] -
                      fa.start_time[static_cast<size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });

  const std::vector<int> counts = CandidateSplitCounts(cluster.num_devices());
  if (counts.empty()) return result;

  int probed = 0;
  for (OpId op : cp) {
    if (static_cast<int>(result.splits.size()) >= options.max_splits) break;
    if (probed >= options.max_probed_ops) break;
    if (result.graph.op(op).dead) continue;  // consumed by an earlier commit
    ++probed;
    FASTT_TRACE_SPAN("osdpos/probe_op");

    // Probe every (dimension, count) rewrite of this op. The trial list is
    // built serially (dims outer, counts inner — the serial probe order),
    // each trial evaluated independently into its own slot, and the winner
    // reduced serially in trial order with the same strict `<`, so the
    // committed split is identical for any --jobs value. Each trial is a
    // full graph copy + rewrite + Dpos, which is exactly the coarse-grained
    // work that amortizes thread hand-off.
    struct Trial {
      SplitDim dim = SplitDim::kNone;
      int n = 0;
      bool viable = false;
      Graph graph;
      DposResult sched;
    };
    std::vector<Trial> trials;
    for (SplitDim dim : ParallelizableDims(result.graph.op(op).type)) {
      for (int n : counts) {
        if (!CanSplit(result.graph, op, dim, n)) continue;
        Trial t;
        t.dim = dim;
        t.n = n;
        trials.push_back(std::move(t));
      }
    }
    ParallelFor(trials.size(), [&](size_t i) {
      FASTT_TRACE_SPAN("osdpos/trial");
      Trial& t = trials[i];
      Graph trial = result.graph;
      SplitOperation(trial, op, t.dim, t.n);
      DposResult sched = Dpos(trial, cluster, comp, comm, options.dpos);
      if (sched.memory_overflow) return;
      t.viable = true;
      t.graph = std::move(trial);
      t.sched = std::move(sched);
    });
    result.probes += static_cast<int>(trials.size());
    // Trial copies peak here; sample the live-bytes tracks once per probe.
    EmitMemTraceCounters();

    // Snapshot the trial table before the winner loop below moves the
    // winning trial's graph/schedule out from under it; the winner's
    // `committed` bit is patched once it is known.
    size_t first_record = result.trials.size();
    if (options.dpos.record_provenance) {
      for (const Trial& t : trials) {
        SplitTrialRecord rec;
        rec.op_name = result.graph.op(op).name;
        rec.dim = SplitDimName(t.dim);
        rec.num_splits = t.n;
        rec.viable = t.viable;
        rec.predicted_s = t.viable ? t.sched.ft_exit : 0.0;
        rec.baseline_s = ft_old;
        result.trials.push_back(std::move(rec));
      }
    }

    double best_ft = ft_old;
    Graph best_graph;
    DposResult best_schedule;
    SplitDecision best_decision;
    bool improved = false;
    size_t best_index = trials.size();
    for (size_t ti = 0; ti < trials.size(); ++ti) {
      Trial& t = trials[ti];
      if (!t.viable) continue;
      if (t.sched.ft_exit < best_ft) {
        best_ft = t.sched.ft_exit;
        best_graph = std::move(t.graph);
        best_schedule = std::move(t.sched);
        best_decision = SplitDecision{result.graph.op(op).name, t.dim, t.n};
        improved = true;
        best_index = ti;
      }
    }
    if (options.dpos.record_provenance && improved)
      result.trials[first_record + best_index].committed = true;

    if (improved) {
      ft_old = best_ft;
      result.graph = std::move(best_graph);
      result.schedule = std::move(best_schedule);
      result.splits.push_back(std::move(best_decision));
    } else {
      break;  // paper's early exit: stop at the first non-improving CP op
    }
  }

  result.schedule.strategy.splits = result.splits;
  metrics.AddCounter("os_dpos/split_probes",
                     static_cast<int64_t>(result.probes));
  metrics.AddCounter("os_dpos/splits_committed",
                     static_cast<int64_t>(result.splits.size()));
  return result;
}

}  // namespace fastt
