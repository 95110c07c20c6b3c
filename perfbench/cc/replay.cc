#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "analysis/verifier.h"
#include "core/data_parallel.h"
#include "core/model_parallel.h"
#include "core/os_dpos.h"
#include "graph/rewrite.h"
#include "obs/calibration.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/exec_sim.h"
#include "sim/profiler.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace fastt;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Program tracer ring size while replaying: DPOS emits one counter sample
// per placed op, so a trial ParallelFor on an 8-16 GPU graph writes a few
// hundred thousand events between drains.
constexpr size_t kTracerRingEvents = size_t{1} << 20;

SimResult TracedSimulate(Tracing& t, const Graph& g,
                         const std::vector<DeviceId>& placement,
                         const Cluster& cluster, const SimOptions& options) {
  ScopedSpan span(&t.spans, "sim.simulate");
  return Simulate(g, placement, cluster, options);
}

// RunFastT's ProfileSteps: profiled steps that feed the cost models.
double ProfileSteps(Tracing& t, const Graph& g,
                    const std::vector<DeviceId>& placement,
                    const std::vector<int64_t>& priorities,
                    DispatchMode dispatch, const Cluster& cluster, int iters,
                    double noise_cv, uint64_t seed, CompCostModel& comp,
                    CommCostModel& comm, double* wall, bool* oom = nullptr,
                    SimResult* last = nullptr) {
  double total = 0.0;
  for (int i = 0; i < iters; ++i) {
    SimOptions options;
    options.dispatch = dispatch;
    options.priorities = priorities;
    options.noise_cv = noise_cv;
    options.seed = seed + static_cast<uint64_t>(i) * 7919;
    SimResult sim = TracedSimulate(t, g, placement, cluster, options);
    RunProfile profile;
    {
      ScopedSpan span(&t.spans, "sim.extract");
      profile = ExtractProfile(g, sim);
    }
    {
      ScopedSpan span(&t.spans, "cost.update");
      comp.AddProfile(profile);
      comm.AddProfile(profile);
    }
    total += sim.makespan;
    if (oom && sim.oom) *oom = true;
    if (last) *last = std::move(sim);
  }
  if (wall) *wall += total;
  return total / iters;
}

// RunFastT's MeasureSteps: measurement-only runs.
double MeasureSteps(Tracing& t, const Graph& g,
                    const std::vector<DeviceId>& placement,
                    const std::vector<int64_t>& priorities,
                    DispatchMode dispatch, const Cluster& cluster, int iters,
                    double noise_cv, uint64_t seed, SimResult* last) {
  double total = 0.0;
  for (int i = 0; i < iters; ++i) {
    SimOptions options;
    options.dispatch = dispatch;
    options.priorities = priorities;
    options.noise_cv = noise_cv;
    options.seed = seed + 1000003 + static_cast<uint64_t>(i) * 104729;
    const SimResult sim = TracedSimulate(t, g, placement, cluster, options);
    total += sim.makespan;
    if (last) *last = sim;
  }
  return total / iters;
}

// RunFastT's ProbeCommunication: all-pairs transfer probe for the comm model.
void ProbeCommunication(Tracing& t, const Cluster& cluster, double noise_cv,
                        uint64_t seed, CommCostModel& comm, double* wall) {
  const int32_t n = cluster.num_devices();
  if (n < 2) return;
  Graph g("comm_probe");
  std::vector<DeviceId> placement;
  {
    ScopedSpan span(&t.spans, "cost.comm_probe_graph");
    auto add_op = [&](const std::string& name, int64_t bytes, DeviceId d) {
      Operation op;
      op.name = name;
      op.type = OpType::kIdentity;
      op.output_shape = TensorShape{bytes / 4};
      op.bytes_touched = bytes;
      const OpId id = g.AddOp(std::move(op));
      placement.push_back(d);
      return id;
    };
    const int64_t sizes[2] = {int64_t{1} << 20, int64_t{64} << 20};
    for (DeviceId i = 0; i < n; ++i) {
      for (DeviceId j = 0; j < n; ++j) {
        if (i == j) continue;
        for (int s = 0; s < 2; ++s) {
          const OpId a = add_op(StrFormat("probe/%d_%d_%d/src", i, j, s),
                                sizes[s], i);
          const OpId b = add_op(StrFormat("probe/%d_%d_%d/dst", i, j, s),
                                sizes[s], j);
          g.AddEdge(a, b, sizes[s]);
        }
      }
    }
  }
  SimOptions options;
  options.noise_cv = noise_cv;
  options.seed = seed;
  options.track_memory = false;
  const SimResult sim = TracedSimulate(t, g, placement, cluster, options);
  RunProfile profile;
  {
    ScopedSpan span(&t.spans, "sim.extract");
    profile = ExtractProfile(g, sim);
  }
  {
    ScopedSpan span(&t.spans, "cost.update");
    comm.AddProfile(profile);
  }
  if (wall) *wall += sim.makespan;
}

std::vector<std::string> CostKeys(const Graph& g) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(g.num_live_ops()));
  for (OpId id : g.LiveOps()) keys.push_back(g.op(id).CostKey());
  return keys;
}

int CountReplacedOps(const Graph& a, const std::vector<DeviceId>& pa,
                     const Graph& b, const std::vector<DeviceId>& pb) {
  const int32_t n = std::min(a.num_slots(), b.num_slots());
  int replaced = 0;
  for (OpId id = 0; id < n; ++id) {
    if (a.op(id).dead || b.op(id).dead) continue;
    if (pa[static_cast<size_t>(id)] != pb[static_cast<size_t>(id)])
      ++replaced;
  }
  return replaced;
}

DposResult TracedDpos(Tracing& t, const Graph& g, const Cluster& cluster,
                      const CompCostModel& comp, const CommCostModel& comm,
                      const DposOptions& options, int parent = -1) {
  ScopedSpan span(&t.spans, "dpos", parent);
  return Dpos(g, cluster, comp, comm, options);
}

std::vector<int> CandidateSplitCounts(int num_devices) {
  std::vector<int> counts;
  for (int n = 2; n <= num_devices; n *= 2) counts.push_back(n);
  if (num_devices >= 2 && (counts.empty() || counts.back() != num_devices))
    counts.push_back(num_devices);
  return counts;
}

// OsDpos, call for call: initial DPOS, realized critical path, then per CP
// op a ParallelFor of (copy + SplitOperation + Dpos) trials.
OsDposResult ReplayOsDpos(Tracing& t, const Graph& g, const Cluster& cluster,
                          const CompCostModel& comp, const CommCostModel& comm,
                          const OsDposOptions& options) {
  ScopedSpan os_span(&t.spans, "os_dpos");
  OsDposResult result;
  {
    ScopedSpan span(&t.spans, "os_dpos.copy");
    result.graph = g;
  }
  result.schedule =
      TracedDpos(t, result.graph, cluster, comp, comm, options.dpos);
  t.Drain();
  double ft_old = result.schedule.ft_exit;

  std::vector<OpId> cp;
  {
    ScopedSpan span(&t.spans, "os_dpos.critical_path");
    cp = RealizedCriticalPath(result.graph, result.schedule, comm);
    std::sort(cp.begin(), cp.end(), [&](OpId a, OpId b) {
      const auto& fa = result.schedule;
      const double wa = fa.finish_time[static_cast<size_t>(a)] -
                        fa.start_time[static_cast<size_t>(a)];
      const double wb = fa.finish_time[static_cast<size_t>(b)] -
                        fa.start_time[static_cast<size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });
  }

  const std::vector<int> counts = CandidateSplitCounts(cluster.num_devices());
  if (counts.empty()) return result;

  int probed = 0;
  for (OpId op : cp) {
    if (static_cast<int>(result.splits.size()) >= options.max_splits) break;
    if (probed >= options.max_probed_ops) break;
    if (result.graph.op(op).dead) continue;
    ++probed;

    struct Trial {
      SplitDim dim = SplitDim::kNone;
      int n = 0;
      bool viable = false;
      Graph graph;
      DposResult sched;
    };
    std::vector<Trial> trials;
    {
      ScopedSpan span(&t.spans, "rewrite.can_split");
      for (SplitDim dim : ParallelizableDims(result.graph.op(op).type)) {
        for (int n : counts) {
          if (!CanSplit(result.graph, op, dim, n)) continue;
          Trial trial;
          trial.dim = dim;
          trial.n = n;
          trials.push_back(std::move(trial));
        }
      }
    }
    {
      ScopedSpan trials_span(&t.spans, "os_dpos.trials");
      const int parent = trials_span.index();
      ParallelFor(trials.size(), [&](size_t i) {
        Trial& tr = trials[i];
        Graph trial;
        {
          ScopedSpan span(&t.spans, "rewrite.split", parent);
          trial = result.graph;
          SplitOperation(trial, op, tr.dim, tr.n);
        }
        DposResult sched = TracedDpos(t, trial, cluster, comp, comm,
                                      options.dpos, parent);
        if (sched.memory_overflow) return;
        tr.viable = true;
        tr.graph = std::move(trial);
        tr.sched = std::move(sched);
      });
    }
    result.probes += static_cast<int>(trials.size());
    t.split_probes += static_cast<int64_t>(trials.size());
    t.Drain();

    double best_ft = ft_old;
    Graph best_graph;
    DposResult best_schedule;
    SplitDecision best_decision;
    bool improved = false;
    for (Trial& tr : trials) {
      if (!tr.viable) continue;
      if (tr.sched.ft_exit < best_ft) {
        best_ft = tr.sched.ft_exit;
        best_graph = std::move(tr.graph);
        best_schedule = std::move(tr.sched);
        best_decision = SplitDecision{result.graph.op(op).name, tr.dim, tr.n};
        improved = true;
      }
    }
    if (!improved) break;
    ft_old = best_ft;
    result.graph = std::move(best_graph);
    result.schedule = std::move(best_schedule);
    result.splits.push_back(std::move(best_decision));
    ++t.splits_committed;
  }
  result.schedule.strategy.splits = result.splits;
  return result;
}

}  // namespace

Tracing::Tracing(Tracer& tracer) : tracer_(tracer) {
  tracer_.SetRingCapacity(kTracerRingEvents);
  tracer_.Enable();
}

Tracing::~Tracing() { tracer_.Disable(); }

void Tracing::Drain() {
  ScopedSpan span(&spans, "trace.drain");
  const TraceDump dump = tracer_.Drain();
  dropped_events += dump.dropped_events;
  for (const TraceSpan& s : dump.spans)
    if (std::strcmp(s.name, "dpos/rank") == 0) rank_s += s.dur_s;
}

CalculatorResult ReplayRunFastT(const ModelBuildFn& build,
                                const std::string& model_name, int64_t batch,
                                Scaling scaling, const Cluster& cluster,
                                const CalculatorOptions& options,
                                Tracing& t) {
  CalculatorResult result;
  const int64_t replica_batch =
      scaling == Scaling::kStrong
          ? std::max<int64_t>(1, batch / cluster.num_devices())
          : batch;
  Graph probe(model_name);
  {
    ScopedSpan span(&t.spans, "models.build");
    build(probe, "", replica_batch);
  }
  bool fits = false;
  {
    ScopedSpan span(&t.spans, "model_parallel.fits");
    fits = FitsOnOneDevice(probe, cluster);
  }
  result.started_model_parallel = !fits;

  Graph base;
  std::vector<DeviceId> start_placement;
  if (fits && cluster.num_devices() > 1) {
    ScopedSpan span(&t.spans, "data_parallel.replicate");
    DataParallelGraph dp = BuildDataParallel(build, model_name, batch,
                                             cluster.num_devices(), scaling);
    result.global_batch = dp.global_batch;
    start_placement = CanonicalDataParallelPlacement(dp);
    base = std::move(dp.graph);
  } else {
    ScopedSpan span(&t.spans, "model_parallel.place");
    result.global_batch = batch;
    base = std::move(probe);
    start_placement = fits ? std::vector<DeviceId>(
                                 static_cast<size_t>(base.num_slots()), 0)
                           : GreedyModelParallelPlacement(base, cluster);
  }

  t.base_live_ops = base.num_live_ops();
  StabilityDetector stability(options.stability_tolerance,
                              options.stability_patience);
  ProbeCommunication(t, cluster, options.noise_cv, options.seed + 17,
                     result.comm, &result.strategy_time_s);
  Graph current_graph;
  {
    ScopedSpan span(&t.spans, "calculator.copy");
    current_graph = base;
  }
  std::vector<DeviceId> current_placement = start_placement;
  std::vector<int64_t> current_priorities;
  DispatchMode current_dispatch = DispatchMode::kRandom;
  double current_measured = ProfileSteps(
      t, current_graph, current_placement, current_priorities,
      current_dispatch, cluster, options.profile_iterations, options.noise_cv,
      options.seed, result.comp, result.comm, &result.strategy_time_s);
  Strategy current_strategy;
  current_strategy.placement = current_placement;
  current_strategy.execution_order = current_graph.TopoOrder();

  for (int round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    const double round_algo_before = result.algorithm_time_s;
    const auto algo_start = Clock::now();
    OsDposOptions os = options.os_dpos;
    os.dpos.use_critical_path_device = options.use_critical_path_device;
    os.dpos.record_provenance = options.record_provenance;
    OsDposResult candidate;
    if (options.enable_split) {
      candidate = ReplayOsDpos(t, base, cluster, result.comp, result.comm, os);
    } else {
      candidate.graph = base;
      candidate.schedule =
          TracedDpos(t, base, cluster, result.comp, result.comm, os.dpos);
      t.Drain();
    }
    result.algorithm_time_s += SecondsSince(algo_start);

    RoundSummary summary;
    summary.round = result.rounds;
    if (options.verify_rounds) {
      VerifierOptions verify_options;
      verify_options.cheap_only = !options.verify_full;
      verify_options.memory_headroom = os.dpos.memory_headroom;
      VerifyResult verdict;
      {
        ScopedSpan span(&t.spans, "verifier");
        verdict = VerifyStrategy(candidate.graph, candidate.schedule.strategy,
                                 cluster, &result.comm, verify_options);
      }
      summary.verify_errors = verdict.errors;
      summary.verify_warnings = verdict.warnings;
      if (!verdict.ok()) {
        summary.verify_reject_rule = verdict.first_error_rule();
        summary.best_before_s = current_measured;
        summary.splits = static_cast<int>(candidate.splits.size());
        summary.algorithm_s = result.algorithm_time_s - round_algo_before;
        ++result.rollbacks;
        result.round_history.push_back(summary);
        ScopedSpan span(&t.spans, "cost.stability");
        stability.Observe(result.comp, cluster.num_devices(),
                          CostKeys(current_graph));
        if (stability.IsStable()) break;
        continue;
      }
    }

    const std::vector<int64_t> priorities =
        options.enable_order_enforcement
            ? PrioritiesFromOrder(candidate.schedule.strategy.execution_order,
                                  candidate.graph.num_slots())
            : std::vector<int64_t>{};
    const DispatchMode dispatch = options.enable_order_enforcement
                                      ? DispatchMode::kPriority
                                      : DispatchMode::kRandom;

    result.strategy_time_s += options.restart_overhead_s;
    ++result.activations;
    bool candidate_oom = false;
    CommCostModel comm_before;
    {
      ScopedSpan span(&t.spans, "calculator.copy");
      comm_before = result.comm;
    }
    SimResult round_sim;
    const double measured = ProfileSteps(
        t, candidate.graph, candidate.schedule.strategy.placement, priorities,
        dispatch, cluster, options.profile_iterations, options.noise_cv,
        options.seed + static_cast<uint64_t>(round + 1) * 31337, result.comp,
        result.comm, &result.strategy_time_s, &candidate_oom, &round_sim);

    std::vector<double> predicted_op;
    {
      ScopedSpan span(&t.spans, "calculator.round_summary");
      predicted_op.assign(static_cast<size_t>(candidate.graph.num_slots()),
                          0.0);
      for (OpId id : candidate.graph.LiveOps())
        predicted_op[static_cast<size_t>(id)] =
            candidate.schedule.finish_time[static_cast<size_t>(id)] -
            candidate.schedule.start_time[static_cast<size_t>(id)];
      summary.predicted_s = candidate.schedule.ft_exit;
      summary.measured_s = measured;
      summary.best_before_s = current_measured;
      summary.rel_error =
          measured > 0.0 ? (summary.predicted_s - measured) / measured : 0.0;
      summary.oom = candidate_oom;
      summary.ops_replaced = CountReplacedOps(
          current_graph, current_placement, candidate.graph,
          candidate.schedule.strategy.placement);
      summary.splits = static_cast<int>(candidate.splits.size());
      summary.algorithm_s = result.algorithm_time_s - round_algo_before;
    }

    if (!candidate_oom && measured <= current_measured) {
      ScopedSpan span(&t.spans, "calculator.copy");
      summary.committed = true;
      current_graph = candidate.graph;
      current_placement = candidate.schedule.strategy.placement;
      current_priorities = priorities;
      current_dispatch = dispatch;
      current_measured = measured;
      current_strategy = candidate.schedule.strategy;
      result.provenance = std::move(candidate.schedule.provenance);
      result.split_trials = std::move(candidate.trials);
      result.predicted_op_s = predicted_op;
    } else {
      ++result.rollbacks;
      result.strategy_time_s += options.restart_overhead_s;
    }

    CalibrationRound cal;
    {
      ScopedSpan span(&t.spans, "calibration");
      cal = ComputeCalibration(candidate.graph, predicted_op,
                               candidate.schedule.strategy.placement,
                               comm_before, round_sim);
    }
    cal.round = summary.round;
    cal.committed = summary.committed;
    cal.oom = candidate_oom;
    cal.predicted_makespan_s = summary.predicted_s;
    cal.measured_makespan_s = summary.measured_s;
    cal.makespan_rel_err = summary.rel_error;
    cal.postmortem.rolled_back = !summary.committed;
    cal.postmortem.oom = candidate_oom;
    {
      ScopedSpan span(&t.spans, "cost.stability");
      stability.Observe(result.comp, cluster.num_devices(),
                        CostKeys(current_graph));
    }
    const StabilityStats& stab = stability.last_stats();
    cal.stability = stab;
    summary.comp_err_p50 = cal.comp.p50;
    summary.comp_err_p90 = cal.comp.p90;
    summary.comp_err_max = cal.comp.max;
    summary.comm_err_p50 = cal.comm.p50;
    summary.comm_err_p90 = cal.comm.p90;
    summary.stability_max_change = stab.max_change;
    summary.stability_margin = stab.margin;
    result.round_history.push_back(summary);
    result.calibration.push_back(std::move(cal));
    if (stability.IsStable()) break;
  }

  result.iteration_s = MeasureSteps(
      t, current_graph, current_placement, current_priorities,
      current_dispatch, cluster, options.measure_iterations, options.noise_cv,
      options.seed + 999331, &result.final_sim);
  result.graph = std::move(current_graph);
  result.strategy = std::move(current_strategy);
  result.strategy.predicted_makespan = current_measured;
  result.strategy_time_s += result.algorithm_time_s;
  return result;
}

ReplayedArena ReplayPortfolio(const std::vector<ArenaSearcher>& searchers,
                              const ModelBuildFn& build,
                              const std::string& model_name, int64_t batch,
                              const Cluster& cluster,
                              const PortfolioOptions& options, Tracing& t) {
  ReplayedArena out;
  PortfolioResult& res = out.result;
  const size_t n = searchers.size();
  res.entries.resize(n);
  std::vector<SearchResult> results(n);
  std::vector<Strategy> strategies(n);
  std::vector<VerifyResult> verdicts(n);
  MetricsRegistry& metrics = CurrentMetrics();

  // The race, one searcher after another (the workload runs at --jobs 1,
  // where PortfolioSearch's ParallelFor runs inline in registry order).
  for (size_t i = 0; i < n; ++i) {
    SearchOptions search = options.search;
    if (options.budget_s > 0.0) search.wall_budget_s = options.budget_s;
    const auto t0 = Clock::now();
    SearchResult& r = results[i];
    if (searchers[i].name == "fastt") {
      // FastTSearch: a bounded RunFastT, replayed.
      CalculatorOptions copt;
      copt.seed = search.seed;
      copt.max_rounds = 4;
      copt.profile_iterations = 2;
      copt.measure_iterations = 2;
      out.fastt = ReplayRunFastT(build, model_name, batch, Scaling::kStrong,
                                 cluster, copt, t);
      r.graph = out.fastt.graph;
      r.placement = out.fastt.strategy.placement;
      r.execution_order = out.fastt.strategy.execution_order;
      r.splits = out.fastt.strategy.splits;
      r.global_batch = out.fastt.global_batch;
      r.evaluations = out.fastt.rounds;
      r.stop_reason = "converged";
      ScopedSpan span(&t.spans, "sim.simulate");
      r.iteration_s = ResimulateIteration(r, cluster);
      r.wall_s = SecondsSince(t0);
    } else {
      // Simulate calls inside the searcher are moved to the sim layer by
      // the delta of the simulator's own timer.
      ScopedSpan span(&t.spans, "baselines." + searchers[i].name);
      const double sim_before = metrics.timer_total_s("sim/simulate");
      r = searchers[i].fn(build, model_name, batch, cluster, search);
      t.spans.SetNested(span.index(), "sim.simulate",
                        metrics.timer_total_s("sim/simulate") - sim_before);
    }
    if (r.wall_s <= 0.0) r.wall_s = SecondsSince(t0);
    if (r.placement.size() != static_cast<size_t>(r.graph.num_slots())) {
      strategies[i].predicted_makespan =
          std::numeric_limits<double>::infinity();
      r.verified = false;
      continue;
    }
    {
      ScopedSpan span(&t.spans, "sim.simulate");
      strategies[i] = StrategyFromSearchResult(r, cluster);
    }
    if (options.verify) {
      ScopedSpan span(&t.spans, "verifier");
      verdicts[i] = VerifyStrategy(r.graph, strategies[i], cluster, nullptr,
                                   options.verifier);
      r.verified = verdicts[i].ok();
    } else {
      r.verified = true;
    }
  }

  ScopedSpan span(&t.spans, "portfolio.reduce");
  for (size_t i = 0; i < n; ++i) {
    PortfolioEntry& e = res.entries[i];
    e.searcher = searchers[i].name;
    e.family = searchers[i].family;
    e.iteration_s = results[i].iteration_s;
    e.resim_s = strategies[i].predicted_makespan;
    e.evaluations = results[i].evaluations;
    e.wall_s = results[i].wall_s;
    e.global_batch = results[i].global_batch;
    e.verified = results[i].verified;
    e.verify_errors = verdicts[i].errors;
    e.verify_warnings = verdicts[i].warnings;
    e.stop_reason = results[i].stop_reason;
    if (!e.verified) continue;
    if (res.winner < 0 ||
        e.resim_s < res.entries[static_cast<size_t>(res.winner)].resim_s)
      res.winner = static_cast<int>(i);
  }
  if (res.winner >= 0) {
    const size_t w = static_cast<size_t>(res.winner);
    res.entries[w].winner = true;
    res.graph = std::move(results[w].graph);
    res.strategy = std::move(strategies[w]);
    res.winner_verify = std::move(verdicts[w]);
    res.iteration_s = res.entries[w].resim_s;
    res.global_batch = res.entries[w].global_batch;
  }
  return out;
}

}  // namespace perfbench
