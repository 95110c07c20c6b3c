// perfbench — the repository benchmark binary (see NOTES.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt-one]
//
// A closed loop with one client: each request is one full strategy search
// (RunFastT or PortfolioSearch), run back to back in this process until
// --seconds have passed. Every request's output is checked (checks.h).
//
// --trace 0 measures the end-to-end metrics with the tracer, heap tracker
// and profiler off. --trace 1 alternates real requests with traced replays
// (replay.h) and reports the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --corrupt-one unplaces one op of the first request's strategy before the
// checks run; the self-test uses it to show the checks can fail.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "baselines/searcher_registry.h"
#include "checks.h"
#include "core/data_parallel.h"
#include "core/os_dpos.h"
#include "core/strategy_calculator.h"
#include "core/strategy_io.h"
#include "hostspeed.h"
#include "layers.h"
#include "models/model_zoo.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "replay.h"
#include "sim/profiler.h"
#include "util/memtrack.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace fastt;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  const char* name;
  const char* model;
  int servers;
  int gpus_per_server;
  int jobs;
  bool arena;
  // Inputs per run: input k searches with profiling-noise seed
  // seed * inputs + k (request order: InputOf). The metrics are medians
  // over these inputs, which damps how much one seed's search path moves
  // them. rnnlm 2x8 (quality) and the arena (wall) move most with the seed;
  // their searches are short enough for inputs + 1 = 8 requests in a 50 s
  // run.
  int inputs;
};

// The two benchmark workloads (BENCHMARK.json) and the self-test's tiny
// configurations. Every workload uses the model's strong-scaling batch.
constexpr Workload kWorkloads[] = {
    {"run-rnnlm-2x8-j2", "rnnlm", 2, 8, 2, false, 7},
    {"arena-inception-8gpu", "inception_v3", 1, 8, 1, true, 7},
    {"selftest-run-lenet-2gpu", "lenet", 1, 2, 1, false, 3},
    {"selftest-arena-lenet-2gpu", "lenet", 1, 2, 1, true, 3},
};

// Set-up runs this many times before the first request and again after
// every request, so its samples span the run like the requests do; the
// median is reported.
constexpr int kSetupRepeatsBefore = 7;
constexpr int kSetupRepeatsPerRequest = 3;
// Requests echoed one per line (tiny workloads run thousands).
constexpr int kPrintedRequests = 20;

// Input of request i: 0, 0, 1, ..., inputs - 1, 0, 1, ... Input 0 repeats
// as the second request, so the determinism check compares at least one
// pair in every run that makes two requests.
int InputOf(int i, int inputs) { return i == 0 ? 0 : (i - 1) % inputs; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool corrupt_one = false;
};

// One finished request: the strategy and the numbers the metrics need.
struct Outcome {
  int input = 0;  // index of the input (noise seed) the request used
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  double strategy_time_s = 0.0;
  std::string bytes;  // serialized strategy
  double serialize_s = 0.0;
  std::vector<std::string> failed_checks;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 50.0);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Samples per second at the strategy's iteration time (SamplesPerSecond's
// formula, for results that are not a CalculatorResult).
double Throughput(int64_t global_batch, double iteration_s) {
  return static_cast<double>(global_batch) / (iteration_s + kSessionOverheadS);
}

// The arena's counterpart of the calculator's simulated profiling time: on
// a real cluster every candidate a searcher evaluates costs at least one
// training step, priced here at that searcher's best iteration time.
double EvaluationStepTime(const PortfolioResult& r) {
  double total = 0.0;
  for (const PortfolioEntry& e : r.entries)
    if (std::isfinite(e.iteration_s)) total += e.evaluations * e.iteration_s;
  return total;
}

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w),
        args_(args),
        spec_(FindModel(w.model)),
        cluster_(w.servers > 1
                     ? Cluster::MultiServer(w.servers, w.gpus_per_server)
                     : Cluster::SingleServer(w.gpus_per_server)) {
    for (int k = 0; k < w.inputs; ++k) {
      CalculatorOptions calc;
      calc.seed = args.seed * static_cast<uint64_t>(w.inputs) +
                  static_cast<uint64_t>(k);
      calc_.push_back(calc);
      PortfolioOptions arena;
      arena.budget_s = 0.0;  // no wall budget: see NOTES.md
      arena.search.seed = calc.seed;
      arena_.push_back(arena);
    }
    same_bytes_.resize(calc_.size());
  }

  int Run() {
    SetSearchJobs(w_.jobs);
    std::printf("perfbench %s: %s batch %lld on %s, jobs %d, seed %llu, "
                "%.0f s, trace %d\n",
                w_.name, spec_.name.c_str(),
                static_cast<long long>(spec_.strong_batch),
                cluster_.ToString().c_str(), w_.jobs,
                static_cast<unsigned long long>(args_.seed), args_.seconds,
                args_.trace);
    return args_.trace ? RunTraced() : RunUntraced();
  }

 private:
  // ---- one request, untraced ----------------------------------------------
  Outcome Request(int k) {
    const size_t input = static_cast<size_t>(k);
    Outcome out;
    out.input = k;
    const auto t0 = Clock::now();
    if (w_.arena) {
      PortfolioResult r =
          PortfolioSearch(RegisteredSearchers(), spec_.build, spec_.name,
                          spec_.strong_batch, cluster_, arena_[input]);
      out.wall_s = SecondsSince(t0);
      out.strategy_time_s = out.wall_s + EvaluationStepTime(r);
      FinishArena(r, out);
    } else {
      CalculatorResult r =
          RunFastT(spec_.build, spec_.name, spec_.strong_batch,
                   Scaling::kStrong, cluster_, calc_[input]);
      out.wall_s = SecondsSince(t0);
      out.strategy_time_s = r.strategy_time_s;
      FinishRun(r, out);
    }
    return out;
  }

  void MaybeCorrupt(Graph& g, Strategy& s) {
    if (!args_.corrupt_one || corrupted_) return;
    corrupted_ = true;
    const std::vector<OpId> live = g.LiveOps();
    if (!live.empty())
      s.placement[static_cast<size_t>(live.front())] = kInvalidDevice;
  }

  void Serialize(const Strategy& strategy, Outcome& out) {
    const auto t0 = Clock::now();
    out.bytes = SerializeStrategy(strategy);
    out.serialize_s = SecondsSince(t0);
  }

  void FinishRun(CalculatorResult& r, Outcome& out) {
    MaybeCorrupt(r.graph, r.strategy);
    out.samples_per_s = SamplesPerSecond(r);
    Serialize(r.strategy, out);
    out.failed_checks = CheckStrategy(r.graph, r.strategy, cluster_, &r.comm,
                                      r.final_sim.oom, r.iteration_s);
  }

  void FinishArena(PortfolioResult& r, Outcome& out) {
    if (r.winner < 0) {
      out.failed_checks.push_back("arena_no_winner");
      return;
    }
    MaybeCorrupt(r.graph, r.strategy);
    out.samples_per_s = Throughput(r.global_batch, r.iteration_s);
    Serialize(r.strategy, out);
    out.failed_checks = CheckStrategy(r.graph, r.strategy, cluster_, nullptr,
                                      false, r.iteration_s);
    // Only a strategy that verifies can be re-simulated.
    if (out.failed_checks.empty())
      out.failed_checks = CheckArenaWinner(r, cluster_);
  }

  // Counts the outcome against the run's totals: its checks, plus for real
  // requests the determinism check against earlier requests of its input.
  void Tally(Outcome& out, bool real = true) {
    if (real && !out.bytes.empty() &&
        !same_bytes_[static_cast<size_t>(out.input)].Check(out.bytes))
      out.failed_checks.push_back("strategy_bytes_differ");
    ++attempted_;
    if (!out.failed_checks.empty()) {
      ++failed_;
      for (const std::string& f : out.failed_checks)
        std::printf("  check failed: %s\n", f.c_str());
    }
  }

  // ---- set-up: model build, data-parallel replication, bootstrap profile ---
  // The data-parallel start graph and the cost models bootstrapped from
  // `iterations` profiled steps of its canonical placement (RunFastT's first
  // profile, input 0's seeds).
  struct Bootstrapped {
    DataParallelGraph dp;
    CompCostModel comp;
    CommCostModel comm;
  };

  Bootstrapped Bootstrap(int iterations) {
    Bootstrapped b;
    b.dp = BuildDataParallel(spec_.build, spec_.name, spec_.strong_batch,
                             cluster_.num_devices(), Scaling::kStrong);
    const std::vector<DeviceId> placement =
        CanonicalDataParallelPlacement(b.dp);
    const CalculatorOptions& calc = calc_.front();
    for (int i = 0; i < iterations; ++i) {
      SimOptions so;
      so.dispatch = DispatchMode::kRandom;
      so.noise_cv = calc.noise_cv;
      so.seed = calc.seed + static_cast<uint64_t>(i) * 7919;
      const SimResult sim = Simulate(b.dp.graph, placement, cluster_, so);
      const RunProfile profile = ExtractProfile(b.dp.graph, sim);
      b.comp.AddProfile(profile);
      b.comm.AddProfile(profile);
    }
    return b;
  }

  double SetupOnce() {
    const auto t0 = Clock::now();
    Graph probe(spec_.name);
    spec_.build(probe, "",
                std::max<int64_t>(1, spec_.strong_batch /
                                         cluster_.num_devices()));
    Bootstrap(calc_.front().profile_iterations);
    return SecondsSince(t0);
  }

  double DataParallelSamplesPerSecond(size_t k) {
    return SamplesPerSecond(RunDataParallelBaseline(
        spec_.build, spec_.name, spec_.strong_batch, Scaling::kStrong,
        cluster_, calc_[k]));
  }

  // ---- --trace 0 -------------------------------------------------------------
  // The wall times are scaled to the reference host (hostspeed.h): each
  // request by the mean of the kernel times measured just before and just
  // after it, set-up (35 to 55 ms a sample, too short to pair with a kernel
  // time of its own) by the run's median kernel time.
  int RunUntraced() {
    TimeReferenceKernel();  // untimed warm-up
    std::vector<double> kernel = {TimeReferenceKernel()};
    std::vector<double> setup;
    for (int r = 0; r < kSetupRepeatsBefore; ++r) setup.push_back(SetupOnce());

    // Every input runs at least once and input 0 twice (InputOf); then the
    // loop continues while another request still fits in --seconds.
    std::vector<double> wall;
    std::vector<std::vector<double>> input_walls(calc_.size()),
        sps(calc_.size()), strategy_time(calc_.size());
    const auto start = Clock::now();
    for (int i = 0; i <= w_.inputs ||
                    SecondsSince(start) + Median(wall) <= args_.seconds;
         ++i) {
      Outcome out = Request(InputOf(i, w_.inputs));
      kernel.push_back(TimeReferenceKernel());
      const double scaled_s =
          out.wall_s *
          ReferenceScale(0.5 * (kernel[kernel.size() - 2] + kernel.back()));
      Tally(out);
      wall.push_back(out.wall_s);
      const size_t k = static_cast<size_t>(out.input);
      input_walls[k].push_back(scaled_s);
      strategy_time[k].push_back(out.strategy_time_s);
      if (out.samples_per_s > 0.0) sps[k].push_back(out.samples_per_s);
      if (attempted_ <= kPrintedRequests)
        std::printf("  request %d (input %d): %.3f s wall, %.3f s scaled, "
                    "kernel %.4f s, %.2f samples/s\n",
                    attempted_, out.input, out.wall_s, scaled_s,
                    kernel.back(), out.samples_per_s);
      for (int r = 0; r < kSetupRepeatsPerRequest; ++r)
        setup.push_back(SetupOnce());
    }
    const double kernel_s = Median(kernel);
    std::printf("unscaled: request wall median %.4f s, set-up median %.4f s; "
                "reference kernel median %.4f s (n=%zu, min %.4f, max %.4f)\n",
                Median(wall), Median(setup), kernel_s, kernel.size(),
                *std::min_element(kernel.begin(), kernel.end()),
                *std::max_element(kernel.begin(), kernel.end()));
    for (double& s : setup) s *= ReferenceScale(kernel_s);

    // One value per input (the median of its requests), then the median
    // over inputs. The data-parallel baseline runs once per input.
    std::vector<double> input_wall, input_sps, input_speedup,
        input_strategy_time;
    for (size_t k = 0; k < calc_.size(); ++k) {
      input_wall.push_back(Median(input_walls[k]));
      input_strategy_time.push_back(Median(strategy_time[k]));
      if (sps[k].empty()) continue;
      input_sps.push_back(Median(sps[k]));
      input_speedup.push_back(input_sps.back() /
                              DataParallelSamplesPerSecond(k));
    }

    PrintDeterminism();
    const double attempted = static_cast<double>(attempted_);
    Emit("search_s", Median(input_wall), "s", input_wall);
    Emit("samples_per_s", Median(input_sps), "samples/s", input_sps);
    Emit("dp_speedup", Median(input_speedup), "x", input_speedup);
    Emit("strategy_time_s", Median(input_strategy_time), "s",
         input_strategy_time);
    Emit("setup_s", Median(setup), "s", setup);
    Emit("peak_rss_mib", PeakRssMiB(), "MiB", {});
    Emit("pass_frac", (attempted - failed_) / attempted, "frac", {});
    return PrintResult();
  }

  // ---- --trace 1 -------------------------------------------------------------
  // Pairs of (real request, traced replay of the same input): at least two,
  // so the real requests compare one same-input pair, then more while
  // another pair still fits in --seconds.
  int RunTraced() {
    std::vector<double> untraced_wall;
    std::vector<std::map<std::string, double>> per_request;
    double parallel_speedup = 0.0;
    const auto start = Clock::now();
    double pair_s = 0.0;
    for (int i = 0; i < 2 || SecondsSince(start) + pair_s <= args_.seconds;
         ++i) {
      const auto pair_start = Clock::now();
      Outcome real = Request(InputOf(i, w_.inputs));
      Tally(real);
      untraced_wall.push_back(real.wall_s);
      per_request.push_back(TracedRequest(real.input, real.bytes));
      pair_s = SecondsSince(pair_start);
      if (i == 0) parallel_speedup = MeasureParallelSpeedup();
    }

    std::map<std::string, std::vector<double>> series;
    for (const auto& m : per_request)
      for (const auto& [k, v] : m) series[k].push_back(v);
    std::map<std::string, double> med;
    for (const auto& [k, v] : series) med[k] = Median(v);
    med["thread_pool.parallel_speedup"] = parallel_speedup;
    med["trace.overhead_frac"] =
        med["trace.request_s"] / Median(untraced_wall) - 1.0;
    PrintDeterminism();

    std::printf("layer self time, median request (s):\n");
    for (const auto& [k, v] : med)
      if (k.rfind("layer.", 0) == 0)
        std::printf("  %-22s %10.4f\n", k.c_str() + 6, v);
    for (const PerLayerMetric& m : PerLayerMetrics())
      Emit(m.name, med[m.name], m.unit, series[m.name]);
    return PrintResult();
  }

  // One replayed request with spans, program counters and heap tracking on.
  // `real_bytes` is the serialized strategy of the real request.
  std::map<std::string, double> TracedRequest(int k,
                                              const std::string& real_bytes) {
    const size_t input = static_cast<size_t>(k);
    const PoolStats pool_before = SearchPoolStats();
    MemTracker& heap = MemTracker::Global();
    heap.Enable();
    heap.ResetPeaks();
    const int64_t allocs_before = heap.total_allocs();

    // A fresh request context: its registry holds exactly this request's
    // counters, and its tracer is the one Tracing drains.
    TelemetryContext telemetry;
    TelemetryScope scope(telemetry);
    Tracing tracing(telemetry.tracer());
    CalculatorResult calc;
    PortfolioResult arena;
    {
      ScopedSpan root(&tracing.spans, "request");
      if (w_.arena) {
        ReplayedArena r =
            ReplayPortfolio(RegisteredSearchers(), spec_.build, spec_.name,
                            spec_.strong_batch, cluster_, arena_[input],
                            tracing);
        arena = std::move(r.result);
        calc = std::move(r.fastt);
      } else {
        calc = ReplayRunFastT(spec_.build, spec_.name, spec_.strong_batch,
                              Scaling::kStrong, cluster_, calc_[input],
                              tracing);
      }
      tracing.Drain();
    }
    const int64_t allocs = heap.total_allocs() - allocs_before;
    const int64_t heap_peak = heap.total_peak_bytes();
    heap.Disable();
    const PoolStats pool_after = SearchPoolStats();
    // Read before the output checks below add simulator runs of their own.
    const MetricsRegistry::Snapshot counters =
        telemetry.metrics().TakeSnapshot();
    const Ledger ledger = ComputeLedger(tracing.spans.Take());
    if (tracing.dropped_events > 0)
      std::printf("  warning: program tracer dropped %llu events\n",
                  static_cast<unsigned long long>(tracing.dropped_events));

    // The replay's output gets the same checks as a real request. Matching
    // the real request is the replay's own fidelity, reported, not counted.
    Outcome out;
    out.input = k;
    if (w_.arena)
      FinishArena(arena, out);
    else
      FinishRun(calc, out);
    const bool match = out.bytes == real_bytes;
    if (!match)
      std::printf("  warning: traced replay returned a different strategy "
                  "than the real request (replay.cc is out of date)\n");
    Tally(out, /*real=*/false);

    auto counter = [&](const char* name) {
      auto it = counters.counters.find(name);
      return it == counters.counters.end() ? 0.0
                                           : static_cast<double>(it->second);
    };
    auto by_name = [&](const char* name) {
      auto it = ledger.self_by_name.find(name);
      return it == ledger.self_by_name.end() ? 0.0 : it->second;
    };
    auto by_layer = [&](const char* layer) {
      auto it = ledger.self_by_layer.find(layer);
      return it == ledger.self_by_layer.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    std::map<std::string, double> m;
    for (const auto& [layer, s] : ledger.self_by_layer) m["layer." + layer] = s;
    m["trace.request_s"] = ledger.wall_s;
    m["trace.coverage"] = ledger.coverage();
    m["trace.replay_match"] = match ? 1.0 : 0.0;
    m["models.build_s"] = by_layer("models");
    m["data_parallel.replicate_s"] = by_layer("data_parallel");
    m["data_parallel.live_ops"] = static_cast<double>(tracing.base_live_ops);
    const double sim_calls = counter("sim/runs");
    const double sim_ops = counter("sim/ops_executed");
    m["sim.simulate_s"] = by_name("sim.simulate");
    m["sim.calls"] = sim_calls;
    m["sim.ops_executed"] = sim_ops;
    m["sim.ns_per_op"] = 1e9 * ratio(by_name("sim.simulate"), sim_ops);
    m["sim.oom_frac"] = ratio(counter("sim/oom_runs"), sim_calls);
    m["sim.extract_s"] = by_name("sim.extract");
    m["cost.update_s"] = by_layer("cost");
    m["cost.table_builds"] =
        counter("cost/comp_table_builds") + counter("cost/comm_table_builds");
    m["cost.comp_unknown_entries"] = counter("cost/comp_table_unknown_entries");
    const double placed = counter("dpos/ops_placed");
    m["rank.s"] = tracing.rank_s;
    m["dpos.s"] = by_layer("dpos");
    m["dpos.calls"] = counter("dpos/invocations");
    m["dpos.ops_placed"] = placed;
    m["dpos.us_per_op_placed"] = 1e6 * ratio(by_layer("dpos"), placed);
    m["os_dpos.self_s"] = by_layer("os_dpos");
    m["os_dpos.split_probes"] = static_cast<double>(tracing.split_probes);
    m["os_dpos.split_accept_frac"] =
        ratio(static_cast<double>(tracing.splits_committed),
              static_cast<double>(tracing.split_probes));
    m["rewrite.s"] = by_layer("rewrite");
    m["verifier.s"] = by_layer("verifier");
    m["strategy_io.serialize_s"] = out.serialize_s;
    m["strategy_io.bytes"] = static_cast<double>(out.bytes.size());
    m["calibration.s"] = by_layer("calibration");

    const std::vector<RoundSummary>& rounds = calc.round_history;
    int rollbacks = 0;
    int oom = 0;
    std::vector<double> err;
    for (const RoundSummary& r : rounds) {
      if (!r.committed) ++rollbacks;
      if (r.oom) ++oom;
      if (r.measured_s > 0.0) err.push_back(std::fabs(r.rel_error));
    }
    const double n_rounds = static_cast<double>(rounds.size());
    m["calculator.rounds"] = n_rounds;
    m["calculator.rollback_frac"] = ratio(rollbacks, n_rounds);
    m["calculator.oom_rollback_frac"] = ratio(oom, n_rounds);
    m["calculator.pred_err_p50"] = Median(err);

    m["thread_pool.batches"] =
        static_cast<double>(pool_after.batches - pool_before.batches);
    m["thread_pool.tasks"] =
        static_cast<double>(pool_after.tasks - pool_before.tasks);
    m["thread_pool.queue_wait_s"] =
        1e-9 * static_cast<double>(pool_after.queue_wait_ns -
                                   pool_before.queue_wait_ns);
    m["heap.allocs_per_search"] = static_cast<double>(allocs);
    m["heap.peak_mib"] = static_cast<double>(heap_peak) / (1024.0 * 1024.0);

    for (const ArenaSearcher& s : RegisteredSearchers()) {
      m["arena." + s.name + ".wall_s"] = 0.0;
      m["arena." + s.name + ".evals"] = 0.0;
    }
    for (const PortfolioEntry& e : arena.entries) {
      m["arena." + e.searcher + ".wall_s"] = e.wall_s;
      m["arena." + e.searcher + ".evals"] = e.evaluations;
    }
    return m;
  }

  // Serial vs jobs-N OsDpos wall on identical inputs: the data-parallel base
  // graph and cost models bootstrapped by one profiled step set. N is the
  // workload's jobs, or 2 on jobs-1 workloads.
  double MeasureParallelSpeedup() {
    const Bootstrapped b = Bootstrap(1);
    const int jobs = std::max(2, w_.jobs);
    double wall[2] = {0.0, 0.0};
    std::string bytes[2];
    for (int k = 0; k < 2; ++k) {
      SetSearchJobs(k == 0 ? 1 : jobs);
      const auto t0 = Clock::now();
      const OsDposResult r = OsDpos(b.dp.graph, cluster_, b.comp, b.comm);
      wall[k] = SecondsSince(t0);
      bytes[k] = SerializeStrategy(r.schedule.strategy);
    }
    SetSearchJobs(w_.jobs);
    if (bytes[0] != bytes[1])
      std::printf("  warning: OsDpos differs between jobs 1 and %d\n", jobs);
    std::printf("  OsDpos wall: jobs 1 %.3f s, jobs %d %.3f s\n", wall[0],
                jobs, wall[1]);
    return wall[1] > 0.0 ? wall[0] / wall[1] : 0.0;
  }

  // ---- output ----------------------------------------------------------------
  // How many requests the determinism check compared with an earlier
  // request of the same input.
  void PrintDeterminism() const {
    int comparisons = 0;
    for (const SameBytes& s : same_bytes_) comparisons += s.comparisons();
    std::printf("determinism: %d same-input comparison(s)\n", comparisons);
  }

  struct PerLayerMetric {
    std::string name;
    const char* unit;
  };

  static std::vector<PerLayerMetric> PerLayerMetrics() {
    std::vector<PerLayerMetric> v = {
        {"models.build_s", "s"},
        {"data_parallel.replicate_s", "s"},
        {"data_parallel.live_ops", "count"},
        {"sim.simulate_s", "s"},
        {"sim.calls", "count"},
        {"sim.ops_executed", "count"},
        {"sim.ns_per_op", "ns"},
        {"sim.oom_frac", "frac"},
        {"sim.extract_s", "s"},
        {"cost.update_s", "s"},
        {"cost.table_builds", "count"},
        {"cost.comp_unknown_entries", "count"},
        {"rank.s", "s"},
        {"dpos.s", "s"},
        {"dpos.calls", "count"},
        {"dpos.ops_placed", "count"},
        {"dpos.us_per_op_placed", "us"},
        {"os_dpos.self_s", "s"},
        {"os_dpos.split_probes", "count"},
        {"os_dpos.split_accept_frac", "frac"},
        {"rewrite.s", "s"},
        {"verifier.s", "s"},
        {"strategy_io.serialize_s", "s"},
        {"strategy_io.bytes", "bytes"},
        {"calibration.s", "s"},
        {"calculator.rounds", "count"},
        {"calculator.rollback_frac", "frac"},
        {"calculator.oom_rollback_frac", "frac"},
        {"calculator.pred_err_p50", "frac"},
        {"thread_pool.parallel_speedup", "x"},
        {"thread_pool.batches", "count"},
        {"thread_pool.tasks", "count"},
        {"thread_pool.queue_wait_s", "s"},
        {"heap.allocs_per_search", "count"},
        {"heap.peak_mib", "MiB"},
    };
    for (const ArenaSearcher& s : RegisteredSearchers()) {
      v.push_back({"arena." + s.name + ".wall_s", "s"});
      v.push_back({"arena." + s.name + ".evals", "count"});
    }
    v.push_back({"trace.coverage", "frac"});
    v.push_back({"trace.overhead_frac", "frac"});
    v.push_back({"trace.replay_match", "frac"});
    return v;
  }

  // Prints "name value unit (n=samples, min..max)" and keeps the metric for
  // the final JSON line.
  void Emit(const std::string& name, double value, const char* unit,
            const std::vector<double>& samples) {
    if (samples.empty()) {
      std::printf("%-32s %14.6g %-9s (n=1)\n", name.c_str(), value, unit);
    } else {
      const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
      std::printf("%-32s %14.6g %-9s (median, n=%zu, min %.6g, max %.6g)\n",
                  name.c_str(), value, unit, samples.size(), *lo, *hi);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }

  int PrintResult() {
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                failed_ == 0 ? "true" : "false", attempted_, failed_,
                json_.c_str());
    std::fflush(stdout);
    return 0;
  }

  const Workload& w_;
  const Args& args_;
  const ModelSpec& spec_;
  const Cluster cluster_;
  std::vector<CalculatorOptions> calc_;  // per input
  std::vector<PortfolioOptions> arena_;  // per input
  std::vector<SameBytes> same_bytes_;  // per input
  bool corrupted_ = false;
  int attempted_ = 0;
  int failed_ = 0;
  std::string json_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--corrupt-one]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--corrupt-one") {
      args.corrupt_one = true;
      continue;
    }
    if (v == nullptr) return Usage();
    ++i;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) return Bench(w, args).Run();
  return Usage();
}
