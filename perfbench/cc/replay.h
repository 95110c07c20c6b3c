// Traced replays of one request, for the layer-by-layer run.
//
// ReplayRunFastT and ReplayPortfolio re-enact RunFastT and PortfolioSearch
// call for call from the layers' public functions (model build,
// BuildDataParallel, Simulate, ExtractProfile, AddProfile, Dpos,
// SplitOperation, VerifyStrategy, ComputeCalibration, ...), with the same
// options and seeds, so they return the same strategy while recording one
// span per call. OS-DPOS is replayed too, so the DPOS runs and graph
// rewrites inside it are separate spans. The benchmark checks that a
// replay's serialized strategy equals the real request's; a change to the
// round logic of either function must be mirrored here (see NOTES.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/portfolio.h"
#include "core/strategy_calculator.h"
#include "obs/tracer.h"
#include "layers.h"

namespace perfbench {

// Span sink of a traced replay, plus the sub-layer the spans cannot reach:
// rank_u runs inside Dpos, so its time is read from the program's own
// "dpos/rank" tracer spans, drained at quiescent points. `tracer` must be a
// request context's tracer (obs/context.h), not the process one: pool
// workers write to it only while running a chunk of the submitter's
// ParallelFor, so it is quiescent whenever the replay thread is outside a
// ParallelFor. Enabled for the object's lifetime.
class Tracing {
 public:
  explicit Tracing(fastt::Tracer& tracer);
  ~Tracing();
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  SpanRecorder spans;

  // Pairs and discards the program tracer's events so far, adding the
  // "dpos/rank" durations to rank_s. Must run while no pool task is live.
  void Drain();
  double rank_s = 0.0;
  uint64_t dropped_events = 0;

  // Work counts of the replayed OS-DPOS runs and the data-parallel build.
  // The replay counts split probes and commits itself because it replaces
  // OsDpos, whose os_dpos/* counters would otherwise supply them.
  int64_t split_probes = 0;
  int64_t splits_committed = 0;
  int64_t base_live_ops = 0;

 private:
  fastt::Tracer& tracer_;
};

fastt::CalculatorResult ReplayRunFastT(const fastt::ModelBuildFn& build,
                                       const std::string& model_name,
                                       int64_t batch, fastt::Scaling scaling,
                                       const fastt::Cluster& cluster,
                                       const fastt::CalculatorOptions& options,
                                       Tracing& tracing);

// Per-searcher outcome of a replayed portfolio, beside the portfolio result.
struct ReplayedArena {
  fastt::PortfolioResult result;
  // The fastt entry's calculator result (the arena's only DPOS run).
  fastt::CalculatorResult fastt;
};

ReplayedArena ReplayPortfolio(
    const std::vector<fastt::ArenaSearcher>& searchers,
    const fastt::ModelBuildFn& build, const std::string& model_name,
    int64_t batch, const fastt::Cluster& cluster,
    const fastt::PortfolioOptions& options, Tracing& tracing);

}  // namespace perfbench
