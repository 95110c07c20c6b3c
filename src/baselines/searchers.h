// Black-box comparator stand-ins for Fig. 3.
//
// The paper compares FastT against published numbers from four systems whose
// search code is unavailable (REINFORCE, GDP, Post) or unreleasable
// (FlexFlow). We reproduce the *comparison* by implementing searchers that
// occupy the same solution spaces and search styles, evaluated against the
// same simulated testbed:
//
//   * REINFORCE-like — black-box random search over model-parallel
//     placements of the bare graph (no data parallelism, no splits): the
//     solution space of the RL placement papers, with a sampling budget.
//   * GDP-like — rank-ordered greedy placement of the bare graph (their
//     GNN+transformer policy collapses to prioritized greedy placement in
//     white-box form; still no DP, no splits).
//   * Post-like — cross-entropy/local-search refinement: iterated
//     hill-climbing over single-op moves from the best random placement.
//   * FlexFlow-like — simulated annealing over placement AND operation
//     splits of the data-parallel graph (the larger SOAP-style space),
//     with a generous evaluation budget.
//
// All four consume simulator evaluations like their originals consume real
// or simulated rollouts; none sees FastT's cost models.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/data_parallel.h"
#include "core/portfolio.h"
#include "core/strategy.h"
#include "sim/exec_sim.h"

namespace fastt {

// SearchResult / SearchOptions / SearchDeadline moved to core/portfolio.h so
// the portfolio racer in src/core can consume searcher results without a
// layering inversion; this header re-exports them for existing includers.

// Colocation constraints of `g` as (dependent, referent) pairs in the
// dependent's topological order. Compute once per graph and apply to any
// number of candidate placements.
using ColocationPairs = std::vector<std::pair<OpId, OpId>>;
ColocationPairs ColocationPairsOf(const Graph& g);

// Resolves colocation constraints onto an otherwise-free placement: each
// dependent follows its referent once the referent has a device.
void ApplyColocation(const ColocationPairs& pairs,
                     std::vector<DeviceId>& placement);

// REINFORCE-like: random model-parallel placements of the bare model graph.
SearchResult RandomSearchPlacement(const ModelBuildFn& build,
                                   const std::string& model_name,
                                   int64_t batch, const Cluster& cluster,
                                   const SearchOptions& options = {});

// GDP-like: FLOP-rank-ordered greedy min-finish placement of the bare graph
// (one deterministic construction; no splits, no DP).
SearchResult GreedyRankPlacement(const ModelBuildFn& build,
                                 const std::string& model_name,
                                 int64_t batch, const Cluster& cluster,
                                 const SearchOptions& options = {});

// Spotlight-like: greedy start + single-op-move hill climbing on the bare
// graph (proximal refinement of placements).
SearchResult LocalSearchPlacement(const ModelBuildFn& build,
                                  const std::string& model_name,
                                  int64_t batch, const Cluster& cluster,
                                  const SearchOptions& options = {});

// Post-like: the cross-entropy method over model-parallel placements — a
// per-op categorical distribution over devices is refit on the elite
// fraction of each sampled population (Post's CEM core, minus the PPO
// fine-tuning stage).
SearchResult CrossEntropyPlacement(const ModelBuildFn& build,
                                   const std::string& model_name,
                                   int64_t batch, const Cluster& cluster,
                                   const SearchOptions& options = {});

// FlexFlow-like: simulated annealing over (placement, split) of the
// data-parallel graph — the largest search space, the largest budget.
SearchResult AnnealingSearch(const ModelBuildFn& build,
                             const std::string& model_name, int64_t batch,
                             const Cluster& cluster,
                             const SearchOptions& options = {});

// ---------------------------------------------------------------------------
// Published-rival reimplementations (rivals.cc) — white-box constructive
// schedulers from the systems the ROADMAP's searcher arena names. All are
// deterministic one-shot constructions on the bare model graph (evaluations
// == 1, stop_reason "constructed"), consuming the same analytic ground-truth
// durations GreedyRankPlacement uses.

// Baechi-style m-ETF: memory-constrained earliest-task-first list scheduling.
// Among all (ready op, device) pairs, repeatedly commit the pair with the
// earliest start time, skipping devices whose memory budget the op's
// footprint would overflow (Baechi's m-ETF on the profiled-memory cap).
SearchResult MEtfPlacement(const ModelBuildFn& build,
                           const std::string& model_name, int64_t batch,
                           const Cluster& cluster,
                           const SearchOptions& options = {});

// Baechi-style m-SCT: ETF under the small-communication-times relaxation —
// each op designates its heaviest out-edge consumer as its favorite child,
// whose transfer is priced at zero during scheduling (the LP relaxation's
// "communication hidden for one child" assumption). The final objective is
// still the real simulation, so optimism shapes only the construction.
SearchResult MSctPlacement(const ModelBuildFn& build,
                           const std::string& model_name, int64_t batch,
                           const Cluster& cluster,
                           const SearchOptions& options = {});

// Tarnawski-style DP pipeline partitioner: contiguous topo-order prefixes
// assigned to devices 0..D-1 by an O(D·n²) dynamic program minimizing the
// pipeline bottleneck (per-stage compute + cut-bytes transfer into the
// stage). Empty stages are allowed, so small graphs use few devices.
SearchResult DpPipelinePlacement(const ModelBuildFn& build,
                                 const std::string& model_name, int64_t batch,
                                 const Cluster& cluster,
                                 const SearchOptions& options = {});

// Mayer-style critical-path heuristic: iteratively peel the longest
// remaining path and assign it wholesale to the least-loaded device
// (Mayer et al.'s CP splitting rule for model parallelism).
SearchResult CriticalPathPlacement(const ModelBuildFn& build,
                                   const std::string& model_name,
                                   int64_t batch, const Cluster& cluster,
                                   const SearchOptions& options = {});

}  // namespace fastt
