// Output checks applied to every request. A failed check is counted in the
// run's `failed` total, never fatal: the run still prints every metric.
#pragma once

#include <string>
#include <vector>

#include "core/portfolio.h"
#include "core/strategy.h"
#include "cost/comm_cost.h"
#include "graph/graph.h"
#include "sim/cluster.h"

namespace perfbench {

// The returned strategy is sound and runnable: VerifyStrategy with the full
// rule set reports zero errors, the final simulation did not run out of
// memory, and the iteration time is finite and positive. Returns the names
// of the failed checks (empty: pass).
std::vector<std::string> CheckStrategy(const fastt::Graph& graph,
                                       const fastt::Strategy& strategy,
                                       const fastt::Cluster& cluster,
                                       const fastt::CommCostModel* comm,
                                       bool final_oom, double iteration_s);

// Arena only: the winner's reported iteration_s equals the portfolio's
// ranking value and a noise-free re-simulation of the winning strategy
// (FIFO dispatch, or priority dispatch under its execution order).
std::vector<std::string> CheckArenaWinner(const fastt::PortfolioResult& result,
                                          const fastt::Cluster& cluster);

// Determinism: every request of a run serializes to the same bytes.
class SameBytes {
 public:
  // True when `bytes` equals the first value seen.
  bool Check(const std::string& bytes);
  // Values compared against the first one so far.
  int comparisons() const { return comparisons_; }

 private:
  bool seen_ = false;
  int comparisons_ = 0;
  std::string first_;
};

}  // namespace perfbench
