#include "checks.h"

#include <cmath>

#include "analysis/verifier.h"
#include "sim/exec_sim.h"

namespace perfbench {

using namespace fastt;

std::vector<std::string> CheckStrategy(const Graph& graph,
                                       const Strategy& strategy,
                                       const Cluster& cluster,
                                       const CommCostModel* comm,
                                       bool final_oom, double iteration_s) {
  std::vector<std::string> failed;
  VerifierOptions full;
  full.cheap_only = false;
  const VerifyResult verdict =
      VerifyStrategy(graph, strategy, cluster, comm, full);
  if (!verdict.ok()) failed.push_back("verify:" + verdict.first_error_rule());
  if (final_oom) failed.push_back("final_sim_oom");
  if (!std::isfinite(iteration_s) || iteration_s <= 0.0)
    failed.push_back("iteration_not_finite");
  return failed;
}

std::vector<std::string> CheckArenaWinner(const PortfolioResult& result,
                                          const Cluster& cluster) {
  if (result.winner < 0) return {"arena_no_winner"};
  const PortfolioEntry& w = result.entries[static_cast<size_t>(result.winner)];
  std::vector<std::string> failed;
  if (w.iteration_s != result.iteration_s)
    failed.push_back("arena_objective_not_ranked_value");
  SimOptions fifo;
  const SimResult a =
      Simulate(result.graph, result.strategy.placement, cluster, fifo);
  SimOptions prio;
  prio.dispatch = DispatchMode::kPriority;
  prio.priorities = PrioritiesFromOrder(result.strategy.execution_order,
                                        result.graph.num_slots());
  const SimResult b =
      Simulate(result.graph, result.strategy.placement, cluster, prio);
  const bool matches = (!a.oom && a.makespan == w.iteration_s) ||
                       (!b.oom && b.makespan == w.iteration_s);
  if (!matches) failed.push_back("arena_objective_not_resimulated");
  return failed;
}

bool SameBytes::Check(const std::string& bytes) {
  if (!seen_) {
    seen_ = true;
    first_ = bytes;
    return true;
  }
  ++comparisons_;
  return bytes == first_;
}

}  // namespace perfbench
