// Pre-training termination rule (paper §4): "when the cost models become
// stable (the average time of the same (sub-)operation(s) on the same
// device(s) does not vary much), we finish the pre-training stage."
//
// The detector snapshots the per-entry means each round and reports stability
// once the maximal relative change between consecutive snapshots stays below
// a tolerance for `patience` rounds. Beyond the boolean stop signal it keeps
// the window statistics of the latest observation (max/mean/stddev of the
// per-entry relative changes, and the margin to the tolerance), so the
// calibration report and the event log can show *how close* each round was
// to stability rather than just whether it stopped.
#pragma once

#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/comp_cost.h"

namespace fastt {

// Statistics of one Observe() call: how the tracked cost-model entries moved
// relative to the previous snapshot.
struct StabilityStats {
  int entries = 0;  // (cost key, device) pairs compared against the snapshot
  // Relative changes |new - old| / old over the compared entries. max_change
  // is infinity on the first observation or when new entries appeared.
  double max_change = std::numeric_limits<double>::infinity();
  double mean_change = 0.0;
  double stddev_change = 0.0;
  double tolerance = 0.0;
  // tolerance - max_change: how much headroom the round had. Negative while
  // the models are still moving; -infinity when new entries reset the clock.
  double margin = -std::numeric_limits<double>::infinity();
  bool new_entries = true;  // unseen (key, device) pairs appeared this round
  int stable_rounds = 0;
  int patience = 0;
};

class StabilityDetector {
 public:
  explicit StabilityDetector(double tolerance = 0.05, int patience = 2)
      : tolerance_(tolerance), patience_(patience) {}

  // Feed the current model state; returns the max relative change vs. the
  // previous snapshot (infinity on first call or when new keys appeared).
  double Observe(const CompCostModel& model, int32_t num_devices,
                 const std::vector<std::string>& keys);

  bool IsStable() const { return stable_rounds_ >= patience_; }
  int stable_rounds() const { return stable_rounds_; }
  double tolerance() const { return tolerance_; }
  int patience() const { return patience_; }

  // Window statistics of the most recent Observe() (default-initialized —
  // max_change infinite, zero entries — before the first call).
  const StabilityStats& last_stats() const { return last_stats_; }

 private:
  double tolerance_;
  int patience_;
  int stable_rounds_ = 0;
  StabilityStats last_stats_;
  // Previous snapshot: per cost key, the mean on each device (NaN where the
  // key had no sample on that device).
  std::unordered_map<std::string, std::vector<double>> last_;
};

}  // namespace fastt
