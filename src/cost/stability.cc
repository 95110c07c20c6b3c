#include "cost/stability.h"

#include <cmath>
#include <limits>
#include <vector>

#include "util/stats.h"

namespace fastt {
namespace {

// Marks a device the key had no sample on when the snapshot was taken.
constexpr double kUnprofiled = std::numeric_limits<double>::quiet_NaN();

}  // namespace

double StabilityDetector::Observe(const CompCostModel& model,
                                  int32_t num_devices,
                                  const std::vector<std::string>& keys) {
  bool new_entry = false;
  std::vector<double> changes;
  std::unordered_map<std::string, std::vector<double>> current;
  for (const std::string& key : keys) {
    // A key listed twice is compared twice: each listing is one entry.
    std::vector<double>& now = current[key];
    now.assign(static_cast<size_t>(num_devices), kUnprofiled);
    auto it = last_.find(key);
    const std::vector<double>* before =
        it == last_.end() ? nullptr : &it->second;
    for (DeviceId d = 0; d < num_devices; ++d) {
      auto value = model.Lookup(key, d);
      if (!value) continue;
      const size_t di = static_cast<size_t>(d);
      now[di] = *value;
      const double old = before != nullptr && di < before->size()
                             ? (*before)[di]
                             : kUnprofiled;
      if (std::isnan(old)) {
        new_entry = true;
      } else if (old > 0.0) {
        changes.push_back(std::fabs(*value - old) / old);
      }
    }
  }
  last_ = std::move(current);

  StabilityStats stats;
  stats.entries = static_cast<int>(changes.size());
  stats.mean_change = Mean(changes);
  stats.stddev_change = Stddev(changes);
  stats.tolerance = tolerance_;
  stats.patience = patience_;
  stats.new_entries = new_entry;
  if (new_entry) {
    stable_rounds_ = 0;
    stats.max_change = std::numeric_limits<double>::infinity();
    stats.margin = -std::numeric_limits<double>::infinity();
  } else {
    stats.max_change = changes.empty() ? 0.0 : Max(changes);
    stats.margin = tolerance_ - stats.max_change;
    if (stats.max_change <= tolerance_) {
      ++stable_rounds_;
    } else {
      stable_rounds_ = 0;
    }
  }
  stats.stable_rounds = stable_rounds_;
  last_stats_ = stats;
  return stats.max_change;
}

}  // namespace fastt
