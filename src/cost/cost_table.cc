#include "cost/cost_table.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace fastt {

CompCostTable::CompCostTable(const Graph& g, const CompCostModel& model,
                             int32_t num_devices)
    : num_devices_(num_devices),
      num_slots_(g.num_slots()),
      model_version_(model.version()) {
  FASTT_TRACE_SPAN("cost/comp_table");
  const size_t slots = static_cast<size_t>(num_slots_);
  const size_t devs = static_cast<size_t>(num_devices_);
  times_.assign(slots * devs, 0.0);
  max_time_.assign(slots, 0.0);
  int64_t unknown = 0;  // explore-at-zero entries: no profile, no basis
  for (OpId id = 0; id < num_slots_; ++id) {
    const Operation& op = g.op(id);
    if (op.dead) continue;
    double* row = &times_[static_cast<size_t>(id) * devs];
    model.EstimateRow(op, num_devices_, row);
    double best = 0.0;
    for (size_t d = 0; d < devs; ++d) {
      if (row[d] == 0.0) ++unknown;
      best = row[d] > best ? row[d] : best;
    }
    max_time_[static_cast<size_t>(id)] = best;
  }
  CurrentMetrics().AddCounter("cost/comp_table_builds");
  if (unknown > 0) {
    CurrentMetrics().AddCounter("cost/comp_table_unknown_entries",
                                         unknown);
    FASTT_TRACE_INSTANT("cost/comp_table_unknown", unknown);
  }
}

bool CompCostTable::Fresh(const Graph& g, const CompCostModel& model) const {
  return model_version_ == model.version() && num_slots_ == g.num_slots();
}

CommCostTable::CommCostTable(const CommCostModel& model, int32_t num_devices)
    : num_devices_(num_devices), model_version_(model.version()) {
  FASTT_TRACE_SPAN("cost/comm_table");
  pairs_.assign(static_cast<size_t>(num_devices_) *
                    static_cast<size_t>(num_devices_),
                Pair{});
  int64_t unknown = 0;  // pairs with no regression yet (treated as free)
  for (DeviceId src = 0; src < num_devices_; ++src) {
    for (DeviceId dst = 0; dst < num_devices_; ++dst) {
      if (src == dst) continue;
      if (auto fit = model.InterceptSlope(src, dst)) {
        Pair& p = pairs_[static_cast<size_t>(src) *
                             static_cast<size_t>(num_devices_) +
                         static_cast<size_t>(dst)];
        p.intercept = fit->first;
        p.slope = fit->second;
        p.known = true;
        max_candidates_.push_back(p);
      } else {
        ++unknown;
      }
    }
  }
  // MaxOverPairs needs only the pairs no other pair beats on both intercept
  // and slope. For bytes >= 0, a + b·bytes rounds monotonically in a and in
  // b, so a pair beaten on both never exceeds its dominator, bit for bit.
  // Sort by intercept, then slope, descending; keep each pair whose slope
  // beats every pair before it. Exact duplicates collapse to one.
  std::sort(max_candidates_.begin(), max_candidates_.end(),
            [](const Pair& a, const Pair& b) {
              if (a.intercept != b.intercept) return a.intercept > b.intercept;
              return a.slope > b.slope;
            });
  size_t kept = 0;
  for (const Pair& p : max_candidates_)
    if (kept == 0 || p.slope > max_candidates_[kept - 1].slope)
      max_candidates_[kept++] = p;
  max_candidates_.resize(kept);
  CurrentMetrics().AddCounter("cost/comm_table_builds");
  if (unknown > 0) {
    CurrentMetrics().AddCounter("cost/comm_table_unknown_pairs",
                                         unknown);
    FASTT_TRACE_INSTANT("cost/comm_table_unknown", unknown);
  }
}

double CommCostTable::MaxOverPairs(int64_t bytes) const {
  double best = 0.0;
  for (const Pair& p : max_candidates_) {
    const double t = p.intercept + p.slope * static_cast<double>(bytes);
    best = t > best ? t : best;
  }
  return best;
}

bool CommCostTable::Fresh(const CommCostModel& model) const {
  return model_version_ == model.version();
}

}  // namespace fastt
