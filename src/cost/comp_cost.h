// Computation cost model: (operation cost-key, device) → execution time.
//
// Built from profiles, never from ground truth. Queries follow the paper's
// exploration rule: "when our algorithm finds a cost it needs is not in the
// cost model, it sets the cost to 0, so that the algorithm prefers to explore
// the placement" — the next profiled run then records the real cost. For
// sub-ops created by hypothetical splits (OS-DPOS probes dozens of candidate
// rewrites per decision) we additionally support a recorded fallback (parent
// key × fractional scale), which plays the role of the extra profiled
// iterations the paper spends before a split's costs are known.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/operation.h"
#include "sim/device.h"
#include "sim/profiler.h"
#include "util/stats.h"

namespace fastt {

class CompCostModel {
 public:
  // Record one observed execution.
  void AddSample(const std::string& cost_key, DeviceId device,
                 double duration_s);
  void AddProfile(const RunProfile& profile);

  // Mean observed time of this key on this device, if any sample exists.
  std::optional<double> Lookup(const std::string& cost_key,
                               DeviceId device) const;

  // Cost used by the scheduler for a concrete (op, device):
  //   1. exact (key, device) profile;
  //   2. op.cost_basis_key profile on that device × op.cost_scale;
  //   3. 0 — explore (paper's rule).
  double EstimateOrExplore(const Operation& op, DeviceId device) const;

  // EstimateOrExplore(op, d) into out[d] for every d in [0, num_devices).
  // Hashes the cost key and the basis key once per op, not once per device.
  void EstimateRow(const Operation& op, int32_t num_devices,
                   double* out) const;

  // Maximal estimated time of the op over the given devices — the w_i term in
  // rank_u. Zero if nothing is known anywhere.
  double MaxTimeOverDevices(const Operation& op, int32_t num_devices) const;

  // True if any device has a sample for this key.
  bool Knows(const std::string& cost_key) const;

  size_t num_entries() const;
  void Clear();

  // Monotonic mutation counter: bumped by every AddSample/Clear. Dense
  // snapshots (CompCostTable) record it so staleness after a profiling
  // round is detectable.
  uint64_t version() const { return version_; }

  // Text (de)serialization: one "key<TAB>device<TAB>mean<TAB>count" per line.
  std::string Serialize() const;
  static CompCostModel Deserialize(const std::string& text);

 private:
  struct PerDevice {
    std::unordered_map<DeviceId, OnlineMean> by_device;
  };
  // An op's exact-key and basis-key entries (nullptr when unknown): all the
  // hashing EstimateOrExplore needs, done once per op.
  struct ResolvedKeys {
    const PerDevice* exact = nullptr;
    const PerDevice* basis = nullptr;
    double scale = 1.0;
  };
  const PerDevice* Find(const std::string& cost_key) const;
  ResolvedKeys Resolve(const Operation& op) const;
  static std::optional<double> MeanOn(const PerDevice* per, DeviceId device);
  // Rules 1–3 of EstimateOrExplore.
  static double Estimate(const ResolvedKeys& keys, DeviceId device);

  std::unordered_map<std::string, PerDevice> entries_;
  uint64_t version_ = 0;
};

}  // namespace fastt
