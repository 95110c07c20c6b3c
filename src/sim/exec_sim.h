// Discrete-event execution simulator — the stand-in for running a training
// iteration on the real multi-GPU testbed.
//
// Faithfully models the aspects of TensorFlow execution the paper's
// heuristics exploit:
//   * each GPU is a serial kernel engine; ready ops are dispatched FIFO
//     (TensorFlow's default executor) or by FastT's enforced priorities;
//   * tensors crossing devices occupy a per-direction channel (NVLink or the
//     network) and overlap with computation, so compute/memcpy overlap and
//     link contention emerge naturally;
//   * device memory is accounted (resident parameters + live activations +
//     workspace) and overflow is reported as OOM, which drives the paper's
//     Table 3 and all memory-feasibility decisions.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sim/cluster.h"

namespace fastt {

// How a device's ready queue is drained.
enum class DispatchMode {
  // Deterministic arrival order — an idealized FIFO.
  kFifo,
  // Arrival order scrambled among concurrently-ready ops: models the real
  // TF executor, whose inter-op thread pool dequeues the ready queue in
  // effectively arbitrary order. This is what makes op ordering matter (the
  // TicTac observation the paper cites): a bulk tensor send picked before a
  // critical one stalls downstream devices.
  kRandom,
  // Ascending priority — FastT's order enforcement (paper §6.1).
  kPriority,
};

struct SimOptions {
  // DMA copy engines per device per direction (V100-class hardware).
  static constexpr size_t kCopyEnginesPerDirection = 2;

  DispatchMode dispatch = DispatchMode::kFifo;
  // Priorities indexed by OpId; required for kPriority.
  std::vector<int64_t> priorities;
  // Multiplicative lognormal-ish execution-time noise (coefficient of
  // variation). 0 = deterministic. Profiling realism for the cost models.
  double noise_cv = 0.0;
  uint64_t seed = 1;
  // Account memory and flag OOM.
  bool track_memory = true;
  // Additionally record the live-memory timeline per device (one sample per
  // alloc/free). Off by default: trace export wants it, the thousands of
  // simulations inside the strategy search do not.
  bool record_memory_timeline = false;
};

// One live-memory sample: bytes resident on the device at `time`.
struct MemorySample {
  double time = 0.0;
  int64_t bytes = 0;
};

struct OpRecord {
  OpId op = kInvalidOp;
  DeviceId device = kInvalidDevice;
  double start = 0.0;
  double finish = 0.0;
  double duration() const { return finish - start; }
};

struct TransferRecord {
  OpId src_op = kInvalidOp;
  OpId dst_op = kInvalidOp;
  DeviceId src = kInvalidDevice;
  DeviceId dst = kInvalidDevice;
  int64_t bytes = 0;
  double start = 0.0;    // when the channel begins carrying the tensor
  double arrival = 0.0;  // when the consumer may use it
  double duration() const { return arrival - start; }
};

struct SimResult {
  double makespan = 0.0;
  // Indexed by OpId (slots for dead ops have device == kInvalidDevice).
  std::vector<OpRecord> op_records;
  std::vector<TransferRecord> transfers;
  std::vector<double> device_busy_s;    // per device
  std::vector<int64_t> peak_memory;     // per device, bytes
  bool oom = false;
  std::vector<DeviceId> oom_devices;
  // Sum of numerical-op durations across devices ("computation time" in the
  // paper's Fig. 5 breakdown) and sum of transfer durations ("memcpy time").
  double total_compute_s = 0.0;
  double total_memcpy_s = 0.0;
  // Per-device live-memory samples; populated only when
  // SimOptions::record_memory_timeline is set (feeds the Chrome-trace
  // counter tracks that visualize the Table 3 OOM story).
  std::vector<std::vector<MemorySample>> memory_timeline;
};

// Executes the live subgraph of `g` under `placement` (DeviceId per OpId) on
// `cluster`. Throws std::logic_error on malformed inputs (missing placements,
// cyclic graph).
//
// Event-ordering contract: simultaneous events are processed in the canonical
// order (time, kind, op id, edge id) with op-finish ranked before arrival.
// This makes the processing order a pure function of event content, not of
// push order, so a refactor that pushes the same events in another order
// cannot change the result (strategies are scored on it bit-for-bit).
SimResult Simulate(const Graph& g, const std::vector<DeviceId>& placement,
                   const Cluster& cluster, const SimOptions& options = {});

// Convenience: true iff the placement's resident parameters alone already
// exceed some device's memory (cheap static check used by schedulers).
bool PlacementParamsFit(const Graph& g,
                        const std::vector<DeviceId>& placement,
                        const Cluster& cluster);

}  // namespace fastt
