#include "sim/exec_sim.h"

#include <algorithm>
#include <array>
#include <queue>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/memtrack.h"
#include "util/rng.h"

namespace fastt {
namespace {

// Deterministic per-op noise independent of event processing order: each op
// draws from its own stream derived from (run seed, op id).
double SimNoiseFactor(uint64_t seed, OpId op, double cv) {
  if (cv <= 0.0) return 1.0;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(op) + 1);
  const double f = 1.0 + cv * rng.NextGaussian();
  return std::max(0.25, f);
}

struct Event {
  double time = 0.0;
  enum Kind { kOpFinish = 0, kArrival = 1 } kind = kOpFinish;
  OpId op = kInvalidOp;       // kOpFinish: the op; kArrival: consumer op
  EdgeId edge = -1;           // kArrival only
  // Canonical order (time, kind, op, edge): a pure function of event
  // content, so the processing order does not depend on push order.
  // (No two events share all four fields: an op finishes once, an edge
  // delivers once.)
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    if (op != other.op) return op > other.op;
    return edge > other.edge;
  }
};

struct ReadyEntry {
  int64_t key = 0;    // priority (enforce) or arrival sequence (FIFO)
  uint64_t seq = 0;   // insertion tie-break
  OpId op = kInvalidOp;
  bool operator>(const ReadyEntry& other) const {
    if (key != other.key) return key > other.key;
    return seq > other.seq;
  }
};

using ReadyQueue = std::priority_queue<ReadyEntry, TaggedVector<ReadyEntry>,
                                       std::greater<ReadyEntry>>;

// Per-op state of one Simulate call.
struct OpState {
  // Remaining tensor arrivals (each live in-edge delivers one).
  int32_t pending = 0;
  // Remaining holds on the op's producer-side output buffer. Same-device
  // consumers release their hold when they finish (they read the buffer in
  // place); cross-device consumers release it once the transfer lands.
  int32_t out_refs = 0;
  // Output buffer size, computed once per call.
  int64_t out_bytes = 0;
  // Bytes staged on the op's device by cross-device transfers; freed when
  // the op finishes.
  int64_t staged_bytes = 0;
};

// Per-device state of one Simulate call.
struct DeviceState {
  ReadyQueue ready;
  bool busy = false;
  // Copy-engine model: a small number of DMA engines per device and
  // direction (V100s expose a few; TF stripes copies across them), so
  // concurrent transfers sharing an endpoint serialize once the engines are
  // saturated. Each entry is the time one engine frees up.
  std::array<double, SimOptions::kCopyEnginesPerDirection> egress_free{};
  std::array<double, SimOptions::kCopyEnginesPerDirection> ingress_free{};
  // TF rendezvous semantics: one physical send per (tensor, destination
  // device). sent_by names the op whose tensor last went to this device and
  // sent_arrival when it lands; stamping with the sender (each op finishes
  // once) makes a per-finish reset unnecessary.
  OpId sent_by = kInvalidOp;
  double sent_arrival = 0.0;
};

// A per-call flat array charged to sim/events, like the event queue.
template <typename T>
TaggedVector<T> SimArray(size_t n, const T& value) {
  return TaggedVector<T>(n, value, TaggedAlloc<T>(MemTag::kSimEvents));
}

class MemoryTracker {
 public:
  MemoryTracker(const Cluster& cluster, bool enabled, bool record_timeline)
      : enabled_(enabled),
        usage_(SimArray<int64_t>(static_cast<size_t>(cluster.num_devices()),
                                 0)),
        peak_(SimArray<int64_t>(static_cast<size_t>(cluster.num_devices()),
                                0)) {
    if (enabled_ && record_timeline)
      timeline_.resize(static_cast<size_t>(cluster.num_devices()));
  }

  void Alloc(DeviceId d, int64_t bytes, double now) {
    if (!enabled_ || bytes == 0) return;
    auto i = static_cast<size_t>(d);
    usage_[i] += bytes;
    peak_[i] = std::max(peak_[i], usage_[i]);
    Sample(i, now);
  }
  void Free(DeviceId d, int64_t bytes, double now) {
    if (!enabled_ || bytes == 0) return;
    usage_[static_cast<size_t>(d)] -= bytes;
    Sample(static_cast<size_t>(d), now);
  }
  const TaggedVector<int64_t>& peak() const { return peak_; }
  std::vector<std::vector<MemorySample>> TakeTimeline() {
    return std::move(timeline_);
  }

 private:
  void Sample(size_t i, double now) {
    if (timeline_.empty()) return;
    auto& t = timeline_[i];
    // Coalesce same-timestamp updates into the final value at that instant.
    if (!t.empty() && t.back().time == now)
      t.back().bytes = usage_[i];
    else
      t.push_back(MemorySample{now, usage_[i]});
  }

  bool enabled_;
  TaggedVector<int64_t> usage_;
  TaggedVector<int64_t> peak_;
  std::vector<std::vector<MemorySample>> timeline_;
};

}  // namespace

bool PlacementParamsFit(const Graph& g,
                        const std::vector<DeviceId>& placement,
                        const Cluster& cluster) {
  std::vector<int64_t> resident(static_cast<size_t>(cluster.num_devices()), 0);
  for (OpId id : g.LiveOps()) {
    const DeviceId d = placement[static_cast<size_t>(id)];
    resident[static_cast<size_t>(d)] += g.op(id).resident_bytes();
  }
  for (int32_t d = 0; d < cluster.num_devices(); ++d)
    if (resident[static_cast<size_t>(d)] > cluster.device(d).usable_bytes())
      return false;
  return true;
}

SimResult Simulate(const Graph& g, const std::vector<DeviceId>& placement,
                   const Cluster& cluster, const SimOptions& options) {
  FASTT_TRACE_SPAN("sim/simulate");
  const auto live = g.LiveOps();
  FASTT_CHECK_MSG(placement.size() >= static_cast<size_t>(g.num_slots()),
                  "placement must cover all op slots");
  for (OpId id : live) {
    const DeviceId d = placement[static_cast<size_t>(id)];
    FASTT_CHECK_MSG(d >= 0 && d < cluster.num_devices(),
                    "op " + g.op(id).name + " has no valid device");
  }
  if (options.dispatch == DispatchMode::kPriority) {
    FASTT_CHECK_MSG(
        options.priorities.size() >= static_cast<size_t>(g.num_slots()),
        "priority dispatch requires priorities per op");
  }

  SimResult result;
  const size_t slots = static_cast<size_t>(g.num_slots());
  const size_t n_dev = static_cast<size_t>(cluster.num_devices());
  result.op_records.assign(slots, OpRecord{});
  result.device_busy_s.assign(n_dev, 0.0);

  // Event churn and per-call state are the simulator's dominant allocation
  // source; charge the event queue, the per-device ready heaps and the flat
  // per-op / per-device / per-edge arrays to sim/events so memstat and the
  // trace counters attribute them.
  MemTagScope mem_scope(MemTag::kSimEvents);
  MemoryTracker memory(cluster, options.track_memory,
                       options.record_memory_timeline);

  auto ops = SimArray(slots, OpState{});
  for (OpId id : live) {
    OpState& s = ops[static_cast<size_t>(id)];
    // Parameters are resident for the whole iteration.
    memory.Alloc(placement[static_cast<size_t>(id)],
                 g.op(id).resident_bytes(), 0.0);
    s.out_bytes = g.op(id).output_bytes();
    for (EdgeId e : g.in_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.src).dead) ++s.pending;
    }
    for (EdgeId e : g.out_edges(id)) {
      const Edge& edge = g.edge(e);
      if (!edge.dead && !g.op(edge.dst).dead) ++s.out_refs;
    }
  }

  std::priority_queue<Event, TaggedVector<Event>, std::greater<Event>> events(
      std::greater<Event>(),
      TaggedVector<Event>(TaggedAlloc<Event>(MemTag::kSimEvents)));
  auto devices = SimArray(
      n_dev, DeviceState{ReadyQueue(
                 std::greater<ReadyEntry>(),
                 TaggedVector<ReadyEntry>(
                     TaggedAlloc<ReadyEntry>(MemTag::kSimEvents)))});
  uint64_t ready_counter = 0;
  // Edges whose arrival carries a physical copy (vs. aliasing a dedup'd
  // one), indexed by edge slot.
  auto carrying =
      SimArray<uint8_t>(static_cast<size_t>(g.num_edge_slots()), 0);
  auto earliest = [](auto& engines) {
    return std::min_element(engines.begin(), engines.end());
  };

  auto release_output_hold = [&](OpId producer, double now) {
    OpState& s = ops[static_cast<size_t>(producer)];
    if (--s.out_refs == 0)
      memory.Free(placement[static_cast<size_t>(producer)], s.out_bytes, now);
  };

  auto push_ready = [&](OpId op) {
    const DeviceId d = placement[static_cast<size_t>(op)];
    ReadyEntry entry;
    entry.seq = ready_counter++;
    switch (options.dispatch) {
      case DispatchMode::kFifo:
        entry.key = static_cast<int64_t>(entry.seq);
        break;
      case DispatchMode::kRandom: {
        // Deterministic pseudo-random dequeue order per (seed, op).
        Rng rng(options.seed * 0x2545f4914f6cdd1dULL +
                static_cast<uint64_t>(op));
        entry.key = static_cast<int64_t>(rng.NextU64() >> 1);
        break;
      }
      case DispatchMode::kPriority:
        entry.key = options.priorities[static_cast<size_t>(op)];
        break;
    }
    entry.op = op;
    devices[static_cast<size_t>(d)].ready.push(entry);
  };

  auto try_dispatch = [&](DeviceId d, double now) {
    DeviceState& dev = devices[static_cast<size_t>(d)];
    if (dev.busy || dev.ready.empty()) return;
    const OpId op = dev.ready.top().op;
    dev.ready.pop();
    dev.busy = true;
    const Operation& o = g.op(op);
    const double dur = GroundTruthDuration(o, cluster.device(d)) *
                       SimNoiseFactor(options.seed, op, options.noise_cv);
    auto& rec = result.op_records[static_cast<size_t>(op)];
    rec.op = op;
    rec.device = d;
    rec.start = now;
    rec.finish = now + dur;
    memory.Alloc(d, o.temp_bytes, now);
    events.push(Event{rec.finish, Event::kOpFinish, op, -1});
  };

  // Seed: ops with no inputs are ready at t = 0.
  for (OpId id : live)
    if (ops[static_cast<size_t>(id)].pending == 0) push_ready(id);
  for (int32_t d = 0; d < cluster.num_devices(); ++d) try_dispatch(d, 0.0);

  size_t finished = 0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    const double now = ev.time;

    if (ev.kind == Event::kOpFinish) {
      ++finished;
      const OpId op = ev.op;
      const Operation& o = g.op(op);
      OpState& s = ops[static_cast<size_t>(op)];
      const DeviceId d = placement[static_cast<size_t>(op)];
      const auto& rec = result.op_records[static_cast<size_t>(op)];
      result.device_busy_s[static_cast<size_t>(d)] += rec.duration();
      if (IsMathOp(o.type)) result.total_compute_s += rec.duration();
      memory.Free(d, o.temp_bytes, now);
      memory.Free(d, s.staged_bytes, now);
      s.staged_bytes = 0;
      result.makespan = std::max(result.makespan, now);

      // Output buffer materializes now; terminal ops drop it immediately.
      memory.Alloc(d, s.out_bytes, now);
      if (s.out_refs == 0) memory.Free(d, s.out_bytes, now);

      // This op held its same-device inputs in place while running.
      for (EdgeId e : g.in_edges(op)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.src).dead) continue;
        if (placement[static_cast<size_t>(edge.src)] == d)
          release_output_hold(edge.src, now);
      }

      // One physical send per destination device; additional consumers on
      // that device alias the landed copy.
      for (EdgeId e : g.out_edges(op)) {
        const Edge& edge = g.edge(e);
        if (edge.dead || g.op(edge.dst).dead) continue;
        const DeviceId dd = placement[static_cast<size_t>(edge.dst)];
        DeviceState& dst = devices[static_cast<size_t>(dd)];
        if (dd == d) {
          events.push(Event{now, Event::kArrival, edge.dst, e});
        } else if (dst.sent_by == op) {
          events.push(Event{dst.sent_arrival, Event::kArrival, edge.dst, e});
        } else {
          const Link link = cluster.LinkBetween(d, dd);
          auto eg = earliest(devices[static_cast<size_t>(d)].egress_free);
          auto in_ = earliest(dst.ingress_free);
          const double start = std::max({now, *eg, *in_});
          const double occupancy =
              static_cast<double>(edge.bytes) / link.bandwidth;
          const double arrival = start + link.latency + occupancy;
          *eg = start + occupancy;
          *in_ = start + occupancy;
          dst.sent_by = op;
          dst.sent_arrival = arrival;
          carrying[static_cast<size_t>(e)] = 1;
          result.transfers.push_back(TransferRecord{
              op, edge.dst, d, dd, edge.bytes, start, arrival});
          result.total_memcpy_s += arrival - start;
          events.push(Event{arrival, Event::kArrival, edge.dst, e});
        }
      }
      devices[static_cast<size_t>(d)].busy = false;
      try_dispatch(d, now);
    } else {  // kArrival
      const Edge& edge = g.edge(ev.edge);
      const OpId consumer = ev.op;
      const DeviceId cd = placement[static_cast<size_t>(consumer)];
      const DeviceId pd = placement[static_cast<size_t>(edge.src)];
      if (cd != pd) {
        // Only the physical (carrying) transfer stages a copy on the
        // consumer's device; aliased arrivals reuse it. The producer-side
        // buffer hold is released per consumer as arrivals land.
        if (carrying[static_cast<size_t>(ev.edge)]) {
          memory.Alloc(cd, edge.bytes, now);
          ops[static_cast<size_t>(consumer)].staged_bytes += edge.bytes;
        }
        release_output_hold(edge.src, now);
      }
      auto& left = ops[static_cast<size_t>(consumer)].pending;
      FASTT_CHECK(left > 0);
      if (--left == 0) {
        push_ready(consumer);
        try_dispatch(cd, now);
      }
    }
  }

  FASTT_CHECK_MSG(finished == live.size(),
                  "deadlock: not all ops executed (cycle or missing input)");

  result.peak_memory.assign(memory.peak().begin(), memory.peak().end());
  for (int32_t d = 0; d < cluster.num_devices(); ++d) {
    if (result.peak_memory[static_cast<size_t>(d)] >
        cluster.device(d).usable_bytes()) {
      result.oom = true;
      result.oom_devices.push_back(d);
    }
  }
  if (options.record_memory_timeline)
    result.memory_timeline = memory.TakeTimeline();

  MetricsRegistry& metrics = CurrentMetrics();
  metrics.AddCounter("sim/runs");
  metrics.AddCounter("sim/ops_executed", static_cast<int64_t>(finished));
  metrics.AddCounter("sim/transfers",
                     static_cast<int64_t>(result.transfers.size()));
  if (result.oom) metrics.AddCounter("sim/oom_runs");
  EmitMemTraceCounters();
  return result;
}

}  // namespace fastt
