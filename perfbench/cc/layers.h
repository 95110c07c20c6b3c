// Layer spans recorded by the benchmark around its own calls into the
// program, and the self-time ledger computed from them.
//
// A span is one call into a layer's public function (Simulate, Dpos,
// SplitOperation, VerifyStrategy, ...). Its name is "<layer>" or
// "<layer>.<call>"; the layer is the part before the first '.'. Spans carry
// a parent link: the innermost span open on the same thread, or — for work
// a ParallelFor hands to pool workers — the span that issued the
// ParallelFor, passed explicitly. A span's self time is its duration minus
// the union of its children's intervals (children on several threads may
// overlap, so the union, not the sum, is subtracted).
//
// The request root span (name "request") is the replayed request; the
// share of its wall not covered by any child is the trace's unattributed
// time. Spans named "trace.*" are the tracing machinery's own work: not a
// layer, and not part of the replayed work.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  // Time the span spent inside a nested program layer the benchmark cannot
  // wrap (e.g. Simulate calls made inside a baseline searcher), read as the
  // delta of that layer's program timer. It moves from this span's self
  // time to `nested_name`'s.
  double nested_s = 0.0;
  std::string nested_name;
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span; `parent` < 0 means the innermost span open on this
  // thread (or none). Returns the span's index.
  int Begin(const std::string& name, int parent = -1);
  void End(int index);
  void SetNested(int index, const std::string& name, double seconds);

  std::vector<Span> Take();

 private:
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int parent = -1)
      : rec_(rec), index_(rec ? rec->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int index_;
};

// Self-time ledger of one replayed request.
struct Ledger {
  double wall_s = 0.0;     // duration of the request root span
  double trace_s = 0.0;    // self time of trace.* spans (tracer bookkeeping)
  double covered_s = 0.0;  // wall inside some layer span
  std::map<std::string, double> self_by_name;   // span name -> self seconds
  std::map<std::string, double> self_by_layer;  // layer -> self seconds
  // Share of the replayed work attributed to a layer: the tracer's own
  // bookkeeping is left out of the denominator (trace.overhead_frac counts
  // it instead).
  double coverage() const {
    return wall_s > trace_s ? covered_s / (wall_s - trace_s) : 0.0;
  }
};

// Builds the ledger from the spans of exactly one request (one root).
Ledger ComputeLedger(const std::vector<Span>& spans);

}  // namespace perfbench
