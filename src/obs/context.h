// Request-scoped telemetry: one handle bundling the four observability
// facilities (metrics registry, tracer, event log, memory-tracker view) so
// concurrent placement requests in a long-running service keep their
// telemetry apart instead of smearing it into the process-global namespace.
//
// A TelemetryContext owns a fresh MetricsRegistry, Tracer and EventLog.
// The MemTracker member is a *view* of the process tracker, not a fresh
// instance: heap accounting is physical (one heap per process), so contexts
// share it and a request-scoped figure is taken as a before/after delta.
//
// TelemetryScope installs a context as the calling thread's ambient
// bindings (obs/ambient.h) for its lifetime — the same RAII discipline as
// MemTagScope. Everything instrumented with the FASTT_* macros or
// CurrentMetrics()/CurrentTracer()/CurrentEventLog() then lands in that
// context, including work fanned out through ParallelFor: the thread pool
// captures the submitting thread's bindings and installs them around every
// chunk a worker executes. With no scope installed, everything resolves to
// TelemetryContext::Process() — the process-global singletons — so existing
// call sites work unchanged.
//
// Contexts are not internally synchronized against their own destruction:
// a context must outlive every scope that installs it and any pool work
// submitted under such a scope.
#pragma once

#include <memory>

#include "obs/ambient.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "util/memtrack.h"

namespace fastt {

class TelemetryContext {
 public:
  // A fresh, fully isolated context: its own registry, tracer and event
  // log, sharing the process MemTracker (see the header comment).
  TelemetryContext();
  ~TelemetryContext();
  TelemetryContext(const TelemetryContext&) = delete;
  TelemetryContext& operator=(const TelemetryContext&) = delete;

  // The default context wrapping the process-global facilities; what every
  // call site resolves to outside any TelemetryScope.
  static TelemetryContext& Process();

  MetricsRegistry& metrics() const { return *metrics_; }
  Tracer& tracer() const { return *tracer_; }
  EventLog& events() const { return *events_; }
  MemTracker& memtrack() const { return *memtrack_; }

 private:
  struct ProcessTag {};
  explicit TelemetryContext(ProcessTag);

  std::unique_ptr<MetricsRegistry> owned_metrics_;  // null for Process()
  std::unique_ptr<Tracer> owned_tracer_;
  std::unique_ptr<EventLog> owned_events_;
  MetricsRegistry* metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  EventLog* events_ = nullptr;
  MemTracker* memtrack_ = nullptr;
};

// The event log ambient writers append to. The process context's log is a
// real (initially empty) EventLog, so logging works outside any scope too.
EventLog& CurrentEventLog();

// RAII: installs `context` as the calling thread's ambient telemetry for
// the scope's lifetime and restores the previous bindings on exit. Scopes
// nest; the innermost wins.
class TelemetryScope {
 public:
  explicit TelemetryScope(TelemetryContext& context);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  AmbientTelemetry saved_;
};

}  // namespace fastt
