// The ambient telemetry slot: which telemetry sinks "the current thread" is
// writing into.
//
// Every observability facility in this repo (MetricsRegistry, Tracer,
// EventLog, MemTracker) started life as a process-global singleton. A
// long-running service handling concurrent placement requests needs each
// request's telemetry kept apart, so the singletons became *defaults*: the
// instrumentation macros resolve their sink through this thread-local slot
// first and fall back to the process-global instance when the slot is empty.
// TelemetryScope (obs/context.h) installs a TelemetryContext's sinks here,
// and ThreadPool::Run propagates the submitting thread's bindings to the
// workers executing its chunks — the same discipline MemTagScope uses for
// the ambient allocation tag.
//
// This header is dependency-free (only forward declarations; compiled into
// fastt_tracer) so both the tracer macros and the thread pool in fastt_util
// can consult the slot without a util <-> obs cycle.
#pragma once

namespace fastt {

class EventLog;
class MemTracker;
class MetricsRegistry;
class Tracer;

// The full set of thread-local bindings. All-null means "no scope
// installed": callers fall back to the process-global facilities.
struct AmbientTelemetry {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  EventLog* events = nullptr;
  MemTracker* memtrack = nullptr;
};

// The calling thread's current bindings. Never dereference stale pointers
// out of this struct beyond the installing scope's lifetime.
const AmbientTelemetry& CurrentAmbientTelemetry();

// Installs `bundle` on the calling thread and returns the previous bindings
// so the caller can restore them (TelemetryScope and the pool's task
// wrapper both do exchange/restore pairs).
AmbientTelemetry ExchangeAmbientTelemetry(const AmbientTelemetry& bundle);

}  // namespace fastt
