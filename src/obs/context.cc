#include "obs/context.h"

namespace fastt {

TelemetryContext::TelemetryContext()
    : owned_metrics_(std::make_unique<MetricsRegistry>()),
      owned_tracer_(std::make_unique<Tracer>()),
      owned_events_(std::make_unique<EventLog>()),
      metrics_(owned_metrics_.get()),
      tracer_(owned_tracer_.get()),
      events_(owned_events_.get()),
      memtrack_(&MemTracker::Global()) {}

TelemetryContext::TelemetryContext(ProcessTag)
    : metrics_(&MetricsRegistry::Global()),
      tracer_(&Tracer::Global()),
      memtrack_(&MemTracker::Global()) {
  // The process-wide event log: created here (not a Global() on EventLog
  // itself) because only ambient resolution needs it.
  static EventLog* process_events = new EventLog();  // leaked: program scope
  events_ = process_events;
}

TelemetryContext::~TelemetryContext() = default;

TelemetryContext& TelemetryContext::Process() {
  static TelemetryContext* process =
      new TelemetryContext(ProcessTag{});  // leaked: outlives thread-locals
  return *process;
}

MetricsRegistry& CurrentMetrics() {
  MetricsRegistry* ambient = CurrentAmbientTelemetry().metrics;
  return ambient != nullptr ? *ambient : MetricsRegistry::Global();
}

EventLog& CurrentEventLog() {
  EventLog* ambient = CurrentAmbientTelemetry().events;
  return ambient != nullptr ? *ambient : TelemetryContext::Process().events();
}

TelemetryScope::TelemetryScope(TelemetryContext& context)
    : saved_(ExchangeAmbientTelemetry(AmbientTelemetry{
          &context.metrics(), &context.tracer(), &context.events(),
          &context.memtrack()})) {}

TelemetryScope::~TelemetryScope() { ExchangeAmbientTelemetry(saved_); }

}  // namespace fastt
