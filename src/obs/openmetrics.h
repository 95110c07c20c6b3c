// OpenMetrics / Prometheus text exposition of a MetricsRegistry — the wire
// format a scraper (or the planned `fastt serve` /metrics endpoint) reads.
//
// Mapping, per the OpenMetrics text format:
//   * counters   -> `# TYPE <name> counter` with one `<name>_total` sample
//   * gauges     -> `# TYPE <name> gauge`
//   * timers     -> `# TYPE <name> summary` with `<name>_count` and
//                   `<name>_sum` (seconds)
//   * histograms -> `# TYPE <name> histogram` with cumulative `le` buckets
//                   (only the registry's non-empty buckets, plus the
//                   mandatory `le="+Inf"`), `<name>_sum` and `<name>_count`
// The exposition ends with the required `# EOF` line. Registry names like
// "dpos/list_schedule" are sanitized to the metric-name charset and
// prefixed: "fastt_dpos_list_schedule".
#pragma once

#include <string>

namespace fastt {

class MetricsRegistry;

// "fastt_" + `name` with every character outside [a-zA-Z0-9_:] replaced by
// '_' (exposed for tests).
std::string OpenMetricsName(const std::string& name);

// The full exposition for `registry`, terminated by "# EOF\n".
std::string OpenMetricsText(const MetricsRegistry& registry);

// Writes OpenMetricsText to `path`. Returns false on I/O failure.
bool WriteOpenMetrics(const std::string& path,
                      const MetricsRegistry& registry);

}  // namespace fastt
