// Process-wide metrics: named counters, gauges, accumulating timers and
// log-bucketed histograms, exported as JSON.
//
// Everything FastT does — DPOS invocations, split probes, simulated runs,
// rollbacks — funnels through a handful of hot loops; the registry makes
// those loops observable without plumbing a context object through every
// call site. All operations are thread-safe (searchers and parallel probes
// bump counters concurrently). Names are looked up by std::string_view and
// inserted only when new, so recording under a name that already exists
// allocates nothing; Reset() zeroes values in place rather than erasing
// nodes, so recording after a Reset allocates nothing either.
//
// Timers answer "how much, in total"; histograms answer "how is it
// distributed" (p50/p90/p99) — use a histogram where a mean hides the story,
// such as allocation sizes.
//
// A region is timed one way: FASTT_TRACE_SPAN (below), which adds the
// scope's wall time to the timer of the same name and, when tracing is on,
// also records a span in the tracer's ring.
//
// Typical use:
//   MetricsRegistry::Global().AddCounter("dpos/invocations");
//   { FASTT_TRACE_SPAN("dpos/total"); ... }
//   WriteMetricsJson("out.json", MetricsRegistry::Global());
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/tracer.h"
#include "util/memtrack.h"
#include "util/sync.h"

namespace fastt {

class EventLog;
struct JsonValue;

// ---- Histogram ------------------------------------------------------------

// Log2-bucketed distribution. Bucket 0 holds values <= 2^kHistMinExp;
// bucket i (0 < i < kHistBuckets-1) holds (2^(kHistMinExp+i-1),
// 2^(kHistMinExp+i)]; the last bucket is overflow. The range spans 2^-30
// (~1 ns latencies) through 2^48 (~256 TiB allocation sizes) so one scheme
// serves both uses.
inline constexpr int kHistMinExp = -30;
inline constexpr int kHistMaxExp = 48;
inline constexpr size_t kHistBuckets =
    static_cast<size_t>(kHistMaxExp - kHistMinExp) + 2;

// Bucket index for a value (pure; exact at power-of-two boundaries).
size_t HistogramBucket(double value);
// Inclusive upper bound of bucket `i` (+inf for the overflow bucket).
double HistogramBucketUpper(size_t i);

struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;
  std::vector<int64_t> buckets;  // kHistBuckets entries (empty when count==0)

  void Record(double value);
  // Pointwise sum of two histograms (counts add, min/max combine).
  void Merge(const HistogramSnapshot& other);

  double mean() const { return count > 0 ? sum / double(count) : 0.0; }
  // Quantile estimate with linear interpolation inside the bucket, clamped
  // to [min, max]; monotone in q. q in [0, 1].
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }

  // {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,
  //  "p99":..,"buckets":[{"i":idx,"le":upper,"n":count},...]} — only
  // non-empty buckets are listed; `le` is null for the overflow bucket.
  std::string ToJson() const;
};

// Rebuilds a snapshot from its ToJson DOM. False on malformed input.
bool HistogramFromJson(const JsonValue& v, HistogramSnapshot* out);

// ---- Registry -------------------------------------------------------------

class MetricsRegistry {
 public:
  // The process-wide registry: the sink for instrumented library code when
  // no ambient TelemetryContext is installed (see CurrentMetrics below).
  // Separate instances can be created for tests and contexts.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ---- Counters (monotonic int64) ----------------------------------------
  void AddCounter(std::string_view name, int64_t delta = 1);
  int64_t counter(std::string_view name) const;  // 0 if absent

  // ---- Gauges (last-written double) --------------------------------------
  void SetGauge(std::string_view name, double value);
  double gauge(std::string_view name) const;  // 0 if absent

  // ---- Timers (accumulated seconds + call count) -------------------------
  void RecordTimer(std::string_view name, double seconds);
  double timer_total_s(std::string_view name) const;
  int64_t timer_count(std::string_view name) const;

  // ---- Histograms (log2 buckets, see HistogramSnapshot) ------------------
  void RecordHistogram(std::string_view name, double value);
  // Replaces the stored histogram wholesale — for republished snapshots
  // (PublishMemMetrics), the histogram analogue of SetGauge.
  void SetHistogram(std::string_view name, const HistogramSnapshot& snap);
  HistogramSnapshot histogram(std::string_view name) const;  // empty if absent

  // Zeroes every metric IN PLACE: names survive, values reset, so the next
  // record under a known name allocates nothing.
  void Reset();

  // Point-in-time copy of everything, for readers (tests, the perf bench)
  // that need structured values rather than the JSON string.
  struct TimerSnapshot {
    int64_t count = 0;
    double total_s = 0.0;
  };
  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, TimerSnapshot> timers;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Snapshot TakeSnapshot() const;

  // {"counters": {...}, "gauges": {...},
  //  "timers": {"name": {"count": n, "total_s": t, "mean_s": m}},
  //  "histograms": {"name": {...HistogramSnapshot::ToJson...}}}
  std::string ToJson() const;

 private:
  struct Timer {
    int64_t count = 0;
    double total_s = 0.0;
  };
  // std::map: deterministic export order and node stability under insert.
  // std::less<> makes lookups by string_view transparent, so recording
  // under an existing name builds no std::string. Node storage is charged
  // to MemTag::kObs explicitly (not the ambient tag: registries are
  // constructed and first-touched under arbitrary scopes), so memtrack can
  // assert that spans on known names perform no obs-tagged allocation.
  template <typename V>
  using TaggedMap = std::map<std::string, V, std::less<>,
                             TaggedAlloc<std::pair<const std::string, V>>>;
  template <typename V>
  static TaggedMap<V> MakeMap() {
    return TaggedMap<V>(
        TaggedAlloc<std::pair<const std::string, V>>(MemTag::kObs));
  }

  mutable Mutex mu_;
  TaggedMap<int64_t> counters_ FASTT_GUARDED_BY(mu_) = MakeMap<int64_t>();
  TaggedMap<double> gauges_ FASTT_GUARDED_BY(mu_) = MakeMap<double>();
  TaggedMap<Timer> timers_ FASTT_GUARDED_BY(mu_) = MakeMap<Timer>();
  TaggedMap<HistogramSnapshot> histograms_ FASTT_GUARDED_BY(mu_) =
      MakeMap<HistogramSnapshot>();
};

// The registry the instrumentation macros write to: the ambient
// TelemetryContext's registry if a TelemetryScope is installed on this
// thread, else the process global. Defined in obs/context.cc.
MetricsRegistry& CurrentMetrics();

// RAII region timer behind FASTT_TRACE_SPAN: adds the scope's wall time to
// the timer `name` in the ambient registry, tracing on or off, and holds a
// TraceScope so the region is also a ring span when tracing is on. The
// registry is resolved and pinned at entry, like the tracer. `name` must
// be a string literal (the ring stores the pointer).
class TimedScope {
 public:
  explicit TimedScope(const char* name)
      : name_(name), registry_(CurrentMetrics()), trace_(name) {}
  ~TimedScope() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.RecordTimer(name_,
                          std::chrono::duration<double>(elapsed).count());
  }
  TimedScope(const TimedScope&) = delete;
  TimedScope& operator=(const TimedScope&) = delete;

 private:
  const char* name_;
  MetricsRegistry& registry_;
  TraceScope trace_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Full metrics document: the registry plus (optionally) a structured event
// log under "events" — what `fastt run --metrics out.json` writes.
std::string MetricsToJson(const MetricsRegistry& registry,
                          const EventLog* events = nullptr);

// Writes MetricsToJson to `path`. Returns false on I/O failure.
bool WriteMetricsJson(const std::string& path, const MetricsRegistry& registry,
                      const EventLog* events = nullptr);

// Copies the search thread-pool's occupancy counters (SearchPoolStats) into
// `registry` as gauges: pool/jobs, pool/batches, pool/tasks,
// pool/queue_wait_total_s, pool/queue_wait_mean_s and pool/worker<i>/tasks.
// Gauges, not counters, so republishing before each export never
// double-counts. Call right before exporting.
void PublishSearchPoolMetrics(MetricsRegistry& registry);

// Copies the MemTracker's tagged heap accounting into `registry`: per-tag
// gauges mem/<tag>/{live_bytes,peak_bytes,allocs,frees,alloc_bytes}, the
// mem/total/* aggregates, and one mem/<tag>/alloc_size_bytes histogram per
// active tag. Gauges/SetHistogram (overwrite), so republishing is safe.
// No-op when the tracker never recorded anything.
void PublishMemMetrics(MetricsRegistry& registry);

}  // namespace fastt

#define FASTT_TRACE_CONCAT2(a, b) a##b
#define FASTT_TRACE_CONCAT(a, b) FASTT_TRACE_CONCAT2(a, b)
// Times the enclosing scope as the region `name` (string literal): one
// timer record in the ambient registry, plus a ring span when tracing is on.
#define FASTT_TRACE_SPAN(name)                              \
  ::fastt::TimedScope FASTT_TRACE_CONCAT(fastt_trace_scope_, \
                                         __LINE__)(name)
