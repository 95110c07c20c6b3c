#include "layers.h"

#include <algorithm>
#include <utility>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> tls_open;

// "<layer>" prefix of a span name.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent >= 0 ? parent
                : tls_open.empty() ? -1
                                   : tls_open.back();
  span.start_s = Now();
  std::lock_guard<std::mutex> lock(mu_);
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  tls_open.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  const double now = Now();
  if (!tls_open.empty() && tls_open.back() == index) tls_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_s = now;
}

void SpanRecorder::SetNested(int index, const std::string& name,
                             double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.nested_name = name;
  span.nested_s = seconds;
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

Ledger ComputeLedger(const std::vector<Span>& spans) {
  Ledger ledger;
  std::vector<std::vector<int>> children(spans.size());
  int root = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0)
      children[static_cast<size_t>(parent)].push_back(static_cast<int>(i));
    else if (root < 0)
      root = static_cast<int>(i);
  }
  if (root < 0) return ledger;

  double root_self = 0.0;
  double trace_self = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) {
      const Span& cs = spans[static_cast<size_t>(c)];
      iv.emplace_back(std::max(cs.start_s, s.start_s),
                      std::min(cs.end_s, s.end_s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double self =
        std::max(0.0, (s.end_s - s.start_s) - covered - s.nested_s);
    ledger.self_by_name[s.name] += self;
    ledger.self_by_layer[LayerOf(s.name)] += self;
    if (s.nested_s > 0.0) {
      ledger.self_by_name[s.nested_name] += s.nested_s;
      ledger.self_by_layer[LayerOf(s.nested_name)] += s.nested_s;
    }
    if (static_cast<int>(i) == root)
      root_self = self;
    else if (LayerOf(s.name) == "trace")
      trace_self += self;
  }
  const Span& r = spans[static_cast<size_t>(root)];
  ledger.wall_s = r.end_s - r.start_s;
  ledger.trace_s = trace_self;
  ledger.covered_s = std::max(0.0, ledger.wall_s - root_self - trace_self);
  return ledger;
}

}  // namespace perfbench
