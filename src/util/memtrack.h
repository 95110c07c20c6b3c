// Tagged host-heap accounting: where the process's own bytes and
// allocations go, broken down by subsystem.
//
// The simulator accounts *simulated device* memory; nothing accounted the
// *host* heap the search itself burns — the Graph's pointer-heavy storage,
// the simulator's event churn, OS-DPOS trial copies, cost-table snapshots.
// This facility is the yardstick for the planned data-layout refactor
// (ROADMAP: SoA/CSR graphs, pooled events): it must show the rewrite wins
// and then gate regressions in `fastt bench-diff`.
//
// Three pieces:
//   * MemTracker — per-tag atomic counters (live/peak bytes, alloc/free
//     counts, log2 size-class histogram). Disabled by default; when
//     disabled every record call is one relaxed load and a branch.
//   * TaggedAlloc<T> — an STL allocator adaptor that charges a MemTag.
//     The tag is fixed at allocator construction (explicitly, or from the
//     ambient MemTagScope) and travels with the container's memory — all
//     propagate_on_container_* traits are true — so every deallocation is
//     charged to the tag that allocated it and per-tag live bytes are
//     exact.
//   * MemTagScope — RAII ambient tag for the current thread. A tagged
//     container default-constructed inside a scope inherits the scope's
//     tag; subsystem entry points (Dpos, Simulate) open a scope so their
//     scratch containers attribute without per-declaration ceremony.
//
// Typical use:
//   MemTracker::Global().Enable();
//   { MemTagScope scope(MemTag::kDpos);
//     TaggedVector<double> scratch;   // charged to dpos
//     ... }
//   const MemTagStats dpos = MemTracker::Global().stats(MemTag::kDpos);
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace fastt {

// Subsystem tags. Order is the report order; kCount is a sentinel.
enum class MemTag : uint8_t {
  kUntagged = 0,  // tagged allocation outside any scope
  kGraph,         // Graph storage: ops, edges, adjacency, name index
  kSimEvents,     // Simulate's event + ready queues
  kCost,          // cost-table snapshots
  kDpos,          // DPOS / OS-DPOS scratch (queues, score tables)
  kObs,           // observability: event log lines, provenance
  kCount,
};

inline constexpr size_t kNumMemTags = static_cast<size_t>(MemTag::kCount);

// Stable human-readable name ("graph", "sim/events", ...).
const char* MemTagName(MemTag tag);

// Allocation sizes are binned by log2: class k counts allocations of
// (2^(k-1), 2^k] bytes (class 0: exactly 0..1 bytes). 48 classes cover
// every size up to 128 TiB; larger allocations land in the last class.
inline constexpr size_t kMemSizeClasses = 48;

struct MemTagStats {
  int64_t live_bytes = 0;   // currently allocated and not yet freed
  int64_t peak_bytes = 0;   // high-water mark of live_bytes
  int64_t allocs = 0;       // allocation calls
  int64_t frees = 0;        // deallocation calls
  int64_t alloc_bytes = 0;  // total bytes ever allocated
  int64_t size_class_allocs[kMemSizeClasses] = {0};
};

class MemTracker {
 public:
  // Process-wide instance used by TaggedAlloc and the instrumented code.
  static MemTracker& Global();

  MemTracker() = default;
  MemTracker(const MemTracker&) = delete;
  MemTracker& operator=(const MemTracker&) = delete;

  // Zeroes every counter and starts recording. Live/peak figures are exact
  // for memory whose whole lifetime falls inside the enabled window; frees
  // of pre-enable memory show up as negative live drift (documented, not
  // clamped — the alloc/free counts stay exact either way).
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Zeroes everything without changing the enabled flag.
  void Reset();
  // Collapses every tag's peak to its current live value — memstat uses
  // this to measure per-phase high-water marks.
  void ResetPeaks();

  // Hot path. No-ops when disabled.
  void RecordAlloc(MemTag tag, size_t bytes) {
    if (!enabled()) return;
    RecordAllocSlow(tag, bytes);
  }
  void RecordFree(MemTag tag, size_t bytes) {
    if (!enabled()) return;
    RecordFreeSlow(tag, bytes);
  }

  // Point-in-time copy of one tag / all tags (relaxed reads; exact once
  // the instrumented code is quiescent).
  MemTagStats stats(MemTag tag) const;
  std::vector<MemTagStats> Snapshot() const;  // indexed by MemTag value

  // Aggregates over all tags. total_peak_bytes is the high-water mark of
  // the *sum* of live bytes (not the sum of per-tag peaks).
  int64_t total_live_bytes() const;
  int64_t total_peak_bytes() const;
  int64_t total_allocs() const;

 private:
  // One cache line per tag so concurrent subsystems don't false-share.
  struct alignas(64) TagCell {
    std::atomic<int64_t> live{0};
    std::atomic<int64_t> peak{0};
    std::atomic<int64_t> allocs{0};
    std::atomic<int64_t> frees{0};
    std::atomic<int64_t> alloc_bytes{0};
    std::atomic<int64_t> size_class[kMemSizeClasses] = {};
  };

  void RecordAllocSlow(MemTag tag, size_t bytes);
  void RecordFreeSlow(MemTag tag, size_t bytes);

  std::atomic<bool> enabled_{false};
  TagCell cells_[kNumMemTags];
  std::atomic<int64_t> total_live_{0};
  std::atomic<int64_t> total_peak_{0};
};

// ---- Ambient tag (thread-local) -------------------------------------------

// The calling thread's current tag; kUntagged outside any scope.
MemTag CurrentMemTag();

// RAII: sets the thread's ambient tag for the scope's lifetime.
class MemTagScope {
 public:
  explicit MemTagScope(MemTag tag);
  ~MemTagScope();
  MemTagScope(const MemTagScope&) = delete;
  MemTagScope& operator=(const MemTagScope&) = delete;

 private:
  MemTag prev_;
};

// ---- STL allocator adaptor ------------------------------------------------

// Charges the global MemTracker under a tag fixed at construction. All
// propagate traits are true, so the allocator (and its tag) follows the
// memory through container copy/move/swap: a buffer is always freed under
// the tag that allocated it.
template <typename T>
class TaggedAlloc {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  TaggedAlloc() : tag_(CurrentMemTag()) {}
  explicit TaggedAlloc(MemTag tag) : tag_(tag) {}
  template <typename U>
  TaggedAlloc(const TaggedAlloc<U>& other) : tag_(other.tag()) {}  // NOLINT

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    MemTracker::Global().RecordAlloc(tag_, bytes);
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, size_t n) noexcept {
    MemTracker::Global().RecordFree(tag_, n * sizeof(T));
    ::operator delete(p);
  }

  MemTag tag() const { return tag_; }

 private:
  MemTag tag_;
};

template <typename T, typename U>
bool operator==(const TaggedAlloc<T>& a, const TaggedAlloc<U>& b) {
  return a.tag() == b.tag();
}
template <typename T, typename U>
bool operator!=(const TaggedAlloc<T>& a, const TaggedAlloc<U>& b) {
  return !(a == b);
}

// Shorthand for the common case.
template <typename T>
using TaggedVector = std::vector<T, TaggedAlloc<T>>;

// ---- Trace integration ----------------------------------------------------

// Emits one live-bytes counter sample per active tag (plus the total) into
// the search flight recorder, as "mem/<tag>/live_bytes" tracks. No-op
// unless both the tracker and the tracer are enabled; subsystem entry/exit
// points call this so `fastt search-profile` shows memory next to time.
void EmitMemTraceCounters();

}  // namespace fastt
