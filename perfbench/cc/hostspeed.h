// Host-speed reference for the wall-time metrics (see NOTES.md).
//
// The benchmark runs on a few cores of a shared host whose speed moves by
// tens of percent within a minute, as neighbours load its caches and memory.
// A fixed piece of work owned by the benchmark, timed between requests,
// slows down with the host: its time tracks the request walls. The
// wall-time metrics are scaled by it to a reference host, on which the
// kernel takes kReferenceKernelS.
#pragma once

namespace perfbench {

// The kernel's time on the reference host: a quiet 4-vCPU 2.1 GHz Xeon VM.
inline constexpr double kReferenceKernelS = 0.1;

// Runs the reference kernel once and returns its wall time in seconds:
// three rounds of 150,000 updates of a fresh string-keyed std::map, which
// allocate, format and compare like the program's own graph code. Uses no
// fastt code, so a change to the program cannot move it.
double TimeReferenceKernel();

// Factor that scales a wall time measured while the kernel took `kernel_s`
// to the reference host.
inline double ReferenceScale(double kernel_s) {
  return kReferenceKernelS / kernel_s;
}

}  // namespace perfbench
