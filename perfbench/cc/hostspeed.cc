#include "hostspeed.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {
namespace {

constexpr int kRounds = 3;
constexpr int kUpdates = 150000;
constexpr int kKeys = 50000;

// Keeps the kernel's result live.
volatile uint64_t g_sink = 0;

}  // namespace

double TimeReferenceKernel() {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t x = 1;
  for (int round = 0; round < kRounds; ++round) {
    std::map<std::string, int> counts;
    for (int i = 0; i < kUpdates; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      counts[std::to_string((x >> 17) % kKeys)] += i;
    }
    g_sink = g_sink + counts.size();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
