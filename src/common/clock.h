// Host wall-clock, never simulated time: the one helper behind every
// per-phase timing the library reports (CompileStats, Lookup::prepare_us,
// analysis_us, the service's live-mode clock).
#pragma once

#include <chrono>

namespace resccl {

// Microseconds of host wall-clock elapsed since `start`.
[[nodiscard]] inline double ElapsedUs(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace resccl
