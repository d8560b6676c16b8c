#ifndef RESCQ_UTIL_CLOCK_H_
#define RESCQ_UTIL_CLOCK_H_

// Monotonic clock helpers shared by the timed paths (solve, epoch,
// request and load timings) and the serving layer's deadlines.

#include <chrono>
#include <cstdint>

namespace rescq {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`, fractional.
inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Monotonic whole milliseconds (steady_clock, so wall-clock
/// adjustments cannot move a deadline or make a hot session look idle).
inline int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace rescq

#endif  // RESCQ_UTIL_CLOCK_H_
