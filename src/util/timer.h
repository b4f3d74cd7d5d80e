// Wall-clock timing and deadline helpers.
#ifndef TDLIB_UTIL_TIMER_H_
#define TDLIB_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

#include "util/fault.h"

namespace tdlib {

/// Nanosecond-tick stopwatch on the steady clock. The single timing
/// primitive of the library: Timer, Deadline, trace spans (util/trace_span)
/// and the phase instrumentation all read the clock through StopWatch::Now()
/// instead of ad-hoc Clock::now() pairs, so "what clock and what unit" is
/// decided in exactly one place.
class StopWatch {
 public:
  StopWatch() : start_(Now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Now(); }

  /// Nanoseconds on the steady clock since an arbitrary fixed epoch.
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Elapsed ticks since construction/Reset.
  std::int64_t ElapsedNanos() const { return Now() - start_; }
  std::int64_t ElapsedMicros() const { return ElapsedNanos() / 1000; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  /// The tick the stopwatch was started at (for span records).
  std::int64_t start_nanos() const { return start_; }

 private:
  std::int64_t start_;
};

/// RAII accumulator: adds the scope's elapsed seconds to *sink on
/// destruction. The unit of the chase's phase breakdown and of bench
/// sections that used to hand-roll Clock::now() pairs.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() { *sink_ += watch_.ElapsedSeconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  StopWatch watch_;
};

/// Monotonic stopwatch (seconds/micros view over StopWatch).
class Timer {
 public:
  Timer() = default;

  /// Restarts the stopwatch.
  void Reset() { watch_.Reset(); }

  /// Elapsed time since construction/Reset, in seconds.
  double ElapsedSeconds() const { return watch_.ElapsedSeconds(); }

  /// Elapsed time in microseconds.
  std::int64_t ElapsedMicros() const { return watch_.ElapsedMicros(); }

 private:
  StopWatch watch_;
};

/// A soft deadline: Expired() becomes true once the budget elapses.
/// A non-positive budget means "no deadline".
///
/// Thread-safe for concurrent Expired() calls: both members are immutable
/// after construction and each call reads the monotonic clock afresh. The
/// chase shares one Deadline across all of a run's searches.
class Deadline {
 public:
  explicit Deadline(double budget_seconds) : budget_(budget_seconds) {}

  bool Expired() const {
    // FaultSite::kDeadline forces expiry mid-search — even on a deadline-
    // free run — so the kTimeout paths are testable without wall-clock
    // races. Off (the default), the gate is one relaxed load.
    if (FaultInjectionEnabled() && ShouldInject(FaultSite::kDeadline)) {
      return true;
    }
    return budget_ > 0 && timer_.ElapsedSeconds() >= budget_;
  }

 private:
  double budget_;
  Timer timer_;
};

}  // namespace tdlib

#endif  // TDLIB_UTIL_TIMER_H_
