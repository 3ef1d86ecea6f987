#ifndef FNPROXY_UTIL_CLOCK_H_
#define FNPROXY_UTIL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace fnproxy::util {

/// A virtual clock measured in simulated microseconds. All response-time
/// experiments run against this clock: network transfers, server processing,
/// and proxy processing advance it by modeled costs, which makes experiment
/// results deterministic and independent of host hardware.
///
/// The counter is atomic so that concurrent pipelines (thread-pool request
/// execution against one shared proxy) can charge costs from any thread.
/// Under concurrency the clock measures *total* modeled work, not a single
/// request's latency — per-request timing in threaded runs uses wall-clock
/// Stopwatches instead (see workload::RemoteBrowserEmulator).
///
/// Real-time pacing (opt-in): with `set_real_time_scale(s)` every Advance
/// additionally sleeps `micros * s` of real time on the calling thread.
/// Modeled waits (WAN transfers, server work, backoffs) then occupy real
/// time, so concurrent requests overlap in wall-clock exactly as they would
/// against a paced network — which is what makes throughput-vs-threads
/// measurable regardless of host core count. Pure virtual-time runs (scale
/// 0, the default) are unaffected.
class SimulatedClock {
 public:
  SimulatedClock() = default;

  /// Current virtual time in microseconds since experiment start.
  int64_t NowMicros() const { return now_micros_.load(std::memory_order_relaxed); }

  /// Advances the clock by `micros` (>= 0); with pacing enabled, also
  /// sleeps `micros * real_time_scale` of real time.
  void Advance(int64_t micros) {
    if (micros <= 0) return;
    now_micros_.fetch_add(micros, std::memory_order_relaxed);
    double scale = real_time_scale_.load(std::memory_order_relaxed);
    if (scale > 0.0) SleepMicros(static_cast<int64_t>(micros * scale));
  }

  /// Enables (scale > 0) or disables (0) real-time pacing. Configure before
  /// concurrent traffic starts.
  void set_real_time_scale(double scale) {
    real_time_scale_.store(scale, std::memory_order_relaxed);
  }
  double real_time_scale() const {
    return real_time_scale_.load(std::memory_order_relaxed);
  }

  /// Moves the clock backwards by `micros` (>= 0). Used to model a client
  /// aborting a wait at a timeout boundary: in this synchronous simulation
  /// the callee's work has already advanced the clock, but the aborting
  /// client observes only the time up to its timeout, so the channel rewinds
  /// the excess before reporting the attempt as timed out.
  void Rewind(int64_t micros) {
    if (micros > 0) now_micros_.fetch_sub(micros, std::memory_order_relaxed);
  }

  /// Resets to time zero.
  void Reset() { now_micros_.store(0, std::memory_order_relaxed); }

 private:
  static void SleepMicros(int64_t micros);

  std::atomic<int64_t> now_micros_{0};
  std::atomic<double> real_time_scale_{0.0};
};

/// Monotonic wall-clock stopwatch for measuring *real* elapsed time
/// (used by micro-benchmarks and the proxy's per-step instrumentation).
class Stopwatch {
 public:
  Stopwatch();
  /// Restarts the stopwatch.
  void Reset();
  /// Elapsed real time since construction/Reset, in microseconds.
  int64_t ElapsedMicros() const;

 private:
  int64_t start_ns_;
};

}  // namespace fnproxy::util

#endif  // FNPROXY_UTIL_CLOCK_H_
