#ifndef FNPROXY_OBS_METRICS_H_
#define FNPROXY_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fnproxy::obs {

/// Label set attached to one instrument, e.g. {{"phase", "local_eval"}}.
/// Instruments sharing a family name but differing in labels form one
/// Prometheus metric family; labels are rendered in registration order.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter. Increment is one relaxed atomic add —
/// safe and cheap from any number of threads.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up or down (cache bytes, breaker state, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-scale latency histogram over microsecond durations.
///
/// Bucket upper bounds are the powers of two 1, 2, 4, ..., 2^29 µs (~537 s)
/// plus a final +Inf overflow bucket: every Observe is a bit_width plus one
/// relaxed add, no locks, no allocation. The log-2 scale keeps relative
/// quantile error under 2x across nine decades, which is the right trade for
/// a proxy whose phases span sub-microsecond merges to multi-second WAN
/// round trips with retries. The top finite bound must comfortably exceed
/// the slowest modeled origin round trip (a large response over the ~6 KB/s
/// WAN link runs to tens of seconds), or phase_origin_roundtrip tails
/// collapse into the overflow bucket and p95/p99 read "off the scale"
/// instead of a number.
class Histogram {
 public:
  /// Number of finite buckets; bucket i covers (2^(i-1), 2^i] µs.
  static constexpr size_t kNumFiniteBuckets = 30;
  /// Total buckets including the +Inf overflow bucket.
  static constexpr size_t kNumBuckets = kNumFiniteBuckets + 1;

  /// Upper bound of finite bucket `i` in microseconds (1 << i).
  static int64_t BucketUpperBoundMicros(size_t i) {
    return int64_t{1} << i;
  }

  /// Index of the bucket that counts `micros` (values <= 1 land in bucket 0;
  /// values beyond the largest finite bound land in the overflow bucket).
  static size_t BucketIndex(int64_t micros) {
    if (micros <= 1) return 0;
    size_t index = static_cast<size_t>(
        std::bit_width(static_cast<uint64_t>(micros - 1)));
    return index < kNumFiniteBuckets ? index : kNumFiniteBuckets;
  }

  void Observe(int64_t micros) {
    if (micros < 0) micros = 0;
    buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  }

  /// A plain copy of the histogram state, internally consistent enough for
  /// reporting (single relaxed pass; concurrent Observes may straddle it).
  struct Snapshot {
    uint64_t count = 0;
    int64_t sum_micros = 0;
    /// Per-bucket (non-cumulative) counts; index kNumFiniteBuckets = +Inf.
    std::array<uint64_t, kNumBuckets> buckets{};

    /// Nearest-rank quantile resolved to a bucket upper bound: the smallest
    /// bound whose cumulative count reaches rank ceil(q * count). Ranks in
    /// the overflow bucket report one doubling past the largest finite
    /// bound (2^30 µs) — "off the scale", not a measured value. 0 if empty.
    int64_t QuantileUpperBoundMicros(double q) const;
  };

  Snapshot snapshot() const {
    Snapshot snap;
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum_micros = sum_micros_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kNumBuckets; ++i) {
      snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return snap;
  }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_micros_{0};
};

/// One histogram of a registry export: family name, labels, frozen state.
struct HistogramExport {
  std::string name;
  Labels labels;
  Histogram::Snapshot snapshot;
};

/// Per-phase latency summary derived from one labelled histogram family —
/// the shape the bench harness and run_trace print and record as JSONL.
struct PhaseBreakdown {
  std::string phase;
  uint64_t count = 0;
  int64_t total_micros = 0;
  int64_t p50_micros = 0;
  int64_t p95_micros = 0;
  int64_t p99_micros = 0;
};

/// Registry of named instruments with Prometheus text-format rendering.
///
/// Registration returns stable pointers (instruments are never moved or
/// destroyed while the registry lives), so hot paths hold raw pointers and
/// never touch the registry lock. Registration and rendering are
/// mutex-guarded and may race safely; typical use registers everything at
/// construction time.
///
/// Callbacks cover instruments whose source of truth lives elsewhere
/// (channel retry counters, cache byte accounting): the function is invoked
/// at render time, so /metrics and the owning subsystem can never disagree.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* AddCounter(std::string name, std::string help, Labels labels = {});
  Gauge* AddGauge(std::string name, std::string help, Labels labels = {});
  Histogram* AddHistogram(std::string name, std::string help,
                          Labels labels = {});
  /// Registers a render-time callback exported as `counter` (monotonic) or,
  /// when `is_counter` is false, as a gauge.
  void AddCallback(std::string name, std::string help, bool is_counter,
                   Labels labels, std::function<double()> callback);

  /// Renders every instrument in Prometheus text exposition format
  /// (version 0.0.4): one `# HELP` / `# TYPE` header per family, then one
  /// sample line per series (histograms expand to _bucket/_sum/_count).
  std::string RenderPrometheus() const EXCLUDES(mu_);

  /// Every counter (not callbacks) in registration order, under the series
  /// name RenderPrometheus gives it: the family name and its labels, e.g.
  /// `fnproxy_cache_outcomes_total{outcome="exact_hit"}`.
  std::vector<std::pair<std::string, Counter*>> CounterSeries() const
      EXCLUDES(mu_);

  /// Frozen copies of every histogram whose family name equals `name`
  /// (empty = all histograms), in registration order.
  std::vector<HistogramExport> ExportHistograms(
      std::string_view name = {}) const EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };

  struct Instrument {
    Kind kind;
    std::string name;
    std::string help;
    Labels labels;
    bool callback_is_counter = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
  };

  Instrument* Add(Instrument instrument) EXCLUDES(mu_);

  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<Instrument>> instruments_ GUARDED_BY(mu_);
};

/// Summarizes a labelled histogram family into per-phase rows: one row per
/// instrument, named by its `label_key` value (the family name when the
/// label is absent). The standard reduction for
/// `fnproxy_phase_duration_micros{phase=...}`.
std::vector<PhaseBreakdown> PhaseBreakdownFromRegistry(
    const MetricsRegistry& registry, std::string_view family,
    std::string_view label_key = "phase");

}  // namespace fnproxy::obs

#endif  // FNPROXY_OBS_METRICS_H_
