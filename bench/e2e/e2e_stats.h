// Arithmetic behind bench_e2e's metrics: interval cover (what part of a
// request's wall time an origin-app call or a child span accounts for),
// span self time, nearest-rank percentiles, quartiles, the attribution
// share, the seeds of a run's traces and the per-request fastest replay.
// Kept apart from the pipeline code so bench_e2e_test.cc can pin it down on
// hand-built inputs.

#ifndef FNPROXY_BENCH_E2E_E2E_STATS_H_
#define FNPROXY_BENCH_E2E_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fnproxy::e2e {

/// A half-open wall-clock interval [start, end), in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Sorts `intervals` and merges the ones that overlap or touch, giving a
/// disjoint list in ascending order. Empty intervals are dropped.
inline std::vector<Interval> MergeIntervals(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> merged;
  for (const Interval& in : intervals) {
    if (in.end <= in.start) continue;
    if (!merged.empty() && in.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, in.end);
    } else {
      merged.push_back(in);
    }
  }
  return merged;
}

/// Length of `window` covered by `merged`, which must come from
/// MergeIntervals (disjoint, ascending).
inline int64_t CoveredLength(Interval window,
                             const std::vector<Interval>& merged) {
  // First interval that ends after the window starts.
  auto it = std::upper_bound(
      merged.begin(), merged.end(), window.start,
      [](int64_t t, const Interval& in) { return t < in.end; });
  int64_t covered = 0;
  for (; it != merged.end() && it->start < window.end; ++it) {
    covered +=
        std::min(it->end, window.end) - std::max(it->start, window.start);
  }
  return covered;
}

/// Length of `window` that none of `intervals` (any order, may overlap)
/// covers.
inline int64_t UncoveredLength(Interval window,
                               std::vector<Interval> intervals) {
  return (window.end - window.start) -
         CoveredLength(window, MergeIntervals(std::move(intervals)));
}

/// The origin-app calls charged to `window`, a request's wall interval or
/// one of its spans: the parts of the calls made on the request's own
/// thread (`own`, from MergeIntervals) that overlap it, and the calls made
/// on other threads (`elsewhere`, sorted by start) that lie wholly inside
/// it. A call on the proxy's async origin dispatcher lies inside the
/// request that issued it, because the request waits for its answer; a
/// request that merely overlaps it is not charged.
inline std::vector<Interval> ChargedCalls(
    Interval window, const std::vector<Interval>& own,
    const std::vector<Interval>& elsewhere) {
  std::vector<Interval> charged;
  auto it = std::upper_bound(
      own.begin(), own.end(), window.start,
      [](int64_t t, const Interval& in) { return t < in.end; });
  for (; it != own.end() && it->start < window.end; ++it) {
    charged.push_back(
        {std::max(it->start, window.start), std::min(it->end, window.end)});
  }
  auto call = std::lower_bound(
      elsewhere.begin(), elsewhere.end(), window.start,
      [](const Interval& in, int64_t t) { return in.start < t; });
  for (; call != elsewhere.end() && call->start < window.end; ++call) {
    if (call->end <= window.end) charged.push_back(*call);
  }
  return charged;
}

/// One span of a request's span tree: its parent's index (-1 for the root)
/// and its wall interval.
struct SpanInterval {
  int parent = -1;
  Interval wall;
};

/// Self time of every span: its length minus the part of it that its
/// children cover (children may overlap each other).
inline std::vector<int64_t> SelfTimes(const std::vector<SpanInterval>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const SpanInterval& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].push_back(span.wall);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = UncoveredLength(spans[i].wall, std::move(children[i]));
  }
  return self;
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the smallest
/// sample such that at least ceil(q * n) samples are at or below it. q is
/// in (0, 1].
inline double NearestRank(const std::vector<double>& sorted, double q) {
  // The epsilon keeps q * n that is an integer in exact arithmetic (e.g.
  // 0.99 * 100) from rounding up to the next rank.
  double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Median and quartiles by the method of Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the records agree with compare.py.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  const size_t n = values.size();
  if (n == 0) return q;
  std::sort(values.begin(), values.end());
  if (n == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const size_t m = n + 1;
  double cut[3];
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
    double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  return q;
}

/// Share of the client-observed wall time that the proxy accounts for: its
/// request span trees plus the tier sweeps it runs inline, before a
/// request's span tree starts.
inline double AttributedShare(int64_t request_tree_ns, int64_t sweep_ns,
                              int64_t client_ns) {
  if (client_ns <= 0) return 0.0;
  return static_cast<double>(request_tree_ns + sweep_ns) /
         static_cast<double>(client_ns);
}

/// Seed of a run's trace `j`. Trace 0 takes the run's seed itself (seed
/// 2004 gives the paper trace); the others take SplitMix64 outputs, so runs
/// with nearby seeds share no trace.
inline uint64_t TraceSeed(uint64_t seed, uint64_t j) {
  if (j == 0) return seed;
  uint64_t z = seed + j * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Element-wise minimum over replays of one trace: for every request, the
/// fastest of its replays. Interference from other work on the host only
/// ever adds time, so this is the steadiest estimate of the program's own
/// cost per request. Every replay must hold one value per request.
inline std::vector<double> FastestPerRequest(
    const std::vector<std::vector<double>>& replays) {
  if (replays.empty()) return {};
  std::vector<double> fastest = replays.front();
  for (const std::vector<double>& replay : replays) {
    for (size_t i = 0; i < fastest.size() && i < replay.size(); ++i) {
      fastest[i] = std::min(fastest[i], replay[i]);
    }
  }
  return fastest;
}

}  // namespace fnproxy::e2e

#endif  // FNPROXY_BENCH_E2E_E2E_STATS_H_
