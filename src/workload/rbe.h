#ifndef FNPROXY_WORKLOAD_RBE_H_
#define FNPROXY_WORKLOAD_RBE_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "util/clock.h"
#include "workload/trace.h"

namespace fnproxy::workload {

/// How one trace query ended at the browser.
enum class QueryOutcome {
  /// A complete answer (from the cache, the origin, or both).
  kOk,
  /// A degraded partial answer: HTTP 200 with partial="true" and a coverage
  /// fraction on the result's root element.
  kPartial,
  /// An error reached the browser (503 shed or origin-unreachable, 502,
  /// 500, ...), or a 200 whose body is not a parseable <Result> document.
  kFailed,
};

/// What the browser saw for one trace query.
struct QueryResult {
  /// Virtual response time: how far the shared clock moved over the round
  /// trip. Exact with one client; with several it also absorbs the other
  /// clients' concurrent advances.
  int64_t response_micros = 0;
  /// Wall-clock latency of the round trip.
  int64_t wall_micros = 0;
  /// HTTP status the browser received (0 for a transport failure).
  int status_code = 0;
  QueryOutcome outcome = QueryOutcome::kOk;
  /// Region-volume fraction the answer covers: 1 for full answers, the
  /// served fraction for partial ones, 0 for failures.
  double coverage = 0.0;
};

/// How the emulated browsers behave.
struct RbeOptions {
  /// Closed-loop clients pulling the next unsent query from one shared
  /// cursor, so exactly this many requests are in flight until the trace
  /// drains. One client replays the trace in order on the calling thread.
  size_t clients = 1;
  /// Virtual think time a client charges before each query. Clients send
  /// the next query right after the previous answer, so when the proxy fails
  /// fast (breaker open) the clock barely moves and an outage window placed
  /// on the timeline would swallow the rest of the trace. Think time
  /// anchors arrivals to the timeline: make it dominate the per-query cost
  /// and an outage covering 30% of the timeline hits ~30% of the queries
  /// under every scheme.
  int64_t think_time_micros = 0;
  /// When > 0, every request carries this X-Deadline-Micros budget.
  int64_t deadline_budget_micros = 0;
};

/// One replay as the browsers saw it.
struct RbeResult {
  /// One result per trace query, in trace order.
  std::vector<QueryResult> queries;
  uint64_t ok = 0;
  uint64_t partial = 0;
  uint64_t failed = 0;
  /// Failed queries answered 503 (admission sheds, breaker refusals, an
  /// unreachable origin): a subset of `failed`.
  uint64_t shed = 0;
  /// Wall-clock time of the whole replay.
  double wall_millis = 0.0;

  /// Mean virtual response time in milliseconds over the first `first_n`
  /// queries (0 = all). The paper's Figure 5 reports the first 10,000.
  double AverageResponseMillis(size_t first_n = 0) const;
  /// Closed-loop throughput: queries per wall-clock second.
  double RequestsPerSecond() const;
  /// Fraction of queries answered at all (fully or partially).
  double Availability() const;
  /// Availability weighted by coverage: a half-covered partial answer counts
  /// half. The honest number a degraded cache-only proxy is judged by.
  double CoverageWeightedAvailability() const;
  /// Nearest-rank percentile of the per-query wall latencies: the smallest
  /// sample with at least p% of the samples at or below it (p in (0, 100]).
  int64_t WallPercentileMicros(double p) const;
};

/// The Remote Browser Emulator (paper §4.1), the one closed-loop client
/// driver: replays a trace through a channel (usually browser → LAN →
/// proxy) and records each query's virtual response time, wall latency and
/// outcome.
class RemoteBrowserEmulator {
 public:
  /// `channel` and `clock` must outlive the emulator.
  RemoteBrowserEmulator(net::SimulatedChannel* channel,
                        util::SimulatedClock* clock, RbeOptions options = {})
      : channel_(channel), clock_(clock), options_(options) {}

  /// Replays the trace and blocks until every query has been answered.
  RbeResult Run(const Trace& trace);

 private:
  net::SimulatedChannel* channel_;
  util::SimulatedClock* clock_;
  RbeOptions options_;
};

/// Builds the form request for one trace query.
net::HttpRequest MakeRequest(const Trace& trace, const TraceQuery& query);

}  // namespace fnproxy::workload

#endif  // FNPROXY_WORKLOAD_RBE_H_
