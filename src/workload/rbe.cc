#include "workload/rbe.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>

#include "net/http.h"
#include "sql/table_xml.h"

namespace fnproxy::workload {

namespace {

/// Sorts one answer into ok / partial / failed.
void Classify(const net::HttpResponse& response, QueryResult* query) {
  query->status_code = response.status_code;
  query->outcome = QueryOutcome::kFailed;
  query->coverage = 0.0;
  if (!response.ok()) return;
  // A 200 whose body is not a parseable <Result> document (garbage or
  // truncation that tunneled through) stays a failure.
  auto attrs = sql::ResultAttrsFromXml(response.body);
  if (!attrs.ok()) return;
  query->outcome = attrs->partial ? QueryOutcome::kPartial : QueryOutcome::kOk;
  query->coverage = attrs->partial ? attrs->coverage : 1.0;
}

}  // namespace

double RbeResult::AverageResponseMillis(size_t first_n) const {
  size_t count = queries.size();
  if (first_n != 0 && first_n < count) count = first_n;
  if (count == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < count; ++i) {
    sum += static_cast<double>(queries[i].response_micros);
  }
  return sum / static_cast<double>(count) / 1000.0;
}

double RbeResult::RequestsPerSecond() const {
  if (wall_millis <= 0.0) return 0.0;
  return static_cast<double>(queries.size()) / (wall_millis / 1000.0);
}

double RbeResult::Availability() const {
  if (queries.empty()) return 0.0;
  return static_cast<double>(ok + partial) /
         static_cast<double>(queries.size());
}

double RbeResult::CoverageWeightedAvailability() const {
  if (queries.empty()) return 0.0;
  double covered = 0.0;
  for (const QueryResult& query : queries) covered += query.coverage;
  return covered / static_cast<double>(queries.size());
}

int64_t RbeResult::WallPercentileMicros(double p) const {
  if (queries.empty()) return 0;
  std::vector<int64_t> sorted;
  sorted.reserve(queries.size());
  for (const QueryResult& query : queries) sorted.push_back(query.wall_micros);
  std::sort(sorted.begin(), sorted.end());
  // The epsilon keeps a rank that is whole in exact arithmetic (e.g. 99% of
  // 100) from rounding up to the next sample.
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

net::HttpRequest MakeRequest(const Trace& trace, const TraceQuery& query) {
  net::HttpRequest request;
  request.path = trace.form_path;
  request.query_params = query.params;
  return request;
}

RbeResult RemoteBrowserEmulator::Run(const Trace& trace) {
  RbeResult result;
  result.queries.resize(trace.queries.size());
  // Each client claims the next unsent query; every result slot is written
  // by exactly one client and read only after all have joined.
  std::atomic<size_t> next_query{0};
  auto client = [&] {
    for (;;) {
      const size_t i = next_query.fetch_add(1, std::memory_order_relaxed);
      if (i >= trace.queries.size()) return;
      if (options_.think_time_micros > 0) {
        clock_->Advance(options_.think_time_micros);
      }
      net::HttpRequest request = MakeRequest(trace, trace.queries[i]);
      if (options_.deadline_budget_micros > 0) {
        request.headers[net::kDeadlineBudgetHeader] =
            std::to_string(options_.deadline_budget_micros);
      }
      QueryResult& query = result.queries[i];
      const int64_t sent_at = clock_->NowMicros();
      util::Stopwatch stopwatch;
      net::HttpResponse response = channel_->RoundTrip(request);
      query.wall_micros = stopwatch.ElapsedMicros();
      query.response_micros = clock_->NowMicros() - sent_at;
      Classify(response, &query);
    }
  };

  util::Stopwatch wall;
  {
    std::vector<std::jthread> others;
    for (size_t c = 1; c < options_.clients; ++c) others.emplace_back(client);
    client();
  }  // Joins the other clients, on every exit path.
  result.wall_millis = static_cast<double>(wall.ElapsedMicros()) / 1000.0;

  for (const QueryResult& query : result.queries) {
    switch (query.outcome) {
      case QueryOutcome::kOk:
        ++result.ok;
        break;
      case QueryOutcome::kPartial:
        ++result.partial;
        break;
      case QueryOutcome::kFailed:
        ++result.failed;
        if (query.status_code == 503) ++result.shed;
        break;
    }
  }
  return result;
}

}  // namespace fnproxy::workload
