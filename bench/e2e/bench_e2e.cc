// bench_e2e: the end-to-end benchmark of the function proxy. It replays
// Radial traces through the whole pipeline
//
//   client threads -> LAN SimulatedChannel -> core::FunctionProxy
//                  -> WAN SimulatedChannel -> server::OriginWebApp
//
// and reports what a user of the modeled deployment sees (virtual response
// time as in the paper's Figures 5/6, cache efficiency as in Table 1), what
// a user of this implementation sees (wall-clock throughput and latency),
// and, from one extra traced replay, per-layer numbers measured from outside
// the program.
//
//   bench_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--out=PATH] [--command=TEXT]
//             [--git-sha=SHA] [--git-dirty=0|1]
//
// One run, every replay on a fresh proxy, origin app and virtual clock:
//   1. Set the workload up three times; setup_s is the median. Set-up
//      builds the catalog, the origin database, the templates and kTraces
//      traces, trace 0 from --seed itself.
//   2. Virtual pass (not wall-timed; also the warm-up and the verification
//      pass): replay every trace once from one client, side by side, and
//      check trace 0's answers (every trace's on tiered-small-cache)
//      against the origin's direct answers. The virtual metrics pool these
//      replays.
//   3. Wall pass: replay trace 0 from the workload's clients until
//      --seconds have passed since the virtual pass began, single-client
//      replays pinned to one CPU each. The wall metrics take each request's
//      fastest replay.
//   4. With --trace=1, replay trace 0 once more with a span collector.
// Every metric is printed with its unit; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1).
// --out appends a JSON-lines record with quartiles and provenance. The exit
// code is 0 only when the verification pass is green.
//
// run.sh builds this binary and is the documented entry point; README.md
// lists the workloads, metrics and bounds.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/sky_catalog.h"
#include "core/proxy.h"
#include "e2e_stats.h"
#include "geometry/celestial.h"
#include "geometry/point.h"
#include "net/fault.h"
#include "net/network.h"
#include "obs/trace.h"
#include "server/web_app.h"
#include "sql/table_xml.h"
#include "util/mutex.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/experiment.h"
#include "workload/rbe.h"
#include "workload/trace_generator.h"

#ifndef FNPROXY_E2E_BUILD_TYPE
#define FNPROXY_E2E_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char kCompiler[] = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char kCompiler[] = "gcc " __VERSION__;
#else
constexpr const char kCompiler[] = "unknown";
#endif

namespace fnproxy::e2e {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads --------------------------------------------------------------

enum class Kind { kPaper, kFlashCrowd, kTiered, kFlaky };

struct Workload {
  const char* name;
  Kind kind;
  /// Closed-loop client threads, no think time.
  size_t clients;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"paper-radial", Kind::kPaper, 1},
    {"flash-crowd-4c", Kind::kFlashCrowd, 4},
    {"tiered-small-cache", Kind::kTiered, 1},
    {"flaky-origin", Kind::kFlaky, 1},
};

/// Threads the benchmark's untimed work may use: the host's cores, at most
/// four (the load generator's own limit).
size_t Cores() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Runs fn(0) ... fn(n - 1) on up to `width` threads. Never used while the
/// wall pass is timed.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 size_t width = Cores()) {
  util::ThreadPool pool(std::clamp<size_t>(width, 1, n == 0 ? 1 : n));
  for (size_t i = 0; i < n; ++i) pool.Submit([&fn, i] { fn(i); });
  pool.Wait();
}

/// Traces a run replays in its virtual pass. The virtual metrics of one
/// trace differ between seeds (the quartile distance over ten seeds was
/// 1.8% of the median for cache efficiency, 6-8% for p99 response time),
/// because its queries are drawn at random; pooling four traces cuts that
/// to about a third, which is what lets the virtual metrics' bounds be
/// tighter.
constexpr uint64_t kTraces = 4;

/// Pins single-client replays to one CPU each, taking the CPUs this process
/// may use in turn. A replay's threads (the client and the proxy's origin
/// dispatcher) then share one CPU, and its wall metrics follow the work on
/// the request path rather than where the host's scheduler put each thread
/// (on a 4-vCPU guest, over six seeds run alternately both ways, they
/// spread by 6-31% unpinned and by 4-14% pinned). Taking the CPUs in turn
/// keeps a CPU that another guest slows for a while from slowing every
/// replay of a run.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus_.size() < Cores(); ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  /// Pins the calling thread, and every thread it starts from now on, to
  /// the next CPU; best effort.
  void PinNext() {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Everything a run builds before replaying: catalog, origin database and
/// templates (inside SkyExperiment) and the workload's traces.
struct Setup {
  std::unique_ptr<workload::SkyExperiment> experiment;
  /// traces[j] comes from TraceSeed(seed, j).
  std::vector<workload::Trace> traces;
};

Setup MakeSetup(const Workload& workload, uint64_t seed) {
  workload::SkyExperiment::Options options;
  options.trace.seed = seed;
  Setup setup;
  setup.experiment = std::make_unique<workload::SkyExperiment>(options);
  // Queries aim at the catalog's clusters, as in the experiment's own trace
  // (the generator draws cluster centers before any object, so an empty
  // catalog yields them).
  workload::RadialTraceConfig radial = options.trace;
  catalog::SkyCatalogConfig centers_only = options.catalog;
  centers_only.num_objects = 0;
  std::vector<std::pair<double, double>> clusters;
  catalog::GenerateSkyCatalog(centers_only, &clusters);
  for (const auto& [ra, dec] : clusters) {
    if (ra >= radial.ra_min && ra <= radial.ra_max && dec >= radial.dec_min &&
        dec <= radial.dec_max) {
      radial.hotspot_centers.emplace_back(ra, dec);
    }
  }
  setup.traces.resize(kTraces);
  ParallelFor(kTraces, [&](size_t j) {
    workload::RadialTraceConfig config = radial;
    config.seed = TraceSeed(seed, j);
    if (workload.kind == Kind::kFlashCrowd) {
      // Paper-style background plus a burst at the hot cone bench_overload
      // uses.
      workload::FlashCrowdTraceConfig crowd;
      crowd.base = config;
      crowd.seed = config.seed ^ 0x5eedf1a5ULL;
      crowd.hot_ra = 180.0;
      crowd.hot_dec = 30.0;
      crowd.hot_radius_arcmin = 20.0;
      setup.traces[j] = workload::GenerateFlashCrowdTrace(crowd);
    } else {
      setup.traces[j] = workload::GenerateRadialTrace(config);
    }
  });
  return setup;
}

/// Faults a lossy, slow origin recovers from: 500s and dropped connections
/// the retry policy absorbs, latency spikes and trickled bodies it waits
/// out. No garbage or truncated bodies: those fail a miss outright, and the
/// benchmark's workloads must complete every query.
net::FaultProfile FlakyOrigin(uint64_t seed) {
  net::FaultProfile profile = net::FlakyProfile(seed ^ 0xf1a4e5ULL);
  profile.error_rate = 0.06;
  profile.drop_rate = 0.03;
  profile.garbage_rate = 0.0;
  profile.truncate_rate = 0.0;
  return profile;
}

/// Eight attempts make an unrecovered round trip (p ~ 0.09^8) practically
/// impossible, so no query fails and the breaker, though enabled, never
/// opens. No per-attempt timeout: under the async origin channel an
/// attempt's elapsed virtual time would include the proxy thread's
/// overlapped work, which would make timeouts depend on thread timing.
net::RetryPolicy FlakyRetry() {
  net::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.jitter_seed = 2004;
  return policy;
}

/// `distinct_result_bytes` sizes the tiered workload's budgets, as the
/// paper sizes caches (§4.2): the working set is six times the cache.
core::ProxyConfig ConfigFor(const Workload& workload,
                            size_t distinct_result_bytes) {
  core::ProxyConfig config;  // "First": full semantic caching, unlimited.
  switch (workload.kind) {
    case Kind::kPaper:
      break;
    case Kind::kFlashCrowd:
      config.cache_shards = 8;
      break;
    case Kind::kTiered:
      // Sweeps run inline, on the request that triggers them: a sweep then
      // always lands on the same request of a replay, and the traced
      // replay can attribute its time. No spill directory, so nothing
      // spills: the benchmark may write only inside its checkout, and a
      // file per spilled entry on the checkout's disk spread the wall
      // metrics by 23-101% over eight seeds (14-22% without).
      config.max_cache_bytes = distinct_result_bytes / 6;
      config.storage.enable = true;
      config.storage.background_maintenance = false;
      break;
    case Kind::kFlaky:
      config.breaker.enabled = true;
      break;
  }
  return config;
}

// --- Bench-owned instrumentation at the layer boundaries ---------------------

/// One call into the origin web app: the thread that made it and its wall
/// interval.
struct OriginCall {
  std::thread::id thread;
  Interval wall;
};

/// Wraps the origin web app (the server layer) and records every call's wall
/// interval, so the proxy-side share of a request's wall time can be
/// separated from the simulated origin's.
class OriginAppRecorder final : public net::HttpHandler {
 public:
  explicit OriginAppRecorder(net::HttpHandler* app) : app_(app) {}

  net::HttpResponse Handle(const net::HttpRequest& request) override {
    const int64_t start = NowNs();
    net::HttpResponse response = app_->Handle(request);
    const int64_t end = NowNs();
    util::MutexLock lock(mu_);
    calls_.push_back({std::this_thread::get_id(), {start, end}});
    if (request.path == "/sql/batch") ++batch_calls_;
    return response;
  }

  std::vector<OriginCall> calls() const {
    util::MutexLock lock(mu_);
    return calls_;
  }
  uint64_t batch_calls() const {
    util::MutexLock lock(mu_);
    return batch_calls_;
  }

 private:
  net::HttpHandler* app_;
  mutable util::Mutex mu_;
  std::vector<OriginCall> calls_ GUARDED_BY(mu_);
  uint64_t batch_calls_ GUARDED_BY(mu_) = 0;
};

/// The proxy phases bench_e2e attributes time to (span names in
/// core/proxy.cc); anything else is kOther.
enum Phase : uint8_t {
  kRequest,
  kTemplateMatch,
  kCacheLookup,
  kLocalEval,
  kRemainderBuild,
  kOriginRoundtrip,
  kMerge,
  kSerialize,
  kCacheAdmit,
  kRestore,
  kOther,
  kNumPhases,
};

constexpr const char* kPhaseNames[kNumPhases] = {
    "request",          "template_match", "cache_lookup", "local_eval",
    "remainder_build",  "origin_roundtrip", "merge",      "serialize",
    "cache_admit",      "restore",        "other"};

Phase PhaseOf(std::string_view name) {
  for (int p = 0; p < kOther; ++p) {
    if (name == kPhaseNames[p]) return static_cast<Phase>(p);
  }
  return kOther;
}

struct CollectedSpan {
  Phase phase = kOther;
  int parent = -1;
  Interval wall;
  /// Modeled virtual cost: the span's virtual duration, except for
  /// local_eval, whose modeled charge is taken from its tuples_scanned
  /// attribute. A pipelined local_eval overlaps the origin round trip, so
  /// its clock delta also holds the dispatcher's concurrent advances.
  int64_t virtual_us = 0;
};

struct CollectedTrace {
  std::thread::id thread;
  std::vector<CollectedSpan> spans;
};

/// The bench's obs::TraceSink (plugged into ProxyConfig::trace_sink for the
/// traced replay): keeps each completed span tree in memory, tagged with the
/// thread that handled the request.
class SpanCollector final : public obs::TraceSink {
 public:
  explicit SpanCollector(double scan_cost_us) : scan_cost_us_(scan_cost_us) {}

  void Consume(const obs::QueryTrace& trace) override {
    CollectedTrace out;
    out.thread = std::this_thread::get_id();
    out.spans.reserve(trace.spans().size());
    for (const obs::TraceSpan& span : trace.spans()) {
      CollectedSpan s;
      s.phase = PhaseOf(span.name);
      s.parent = span.parent;
      s.wall = {span.wall_start_micros * 1000, span.wall_end_micros * 1000};
      s.virtual_us = span.virtual_end_micros - span.virtual_start_micros;
      if (s.phase == kLocalEval) {
        for (const auto& [key, value] : span.attrs) {
          if (key == "tuples_scanned") {
            // Same truncation as FunctionProxy::ChargeMicros.
            s.virtual_us = static_cast<int64_t>(
                scan_cost_us_ * std::strtod(value.c_str(), nullptr));
          }
        }
      }
      out.spans.push_back(s);
    }
    util::MutexLock lock(mu_);
    traces_.push_back(std::move(out));
  }

  std::vector<CollectedTrace> Take() {
    util::MutexLock lock(mu_);
    return std::move(traces_);
  }

 private:
  const double scan_cost_us_;
  util::Mutex mu_;
  std::vector<CollectedTrace> traces_ GUARDED_BY(mu_);
};

// --- Correctness oracle ----------------------------------------------------

/// Row identity for the tuple-for-tuple comparison of
/// transparency_property_test, hashed so the whole trace's answers fit.
uint64_t RowHash(const sql::Row& row) {
  std::string key;
  for (const sql::Value& value : row) {
    key += value.ToSqlLiteral();
    key += '|';
  }
  return std::hash<std::string>{}(key);
}

/// A result table as a sorted list of row hashes: equal lists mean equal
/// multisets of rows.
std::vector<uint64_t> RowHashes(const sql::Table& table) {
  std::vector<uint64_t> hashes;
  hashes.reserve(table.num_rows());
  for (const sql::Row& row : table.rows()) hashes.push_back(RowHash(row));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

/// Rows of `table` whose hashes are in `hashes` (sorted; one row per
/// occurrence).
std::vector<const sql::Row*> RowsWithHashes(const sql::Table& table,
                                            std::vector<uint64_t> hashes) {
  std::vector<const sql::Row*> rows;
  for (const sql::Row& row : table.rows()) {
    const uint64_t hash = RowHash(row);
    auto it = std::lower_bound(hashes.begin(), hashes.end(), hash);
    if (it != hashes.end() && *it == hash) {
      rows.push_back(&row);
      hashes.erase(it);
    }
  }
  return rows;
}

/// True when the tuple's unit vector lies within the geometry layer's
/// tolerance (kGeomEpsilon) of the query cone's edge: the proxy's region
/// predicates admit points up to that far outside a region, while the
/// origin's fGetNearbyObjEq compares exactly, so the two may disagree on
/// such a tuple and on no other.
bool OnConeEdge(const sql::Row& row, const sql::Schema& schema,
                const workload::TraceQuery& query) {
  const geometry::Hypersphere cone = geometry::ConeToHypersphere(
      std::strtod(query.params.at("ra").c_str(), nullptr),
      std::strtod(query.params.at("dec").c_str(), nullptr),
      std::strtod(query.params.at("radius").c_str(), nullptr));
  geometry::Point point;
  for (const char* column : {"cx", "cy", "cz"}) {
    std::optional<size_t> index = schema.FindColumn(column);
    if (!index.has_value() || row[*index].type() != sql::ValueType::kDouble) {
      return false;
    }
    point.push_back(row[*index].AsDouble());
  }
  return std::abs(geometry::Distance(point, cone.center()) - cone.radius()) <=
         geometry::kGeomEpsilon;
}

/// What checking one answer found.
struct Verdict {
  /// Empty when the answer is acceptable.
  std::string problem;
  /// Tuples on which the answer and the origin's disagree, all on the query
  /// cone's edge (see OnConeEdge).
  size_t edge_tuples = 0;
};

/// The origin's direct answer to every query of the trace, computed on a
/// reference origin app with its own clock.
class Oracle {
 public:
  Oracle(workload::SkyExperiment& experiment, const workload::Trace& trace)
      : trace_(trace),
        reference_(experiment.database(), &clock_,
                   experiment.options().server_costs) {
    if (!reference_.RegisterForm("/radial", workload::kRadialTemplateSql)
             .ok()) {
      std::abort();
    }
    std::unordered_map<std::string, size_t> seen;
    std::vector<size_t> first_query;  // Per distinct query.
    slot_.reserve(trace.queries.size());
    for (size_t i = 0; i < trace.queries.size(); ++i) {
      auto [it, inserted] = seen.emplace(
          net::BuildQueryString(trace.queries[i].params), first_query.size());
      if (inserted) first_query.push_back(i);
      slot_.push_back(it->second);
    }
    answers_.resize(first_query.size());
    std::vector<size_t> bytes(first_query.size());
    ParallelFor(first_query.size(), [&](size_t k) {
      answers_[k] = RowHashes(Direct(first_query[k], &bytes[k]));
    });
    for (size_t b : bytes) distinct_result_bytes_ += b;
  }

  /// XML bytes of the trace's distinct results: the paper's "total result
  /// size of the query trace" (§4.2) that cache budgets are fractions of.
  size_t distinct_result_bytes() const { return distinct_result_bytes_; }

  /// Checks the proxy's 2xx answer to query `query`: a full answer must
  /// equal the origin's tuple for tuple, a partial="true" answer must be a
  /// subset with coverage <= 1, and neither may differ from the origin's
  /// answer except by tuples on the cone's edge. Thread-safe.
  Verdict Check(size_t query, const net::HttpResponse& response) {
    Verdict verdict;
    auto attrs = sql::ResultAttrsFromXml(response.body);
    auto table = sql::TableFromXml(response.body);
    if (!attrs.ok() || !table.ok()) {
      verdict.problem = "garbage body reached the client";
      return verdict;
    }
    if (attrs->partial && !(attrs->coverage >= 0.0 && attrs->coverage <= 1.0)) {
      verdict.problem = "partial answer with coverage outside [0, 1]";
      return verdict;
    }
    const std::vector<uint64_t>& expected = answers_[slot_[query]];
    const std::vector<uint64_t> got = RowHashes(*table);
    std::vector<uint64_t> extra, missing;
    std::set_difference(got.begin(), got.end(), expected.begin(),
                        expected.end(), std::back_inserter(extra));
    if (!attrs->partial) {
      std::set_difference(expected.begin(), expected.end(), got.begin(),
                          got.end(), std::back_inserter(missing));
    }
    if (extra.empty() && missing.empty()) return verdict;

    std::vector<const sql::Row*> differing = RowsWithHashes(*table, extra);
    std::optional<sql::Table> direct;
    if (!missing.empty()) {
      direct = Direct(query);
      std::vector<const sql::Row*> rows = RowsWithHashes(*direct, missing);
      differing.insert(differing.end(), rows.begin(), rows.end());
    }
    for (const sql::Row* row : differing) {
      if (!OnConeEdge(*row, table->schema(), trace_.queries[query])) {
        verdict.problem = attrs->partial
                              ? "partial answer holds tuples the origin does "
                                "not return"
                              : "full answer differs from the origin's";
        return verdict;
      }
    }
    verdict.edge_tuples = differing.size();
    return verdict;
  }

 private:
  /// The reference origin's answer to `query`; `body_bytes` receives the
  /// size of its XML document.
  sql::Table Direct(size_t query, size_t* body_bytes = nullptr) {
    net::HttpResponse response =
        reference_.Handle(workload::MakeRequest(trace_, trace_.queries[query]));
    if (body_bytes != nullptr) *body_bytes = response.body.size();
    auto table = sql::TableFromXml(response.body);
    if (!response.ok() || !table.ok()) {
      std::fprintf(stderr, "oracle: the origin cannot answer query %zu\n",
                   query);
      std::abort();
    }
    return *std::move(table);
  }

  const workload::Trace& trace_;
  util::SimulatedClock clock_;
  server::OriginWebApp reference_;
  std::vector<std::vector<uint64_t>> answers_;
  std::vector<size_t> slot_;
  size_t distinct_result_bytes_ = 0;
};

// --- One replay -------------------------------------------------------------

/// What one client request observed.
struct Sample {
  uint32_t client = 0;
  Interval wall;
  int64_t virtual_us = 0;
  bool ok = false;
};

/// What one replay measured. Virtual times are exact with one client; with
/// several, the shared SimulatedClock charges every thread's work to every
/// in-flight request.
struct ReplayResult {
  size_t queries = 0;
  uint64_t failed = 0;
  std::vector<std::string> violations;
  /// Verified replays only: see Verdict::edge_tuples.
  size_t edge_tuples = 0;
  double wall_s = 0.0;
  int64_t virtual_total_us = 0;
  double cache_efficiency = 0.0;
  double origin_kb_per_query = 0.0;
  double cache_mb = 0.0;
  /// Per request, in trace order: virtual response time, client-observed
  /// wall latency, and that latency minus the origin-app calls charged to
  /// the request.
  std::vector<double> virtual_ms;
  std::vector<double> client_us;
  std::vector<double> proxy_us;
  /// Traced replays only.
  std::map<std::string, double> layers;
};

struct ReplayOptions {
  core::ProxyConfig config;
  size_t clients = 1;
  bool flaky = false;
  /// Fault seed of the flaky origin.
  uint64_t seed = 0;
  Oracle* oracle = nullptr;
  bool traced = false;
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Value of one un-labelled (or fully spelled-out) series in a Prometheus
/// text rendering; 0 when absent.
double PromValue(const std::string& text, const std::string& series) {
  const std::string prefix = series + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      return std::strtod(text.c_str() + pos + prefix.size(), nullptr);
    }
    pos = end + 1;
  }
  return 0.0;
}

/// A replay's origin-app calls, sorted for ChargedCalls: per client thread
/// the calls made on it, and the calls made on the proxy's dispatcher
/// threads.
class OriginCalls {
 public:
  OriginCalls(const std::vector<OriginCall>& calls,
              const std::vector<std::thread::id>& client_threads) {
    for (std::thread::id id : client_threads) own_[id];
    for (const OriginCall& call : calls) {
      auto it = own_.find(call.thread);
      (it != own_.end() ? it->second : elsewhere_).push_back(call.wall);
    }
    for (auto& [id, intervals] : own_) {
      intervals = MergeIntervals(std::move(intervals));
    }
    std::sort(elsewhere_.begin(), elsewhere_.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
  }

  /// The calls charged to `window` of a request handled on `thread`.
  std::vector<Interval> Charged(std::thread::id thread,
                                Interval window) const {
    static const std::vector<Interval> kNone;
    auto it = own_.find(thread);
    return ChargedCalls(window, it != own_.end() ? it->second : kNone,
                        elsewhere_);
  }

 private:
  std::unordered_map<std::thread::id, std::vector<Interval>> own_;
  std::vector<Interval> elsewhere_;
};

/// Per-layer numbers of a traced replay (names are <module>.<what>; see
/// README.md for definitions and the end-to-end metric each one moves).
/// `sweep_ns` is the wall time of the proxy's inline tier sweeps, which run
/// in a client's request but outside its span tree.
void ComputeLayers(const std::vector<CollectedTrace>& traces,
                   const OriginCalls& origin, int64_t sweep_ns,
                   int64_t client_ns, std::map<std::string, double>* out) {
  double self_ns[kNumPhases] = {};
  double virtual_us[kNumPhases] = {};
  double count[kNumPhases] = {};
  double origin_proxy_ns = 0.0;
  int64_t request_tree_ns = 0;
  for (const CollectedTrace& trace : traces) {
    std::vector<SpanInterval> tree;
    tree.reserve(trace.spans.size());
    for (const CollectedSpan& span : trace.spans) {
      tree.push_back({span.parent, span.wall});
    }
    std::vector<int64_t> self = SelfTimes(tree);
    std::vector<int64_t> child_virtual(trace.spans.size(), 0);
    for (const CollectedSpan& span : trace.spans) {
      if (span.parent >= 0) {
        child_virtual[static_cast<size_t>(span.parent)] += span.virtual_us;
      }
    }
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      const CollectedSpan& span = trace.spans[i];
      self_ns[span.phase] += static_cast<double>(self[i]);
      virtual_us[span.phase] +=
          static_cast<double>(span.phase == kLocalEval
                                  ? span.virtual_us
                                  : span.virtual_us - child_virtual[i]);
      count[span.phase] += 1;
      if (span.phase == kRequest && span.parent < 0) {
        request_tree_ns += span.wall.end - span.wall.start;
      }
      if (span.phase == kOriginRoundtrip) {
        // WAN channel plus the proxy's parse of the body: the span minus its
        // children and minus the origin-app calls charged to it.
        std::vector<Interval> covered = origin.Charged(trace.thread, span.wall);
        for (size_t c = 0; c < trace.spans.size(); ++c) {
          if (trace.spans[c].parent == static_cast<int>(i)) {
            covered.push_back(trace.spans[c].wall);
          }
        }
        origin_proxy_ns +=
            static_cast<double>(UncoveredLength(span.wall, std::move(covered)));
      }
    }
  }
  auto& m = *out;
  auto ms = [](double ns) { return ns / 1e6; };
  m["core.request.self_wall_ms"] = ms(self_ns[kRequest]);
  m["core.template_match.self_wall_ms"] = ms(self_ns[kTemplateMatch]);
  m["core.cache_lookup.self_wall_ms"] = ms(self_ns[kCacheLookup]);
  m["core.local_eval.self_wall_ms"] = ms(self_ns[kLocalEval]);
  m["core.local_eval.count"] = count[kLocalEval];
  m["core.remainder_build.self_wall_ms"] = ms(self_ns[kRemainderBuild]);
  m["core.merge.self_wall_ms"] = ms(self_ns[kMerge]);
  m["core.merge.count"] = count[kMerge];
  m["core.cache_admit.self_wall_ms"] = ms(self_ns[kCacheAdmit]);
  m["core.cache_admit.count"] = count[kCacheAdmit];
  m["sql.serialize.self_wall_ms"] = ms(self_ns[kSerialize]);
  m["sql.serialize.virtual_ms"] = virtual_us[kSerialize] / 1e3;
  m["sql.serialize.count"] = count[kSerialize];
  m["net.origin_roundtrip.proxy_wall_ms"] = ms(origin_proxy_ns);
  m["net.origin_roundtrip.virtual_ms"] = virtual_us[kOriginRoundtrip] / 1e3;
  m["net.origin_roundtrip.count"] = count[kOriginRoundtrip];
  m["storage.restore.self_wall_ms"] = ms(self_ns[kRestore]);
  m["storage.restore.virtual_ms"] = virtual_us[kRestore] / 1e3;
  m["workload.attributed_wall_share"] =
      AttributedShare(request_tree_ns, sweep_ns, client_ns);
}

ReplayResult RunReplay(workload::SkyExperiment& experiment,
                       const workload::Trace& trace,
                       const ReplayOptions& options) {
  core::ProxyConfig config = options.config;
  std::optional<SpanCollector> collector;
  if (options.traced) {
    collector.emplace(config.costs.per_cached_tuple_scan_us);
    config.trace_sink = &*collector;
  }

  ReplayResult result;
  result.queries = trace.queries.size();
  std::vector<Sample> samples(trace.queries.size());
  std::vector<net::HttpResponse> answers(
      options.oracle != nullptr ? trace.queries.size() : 0);
  std::vector<std::thread::id> client_threads(options.clients);
  int64_t wall_ns = 0;
  int64_t sweep_us = 0;
  std::vector<OriginCall> calls;
  {
    util::SimulatedClock clock;
    server::OriginWebApp app(experiment.database(), &clock,
                             experiment.options().server_costs);
    if (!app.RegisterForm("/radial", workload::kRadialTemplateSql).ok()) {
      std::abort();
    }
    OriginAppRecorder recorder(&app);
    std::optional<net::FaultInjector> faults;
    net::HttpHandler* origin = &recorder;
    if (options.flaky) {
      faults.emplace(&recorder, FlakyOrigin(options.seed), &clock);
      origin = &*faults;
    }
    net::SimulatedChannel wan(origin, experiment.options().wan, &clock);
    if (options.flaky) wan.set_retry_policy(FlakyRetry());
    core::FunctionProxy proxy(config, &experiment.templates(), &wan, &clock);
    net::SimulatedChannel lan(&proxy, experiment.options().lan, &clock);

    // Closed loop: each client sends its next query when the previous one
    // is answered; queries are handed out in trace order. Answers to be
    // verified are kept and checked after the replay.
    std::atomic<size_t> next{0};
    auto client = [&](uint32_t id) {
      client_threads[id] = std::this_thread::get_id();
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= trace.queries.size()) break;
        net::HttpRequest request =
            workload::MakeRequest(trace, trace.queries[i]);
        const int64_t virtual_start = clock.NowMicros();
        const int64_t start = NowNs();
        net::HttpResponse response = lan.RoundTrip(request);
        const int64_t end = NowNs();
        Sample& sample = samples[i];
        sample.client = id;
        sample.wall = {start, end};
        sample.virtual_us = clock.NowMicros() - virtual_start;
        sample.ok = response.ok();
        if (options.oracle != nullptr) answers[i] = std::move(response);
      }
    };
    const int64_t replay_start = NowNs();
    std::vector<std::thread> threads;
    for (uint32_t id = 0; id < options.clients; ++id) {
      threads.emplace_back(client, id);
    }
    for (std::thread& t : threads) t.join();
    wall_ns = NowNs() - replay_start;
    calls = recorder.calls();

    // Counters, read while the pipeline is still alive.
    const core::ProxyStats stats = proxy.stats();
    const core::CacheStore& cache = proxy.cache();
    const double queries = static_cast<double>(trace.queries.size());
    double efficiency = 0.0;
    double answered_from_cache = 0.0;
    for (const core::QueryRecord& record : stats.records) {
      efficiency += record.CacheEfficiency();
      if (record.handled_by_template && !record.contacted_origin &&
          !record.failed) {
        answered_from_cache += 1.0;
      }
    }
    result.cache_efficiency = efficiency / queries;
    result.origin_kb_per_query =
        static_cast<double>(wan.total_bytes_received()) / 1024.0 / queries;
    result.cache_mb =
        static_cast<double>(cache.bytes_used()) / (1024.0 * 1024.0);

    if (options.traced) {
      const net::ChannelRetryStats retry = wan.retry_stats();
      const std::string prom = proxy.metrics().RenderPrometheus();
      for (const obs::HistogramExport& h : proxy.metrics().ExportHistograms(
               "fnproxy_phase_duration_micros")) {
        for (const auto& [key, value] : h.labels) {
          if (key == "phase" && value == "spill") {
            sweep_us += h.snapshot.sum_micros;
          }
        }
      }
      auto& m = result.layers;
      const double template_requests =
          static_cast<double>(stats.template_requests);
      // The proxy's modeled-cost counters: exact at any client count.
      m["core.cache_lookup.virtual_ms"] =
          static_cast<double>(stats.check_micros) / 1e3;
      m["core.local_eval.virtual_ms"] =
          static_cast<double>(stats.local_eval_micros) / 1e3;
      m["core.exact_hits"] = static_cast<double>(stats.exact_hits);
      m["core.containment_hits"] = static_cast<double>(stats.containment_hits);
      m["core.region_containments"] =
          static_cast<double>(stats.region_containments);
      m["core.overlaps"] = static_cast<double>(stats.overlaps_handled);
      m["core.misses"] = static_cast<double>(stats.misses);
      m["core.collapsed"] = static_cast<double>(stats.collapsed);
      m["core.cache_answer_share"] =
          template_requests > 0 ? answered_from_cache / template_requests : 0;
      m["core.cache_entries"] = static_cast<double>(cache.num_entries());
      m["core.evictions"] = static_cast<double>(cache.evictions());
      m["core.degraded_full"] = static_cast<double>(stats.degraded_full);
      m["core.degraded_partial"] = static_cast<double>(stats.degraded_partial);
      m["core.degraded_unavailable"] =
          static_cast<double>(stats.degraded_unavailable);
      m["net.wan_requests"] = static_cast<double>(wan.total_requests());
      m["net.wan_kb_received"] =
          static_cast<double>(wan.total_bytes_received()) / 1024.0;
      m["net.wan_kb_sent"] =
          static_cast<double>(wan.total_bytes_sent()) / 1024.0;
      m["net.lan_kb_per_query"] =
          static_cast<double>(lan.total_bytes_sent() +
                              lan.total_bytes_received()) /
          1024.0 / queries;
      m["net.retries"] = static_cast<double>(retry.retries);
      m["net.timeouts"] = static_cast<double>(retry.timeouts);
      m["net.failed_round_trips"] =
          static_cast<double>(retry.failed_round_trips);
      m["net.backoff_virtual_ms"] =
          static_cast<double>(retry.backoff_micros_total) / 1e3;
      m["net.breaker_open_rejections"] =
          static_cast<double>(stats.breaker_open_rejections);
      m["net.breaker_transitions"] =
          static_cast<double>(stats.breaker_transitions);
      m["net.async_remainders"] =
          PromValue(prom, "fnproxy_origin_async_requests_total");
      m["net.batches"] = PromValue(prom, "fnproxy_origin_batches_total");
      m["net.batched_remainders"] =
          PromValue(prom, "fnproxy_origin_batched_requests_total");
      m["server.form_calls"] = static_cast<double>(app.form_queries_served());
      m["server.sql_calls"] = static_cast<double>(app.sql_queries_served());
      m["server.batch_calls"] = static_cast<double>(recorder.batch_calls());
      m["server.virtual_ms"] =
          static_cast<double>(app.total_processing_micros()) / 1e3;
      m["storage.sweep.wall_ms"] = static_cast<double>(sweep_us) / 1e3;
      m["storage.sweeps"] = PromValue(prom, "fnproxy_storage_sweeps_total");
      m["storage.freezes"] = static_cast<double>(cache.freezes());
      m["storage.thaws"] = static_cast<double>(cache.thaws());
      m["storage.compression_ratio"] =
          cache.frozen_encoded_bytes() > 0
              ? static_cast<double>(cache.frozen_raw_bytes()) /
                    static_cast<double>(cache.frozen_encoded_bytes())
              : 0.0;
    }
  }

  if (options.oracle != nullptr) {
    std::vector<Verdict> verdicts(answers.size());
    ParallelFor(answers.size(), [&](size_t i) {
      if (answers[i].ok()) verdicts[i] = options.oracle->Check(i, answers[i]);
    });
    for (size_t i = 0; i < verdicts.size(); ++i) {
      result.edge_tuples += verdicts[i].edge_tuples;
      if (verdicts[i].problem.empty()) continue;
      result.violations.push_back(
          "query " + std::to_string(i) + " (" +
          workload::MakeRequest(trace, trace.queries[i]).ToUrl() +
          "): " + verdicts[i].problem);
    }
  }

  const OriginCalls origin(calls, client_threads);

  result.client_us.reserve(samples.size());
  result.proxy_us.reserve(samples.size());
  result.virtual_ms.reserve(samples.size());
  int64_t client_ns = 0;
  for (const Sample& sample : samples) {
    const int64_t length = sample.wall.end - sample.wall.start;
    const int64_t proxy = UncoveredLength(
        sample.wall,
        origin.Charged(client_threads[sample.client], sample.wall));
    client_ns += length;
    result.client_us.push_back(static_cast<double>(length) / 1e3);
    result.proxy_us.push_back(static_cast<double>(proxy) / 1e3);
    result.virtual_ms.push_back(static_cast<double>(sample.virtual_us) / 1e3);
    result.virtual_total_us += sample.virtual_us;
    if (!sample.ok) ++result.failed;
  }
  int64_t server_ns = 0;
  for (const OriginCall& call : calls) {
    server_ns += call.wall.end - call.wall.start;
  }
  result.wall_s = static_cast<double>(wall_ns) / 1e9;

  if (options.traced) {
    result.layers["server.wall_ms"] = static_cast<double>(server_ns) / 1e6;
    ComputeLayers(collector->Take(), origin, sweep_us * 1000, client_ns,
                  &result.layers);
  }
  return result;
}

// --- Metric catalog --------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, in BENCHMARK.json order: set-up time and the virtual
// metrics of the virtual pass.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"resp_mean_ms", "ms"},
    {"resp_p99_ms", "ms"},
    {"cache_efficiency", "ratio"},
    {"origin_kb_per_query", "KB"},
    {"cache_mb", "MB"},
};

// Per-layer metrics, in BENCHMARK.json order. The workload.* wall metrics
// come from the wall pass, the others from the traced replay. The wall
// metrics are end-to-end in what they measure, but across seeds on a
// shared host they spread wider than any bound BENCHMARK.json may set
// (README.md, How the bounds were set).
constexpr MetricDef kLayers[] = {
    {"core.request.self_wall_ms", "ms"},
    {"core.template_match.self_wall_ms", "ms"},
    {"core.cache_lookup.self_wall_ms", "ms"},
    {"core.cache_lookup.virtual_ms", "ms"},
    {"core.local_eval.self_wall_ms", "ms"},
    {"core.local_eval.virtual_ms", "ms"},
    {"core.local_eval.count", "count"},
    {"core.remainder_build.self_wall_ms", "ms"},
    {"core.merge.self_wall_ms", "ms"},
    {"core.merge.count", "count"},
    {"core.cache_admit.self_wall_ms", "ms"},
    {"core.cache_admit.count", "count"},
    {"core.exact_hits", "count"},
    {"core.containment_hits", "count"},
    {"core.region_containments", "count"},
    {"core.overlaps", "count"},
    {"core.misses", "count"},
    {"core.collapsed", "count"},
    {"core.cache_answer_share", "ratio"},
    {"core.cache_entries", "count"},
    {"core.evictions", "count"},
    {"core.degraded_full", "count"},
    {"core.degraded_partial", "count"},
    {"core.degraded_unavailable", "count"},
    {"core.edge_tuples", "count"},
    {"sql.serialize.self_wall_ms", "ms"},
    {"sql.serialize.virtual_ms", "ms"},
    {"sql.serialize.count", "count"},
    {"net.origin_roundtrip.proxy_wall_ms", "ms"},
    {"net.origin_roundtrip.virtual_ms", "ms"},
    {"net.origin_roundtrip.count", "count"},
    {"net.wan_requests", "count"},
    {"net.wan_kb_received", "KB"},
    {"net.wan_kb_sent", "KB"},
    {"net.lan_kb_per_query", "KB"},
    {"net.retries", "count"},
    {"net.timeouts", "count"},
    {"net.failed_round_trips", "count"},
    {"net.backoff_virtual_ms", "ms"},
    {"net.breaker_open_rejections", "count"},
    {"net.breaker_transitions", "count"},
    {"net.async_remainders", "count"},
    {"net.batches", "count"},
    {"net.batched_remainders", "count"},
    {"server.form_calls", "count"},
    {"server.sql_calls", "count"},
    {"server.batch_calls", "count"},
    {"server.wall_ms", "ms"},
    {"server.virtual_ms", "ms"},
    {"storage.restore.self_wall_ms", "ms"},
    {"storage.restore.virtual_ms", "ms"},
    {"storage.sweep.wall_ms", "ms"},
    {"storage.sweeps", "count"},
    {"storage.freezes", "count"},
    {"storage.thaws", "count"},
    {"storage.compression_ratio", "ratio"},
    {"workload.attributed_wall_share", "ratio"},
    {"workload.trace_overhead", "ratio"},
    {"workload.throughput_rps", "1/s"},
    {"workload.client_wall_p50_us", "us"},
    {"workload.client_wall_p99_us", "us"},
    {"workload.proxy_wall_mean_us", "us"},
    {"workload.proxy_wall_p50_us", "us"},
    {"workload.proxy_wall_p99_us", "us"},
};

// --- Command line and output -----------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 2004;
  double seconds = 25.0;
  bool trace = false;
  std::string out;
  std::string command;
  std::string git_sha = "unknown";
  bool git_dirty = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--out") {
      args->out = value;
    } else if (arg == "--command") {
      args->command = value;
    } else if (arg == "--git-sha") {
      args->git_sha = value;
    } else if (arg == "--git-dirty") {
      args->git_dirty = value == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double value) {
  out->append(std::isfinite(value) ? util::FormatDouble(value) : "null");
}

/// A reported metric: its value and the values it was computed from (one
/// per setup, trace or replay), whose quartiles the record carries.
struct Reported {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// What `parts` holds one value per: "setups", "traces" or "replays";
  /// empty for a metric of the traced replay.
  std::string over;
  std::vector<double> parts;
  /// Requests a mean or percentile is taken over; 0 for other metrics.
  size_t samples = 0;
};

/// {"name": {"value": ..., "unit": ...}, ...} over `names`; `detail` adds
/// the number of requests and the quartiles of the parts.
std::string MetricsJson(const std::map<std::string, Reported>& reported,
                        const std::vector<std::string>& names, bool detail) {
  std::string json = "{";
  for (const std::string& name : names) {
    const Reported& r = reported.at(name);
    if (json.size() > 1) json += ",";
    AppendJsonString(&json, r.name);
    json += ":{\"value\":";
    AppendJsonNumber(&json, r.value);
    json += ",\"unit\":";
    AppendJsonString(&json, r.unit);
    if (detail) {
      if (r.samples > 0) json += ",\"n\":" + std::to_string(r.samples);
      if (!r.over.empty()) {
        const Quartiles q = QuartilesOf(r.parts);
        json += ",\"" + r.over + "\":{\"count\":" +
                std::to_string(r.parts.size()) + ",\"q1\":";
        AppendJsonNumber(&json, q.q1);
        json += ",\"median\":";
        AppendJsonNumber(&json, q.median);
        json += ",\"q3\":";
        AppendJsonNumber(&json, q.q3);
        json += "}";
      }
    }
    json += "}";
  }
  return json + "}";
}

/// Nearest-rank percentile of unsorted `values`.
double PercentileOf(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, q);
}

/// Mean of `field` over the requests of all `replays`.
double PerRequest(const std::vector<ReplayResult>& replays,
                  double ReplayResult::*field) {
  double sum = 0.0;
  double queries = 0.0;
  for (const ReplayResult& r : replays) {
    sum += r.*field * static_cast<double>(r.queries);
    queries += static_cast<double>(r.queries);
  }
  return queries > 0 ? sum / queries : 0.0;
}

std::vector<double> Field(const std::vector<ReplayResult>& replays,
                          double ReplayResult::*field) {
  std::vector<double> values;
  for (const ReplayResult& r : replays) values.push_back(r.*field);
  return values;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::fprintf(stderr, "bench_e2e: workload %s, seed %llu, %.0f s%s\n",
               workload->name, static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? ", traced" : "");

  // Wall time of each step, printed on stderr.
  std::vector<std::pair<const char*, int64_t>> steps;
  int64_t step_start = NowNs();
  auto step = [&](const char* name) {
    const int64_t now = NowNs();
    steps.emplace_back(name, now - step_start);
    step_start = now;
  };

  // 1. Setup, three times; setup_s is the median.
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < 3; ++i) {
    setup = Setup();
    const int64_t start = NowNs();
    setup = MakeSetup(*workload, args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  workload::SkyExperiment& experiment = *setup.experiment;
  step("setup");

  // 2. Virtual pass. Trace 0 is verified against an oracle. The tiered
  // workload sizes each trace's cache from that trace's distinct result
  // bytes (one budget for all four spread its cache_mb by 8% between seeds
  // instead of 3%), so it builds, and verifies against, every trace's
  // oracle.
  std::vector<std::unique_ptr<Oracle>> oracles(kTraces);
  std::vector<ReplayOptions> options(kTraces);
  for (uint64_t j = 0; j < kTraces; ++j) {
    if (j == 0 || workload->kind == Kind::kTiered) {
      oracles[j] = std::make_unique<Oracle>(experiment, setup.traces[j]);
    }
    ReplayOptions& o = options[j];
    o.config = ConfigFor(
        *workload, oracles[j] ? oracles[j]->distinct_result_bytes() : 0);
    o.clients = 1;
    o.flaky = workload->kind == Kind::kFlaky;
    o.seed = TraceSeed(args.seed, j);
    o.oracle = oracles[j].get();
  }
  step("oracles");
  // The virtual and the wall pass together measure for --seconds.
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t edge_tuples = 0;
  std::vector<std::string> problems;
  auto account = [&](const ReplayResult& r) {
    attempted += r.queries;
    failed += r.failed;
    edge_tuples += r.edge_tuples;
    problems.insert(problems.end(), r.violations.begin(), r.violations.end());
  };

  // Every trace from one client, which gives the virtual metrics:
  // per-request virtual time is exact only with one client, and with
  // several, single-flight and timing make a replay's outcomes vary. On
  // paper-radial, trace 0 also under Second and Third (Figure 6); with
  // several clients, trace 0 also from the workload's clients, so the
  // verification covers the concurrent path. The replays are untimed and
  // independent (own pipeline and clock each), so they run side by side.
  std::vector<ReplayResult> replays(kTraces);
  ReplayResult schemes[2];
  ReplayResult concurrent;
  std::vector<std::function<void()>> tasks;
  for (size_t j = 0; j < kTraces; ++j) {
    tasks.push_back([&, j] {
      replays[j] = RunReplay(experiment, setup.traces[j], options[j]);
    });
  }
  const core::CachingMode modes[2] = {
      core::CachingMode::kActiveRegionContainment,
      core::CachingMode::kActiveContainmentOnly};
  if (workload->kind == Kind::kPaper) {
    for (size_t k = 0; k < 2; ++k) {
      tasks.push_back([&, k] {
        ReplayOptions o = options[0];
        o.config.mode = modes[k];
        schemes[k] = RunReplay(experiment, setup.traces[0], o);
      });
    }
  }
  if (workload->clients > 1) {
    tasks.push_back([&] {
      ReplayOptions o = options[0];
      o.clients = workload->clients;
      concurrent = RunReplay(experiment, setup.traces[0], o);
    });
  }
  ParallelFor(tasks.size(), [&](size_t i) { tasks[i](); });
  for (const ReplayResult& r : replays) account(r);
  if (workload->kind == Kind::kPaper) {
    for (const ReplayResult& r : schemes) account(r);
  }
  if (workload->clients > 1) account(concurrent);

  // Figure 6 on trace 0: handling more relationship cases buys cache
  // efficiency (First > Second > Third). The paper's response-time ordering
  // (Second < Third < First) holds on the paper trace, but the three
  // schemes lie within about 1% of each other and their order changes
  // between seeds, so it is printed, not checked.
  if (workload->kind == Kind::kPaper) {
    const ReplayResult& first = replays[0];
    std::fprintf(stderr,
                 "figure 6: mean response First %.1f / Second %.1f / Third "
                 "%.1f ms; efficiency %.4f / %.4f / %.4f\n",
                 Mean(first.virtual_ms), Mean(schemes[0].virtual_ms),
                 Mean(schemes[1].virtual_ms), first.cache_efficiency,
                 schemes[0].cache_efficiency, schemes[1].cache_efficiency);
    if (!(first.cache_efficiency > schemes[0].cache_efficiency &&
          schemes[0].cache_efficiency > schemes[1].cache_efficiency)) {
      problems.push_back("figure 6: efficiency ordering First > Second > "
                         "Third does not hold");
    }
  }

  step("virtual pass");

  // 3. Wall pass: trace 0 from the workload's clients, with nothing else
  // running in the process, until --seconds have passed since the virtual
  // pass began. A replay starts only if it would end at most half a replay
  // past that; the first always runs. A single-client workload's replays,
  // and the traced replay after them, run pinned (see CpuRotation).
  ReplayOptions wall = options[0];
  wall.clients = workload->clients;
  wall.oracle = nullptr;
  CpuRotation cpus;
  auto pin = [&] {
    if (workload->clients == 1) cpus.PinNext();
  };
  std::vector<ReplayResult> timed;
  do {
    pin();
    timed.push_back(RunReplay(experiment, setup.traces[0], wall));
    account(timed.back());
  } while (NowNs() + static_cast<int64_t>(timed.back().wall_s * 0.5e9) <
           deadline);
  step("wall pass");

  // With one client, an unlimited cache and no tiering, a replay is
  // deterministic in virtual time; a timed replay that diverges from trace
  // 0's verified replay means the timed runs are not the verified ones.
  // (With a byte budget or tiering, LRU order and idle times come from
  // clock reads that the async origin dispatcher can race, so a replay may
  // differ slightly.)
  if (workload->clients == 1 && wall.config.max_cache_bytes == 0 &&
      !wall.config.storage.enable) {
    for (const ReplayResult& r : timed) {
      if (r.virtual_total_us != replays[0].virtual_total_us ||
          r.cache_efficiency != replays[0].cache_efficiency) {
        problems.push_back("a timed replay diverged from the verified replay "
                           "in virtual time or cache efficiency");
        break;
      }
    }
  }

  // Every metric this run measured, by name.
  std::map<std::string, Reported> reported;
  auto report = [&](const std::string& name, double value, std::string over,
                    std::vector<double> parts, size_t samples = 0) {
    Reported r;
    r.name = name;
    for (const auto& catalog : {std::span<const MetricDef>(kEndToEnd),
                                std::span<const MetricDef>(kLayers)}) {
      for (const MetricDef& def : catalog) {
        if (name == def.name) r.unit = def.unit;
      }
    }
    r.value = value;
    r.over = std::move(over);
    r.parts = std::move(parts);
    r.samples = samples;
    reported[name] = std::move(r);
  };
  report("setup_s", QuartilesOf(setup_s).median, "setups", setup_s);

  // Virtual metrics pool the virtual pass: every request of every trace.
  {
    std::vector<double> pooled;
    std::vector<double> means;
    std::vector<double> p99s;
    for (const ReplayResult& r : replays) {
      pooled.insert(pooled.end(), r.virtual_ms.begin(), r.virtual_ms.end());
      means.push_back(Mean(r.virtual_ms));
      p99s.push_back(PercentileOf(r.virtual_ms, 0.99));
    }
    report("resp_mean_ms", Mean(pooled), "traces", means, pooled.size());
    report("resp_p99_ms", PercentileOf(pooled, 0.99), "traces", p99s,
           pooled.size());
    report("cache_efficiency",
           PerRequest(replays, &ReplayResult::cache_efficiency), "traces",
           Field(replays, &ReplayResult::cache_efficiency));
    report("origin_kb_per_query",
           PerRequest(replays, &ReplayResult::origin_kb_per_query), "traces",
           Field(replays, &ReplayResult::origin_kb_per_query));
    const std::vector<double> cache_mb = Field(replays, &ReplayResult::cache_mb);
    report("cache_mb", Mean(cache_mb), "traces", cache_mb);
  }

  // Wall metrics take each request's fastest timed replay; the parts are
  // the timed replays' own values.
  std::vector<double> walls;
  {
    std::vector<std::vector<double>> client_runs;
    std::vector<std::vector<double>> proxy_runs;
    std::vector<double> rps, client_p50, client_p99, proxy_mean, proxy_p50,
        proxy_p99;
    for (ReplayResult& r : timed) {
      walls.push_back(r.wall_s);
      rps.push_back(static_cast<double>(r.queries) / r.wall_s);
      client_p50.push_back(PercentileOf(r.client_us, 0.50));
      client_p99.push_back(PercentileOf(r.client_us, 0.99));
      proxy_mean.push_back(Mean(r.proxy_us));
      proxy_p50.push_back(PercentileOf(r.proxy_us, 0.50));
      proxy_p99.push_back(PercentileOf(r.proxy_us, 0.99));
      client_runs.push_back(std::move(r.client_us));
      proxy_runs.push_back(std::move(r.proxy_us));
    }
    const std::vector<double> client = FastestPerRequest(client_runs);
    const std::vector<double> proxy = FastestPerRequest(proxy_runs);
    const size_t n = client.size();
    report("workload.throughput_rps",
           *std::max_element(rps.begin(), rps.end()), "replays", rps);
    report("workload.client_wall_p50_us", PercentileOf(client, 0.50),
           "replays", client_p50, n);
    report("workload.client_wall_p99_us", PercentileOf(client, 0.99),
           "replays", client_p99, n);
    report("workload.proxy_wall_mean_us", Mean(proxy), "replays", proxy_mean,
           n);
    report("workload.proxy_wall_p50_us", PercentileOf(proxy, 0.50),
           "replays", proxy_p50, n);
    report("workload.proxy_wall_p99_us", PercentileOf(proxy, 0.99),
           "replays", proxy_p99, n);
  }

  // 4. The traced replay: per-layer numbers.
  if (args.trace) {
    ReplayOptions traced = wall;
    traced.traced = true;
    pin();
    ReplayResult t = RunReplay(experiment, setup.traces[0], traced);
    account(t);
    t.layers["workload.trace_overhead"] = t.wall_s / QuartilesOf(walls).median;
    t.layers["core.edge_tuples"] = static_cast<double>(edge_tuples);
    for (const MetricDef& def : kLayers) {
      if (reported.count(def.name) == 0) {
        report(def.name, t.layers.at(def.name), "", {});
      }
    }
    step("traced replay");
  }
  std::fprintf(stderr, "steps:");
  for (const auto& [name, ns] : steps) {
    std::fprintf(stderr, " %s %.1f s;", name, static_cast<double>(ns) / 1e9);
  }
  std::fprintf(stderr, "\n");

  if (edge_tuples > 0) {
    std::fprintf(stderr,
                 "verification: %zu tuple(s) on a cone's edge differ from the "
                 "origin's answer (within the geometry tolerance)\n",
                 edge_tuples);
  }
  const bool correct = problems.empty();
  for (size_t i = 0; i < problems.size() && i < 10; ++i) {
    std::fprintf(stderr, "VERIFICATION FAILED: %s\n", problems[i].c_str());
  }
  if (problems.size() > 10) {
    std::fprintf(stderr, "VERIFICATION FAILED: %zu more violations\n",
                 problems.size() - 10);
  }

  // Human-readable table.
  std::printf("bench_e2e %s seed=%llu clients=%zu traces=%llu timed "
              "replays=%zu%s\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              workload->clients, static_cast<unsigned long long>(kTraces),
              timed.size(), args.trace ? " +1 traced" : "");
  std::vector<std::string> order;  // End-to-end first, then per-layer.
  for (const MetricDef& def : kEndToEnd) order.push_back(def.name);
  for (const MetricDef& def : kLayers) {
    if (reported.count(def.name) != 0) order.push_back(def.name);
  }
  for (const std::string& name : order) {
    const Reported& r = reported.at(name);
    std::string detail;
    if (!r.over.empty()) {
      const Quartiles q = QuartilesOf(r.parts);
      char buf[160];
      std::snprintf(buf, sizeof(buf), "  [%zu %s: q1 %.4f, median %.4f, q3 %.4f",
                    r.parts.size(), r.over.c_str(), q.q1, q.median, q.q3);
      detail = buf;
      if (r.samples > 0) detail += "; n=" + std::to_string(r.samples);
      detail += "]";
    }
    std::printf("  %-36s %14.4f %-6s%s\n", r.name.c_str(), r.value,
                r.unit.c_str(), detail.c_str());
  }
  std::printf("  verification: %s; attempted %llu, failed %llu\n",
              correct ? "green" : "FAILED",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  // The result line holds exactly the end-to-end metrics, or with --trace=1
  // exactly the per-layer ones; the record holds everything measured.
  std::vector<std::string> headline;
  const std::span<const MetricDef> headline_defs =
      args.trace ? std::span<const MetricDef>(kLayers)
                 : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : headline_defs) headline.push_back(def.name);
  if (!args.out.empty()) {
    std::string record = "{\"bench\":\"bench_e2e\",\"workload\":";
    AppendJsonString(&record, workload->name);
    record += ",\"seed\":" + std::to_string(args.seed);
    record += ",\"clients\":" + std::to_string(workload->clients);
    record += ",\"trace\":" + std::string(args.trace ? "1" : "0");
    record += ",\"seconds\":";
    AppendJsonNumber(&record, args.seconds);
    record += ",\"traces\":" + std::to_string(kTraces);
    record += ",\"replays\":" + std::to_string(timed.size());
    record += ",\"correct\":" + std::string(correct ? "true" : "false");
    record += ",\"attempted\":" + std::to_string(attempted);
    record += ",\"failed\":" + std::to_string(failed);
    record += ",\"git_sha\":";
    AppendJsonString(&record, args.git_sha);
    record += ",\"git_dirty\":";
    record += args.git_dirty ? "true" : "false";
    record += ",\"build_type\":";
    AppendJsonString(&record, FNPROXY_E2E_BUILD_TYPE);
    record += ",\"compiler\":";
    AppendJsonString(&record, kCompiler);
    record += ",\"command\":";
    AppendJsonString(&record, args.command);
    record += ",\"nproc\":" +
              std::to_string(std::thread::hardware_concurrency());
    record += ",\"dispatch\":";
    AppendJsonString(&record, util::simd::DispatchPathName());
    record += ",\"metrics\":" + MetricsJson(reported, order, true) + "}\n";
    std::FILE* f = std::fopen(args.out.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot append to %s\n", args.out.c_str());
      return 1;
    }
    std::fwrite(record.data(), 1, record.size(), f);
    std::fclose(f);
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(reported, headline, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fnproxy::e2e

int main(int argc, char** argv) { return fnproxy::e2e::Main(argc, argv); }
