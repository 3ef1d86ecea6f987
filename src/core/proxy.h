#ifndef FNPROXY_CORE_PROXY_H_
#define FNPROXY_CORE_PROXY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cache_store.h"
#include "core/hash_ring.h"
#include "core/query_plan.h"
#include "net/circuit_breaker.h"
#include "core/single_flight.h"
#include "core/template_registry.h"
#include "geometry/region.h"
#include "net/http.h"
#include "net/network.h"
#include "net/peer_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/table_xml.h"
#include "sql/value.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace fnproxy::core {

/// The caching scheme a proxy instance runs (paper §3.2 / §4.2):
///   kNoCache                 — NC: tunneling proxy, everything forwarded.
///   kPassive                 — PC: traditional exact-URL-match caching.
///   kActiveFull              — "First": full semantic caching (exact,
///                              containment, overlap via remainder queries,
///                              region containment with coalescing).
///   kActiveRegionContainment — "Second": exact + containment + region
///                              containment; general overlap not handled.
///   kActiveContainmentOnly   — "Third": exact + containment only.
enum class CachingMode {
  kNoCache,
  kPassive,
  kActiveFull,
  kActiveRegionContainment,
  kActiveContainmentOnly,
};

const char* CachingModeName(CachingMode mode);

/// Virtual-time costs of proxy-side processing, charged on the shared
/// simulated clock. Description comparisons make the array/R-tree choice
/// observable; tuple scan/merge costs make local evaluation non-free (the
/// paper finds probe+merge time "can be significant").
/// Defaults model the paper's 2004 Java-servlet proxy whose cached results
/// are XML files on disk: *spatially filtering* a cached result means
/// reading and parsing its XML file tuple by tuple
/// (per_cached_tuple_scan_us dominates, making probe evaluation of
/// overlapping queries "significant" as §3.2 observes). Taking a contained
/// entry's result wholesale — the region-containment probe — costs only the
/// merge. Description checks stay under the paper's observed ~100 ms.
struct ProxyCostModel {
  double request_parse_ms = 0.8;
  double per_description_comparison_us = 1.5;
  /// R-tree traversal makes dependent, branchy accesses while the array is
  /// one sequential scan over packed boxes; each R-tree box comparison is
  /// charged this multiple of the array's (why the paper finds "a linear
  /// search and a tree search have similar main memory performance" at
  /// cache-description sizes).
  double rtree_comparison_factor = 6.0;
  double per_relation_check_us = 10.0;
  double per_cached_tuple_scan_us = 150.0;
  double per_merge_tuple_us = 20.0;
  double per_response_tuple_us = 5.0;
  double per_origin_response_tuple_us = 10.0;
  /// Promoting a frozen entry back to the hot tier decodes its
  /// compressed columns; far cheaper than the XML-parse-dominated cached
  /// scan, but not free.
  double per_frozen_tuple_thaw_us = 2.0;
};

/// The tiered result store (docs/STORAGE.md): entries idle for two virtual
/// seconds are compressed in memory into frozen columnar segments, and the
/// whole cache (plus the stats baseline) can be snapshotted for a warm
/// restart.
struct StorageTierConfig {
  /// Master switch; off = every entry stays hot (pre-tiering behavior).
  bool enable = false;
  /// Snapshot file for warm restarts. When set, the proxy restores from it
  /// at construction (if it exists and restore_on_start) and writes it at
  /// clean shutdown. A crash loses the snapshot's window, which costs a
  /// cold start, never a wrong answer.
  std::string snapshot_path;
  bool restore_on_start = true;
  /// Run sweeps on a dedicated maintenance thread (keeps compression off
  /// the request lane). Off = inline in Handle(), which keeps
  /// single-threaded traces deterministic.
  bool background_maintenance = true;
};

struct ProxyConfig {
  CachingMode mode = CachingMode::kActiveFull;
  /// Cache description implementation: R-tree (ACR) vs array (ACNR).
  bool use_rtree_description = false;
  /// Result-store budget in bytes; 0 = unlimited.
  size_t max_cache_bytes = 0;
  /// Eviction order under a byte budget. kCostAware prices each entry by a
  /// re-fetch cost the proxy fits from its own form-endpoint round trips.
  ReplacementPolicy replacement = ReplacementPolicy::kCostAware;
  /// Number of cache shards (each with its own reader–writer lock and
  /// description index). 1 preserves the seed's single-threaded behavior
  /// exactly; concurrent drivers typically use 8–16.
  size_t cache_shards = 1;
  ProxyCostModel costs;
  /// Circuit breaker guarding the origin channel (disabled by default).
  /// While the origin is unreachable (breaker open or retries exhausted), an
  /// active proxy answers subsumed queries from the cache, serves the cached
  /// portion of overlapping queries annotated partial="true" with a coverage
  /// fraction, and returns 503 + Retry-After only when the cache contributes
  /// nothing.
  net::CircuitBreakerConfig breaker;
  /// Single-flight collapsing: concurrent origin-bound requests for the
  /// same (template, non-spatial fingerprint) whose region is covered by an
  /// in-flight leader's region share that leader's origin fetch instead of
  /// issuing their own (the thundering-herd defense for flash crowds).
  bool collapse_inflight = true;
  /// Admission control: maximum concurrently admitted requests. Above this
  /// the proxy sheds with 503 + Retry-After instead of queuing unboundedly.
  /// 0 disables admission control.
  size_t max_queue_depth = 0;
  /// Soft watermark (fraction of max_queue_depth): once in-flight requests
  /// exceed it, new *origin-bound* work is shed while cache hits, subsumed
  /// queries and single-flight followers still pass — the cheap lane keeps
  /// draining when the expensive lane is saturated.
  double origin_shed_watermark = 0.75;
  /// Capacity of the in-memory ring of recent per-query traces served by
  /// GET /proxy/trace?last=N. 0 disables span recording entirely (the
  /// per-phase histograms behind GET /metrics stay on either way).
  size_t trace_ring_capacity = 64;
  /// Optional sink receiving every completed query trace (not owned; must
  /// outlive the proxy). `run_trace --trace-out=PATH` plugs a JSONL writer
  /// in here for offline analysis.
  obs::TraceSink* trace_sink = nullptr;
  /// Tiered storage: freeze / thaw and warm-restart snapshots.
  StorageTierConfig storage;
};

/// Per-query bookkeeping used by the experiment harness. Cache efficiency is
/// the paper's metric: result tuples served from the proxy cache over total
/// result tuples of the query (§4.1).
struct QueryRecord {
  geometry::RegionRelation status = geometry::RegionRelation::kDisjoint;
  bool handled_by_template = false;
  bool contacted_origin = false;
  /// The request ended in an error or transport failure.
  bool failed = false;
  /// Answered (fully, partially, or refused) without a live origin.
  bool degraded = false;
  /// Served from another request's in-flight origin fetch (single-flight
  /// follower) — no origin round trip of its own.
  bool collapsed = false;
  /// Rejected by admission control (overload / origin backlog / deadline).
  bool shed = false;
  /// Served from a cooperative-tier sibling's cache or in-flight fetch
  /// — no origin round trip of its own.
  bool peer_hit = false;
  /// A peer probe failed (outage, garbage, or open peer breaker) and the
  /// request fell back to the origin.
  bool peer_degraded = false;
  /// Fraction of the query's region volume the answer covers; 1 except for
  /// degraded partial answers.
  double coverage = 1.0;
  size_t tuples_total = 0;
  size_t tuples_from_cache = 0;
  /// The reason a 503 refusal or a partial answer carries (its
  /// X-Shed-Reason, or its result's degraded= attribute); empty for every
  /// other answer. Views one of the proxy's static reason strings.
  std::string_view reason;

  /// Cache efficiency (paper §4.1) with failure-aware conventions:
  ///  * failed requests score 0 — an error page serves no tuples;
  ///  * zero-tuple answers that contacted the origin score 0; zero-tuple
  ///    answers derived purely from cached knowledge score 1 (the cache
  ///    proved emptiness, doing all the work the origin would have done);
  ///  * degraded partial answers are scaled by the region coverage actually
  ///    served, so a half-covered overlap answered cache-only scores 0.5
  ///    rather than masquerading as a full answer.
  double CacheEfficiency() const {
    if (failed) return 0.0;
    double base;
    if (tuples_total == 0) {
      base = contacted_origin ? 0.0 : 1.0;
    } else {
      base = static_cast<double>(tuples_from_cache) /
             static_cast<double>(tuples_total);
    }
    return base * coverage;
  }
};

/// A plain, copyable snapshot of the proxy's statistics. The live counters
/// inside FunctionProxy are atomics; `FunctionProxy::stats()` materializes
/// them into this struct in a single pass, so a snapshot is internally
/// consistent enough for reporting even while requests are in flight.
struct ProxyStats {
  uint64_t requests = 0;
  /// XML rendering served by the proxy's /proxy/stats admin endpoint.
  std::string ToXml() const;
  uint64_t template_requests = 0;
  uint64_t exact_hits = 0;
  uint64_t containment_hits = 0;
  uint64_t region_containments = 0;
  uint64_t overlaps_handled = 0;
  uint64_t misses = 0;
  uint64_t origin_form_requests = 0;
  uint64_t origin_sql_requests = 0;
  /// Overlap and region-containment requests whose probe held no tuple and
  /// that therefore sent the original form query instead of a remainder
  /// (counted in region_containments / overlaps_handled as well).
  uint64_t remainders_elided = 0;
  /// Origin round trips that ended in failure after all retries.
  uint64_t origin_failures = 0;
  /// Retry attempts this proxy's origin traffic caused on its channel.
  uint64_t origin_retries = 0;
  /// Requests short-circuited without a round trip by an open breaker.
  uint64_t breaker_open_rejections = 0;
  /// Breaker state transitions so far (snapshot of the state machine).
  uint64_t breaker_transitions = 0;
  /// Degraded-mode answers: full (subsumed query served while the breaker
  /// was open), partial (overlap served from the cached portion only), and
  /// unavailable (503 — the cache contributed nothing).
  uint64_t degraded_full = 0;
  uint64_t degraded_partial = 0;
  uint64_t degraded_unavailable = 0;
  /// Overload-control counters: requests served off another request's
  /// origin fetch, requests shed by admission control (all reasons), and
  /// requests whose client deadline expired before an answer could fit.
  uint64_t collapsed = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  /// Cooperative tier: probes sent to owning siblings (all outcomes),
  /// requests answered from a sibling's cache or in-flight fetch, and peer
  /// round trips that failed or returned garbage.
  uint64_t peer_lookups = 0;
  uint64_t peer_hits = 0;
  uint64_t peer_failures = 0;
  /// Sum of coverage fractions over degraded partial answers.
  double coverage_served = 0.0;
  int64_t check_micros = 0;
  int64_t local_eval_micros = 0;
  int64_t merge_micros = 0;
  std::vector<QueryRecord> records;

  double AverageCacheEfficiency() const;
};

/// A proxy's membership in a cooperative tier: its own node id, the shared
/// consistent-hash ring mapping region ownership keys to proxies, and one
/// breaker-guarded channel per sibling (keyed by node id, self excluded).
/// The ring and channels are owned by the tier topology (workload::ProxyTier)
/// and must outlive the proxy; configure before traffic starts.
struct PeerGroup {
  std::string self_id;
  const HashRing* ring = nullptr;
  std::map<std::string, net::PeerChannel*> peers;
};

/// The function proxy (paper Fig. 4): an HTTP handler that intercepts
/// search-form requests, uses registered templates to reason about the
/// queries behind them, answers what it can from cached results, and
/// collaborates with the origin site (original or remainder queries) for the
/// rest. Non-template traffic is tunneled through unchanged, except the
/// reserved admin endpoint /proxy/stats, which returns the live ProxyStats
/// and cache state as XML without contacting the origin.
///
/// Handle() is thread-safe: the cache is sharded with reader–writer locks,
/// statistics counters are atomics (per-query records live behind a small
/// mutex), and the relationship check hands back shared snapshots so entries
/// stay usable across concurrent eviction. Many worker threads may drive one
/// proxy instance (see util::ThreadPool / workload::RemoteBrowserEmulator).
class FunctionProxy final : public net::HttpHandler {
 public:
  /// `templates`, `origin` and `clock` must outlive the proxy.
  FunctionProxy(ProxyConfig config, const TemplateRegistry* templates,
                net::SimulatedChannel* origin, util::SimulatedClock* clock);
  /// Drains the maintenance thread, then writes the clean-shutdown snapshot
  /// when config().storage.snapshot_path is set.
  ~FunctionProxy() override;

  net::HttpResponse Handle(const net::HttpRequest& request) override
      EXCLUDES(records_mu_);

  /// Consistent snapshot of the statistics (single pass over the atomics
  /// plus one lock acquisition for the per-query records).
  ProxyStats stats() const EXCLUDES(records_mu_);
  const CacheStore& cache() const { return *cache_; }
  const ProxyConfig& config() const { return config_; }
  const net::CircuitBreaker& breaker() const { return *breaker_; }

  /// Joins a cooperative tier (see PeerGroup). Not thread-safe with respect
  /// to Handle(): call during topology setup, before traffic.
  void set_peer_group(PeerGroup group) {
    peer_group_ = std::move(group);
    has_peers_ =
        peer_group_.ring != nullptr && !peer_group_.peers.empty();
  }

  /// The metrics registry behind GET /metrics. All proxy counters and
  /// per-phase latency histograms live here (see docs/OBSERVABILITY.md for
  /// the catalog); /proxy/stats renders from the same instruments, so the
  /// two endpoints can never disagree. The mutable overload lets the
  /// experiment harness co-register its own instruments (e.g. client-side
  /// latency) so one scrape covers the whole pipeline.
  const obs::MetricsRegistry& metrics() const { return registry_; }
  obs::MetricsRegistry& metrics() { return registry_; }
  /// Ring of recent completed query traces (GET /proxy/trace?last=N).
  const obs::TraceRing& trace_ring() const { return trace_ring_; }

  /// Writes a warm-restart snapshot (docs/FORMATS.md §13): every cache
  /// entry as a compressed frozen segment plus the statistics baseline
  /// (counters, per-query records, coverage) needed to make a restarted
  /// proxy's /proxy/stats XML byte-identical to the writer's. Atomic
  /// (tmp + rename); safe to call concurrently with traffic.
  util::Status WriteSnapshot(const std::string& path) const
      EXCLUDES(records_mu_);
  /// Restores entries + stats baseline from a WriteSnapshot file. Intended
  /// for a freshly constructed proxy (counters are *incremented* by the
  /// snapshot values); returns the number of cache entries restored. The
  /// whole file is parsed before anything is installed, so an error leaves
  /// the cache and the statistics untouched.
  util::StatusOr<size_t> RestoreSnapshot(const std::string& path)
      EXCLUDES(records_mu_);

 private:
  /// Live statistics: raw pointers into registry-owned instruments (stable
  /// for the proxy's lifetime; every increment is one relaxed atomic add).
  /// The same instruments back GET /metrics, stats() / ProxyStats::ToXml()
  /// and the per-phase histograms — one set of atomics, three renderings.
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* template_requests = nullptr;
    obs::Counter* exact_hits = nullptr;
    obs::Counter* containment_hits = nullptr;
    obs::Counter* region_containments = nullptr;
    obs::Counter* overlaps_handled = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* origin_form_requests = nullptr;
    obs::Counter* origin_sql_requests = nullptr;
    obs::Counter* remainders_elided = nullptr;
    obs::Counter* origin_failures = nullptr;
    obs::Counter* breaker_open_rejections = nullptr;
    obs::Counter* degraded_full = nullptr;
    obs::Counter* degraded_partial = nullptr;
    obs::Counter* degraded_unavailable = nullptr;
    /// Overload control: single-flight followers served off a leader's
    /// fetch, sheds by reason, and deadline expirations.
    obs::Counter* inflight_collapsed = nullptr;
    obs::Counter* shed_overload = nullptr;
    obs::Counter* shed_origin_backlog = nullptr;
    obs::Counter* shed_deadline = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    /// Cooperative tier: peer lookups by outcome, failed peer round trips,
    /// and remote single-flight joins.
    obs::Counter* peer_lookup_hit = nullptr;
    obs::Counter* peer_lookup_flight = nullptr;
    obs::Counter* peer_lookup_fetched = nullptr;
    obs::Counter* peer_lookup_miss = nullptr;
    obs::Counter* peer_lookup_error = nullptr;
    obs::Counter* peer_lookup_breaker_open = nullptr;
    obs::Counter* peer_failures = nullptr;
    obs::Counter* peer_flight_joins = nullptr;
    /// Modeled virtual-time totals (exact computed costs, deterministic even
    /// under concurrency — unlike span durations read off the shared clock).
    obs::Counter* check_micros = nullptr;
    obs::Counter* local_eval_micros = nullptr;
    obs::Counter* merge_micros = nullptr;
    /// End-to-end request latency, virtual and wall clock.
    obs::Histogram* request_duration = nullptr;
    obs::Histogram* request_wall = nullptr;
    /// Per-phase virtual-time latency, one histogram per pipeline phase.
    obs::Histogram* phase_template_match = nullptr;
    obs::Histogram* phase_cache_lookup = nullptr;
    obs::Histogram* phase_local_eval = nullptr;
    obs::Histogram* phase_remainder_build = nullptr;
    obs::Histogram* phase_origin_roundtrip = nullptr;
    obs::Histogram* phase_merge = nullptr;
    obs::Histogram* phase_serialize = nullptr;
    obs::Histogram* phase_cache_admit = nullptr;
    obs::Histogram* phase_peer_lookup = nullptr;
    /// Storage tier: sweep (freeze) wall time, under the phase label
    /// `spill`, and on-demand promotion (thaw) virtual time.
    obs::Histogram* phase_sweep = nullptr;
    obs::Histogram* phase_restore = nullptr;
    /// Relationship-check cost by resulting relation, indexed by
    /// geometry::RegionRelation.
    obs::Histogram* region_compare[5] = {};
  };

  /// Registers every instrument and render-time callback (cache, breaker,
  /// origin channel) into registry_. Constructor-only.
  void RegisterInstruments();

  /// `deadline_micros` is the client's absolute virtual-clock deadline
  /// (0 = none), parsed from X-Deadline-Micros by Handle and threaded down
  /// to every origin round trip.
  net::HttpResponse Forward(const net::HttpRequest& request,
                            int64_t deadline_micros, QueryRecord* record,
                            obs::QueryTrace* trace);
  /// Instantiates the template and runs PlanFor's plan through Execute,
  /// under every caching scheme but NC (DESIGN.md §18).
  net::HttpResponse HandleTemplate(const net::HttpRequest& request,
                                   const QueryTemplate& qt,
                                   const FunctionTemplate& ft,
                                   int64_t deadline_micros, QueryRecord* record,
                                   obs::QueryTrace* trace);

  /// A template request's parameters, region and the fingerprint the
  /// relationship check compares: the non-spatial parameters, or under
  /// passive caching the whole query string (DESIGN.md §18).
  struct Instance {
    std::map<std::string, sql::Value> params;
    std::unique_ptr<geometry::Region> region;
    std::string nonspatial_fp;
  };
  /// Instantiates `request` against its template. An error when a
  /// parameter is missing or malformed: the request has no region.
  util::StatusOr<Instance> Instantiate(const net::HttpRequest& request,
                                       const QueryTemplate& qt,
                                       const FunctionTemplate& ft) const;

  /// A template request after instantiation: what planning and execution
  /// read. The references point into the caller's frame.
  struct TemplateQuery {
    const net::HttpRequest& request;
    const QueryTemplate& qt;
    const FunctionTemplate& ft;
    const geometry::Region& region;
    std::map<std::string, sql::Value> params;
    /// What the relationship check, single-flight and the peer ownership
    /// key compare: the non-spatial parameters, or under passive caching
    /// the whole query string.
    std::string nonspatial_fp;
    int64_t deadline_micros;
    QueryRecord* record;
    obs::QueryTrace* trace;
  };

  /// Checks the query's region against the cache and builds the plan of
  /// the §3.2 case it finds under this proxy's scheme: a client's request
  /// and a sibling's lookup are planned alike.
  QueryPlan PlanFor(const TemplateQuery& q);
  /// Runs `plan` (RunPlan) and counts the request's one outcome under the
  /// plan it ended with: its relation, the leader, the peer, or a miss; a
  /// shed request counts only as shed.
  net::HttpResponse Execute(QueryPlan plan, const TemplateQuery& q);
  /// The executor. Every plan takes the same steps in this order, each
  /// skipped when the plan has nothing for it: EnsureHot/Touch, scan
  /// (local_eval), remainder_build, FetchTable, merge, cache_admit,
  /// order/top, serialize. Rewrites `plan` when it changes course: a
  /// vanished entry or an internal failure makes it a miss, a collapse or a
  /// peer answer substitutes that plan, a remainder the origin failed falls
  /// back to the original query, and an unreachable origin leaves the
  /// probe as a degraded partial answer.
  net::HttpResponse RunPlan(QueryPlan* plan, const TemplateQuery& q);

  /// Admin endpoints (reserved paths, never forwarded to the origin).
  net::HttpResponse HandleStats();
  net::HttpResponse HandleMetrics();
  net::HttpResponse HandleTrace(const net::HttpRequest& request);

  /// Cooperative-tier endpoint (reserved path; siblings only). /peer/lookup
  /// carries a prober's client request: its query string, its form path in
  /// X-Peer-Form and its remaining budget in X-Deadline-Micros. The owner
  /// of the request's region runs PlanFor and RunPlan for it and answers
  /// the result document its own client would get, with the outcome and
  /// the record's tuple counts in X-Peer-* headers (docs/FORMATS.md §11).
  /// 400 when the request does not instantiate; 404 for a refusal, an
  /// error, a partial answer, or a region this proxy does not own.
  net::HttpResponse HandlePeerLookup(const net::HttpRequest& request);

  /// Before an origin trip: asks the sibling owning this query's region
  /// key for its answer to the query. Returns the plan serving that answer
  /// whole, carrying the owner's tuple counts for the record (not admitted
  /// locally; the local flight's followers get it too); nullopt means the
  /// plan goes on to the origin.
  std::optional<QueryPlan> ProbePeer(const TemplateQuery& q,
                                     FlightGuard* local_flight);
  /// The id of the tier member owning `q`'s region key; null when this
  /// proxy is in no tier.
  const std::string* RegionOwner(const TemplateQuery& q) const;

  /// The one origin call for a table: sends `request` — the client's form
  /// request or a /sql remainder the caller built — parses the XML result
  /// and charges the per-tuple parse. Unavailable when the breaker refuses
  /// or the origin is down, ResourceExhausted when the deadline cannot fit
  /// the trip, Internal on a 4xx. Successful form trips feed the cache's
  /// re-fetch cost fit (rows against virtual micros spent in the trip).
  util::StatusOr<sql::Table> FetchTable(const net::HttpRequest& request,
                                        int64_t deadline_micros,
                                        QueryRecord* record,
                                        obs::QueryTrace* trace);

  /// Serializes the rows of `table` in `selection` (zero row
  /// materialization) as the response, charging assembly time. `attrs`
  /// carries partial="true" and the coverage of degraded answers.
  net::HttpResponse Respond(const sql::ColumnarTable& table,
                            const std::vector<uint32_t>& selection,
                            const sql::ResultXmlAttrs& attrs,
                            obs::QueryTrace* trace);
  /// 503 with Retry-After (breaker cooldown when open, 30 s otherwise) and
  /// the machine-readable reason mirrored in both the body and an
  /// X-Shed-Reason header for the client to record. Marks `record` with
  /// the reason: degraded for an unreachable origin, shed otherwise.
  net::HttpResponse Unavailable(std::string_view reason, QueryRecord* record);
  /// Counts a client's finished answer in the client-answer counters (shed,
  /// deadline, degraded and coverage served) and keeps its record. A
  /// sibling's lookup answers no client and is not recorded.
  void RecordAnswer(const QueryRecord& record) EXCLUDES(records_mu_);

  /// Breaker admission check for the origin channel. False means no round
  /// trip may be made now.
  bool OriginAllowed();
  /// True while the breaker is open (degraded bookkeeping for cache-only
  /// answers served during an outage).
  bool BreakerOpen() const;
  /// Feeds an origin round-trip outcome to the breaker and failure stats.
  /// `usable` is false for transport errors, 5xx responses, and well-formed
  /// responses whose body failed to parse (garbage).
  void NoteOriginOutcome(bool usable);

  /// Single-flight collapsing: joins an in-flight leader whose region
  /// covers (template, fingerprint, region) and returns the plan serving
  /// this request from the leader's entry, or arms `guard` as the
  /// new leader (nullopt, guard armed), or decides this request should
  /// fetch solo — collapsing off for this query shape, unusable leader
  /// result, or retry rounds exhausted (nullopt, guard unarmed).
  std::optional<QueryPlan> CollapseOrLead(const TemplateQuery& q,
                                          FlightGuard* guard);

  /// Soft-shed check for the two-priority lane: true once in-flight
  /// requests exceed origin_shed_watermark * max_queue_depth, meaning new
  /// origin-bound work should be refused while cache-served work passes.
  bool OriginBacklogged() const;
  /// True when the remaining client budget cannot fit even one origin round
  /// trip (propagation delay + transfer of `request_bytes` and a minimal
  /// response) — the short-circuit that turns a doomed WAN trip into an
  /// immediate degraded answer.
  bool DeadlineTooTightForOrigin(int64_t deadline_micros,
                                 size_t request_bytes) const;

  /// Virtual cost of `comparisons` box comparisons in the cache description
  /// (R-tree comparisons cost more per unit; see ProxyCostModel).
  double DescriptionCostMicros(size_t comparisons) const;

  /// Inserts a result into the cache (every caching scheme). Accepts the
  /// columnar form directly (row-wise tables convert implicitly) and
  /// pre-resolves `coordinate_columns` to contiguous double arrays before
  /// the entry is frozen, so later region scans run without conversion.
  /// Returns the admitted immutable snapshot (null when not cacheable) so
  /// single-flight leaders can publish it to their followers.
  std::shared_ptr<const CacheEntry> CacheResult(
      const QueryTemplate& qt, const std::string& nonspatial_fp,
      const geometry::Region& region, sql::ColumnarTable result,
      const std::vector<std::string>& coordinate_columns, bool truncated,
      obs::QueryTrace* trace);

  void ChargeMicros(double micros) {
    clock_->Advance(static_cast<int64_t>(micros));
  }

  /// Returns a tier-hot version of `entry` whose `result` holds tuples,
  /// thawing it through the cache when the relationship check handed back
  /// a frozen snapshot. Null when the entry vanished and its tuples are
  /// unrecoverable (treat as a miss). Charges thaw cost and records the
  /// `restore` phase.
  std::shared_ptr<const CacheEntry> EnsureHot(
      const std::shared_ptr<const CacheEntry>& entry, obs::QueryTrace* trace);

  /// Periodic storage maintenance driven off the request count: tier
  /// sweeps (freeze), dispatched to the maintenance thread when
  /// background_maintenance is on.
  void MaybeRunMaintenance();
  /// One freeze pass over the cache; records the `spill` phase (wall
  /// time — runs off the virtual-clock request lane).
  void RunTierSweep(int64_t now_micros);
  /// WriteSnapshot + outcome counters (the clean-shutdown path).
  void WriteSnapshotAndCount() EXCLUDES(records_mu_);

  ProxyConfig config_;
  const TemplateRegistry* templates_;
  net::SimulatedChannel* origin_;
  util::SimulatedClock* clock_;
  std::unique_ptr<CacheStore> cache_;
  std::unique_ptr<net::CircuitBreaker> breaker_;
  /// Single-flight in-flight table (request collapsing).
  SingleFlightTable inflight_;
  /// Concurrently admitted requests (admission-control gauge; admin
  /// endpoints are not counted).
  std::atomic<int64_t> inflight_requests_{0};
  /// Channel retry counters at construction (channels may be shared).
  uint64_t channel_retries_baseline_ = 0;
  /// Cooperative-tier membership (empty when running standalone).
  PeerGroup peer_group_;
  bool has_peers_ = false;

  /// Registry first: instruments in ins_ point into it, and callbacks it
  /// holds read cache_/breaker_/origin_ (all outlive renders).
  obs::MetricsRegistry registry_;
  Instruments ins_;
  obs::TraceRing trace_ring_;
  std::atomic<uint64_t> next_trace_id_{0};
  /// Guards records_ and coverage_served_ (doubles have no atomic +=).
  mutable util::Mutex records_mu_;
  std::vector<QueryRecord> records_ GUARDED_BY(records_mu_);
  double coverage_served_ GUARDED_BY(records_mu_) = 0.0;

  // --- Storage tier (docs/STORAGE.md) ---------------------------------------
  /// Single maintenance worker for sweeps (created only when
  /// storage.enable && background_maintenance). Tasks touch only atomics and
  /// internally locked state (cache_), per the repo's async-capture rules.
  std::unique_ptr<util::ThreadPool> maintenance_pool_;
  std::atomic<uint64_t> maintenance_ticks_{0};
  /// At most one sweep queued or running at a time.
  std::atomic<bool> sweep_scheduled_{false};
  std::atomic<uint64_t> sweeps_run_{0};
  std::atomic<uint64_t> snapshots_written_{0};
  std::atomic<uint64_t> snapshot_errors_{0};
  std::atomic<uint64_t> restored_entries_{0};
  /// Stats carried over from the snapshotted process: origin_retries and
  /// breaker_transitions are computed live from the channel/breaker, so a
  /// restarted proxy adds these baselines to keep /proxy/stats continuous.
  std::atomic<uint64_t> restored_origin_retries_{0};
  std::atomic<uint64_t> restored_breaker_transitions_{0};
};

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_PROXY_H_
