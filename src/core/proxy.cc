#include "core/proxy.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <numeric>
#include <optional>

#include "core/cache_snapshot.h"
#include "core/local_eval.h"
#include "core/region_predicate.h"
#include "core/relationship.h"
#include "geometry/coverage.h"
#include "index/array_index.h"
#include "index/rtree.h"
#include "sql/printer.h"
#include "sql/table_xml.h"
#include "storage/wire.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace fnproxy::core {

using geometry::RegionRelation;
using net::HttpRequest;
using net::HttpResponse;
using sql::Table;
using util::Status;
using util::StatusOr;

const char* CachingModeName(CachingMode mode) {
  switch (mode) {
    case CachingMode::kNoCache:
      return "NC";
    case CachingMode::kPassive:
      return "PC";
    case CachingMode::kActiveFull:
      return "AC-full";
    case CachingMode::kActiveRegionContainment:
      return "AC-region-containment";
    case CachingMode::kActiveContainmentOnly:
      return "AC-containment-only";
  }
  return "?";
}

std::string ProxyStats::ToXml() const {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "<ProxyStats requests=\"%llu\" templateRequests=\"%llu\">\n"
      "  <Hits exact=\"%llu\" containment=\"%llu\" regionContainment=\"%llu\""
      " overlap=\"%llu\"/>\n"
      "  <Misses count=\"%llu\"/>\n"
      "  <Origin formRequests=\"%llu\" sqlRequests=\"%llu\""
      " remaindersElided=\"%llu\" failures=\"%llu\" retries=\"%llu\"/>\n"
      "  <Breaker transitions=\"%llu\" openRejections=\"%llu\"/>\n"
      "  <Degraded full=\"%llu\" partial=\"%llu\" unavailable=\"%llu\""
      " coverageServed=\"%.4f\"/>\n"
      "  <Overload collapsed=\"%llu\" shed=\"%llu\""
      " deadlineExceeded=\"%llu\"/>\n"
      "  <Peer lookups=\"%llu\" hits=\"%llu\" failures=\"%llu\"/>\n"
      "  <TimingMicros check=\"%lld\" localEval=\"%lld\" merge=\"%lld\"/>\n"
      "  <AverageCacheEfficiency>%.4f</AverageCacheEfficiency>\n"
      "</ProxyStats>\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(template_requests),
      static_cast<unsigned long long>(exact_hits),
      static_cast<unsigned long long>(containment_hits),
      static_cast<unsigned long long>(region_containments),
      static_cast<unsigned long long>(overlaps_handled),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(origin_form_requests),
      static_cast<unsigned long long>(origin_sql_requests),
      static_cast<unsigned long long>(remainders_elided),
      static_cast<unsigned long long>(origin_failures),
      static_cast<unsigned long long>(origin_retries),
      static_cast<unsigned long long>(breaker_transitions),
      static_cast<unsigned long long>(breaker_open_rejections),
      static_cast<unsigned long long>(degraded_full),
      static_cast<unsigned long long>(degraded_partial),
      static_cast<unsigned long long>(degraded_unavailable), coverage_served,
      static_cast<unsigned long long>(collapsed),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(peer_lookups),
      static_cast<unsigned long long>(peer_hits),
      static_cast<unsigned long long>(peer_failures),
      static_cast<long long>(check_micros),
      static_cast<long long>(local_eval_micros),
      static_cast<long long>(merge_micros), AverageCacheEfficiency());
  return buffer;
}

double ProxyStats::AverageCacheEfficiency() const {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const QueryRecord& record : records) {
    sum += record.CacheEfficiency();
  }
  return sum / static_cast<double>(records.size());
}

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Retry-After on 503s when no breaker cooldown gives a better value.
constexpr int64_t kRetryAfterSeconds = 30;
/// Why an answer is refused or partial (X-Shed-Reason, docs/FORMATS.md §7).
constexpr std::string_view kOverload = "overload";
constexpr std::string_view kOriginBacklog = "origin-backlog";
constexpr std::string_view kDeadlineExceeded = "deadline-exceeded";
constexpr std::string_view kOriginUnreachable = "origin-unreachable";
/// How long a single-flight follower waits (wall clock) for its leader
/// before fetching on its own. Generous: a leader that dies completes its
/// flight as failed at once, so the bound only guards against a leader
/// wedged inside the origin channel.
constexpr std::chrono::milliseconds kCollapseWait{30'000};
/// Cooperative tier: quantization cell (per dimension) of the region
/// ownership key. Queries whose bounding-box centers fall in the same cell
/// map to the same owning proxy, so exact repeats and concentric contained
/// variants probe the sibling that actually holds the covering entry.
constexpr double kPeerOwnershipCell = 0.05;
/// A storage-tier sweep (freeze pass) runs every N handled requests.
constexpr uint64_t kSweepEveryRequests = 64;
/// The sweep freezes hot entries idle at least this long (virtual micros
/// since their last access).
constexpr int64_t kFreezeIdleMicros = 2'000'000;

// --- Peer wire format helpers ----------------------------------------------
//
// A lookup is the prober's client request: its query string, its form path
// in X-Peer-Form. An answer is the owner's result document for that request,
// with its outcome and tuple counts in X-Peer-* headers.

/// Header lookup tolerant of the wire parser's lowercasing.
const std::string* PeerHeader(const std::map<std::string, std::string>& headers,
                              const std::string& name) {
  auto it = headers.find(name);
  if (it == headers.end()) it = headers.find(util::ToLower(name));
  return it != headers.end() ? &it->second : nullptr;
}

std::string PeerHeaderOr(const std::map<std::string, std::string>& headers,
                         const std::string& name, const char* fallback) {
  const std::string* value = PeerHeader(headers, name);
  return value != nullptr ? *value : fallback;
}

HttpResponse PeerMiss() {
  HttpResponse response;
  response.status_code = 404;
  response.headers["X-Peer-Outcome"] = "miss";
  response.body = "<PeerMiss/>\n";
  return response;
}

}  // namespace

FunctionProxy::FunctionProxy(ProxyConfig config,
                             const TemplateRegistry* templates,
                             net::SimulatedChannel* origin,
                             util::SimulatedClock* clock)
    : config_(config),
      templates_(templates),
      origin_(origin),
      clock_(clock),
      trace_ring_(config.trace_ring_capacity) {
  const bool rtree = config_.use_rtree_description;
  RegionIndexFactory factory = [rtree]() -> std::unique_ptr<index::RegionIndex> {
    if (rtree) return std::make_unique<index::RTreeIndex>();
    return std::make_unique<index::ArrayRegionIndex>();
  };
  cache_ = std::make_unique<CacheStore>(factory, config_.cache_shards,
                                        config_.max_cache_bytes,
                                        config_.replacement);
  breaker_ = std::make_unique<net::CircuitBreaker>(config_.breaker, clock_);
  channel_retries_baseline_ = origin_->retry_stats().retries;
  if (config_.storage.enable && config_.storage.background_maintenance) {
    util::ThreadPool::Options pool_options;
    pool_options.num_threads = 1;
    maintenance_pool_ = std::make_unique<util::ThreadPool>(pool_options);
  }
  RegisterInstruments();
  if (config_.storage.enable && config_.storage.restore_on_start &&
      !config_.storage.snapshot_path.empty()) {
    // A missing snapshot is a cold start, not an error; anything else
    // (corruption, bad version) is surfaced as a counter and logged, and
    // the proxy starts cold rather than half-restored.
    auto restored = RestoreSnapshot(config_.storage.snapshot_path);
    if (!restored.ok() &&
        restored.status().code() != util::StatusCode::kNotFound) {
      snapshot_errors_.fetch_add(1, kRelaxed);
      FNPROXY_LOG(kWarning) << "snapshot restore failed: "
                            << restored.status().ToString();
    }
  }
}

FunctionProxy::~FunctionProxy() {
  // Drain in-flight maintenance first so the shutdown snapshot sees a
  // quiescent cache.
  maintenance_pool_.reset();
  if (config_.storage.enable && !config_.storage.snapshot_path.empty()) {
    WriteSnapshotAndCount();
  }
}

void FunctionProxy::RegisterInstruments() {
  // Counter families. Series of one family must be registered contiguously
  // so RenderPrometheus emits one HELP/TYPE header per family.
  ins_.requests =
      registry_.AddCounter("fnproxy_requests_total", "Requests handled");
  ins_.template_requests = registry_.AddCounter(
      "fnproxy_template_requests_total", "Requests matching a registered template");

  const char* outcome_help = "Template-request outcomes by relationship handling";
  ins_.exact_hits = registry_.AddCounter("fnproxy_cache_outcomes_total",
                                         outcome_help, {{"outcome", "exact_hit"}});
  ins_.containment_hits =
      registry_.AddCounter("fnproxy_cache_outcomes_total", outcome_help,
                           {{"outcome", "containment_hit"}});
  ins_.region_containments =
      registry_.AddCounter("fnproxy_cache_outcomes_total", outcome_help,
                           {{"outcome", "region_containment"}});
  ins_.overlaps_handled =
      registry_.AddCounter("fnproxy_cache_outcomes_total", outcome_help,
                           {{"outcome", "overlap"}});
  ins_.misses = registry_.AddCounter("fnproxy_cache_outcomes_total",
                                     outcome_help, {{"outcome", "miss"}});

  const char* origin_help = "Origin round trips initiated, by endpoint";
  ins_.origin_form_requests = registry_.AddCounter(
      "fnproxy_origin_requests_total", origin_help, {{"endpoint", "form"}});
  ins_.origin_sql_requests = registry_.AddCounter(
      "fnproxy_origin_requests_total", origin_help, {{"endpoint", "sql"}});
  ins_.remainders_elided = registry_.AddCounter(
      "fnproxy_remainders_elided_total",
      "Overlap and region-containment requests whose probe held no tuple, "
      "sent as the original form query instead of a remainder");
  ins_.origin_failures =
      registry_.AddCounter("fnproxy_origin_failures_total",
                           "Origin round trips failed after all retries");
  ins_.breaker_open_rejections = registry_.AddCounter(
      "fnproxy_breaker_open_rejections_total",
      "Requests short-circuited without a round trip by an open breaker");

  const char* degraded_help = "Answers served in degraded mode, by kind";
  ins_.degraded_full = registry_.AddCounter("fnproxy_degraded_answers_total",
                                            degraded_help, {{"kind", "full"}});
  ins_.degraded_partial = registry_.AddCounter(
      "fnproxy_degraded_answers_total", degraded_help, {{"kind", "partial"}});
  ins_.degraded_unavailable =
      registry_.AddCounter("fnproxy_degraded_answers_total", degraded_help,
                           {{"kind", "unavailable"}});

  ins_.inflight_collapsed = registry_.AddCounter(
      "fnproxy_inflight_collapsed_total",
      "Requests served off another request's in-flight origin fetch");
  const char* shed_help =
      "Requests shed by admission control, by reason";
  ins_.shed_overload = registry_.AddCounter("fnproxy_shed_total", shed_help,
                                            {{"reason", "overload"}});
  ins_.shed_origin_backlog = registry_.AddCounter(
      "fnproxy_shed_total", shed_help, {{"reason", "origin_backlog"}});
  ins_.shed_deadline = registry_.AddCounter("fnproxy_shed_total", shed_help,
                                            {{"reason", "deadline"}});
  ins_.deadline_exceeded = registry_.AddCounter(
      "fnproxy_deadline_exceeded_total",
      "Requests whose client deadline expired before an answer could fit");

  const char* peer_lookup_help =
      "Probes sent to the owning tier sibling before an origin trip, by "
      "outcome";
  ins_.peer_lookup_hit = registry_.AddCounter(
      "fnproxy_peer_lookups_total", peer_lookup_help, {{"outcome", "hit"}});
  ins_.peer_lookup_flight = registry_.AddCounter(
      "fnproxy_peer_lookups_total", peer_lookup_help, {{"outcome", "flight"}});
  ins_.peer_lookup_fetched = registry_.AddCounter(
      "fnproxy_peer_lookups_total", peer_lookup_help,
      {{"outcome", "fetched"}});
  ins_.peer_lookup_miss = registry_.AddCounter(
      "fnproxy_peer_lookups_total", peer_lookup_help, {{"outcome", "miss"}});
  ins_.peer_lookup_error = registry_.AddCounter(
      "fnproxy_peer_lookups_total", peer_lookup_help, {{"outcome", "error"}});
  ins_.peer_lookup_breaker_open =
      registry_.AddCounter("fnproxy_peer_lookups_total", peer_lookup_help,
                           {{"outcome", "breaker_open"}});
  ins_.peer_failures = registry_.AddCounter(
      "fnproxy_peer_failures_total",
      "Peer round trips that failed or returned an unusable body");
  ins_.peer_flight_joins = registry_.AddCounter(
      "fnproxy_peer_flight_joins_total",
      "Remote probers served off this proxy's in-flight origin fetches");

  const char* busy_help =
      "Modeled virtual-time spent per phase (exact computed costs)";
  ins_.check_micros = registry_.AddCounter("fnproxy_phase_busy_micros_total",
                                           busy_help, {{"phase", "check"}});
  ins_.local_eval_micros = registry_.AddCounter(
      "fnproxy_phase_busy_micros_total", busy_help, {{"phase", "local_eval"}});
  ins_.merge_micros = registry_.AddCounter("fnproxy_phase_busy_micros_total",
                                           busy_help, {{"phase", "merge"}});

  // Latency histograms.
  ins_.request_duration = registry_.AddHistogram(
      "fnproxy_request_duration_micros",
      "End-to-end request latency on the simulated clock");
  ins_.request_wall =
      registry_.AddHistogram("fnproxy_request_wall_micros",
                             "End-to-end request latency on the wall clock");

  const char* phase_help =
      "Per-phase virtual-time latency through the proxy pipeline";
  struct PhaseSlot {
    const char* label;
    obs::Histogram** slot;
  } slots[] = {
      {"template_match", &ins_.phase_template_match},
      {"cache_lookup", &ins_.phase_cache_lookup},
      {"local_eval", &ins_.phase_local_eval},
      {"remainder_build", &ins_.phase_remainder_build},
      {"origin_roundtrip", &ins_.phase_origin_roundtrip},
      {"merge", &ins_.phase_merge},
      {"serialize", &ins_.phase_serialize},
      {"cache_admit", &ins_.phase_cache_admit},
      {"peer_lookup", &ins_.phase_peer_lookup},
      // The tier sweep's phase; bench/e2e reads it under this name.
      {"spill", &ins_.phase_sweep},
      {"restore", &ins_.phase_restore},
  };
  for (const PhaseSlot& s : slots) {
    *s.slot = registry_.AddHistogram("fnproxy_phase_duration_micros",
                                     phase_help, {{"phase", s.label}});
  }
  for (size_t i = 0; i < 5; ++i) {
    ins_.region_compare[i] = registry_.AddHistogram(
        "fnproxy_region_compare_micros",
        "Relationship-check cost by resulting region relation",
        {{"relation",
          geometry::RegionRelationName(static_cast<RegionRelation>(i))}});
  }

  // Render-time callbacks: the source of truth stays with the owning
  // subsystem; /metrics reads it when scraped, so the two cannot diverge.
  CacheStore* cache = cache_.get();
  registry_.AddCallback("fnproxy_cache_entries", "Cached results currently held",
                        /*is_counter=*/false, {},
                        [cache] { return static_cast<double>(cache->num_entries()); });
  registry_.AddCallback("fnproxy_cache_bytes", "Bytes held by the result cache",
                        /*is_counter=*/false, {},
                        [cache] { return static_cast<double>(cache->bytes_used()); });
  registry_.AddCallback("fnproxy_cache_evictions_total",
                        "Entries evicted by the replacement policy",
                        /*is_counter=*/true, {},
                        [cache] { return static_cast<double>(cache->evictions()); });
  const char* refetch_help =
      "Fitted origin re-fetch cost that prices eviction, by term";
  registry_.AddCallback(
      "fnproxy_cache_refetch_cost_micros", refetch_help, /*is_counter=*/false,
      {{"term", "fixed"}},
      [cache] { return cache->refetch_cost().Current().fixed_micros; });
  registry_.AddCallback(
      "fnproxy_cache_refetch_cost_micros", refetch_help, /*is_counter=*/false,
      {{"term", "per_row"}},
      [cache] { return cache->refetch_cost().Current().per_row_micros; });

  // Storage tier (docs/STORAGE.md): entry counts per tier, compression
  // ratio inputs, tier transitions, and snapshot lifecycle.
  const char* tier_help = "Cache entries currently resident per storage tier";
  registry_.AddCallback("fnproxy_storage_tier_entries", tier_help,
                        /*is_counter=*/false, {{"tier", "hot"}}, [cache] {
                          size_t total = cache->num_entries();
                          size_t cold = cache->frozen_entries();
                          return static_cast<double>(total > cold ? total - cold
                                                                  : 0);
                        });
  registry_.AddCallback("fnproxy_storage_tier_entries", tier_help,
                        /*is_counter=*/false, {{"tier", "frozen"}}, [cache] {
                          return static_cast<double>(cache->frozen_entries());
                        });
  const char* transition_help = "Entry tier transitions, by kind";
  registry_.AddCallback("fnproxy_storage_tier_transitions_total",
                        transition_help, /*is_counter=*/true,
                        {{"transition", "freeze"}}, [cache] {
                          return static_cast<double>(cache->freezes());
                        });
  registry_.AddCallback("fnproxy_storage_tier_transitions_total",
                        transition_help, /*is_counter=*/true,
                        {{"transition", "thaw"}}, [cache] {
                          return static_cast<double>(cache->thaws());
                        });
  const char* frozen_bytes_help =
      "Bytes of frozen entries before and after columnar encoding";
  registry_.AddCallback("fnproxy_storage_frozen_bytes", frozen_bytes_help,
                        /*is_counter=*/false, {{"kind", "raw"}}, [cache] {
                          return static_cast<double>(cache->frozen_raw_bytes());
                        });
  registry_.AddCallback("fnproxy_storage_frozen_bytes", frozen_bytes_help,
                        /*is_counter=*/false, {{"kind", "encoded"}}, [cache] {
                          return static_cast<double>(
                              cache->frozen_encoded_bytes());
                        });
  registry_.AddCallback("fnproxy_storage_sweeps_total",
                        "Tier maintenance sweeps (freeze passes) run",
                        /*is_counter=*/true, {}, [this] {
                          return static_cast<double>(sweeps_run_.load(kRelaxed));
                        });
  const char* snapshot_help = "Warm-restart snapshot writes, by outcome";
  registry_.AddCallback("fnproxy_storage_snapshot_writes_total", snapshot_help,
                        /*is_counter=*/true, {{"outcome", "ok"}}, [this] {
                          return static_cast<double>(
                              snapshots_written_.load(kRelaxed));
                        });
  registry_.AddCallback("fnproxy_storage_snapshot_writes_total", snapshot_help,
                        /*is_counter=*/true, {{"outcome", "error"}}, [this] {
                          return static_cast<double>(
                              snapshot_errors_.load(kRelaxed));
                        });
  registry_.AddCallback("fnproxy_storage_restored_entries_total",
                        "Cache entries restored from a warm-restart snapshot",
                        /*is_counter=*/true, {}, [this] {
                          return static_cast<double>(
                              restored_entries_.load(kRelaxed));
                        });

  net::CircuitBreaker* breaker = breaker_.get();
  registry_.AddCallback(
      "fnproxy_breaker_state",
      "Circuit breaker state (0 closed, 1 open, 2 half-open)",
      /*is_counter=*/false, {},
      [breaker] { return static_cast<double>(breaker->state()); });
  registry_.AddCallback("fnproxy_breaker_transitions_total",
                        "Circuit breaker state transitions",
                        /*is_counter=*/true, {},
                        [breaker] { return static_cast<double>(breaker->transitions()); });
  registry_.AddCallback("fnproxy_breaker_failure_rate",
                        "Failure rate over the breaker's sliding window",
                        /*is_counter=*/false, {},
                        [breaker] { return breaker->FailureRate(); });

  net::SimulatedChannel* origin = origin_;
  registry_.AddCallback(
      "fnproxy_origin_channel_attempts_total",
      "Wire attempts on the origin channel (each retry counts)",
      /*is_counter=*/true, {},
      [origin] { return static_cast<double>(origin->retry_stats().attempts); });
  registry_.AddCallback(
      "fnproxy_origin_channel_retries_total",
      "Retry attempts on the origin channel", /*is_counter=*/true, {},
      [origin] { return static_cast<double>(origin->retry_stats().retries); });
  registry_.AddCallback(
      "fnproxy_origin_channel_timeouts_total",
      "Per-attempt timeouts on the origin channel", /*is_counter=*/true, {},
      [origin] { return static_cast<double>(origin->retry_stats().timeouts); });
  registry_.AddCallback(
      "fnproxy_origin_channel_backoff_micros_total",
      "Virtual time spent in retry backoff on the origin channel",
      /*is_counter=*/true, {},
      [origin] {
        return static_cast<double>(origin->retry_stats().backoff_micros_total);
      });
  registry_.AddCallback(
      "fnproxy_origin_channel_bytes_total", "Bytes moved on the origin channel",
      /*is_counter=*/true, {{"direction", "sent"}},
      [origin] { return static_cast<double>(origin->total_bytes_sent()); });
  registry_.AddCallback(
      "fnproxy_origin_channel_bytes_total", "Bytes moved on the origin channel",
      /*is_counter=*/true, {{"direction", "received"}},
      [origin] { return static_cast<double>(origin->total_bytes_received()); });

  registry_.AddCallback(
      "fnproxy_degraded_coverage_served_total",
      "Sum of coverage fractions over degraded partial answers",
      /*is_counter=*/true, {}, [this] {
        util::MutexLock lock(records_mu_);
        return coverage_served_;
      });
  registry_.AddCallback(
      "fnproxy_traces_recorded_total", "Completed query traces recorded",
      /*is_counter=*/true, {},
      [this] { return static_cast<double>(trace_ring_.total_pushed()); });

  registry_.AddCallback(
      "fnproxy_queue_depth",
      "Requests concurrently admitted (admission-control gauge)",
      /*is_counter=*/false, {}, [this] {
        return static_cast<double>(inflight_requests_.load(kRelaxed));
      });
  registry_.AddCallback(
      "fnproxy_inflight_flights",
      "Origin fetches currently in flight in the single-flight table",
      /*is_counter=*/false, {},
      [this] { return static_cast<double>(inflight_.inflight()); });
}

ProxyStats FunctionProxy::stats() const {
  ProxyStats s;
  s.requests = ins_.requests->Value();
  s.template_requests = ins_.template_requests->Value();
  s.exact_hits = ins_.exact_hits->Value();
  s.containment_hits = ins_.containment_hits->Value();
  s.region_containments = ins_.region_containments->Value();
  s.overlaps_handled = ins_.overlaps_handled->Value();
  s.misses = ins_.misses->Value();
  s.origin_form_requests = ins_.origin_form_requests->Value();
  s.origin_sql_requests = ins_.origin_sql_requests->Value();
  s.remainders_elided = ins_.remainders_elided->Value();
  s.origin_failures = ins_.origin_failures->Value();
  s.breaker_open_rejections = ins_.breaker_open_rejections->Value();
  s.degraded_full = ins_.degraded_full->Value();
  s.degraded_partial = ins_.degraded_partial->Value();
  s.degraded_unavailable = ins_.degraded_unavailable->Value();
  s.collapsed = ins_.inflight_collapsed->Value();
  s.shed = ins_.shed_overload->Value() + ins_.shed_origin_backlog->Value() +
           ins_.shed_deadline->Value();
  s.deadline_exceeded = ins_.deadline_exceeded->Value();
  s.peer_lookups = ins_.peer_lookup_hit->Value() +
                   ins_.peer_lookup_flight->Value() +
                   ins_.peer_lookup_fetched->Value() +
                   ins_.peer_lookup_miss->Value() +
                   ins_.peer_lookup_error->Value() +
                   ins_.peer_lookup_breaker_open->Value();
  s.peer_hits =
      ins_.peer_lookup_hit->Value() + ins_.peer_lookup_flight->Value();
  s.peer_failures = ins_.peer_failures->Value();
  s.check_micros = static_cast<int64_t>(ins_.check_micros->Value());
  s.local_eval_micros = static_cast<int64_t>(ins_.local_eval_micros->Value());
  s.merge_micros = static_cast<int64_t>(ins_.merge_micros->Value());
  // transitions/retries are computed live from the breaker and channel; a
  // warm-restarted proxy adds the snapshotted baselines so the series
  // continues where the previous process left off.
  s.breaker_transitions =
      breaker_->transitions() + restored_breaker_transitions_.load(kRelaxed);
  s.origin_retries = origin_->retry_stats().retries -
                     channel_retries_baseline_ +
                     restored_origin_retries_.load(kRelaxed);
  {
    util::MutexLock lock(records_mu_);
    s.coverage_served = coverage_served_;
    s.records = records_;
  }
  return s;
}

bool FunctionProxy::OriginAllowed() {
  return !config_.breaker.enabled || breaker_->Allow();
}

bool FunctionProxy::BreakerOpen() const {
  return config_.breaker.enabled && breaker_->state() == net::BreakerState::kOpen;
}

void FunctionProxy::NoteOriginOutcome(bool usable) {
  if (usable) {
    breaker_->RecordSuccess();
  } else {
    ins_.origin_failures->Increment();
    breaker_->RecordFailure();
  }
}

bool FunctionProxy::OriginBacklogged() const {
  if (config_.max_queue_depth == 0) return false;
  double watermark = config_.origin_shed_watermark *
                     static_cast<double>(config_.max_queue_depth);
  return static_cast<double>(inflight_requests_.load(kRelaxed)) > watermark;
}

bool FunctionProxy::DeadlineTooTightForOrigin(int64_t deadline_micros,
                                              size_t request_bytes) const {
  if (deadline_micros == 0) return false;
  int64_t remaining = deadline_micros - clock_->NowMicros();
  if (remaining <= 0) return true;
  // The cheapest possible origin round trip: ship the request, get back a
  // minimal response. If even that cannot fit, the WAN trip is doomed and
  // the budget is better spent on a local degraded answer.
  const net::LinkConfig& link = origin_->link();
  int64_t floor = link.TransferMicros(request_bytes) + link.TransferMicros(64);
  return remaining < floor;
}

HttpResponse FunctionProxy::Unavailable(std::string_view reason,
                                        QueryRecord* record) {
  (reason == kOriginUnreachable ? record->degraded : record->shed) = true;
  record->reason = reason;
  HttpResponse response;
  response.status_code = 503;
  response.body = std::string("<Error code=\"503\" reason=\"") +
                  std::string(reason) + "\"/>\n";
  int64_t cooldown = breaker_->CooldownRemainingMicros();
  int64_t seconds = cooldown > 0 ? (cooldown + 999'999) / 1'000'000
                                 : kRetryAfterSeconds;
  response.headers["Retry-After"] = std::to_string(seconds);
  response.headers["X-Shed-Reason"] = std::string(reason);
  return response;
}

void FunctionProxy::RecordAnswer(const QueryRecord& record) {
  const bool deadline = record.reason == kDeadlineExceeded;
  const bool partial =
      record.degraded && !record.failed && !record.reason.empty();
  if (record.shed) {
    (record.reason == kOverload   ? ins_.shed_overload
     : deadline                   ? ins_.shed_deadline
                                  : ins_.shed_origin_backlog)
        ->Increment();
  } else if (record.degraded) {
    (record.failed ? ins_.degraded_unavailable
     : partial     ? ins_.degraded_partial
                   : ins_.degraded_full)
        ->Increment();
  }
  if (deadline && (record.shed || partial)) {
    ins_.deadline_exceeded->Increment();
  }
  util::MutexLock lock(records_mu_);
  if (partial) coverage_served_ += record.coverage;
  records_.push_back(record);
}

HttpResponse FunctionProxy::Forward(const HttpRequest& request,
                                    int64_t deadline_micros,
                                    QueryRecord* record,
                                    obs::QueryTrace* trace) {
  if (!OriginAllowed()) {
    ins_.breaker_open_rejections->Increment();
    return Unavailable(kOriginUnreachable, record);
  }
  if (OriginBacklogged()) return Unavailable(kOriginBacklog, record);
  if (DeadlineTooTightForOrigin(deadline_micros, request.ByteSize())) {
    return Unavailable(kDeadlineExceeded, record);
  }
  record->contacted_origin = true;
  ins_.origin_form_requests->Increment();
  obs::ScopedSpan span(trace, "origin_roundtrip", clock_,
                       ins_.phase_origin_roundtrip);
  span.AddAttr("endpoint", "form");
  HttpResponse response = origin_->RoundTrip(request, deadline_micros);
  span.AddAttr("status", std::to_string(response.status_code));
  NoteOriginOutcome(!net::RetryPolicy::Retryable(response));
  return response;
}

StatusOr<Table> FunctionProxy::FetchTable(const HttpRequest& request,
                                          int64_t deadline_micros,
                                          QueryRecord* record,
                                          obs::QueryTrace* trace) {
  if (!OriginAllowed()) {
    ins_.breaker_open_rejections->Increment();
    return Status::Unavailable("circuit breaker open");
  }
  // kResourceExhausted is this layer's deadline marker: the caller turns it
  // into a deadline-reasoned degraded answer instead of blaming the origin.
  if (DeadlineTooTightForOrigin(deadline_micros, request.ByteSize())) {
    return Status::ResourceExhausted("deadline cannot fit an origin trip");
  }
  const bool remainder = request.path == "/sql";
  record->contacted_origin = true;
  (remainder ? ins_.origin_sql_requests : ins_.origin_form_requests)
      ->Increment();
  obs::ScopedSpan span(trace, "origin_roundtrip", clock_,
                       ins_.phase_origin_roundtrip);
  span.AddAttr("endpoint", remainder ? "sql" : "form");
  const int64_t round_trip_start = clock_->NowMicros();
  HttpResponse response = origin_->RoundTrip(request, deadline_micros);
  const int64_t round_trip_micros = clock_->NowMicros() - round_trip_start;
  span.AddAttr("status", std::to_string(response.status_code));
  if (!response.ok()) {
    bool origin_down = net::RetryPolicy::Retryable(response);
    NoteOriginOutcome(!origin_down);
    std::string message = std::string("origin error ") +
                          std::to_string(response.status_code) + ": " +
                          response.body;
    return origin_down ? Status::Unavailable(std::move(message))
                       : Status::Internal(std::move(message));
  }
  // A 200 whose body does not parse as a result table is as unusable as a
  // 500 — it must count against the origin and never reach the cache.
  auto table = sql::TableFromXml(response.body);
  NoteOriginOutcome(table.ok());
  if (!table.ok()) return table.status();
  // A remainder re-fetches only part of a region, so only form trips price
  // a whole entry's re-fetch.
  if (!remainder) {
    cache_->refetch_cost().AddSample(table->num_rows(), round_trip_micros);
  }
  ChargeMicros(config_.costs.per_origin_response_tuple_us *
               static_cast<double>(table->num_rows()));
  span.AddAttr("rows", std::to_string(table->num_rows()));
  return table;
}

HttpResponse FunctionProxy::Respond(const sql::ColumnarTable& table,
                                    const std::vector<uint32_t>& selection,
                                    const sql::ResultXmlAttrs& attrs,
                                    obs::QueryTrace* trace) {
  obs::ScopedSpan span(trace, "serialize", clock_, ins_.phase_serialize);
  span.AddAttr("rows", std::to_string(selection.size()));
  if (attrs.partial) span.AddAttr("partial", "true");
  ChargeMicros(config_.costs.per_response_tuple_us *
               static_cast<double>(selection.size()));
  HttpResponse response;
  response.body =
      sql::TableToXml(table, attrs, selection.data(), selection.size());
  return response;
}

double FunctionProxy::DescriptionCostMicros(size_t comparisons) const {
  double factor = config_.use_rtree_description
                      ? config_.costs.rtree_comparison_factor
                      : 1.0;
  return config_.costs.per_description_comparison_us * factor *
         static_cast<double>(comparisons);
}

std::shared_ptr<const CacheEntry> FunctionProxy::CacheResult(
    const QueryTemplate& qt, const std::string& nonspatial_fp,
    const geometry::Region& region, sql::ColumnarTable result,
    const std::vector<std::string>& coordinate_columns, bool truncated,
    obs::QueryTrace* trace) {
  obs::ScopedSpan span(trace, "cache_admit", clock_, ins_.phase_cache_admit);
  span.AddAttr("rows", std::to_string(result.num_rows()));
  // Resolve coordinate columns to contiguous double arrays now, while the
  // entry is still private to this thread; after Insert the entry is frozen
  // behind shared_ptr<const CacheEntry> and scanned concurrently.
  for (const std::string& name : coordinate_columns) {
    auto idx = result.schema().FindColumn(name);
    if (idx.has_value()) {
      (void)result.PrepareNumericView(*idx);
    }
  }
  CacheEntry entry;
  entry.template_id = qt.id();
  entry.nonspatial_fingerprint = nonspatial_fp;
  entry.region = region.Clone();
  entry.result = std::move(result);
  entry.truncated = truncated;
  entry.last_access_micros = clock_->NowMicros();
  entry.access_count = 1;
  size_t comparisons = 0;
  std::shared_ptr<const CacheEntry> snapshot;
  cache_->Insert(std::move(entry), &comparisons, &snapshot);
  ChargeMicros(DescriptionCostMicros(comparisons));
  return snapshot;
}

std::optional<QueryPlan> FunctionProxy::CollapseOrLead(const TemplateQuery& q,
                                                       FlightGuard* guard) {
  // A few rounds: when a leader fails, one of its followers becomes the
  // next round's leader, so a transient leader error wakes the herd one
  // request at a time instead of fanning everyone out to the origin.
  for (int round = 0; round < 3; ++round) {
    SingleFlightTable::Ticket ticket =
        inflight_.JoinOrLead(q.qt.id(), q.nonspatial_fp, q.region);
    if (ticket.leader) {
      *guard = FlightGuard(&inflight_, ticket.token);
      return std::nullopt;
    }
    if (ticket.result.wait_for(kCollapseWait) != std::future_status::ready) {
      // Leader wedged past the bound: fetch solo rather than hang. The
      // flight stays registered; its own guard will complete it eventually.
      return std::nullopt;
    }
    FlightOutcome outcome = ticket.result.get();
    if (outcome.entry == nullptr) continue;
    const bool equal = geometry::Equals(*outcome.entry->region, q.region);
    // Truncated (TOP-cut) entries serve exact regions only, and templates
    // with function-computed projections cannot reuse a larger region's
    // tuples (the computed values would be stale) — fetch solo instead.
    if (!equal && (q.qt.function_dependent_projection() ||
                   outcome.entry->truncated)) {
      return std::nullopt;
    }
    // The leader's entry answers like a cached one: whole when its region
    // is ours, by local spatial selection when it strictly contains ours.
    return QueryPlan::FromEntry(std::move(outcome.entry), /*scan=*/!equal,
                                QueryPlan::Source::kLeader);
  }
  return std::nullopt;  // Rounds exhausted: fetch solo without leading.
}

StatusOr<FunctionProxy::Instance> FunctionProxy::Instantiate(
    const HttpRequest& request, const QueryTemplate& qt,
    const FunctionTemplate& ft) const {
  Instance instance;
  for (const auto& [key, text] : request.query_params) {
    instance.params[key] = sql::ParseValueFromText(text);
  }
  FNPROXY_ASSIGN_OR_RETURN(auto args, qt.FunctionArgs(instance.params));
  FNPROXY_ASSIGN_OR_RETURN(instance.region, ft.BuildRegion(args));
  // Passive caching compares the whole query string, so an entry can
  // match only a request of the identical URL (DESIGN.md §18).
  if (config_.mode == CachingMode::kPassive) {
    instance.nonspatial_fp = net::BuildQueryString(request.query_params);
  } else {
    FNPROXY_ASSIGN_OR_RETURN(instance.nonspatial_fp,
                             qt.NonSpatialFingerprint(instance.params));
  }
  return instance;
}

HttpResponse FunctionProxy::HandleTemplate(const HttpRequest& request,
                                           const QueryTemplate& qt,
                                           const FunctionTemplate& ft,
                                           int64_t deadline_micros,
                                           QueryRecord* record,
                                           obs::QueryTrace* trace) {
  auto instance = Instantiate(request, qt, ft);
  if (!instance.ok()) {
    HttpResponse response = Forward(request, deadline_micros, record, trace);
    if (!record->shed) ins_.misses->Increment();
    return response;
  }
  const TemplateQuery q{request, qt, ft, *instance->region,
                        std::move(instance->params),
                        std::move(instance->nonspatial_fp), deadline_micros,
                        record, trace};
  return Execute(PlanFor(q), q);
}

QueryPlan FunctionProxy::PlanFor(const TemplateQuery& q) {
  // --- Relationship check against the cache description. The returned
  // snapshots stay valid even if a concurrent admission evicts the entries
  // before this request finishes using them. ---
  obs::ScopedSpan lookup(q.trace, "cache_lookup", clock_,
                         ins_.phase_cache_lookup);
  RelationshipResult rel =
      CheckRelationship(*cache_, q.qt.id(), q.nonspatial_fp, q.region);
  double check_micros =
      DescriptionCostMicros(rel.description_comparisons) +
      config_.costs.per_relation_check_us *
          static_cast<double>(rel.regions_checked);
  ins_.check_micros->Increment(static_cast<uint64_t>(check_micros));
  ChargeMicros(check_micros);
  q.record->status = rel.status;
  ins_.region_compare[static_cast<size_t>(rel.status)]->Observe(
      static_cast<int64_t>(check_micros));
  lookup.AddAttr("relation", geometry::RegionRelationName(rel.status));
  lookup.AddAttr("description_comparisons",
                 std::to_string(rel.description_comparisons));
  lookup.AddAttr("regions_checked", std::to_string(rel.regions_checked));
  lookup.Finish();

  // --- Plan the §3.2 case. Templates whose projection carries
  // function-computed values (e.g. a distance to the query point) cannot
  // reuse cached tuples for a different query region: those values would
  // be stale. Exact matches remain safe. A case the scheme does not handle
  // is a miss (the default plan). ---
  const bool exact_only = q.qt.function_dependent_projection();
  const bool full = config_.mode == CachingMode::kActiveFull;
  QueryPlan plan;
  switch (rel.status) {
    case RegionRelation::kEqual:  // (a) Serve the cached result.
      plan = QueryPlan::FromEntry(rel.matched, /*scan=*/false);
      break;
    case RegionRelation::kContainedBy:  // (b) Select from the container.
      if (!exact_only) plan = QueryPlan::FromEntry(rel.matched, /*scan=*/true);
      break;
    case RegionRelation::kContains:  // Region containment (Second, First).
    case RegionRelation::kOverlap:   // (c) General overlap (First).
      if (exact_only || config_.mode == CachingMode::kActiveContainmentOnly ||
          (rel.status == RegionRelation::kOverlap && !full)) {
        break;
      }
      plan.relation = rel.status;
      plan.origin = QueryPlan::Origin::kRemainder;
      // Contained regions lie fully inside the query: their results are
      // merged wholesale, with no per-tuple spatial filtering.
      for (const auto& entry : rel.contained) {
        plan.slices.push_back({entry, /*scan=*/false});
      }
      if (!full) break;
      for (const auto& entry : rel.overlapping) {
        plan.slices.push_back({entry, /*scan=*/true});
      }
      break;
    case RegionRelation::kDisjoint:  // (d) Fetch the original query.
      break;
  }
  return plan;
}

HttpResponse FunctionProxy::Execute(QueryPlan plan, const TemplateQuery& q) {
  HttpResponse response = RunPlan(&plan, q);
  q.record->collapsed = plan.source == QueryPlan::Source::kLeader;
  q.record->peer_hit = plan.peer_hit();
  if (q.record->shed) return response;
  // fnproxy_cache_outcomes_total in geometry::RegionRelation order (as
  // region_compare is indexed), then the outcome of each QueryPlan::Source.
  // A sibling's origin fetch is a miss, and its lookup's outcome.
  obs::Counter* const by_relation[] = {
      ins_.exact_hits, ins_.containment_hits, ins_.region_containments,
      ins_.overlaps_handled, ins_.misses};
  obs::Counter* const by_source[] = {
      by_relation[static_cast<size_t>(plan.relation)], ins_.inflight_collapsed,
      ins_.peer_lookup_hit, ins_.peer_lookup_flight, ins_.misses};
  by_source[static_cast<size_t>(plan.source)]->Increment();
  if (plan.source == QueryPlan::Source::kPeerFetch) {
    ins_.peer_lookup_fetched->Increment();
  }
  return response;
}

HttpResponse FunctionProxy::RunPlan(QueryPlan* plan, const TemplateQuery& q) {
  using Origin = QueryPlan::Origin;
  QueryRecord* record = q.record;
  obs::QueryTrace* trace = q.trace;
  const std::vector<std::string>& coords = q.ft.coordinate_columns();
  // An internal failure makes the plan a miss that passes the original
  // query through; a peer answer that fails counts as a peer miss.
  auto fall_back = [&] {
    if (plan->from_peer()) ins_.peer_lookup_miss->Increment();
    *plan = QueryPlan{};
    return Forward(q.request, q.deadline_micros, record, trace);
  };
  // Slices must be tier-hot before their tuples can be read; one whose
  // entry vanished cold drops out, and the origin supplies its tuples.
  auto heat = [&] {
    for (QueryPlan::Slice& slice : plan->slices) {
      slice.entry = EnsureHot(slice.entry, trace);
    }
    std::erase_if(plan->slices, [](const QueryPlan::Slice& slice) {
      return slice.entry == nullptr;
    });
  };

  // --- 1. EnsureHot / Touch. A plan the cache answers alone heats its entry
  // first and becomes a miss when it vanished. An origin-bound plan first
  // tries to avoid its own trip: it collapses onto an in-flight leader
  // covering this query or leads (the guard completes the flight as failed
  // on every early exit, so followers are never stranded); past the
  // backlog watermark it is shed while the cheap cache-served lane keeps
  // draining; and it asks the sibling owning the region, which answers the
  // query under its own plan. ---
  if (plan->origin == Origin::kNone) {
    heat();
    if (plan->slices.empty()) *plan = QueryPlan{};
  }
  FlightGuard flight;
  if (plan->origin != Origin::kNone) {
    std::optional<QueryPlan> served;
    if (config_.collapse_inflight) served = CollapseOrLead(q, &flight);
    if (!served && OriginBacklogged()) {
      return Unavailable(kOriginBacklog, record);
    }
    if (!served) served = ProbePeer(q, &flight);
    if (served) *plan = std::move(*served);  // Its entry is hot already.
    heat();
  }
  if (plan->source == QueryPlan::Source::kCache) {
    for (const QueryPlan::Slice& slice : plan->slices) {
      cache_->Touch(slice.entry->id, clock_->NowMicros());
    }
  }

  // --- 2. Scan (local_eval): whole slices are zero-copy; scanned slices run
  // the membership kernels over their pre-resolved coordinate arrays and
  // yield selection vectors. A slice contributes when it yields a tuple. A
  // probe slice the scan cannot use (no coordinate columns) drops out. ---
  const bool probe = plan->origin == Origin::kRemainder;
  std::vector<std::vector<uint32_t>> selections;
  selections.reserve(plan->slices.size());  // `parts` point into it.
  std::vector<ColumnarSlice> parts;
  std::vector<const geometry::Region*> read, contributing;
  {
    std::optional<obs::ScopedSpan> eval;
    if (probe || std::any_of(plan->slices.begin(), plan->slices.end(),
                             [](const QueryPlan::Slice& s) { return s.scan; })) {
      eval.emplace(trace, "local_eval", clock_, ins_.phase_local_eval);
    }
    size_t scanned = 0, selected = 0;
    for (const QueryPlan::Slice& slice : plan->slices) {
      const std::vector<uint32_t>* rows = nullptr;
      if (slice.scan) {
        auto found = SelectInRegion(slice.entry->result, q.region, coords);
        if (!found.ok() && probe) continue;
        if (!found.ok()) {
          eval.reset();
          return fall_back();
        }
        scanned += found->tuples_scanned;
        rows = &selections.emplace_back(std::move(found->selection));
      }
      const size_t n =
          rows != nullptr ? rows->size() : slice.entry->result.num_rows();
      selected += n;
      read.push_back(slice.entry->region.get());
      if (n > 0) contributing.push_back(slice.entry->region.get());
      parts.push_back({&slice.entry->result, rows});
    }
    if (eval) {
      const double micros = config_.costs.per_cached_tuple_scan_us *
                            static_cast<double>(scanned);
      ins_.local_eval_micros->Increment(static_cast<uint64_t>(micros));
      ChargeMicros(micros);
      eval->AddAttr("tuples_scanned", std::to_string(scanned));
      eval->AddAttr("selected", std::to_string(selected));
      eval->AddAttr("probe_slices", std::to_string(parts.size()));
    }
  }

  // --- 3. remainder_build and FetchTable. After the probe, the remainder
  // excludes the contributing regions. A cached entry holds every origin
  // tuple of its region (membership is exact, and TOP-cut entries never
  // reach a probe), so a region with no tuple excludes nothing; with no
  // contributing region the remainder is the original query in a costlier
  // form, and the original goes instead (DESIGN.md §18) — unless the
  // template has a TOP, whose form answer could only be cached truncated. ---
  std::optional<sql::ColumnarTable> answer;  // The origin's, then merged.
  sql::ResultXmlAttrs attrs;  // partial="true" on a degraded answer.
  bool elided = false;
  if (plan->origin != Origin::kNone) {
    HttpRequest remainder;
    if (probe) {
      elided = contributing.empty() && !q.qt.has_top();
      obs::ScopedSpan build(trace, "remainder_build", clock_,
                            ins_.phase_remainder_build);
      build.AddAttr("plan", elided ? "original" : "remainder");
      build.AddAttr("excluded_regions", std::to_string(contributing.size()));
      if (elided) {
        plan->origin = Origin::kOriginal;
      } else {
        auto stmt = q.qt.Instantiate(q.params);
        auto built = stmt.ok()
                         ? BuildRemainderQuery(*stmt, contributing, coords)
                         : stmt.status();
        if (!built.ok()) {
          build.Finish();
          return fall_back();
        }
        remainder.path = "/sql";
        remainder.query_params["q"] = sql::SelectToSql(*built);
      }
    }
    auto fetched =
        FetchTable(plan->origin == Origin::kRemainder ? remainder : q.request,
                   q.deadline_micros, record, trace);
    // The origin itself failed the remainder (a 4xx such as a site without
    // a remainder facility, or a 5xx after retries): the plan falls back to
    // the original query (paper §3.2: "the proxy has no choice but always
    // sends the original query"), whose answer makes the request a miss. A
    // breaker refusal or a deadline short-circuit put nothing on the wire
    // (contacted_origin stays unset) and would refuse the original too.
    if (!fetched.ok() && plan->origin == Origin::kRemainder &&
        record->contacted_origin) {
      plan->origin = Origin::kOriginal;
      fetched = FetchTable(q.request, q.deadline_micros, record, trace);
      if (fetched.ok()) plan->relation = RegionRelation::kDisjoint;
    }
    if (fetched.ok()) {
      answer.emplace(std::move(*fetched));
    } else {
      // kResourceExhausted: the remaining client budget cannot fit any
      // origin trip. kInternal: the origin answered with a client error —
      // not unavailability, so not eligible for degradation.
      const util::StatusCode code = fetched.status().code();
      if (code == util::StatusCode::kInternal) {
        return HttpResponse::MakeError(502, fetched.status().ToString());
      }
      const std::string_view reason =
          code == util::StatusCode::kResourceExhausted ? kDeadlineExceeded
                                                       : kOriginUnreachable;
      if (probe && !parts.empty()) {
        // Degraded mode: the probe's tuples are known-correct for their
        // regions, so the plan drops its origin request and serves them as
        // a partial answer annotated with the covered volume fraction.
        plan->origin = Origin::kNone;
        attrs.partial = true;
        attrs.degraded_reason = reason;
        record->reason = reason;
      } else {
        // The cache contributes nothing to this query: refuse honestly with
        // a Retry-After instead of a bare gateway error.
        return Unavailable(reason, record);
      }
    }
  }

  // --- 4. Merge the probe's distinct tuples with the remainder's, or take
  // them alone for a degraded answer. ---
  size_t from_cache = 0;
  if (probe && plan->origin != Origin::kOriginal) {
    obs::ScopedSpan merge(trace, "merge", clock_, ins_.phase_merge);
    auto merged = MergeDistinctColumnar(parts);
    if (merged.ok()) from_cache = merged->num_rows();
    if (merged.ok() && answer) {
      merged = MergeDistinctColumnar(std::vector<ColumnarSlice>{
          {&*merged, nullptr}, {&*answer, nullptr}});
    }
    if (!merged.ok()) {
      merge.Finish();
      return fall_back();
    }
    const double micros = config_.costs.per_merge_tuple_us *
                          static_cast<double>(merged->num_rows());
    ins_.merge_micros->Increment(static_cast<uint64_t>(micros));
    ChargeMicros(micros);
    merge.AddAttr("rows", std::to_string(merged->num_rows()));
    answer = std::move(*merged);
  }

  // --- 5. cache_admit. An origin answer is the query's complete answer, or
  // the TOP-cut original of a TOP template (cached as truncated). Region
  // containment (§3.2) first drops the entries the query subsumes; general
  // overlap keeps the overlapped ones. The admitted snapshot is what
  // single-flight and tier followers get. ---
  const bool from_origin = plan->origin != Origin::kNone;
  if (from_origin) {
    for (const QueryPlan::Slice& slice : plan->slices) {
      if (plan->relation != RegionRelation::kContains || slice.scan) continue;
      size_t comparisons = 0;
      cache_->Remove(slice.entry->id, &comparisons);
      ChargeMicros(DescriptionCostMicros(comparisons));
    }
    const std::optional<int64_t>& top_n = q.qt.statement().top_n;
    const bool truncated =
        plan->origin == Origin::kOriginal && top_n.has_value() &&
        answer->num_rows() == static_cast<size_t>(*top_n);
    auto admitted = CacheResult(q.qt, q.nonspatial_fp, q.region, *answer,
                                coords, truncated, trace);
    flight.Fulfill({admitted});
    if (elided) ins_.remainders_elided->Increment();
  }

  // --- 6. Order/top: every answer takes the template's ORDER BY and TOP
  // (neither takes parameters); a complete entry of a TOP template holds
  // more than its top N. An origin answer counts its complete tuples, a
  // cached one the tuples it serves; a sibling's answer came with its
  // owner's counts. ---
  const sql::ColumnarTable& table = answer ? *answer : *parts.front().table;
  std::vector<uint32_t> rows;
  if (!answer && !selections.empty()) {
    rows = std::move(selections.front());
  } else {
    rows.resize(table.num_rows());
    std::iota(rows.begin(), rows.end(), 0u);
  }
  auto ordered = ApplyOrderAndTop(table, std::move(rows), q.qt.statement());
  if (!ordered.ok()) return fall_back();
  if (plan->from_peer()) {
    // The owner's plan made this request's origin trip, if any.
    if (plan->source == QueryPlan::Source::kPeerFetch) {
      record->contacted_origin = true;
    }
    record->tuples_total = plan->peer_tuples_total;
    record->tuples_from_cache = plan->peer_tuples_from_cache;
  } else {
    record->tuples_total = from_origin ? answer->num_rows() : ordered->size();
    record->tuples_from_cache = from_origin ? from_cache : ordered->size();
  }
  if (attrs.partial) {
    // Coverage counts every region the probe read, contributing or not: a
    // region without tuples is known to hold none.
    attrs.coverage = geometry::EstimateCoverageFraction(q.region, read);
    record->degraded = true;
    record->coverage = attrs.coverage;
  } else if (!from_origin && plan->source == QueryPlan::Source::kCache &&
             BreakerOpen()) {
    // Served entirely from cache while the origin is down: a degraded
    // answer that happens to be complete.
    record->degraded = true;
  }

  // --- 7. Serialize. ---
  return Respond(table, *ordered, attrs, trace);
}

HttpResponse FunctionProxy::HandleStats() {
  // Admin endpoint: one consistent snapshot (single pass over the atomics
  // and one lock acquisition), then rendered without re-reading live state.
  // The same registry instruments back GET /metrics, so the two endpoints
  // agree up to scrape-time skew.
  ProxyStats snapshot = stats();
  HttpResponse response;
  response.body = snapshot.ToXml();
  response.body += std::string("<Cache entries=\"") +
                   std::to_string(cache_->num_entries()) + "\" bytes=\"" +
                   std::to_string(cache_->bytes_used()) + "\" evictions=\"" +
                   std::to_string(cache_->evictions()) + "\" description=\"" +
                   (config_.use_rtree_description ? "rtree" : "array") +
                   "\" shards=\"" + std::to_string(cache_->num_shards()) +
                   "\" mode=\"" + CachingModeName(config_.mode) + "\"/>\n";
  char breaker_line[160];
  std::snprintf(breaker_line, sizeof(breaker_line),
                "<CircuitBreaker enabled=\"%d\" state=\"%s\""
                " transitions=\"%llu\" failureRate=\"%.3f\"/>\n",
                config_.breaker.enabled ? 1 : 0,
                net::BreakerStateName(breaker_->state()),
                static_cast<unsigned long long>(snapshot.breaker_transitions),
                breaker_->FailureRate());
  response.body += breaker_line;
  return response;
}

HttpResponse FunctionProxy::HandleMetrics() {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  response.body = registry_.RenderPrometheus();
  return response;
}

HttpResponse FunctionProxy::HandleTrace(const HttpRequest& request) {
  size_t last = 16;
  auto it = request.query_params.find("last");
  if (it != request.query_params.end()) {
    auto parsed = util::ParseUint64(it->second);
    if (!parsed.ok()) {
      return HttpResponse::MakeError(
          400, "last must be a non-negative integer below 2^64");
    }
    last = *parsed;
  }
  HttpResponse response;
  response.content_type = "application/json";
  response.body.push_back('[');
  bool first = true;
  for (const auto& trace : trace_ring_.Last(last)) {
    if (!first) response.body.push_back(',');
    first = false;
    trace->AppendJson(&response.body);
  }
  response.body.append("]\n");
  return response;
}

// --- Cooperative tier -------------------------------------------------------

HttpResponse FunctionProxy::HandlePeerLookup(const HttpRequest& request) {
  // The prober's client request: its form path and query string. A request
  // that does not instantiate is refused before any work, so nothing is
  // ever fetched for it.
  const std::string* form_path = PeerHeader(request.headers, "X-Peer-Form");
  const QueryTemplate* qt =
      form_path != nullptr ? templates_->FindByPath(*form_path) : nullptr;
  const FunctionTemplate* ft =
      qt != nullptr ? templates_->FindFunctionTemplate(qt->function_name())
                    : nullptr;
  if (ft == nullptr) {
    return HttpResponse::MakeError(400, "X-Peer-Form names no template");
  }
  HttpRequest form;
  form.path = *form_path;
  form.query_params = request.query_params;
  auto instance = Instantiate(form, *qt, *ft);
  if (!instance.ok()) {
    return HttpResponse::MakeError(400, instance.status().ToString());
  }
  const int64_t budget = net::DeadlineBudgetMicros(request);
  QueryRecord record;  // Sibling traffic is not query traffic.
  const TemplateQuery q{form, *qt, *ft, *instance->region,
                        std::move(instance->params),
                        std::move(instance->nonspatial_fp),
                        budget > 0 ? clock_->NowMicros() + budget : 0, &record,
                        /*trace=*/nullptr};
  // A region another member owns is a miss, so a lookup never makes a
  // second hop: an owner never probes for its own regions.
  const std::string* owner = RegionOwner(q);
  if (owner != nullptr && *owner != peer_group_.self_id) return PeerMiss();

  // The owner answers as it answers its own client: the plan its scheme
  // makes of the query, run by the one executor. A refusal, an error or a
  // partial answer is a clean miss, so the prober plans on its own and its
  // breaker for this peer is not charged for the origin's fault; a complete
  // answer served while this proxy's breaker is open is a hit.
  QueryPlan plan = PlanFor(q);
  HttpResponse answer = RunPlan(&plan, q);
  if (!answer.ok() || !record.reason.empty()) return PeerMiss();
  const bool joined = plan.source == QueryPlan::Source::kLeader;
  if (joined) ins_.peer_flight_joins->Increment();
  answer.headers["X-Peer-Outcome"] = joined                    ? "flight"
                                     : record.contacted_origin ? "fetched"
                                                               : "hit";
  answer.headers["X-Peer-Tuples-Total"] = std::to_string(record.tuples_total);
  answer.headers["X-Peer-Tuples-From-Cache"] =
      std::to_string(record.tuples_from_cache);
  return answer;
}

const std::string* FunctionProxy::RegionOwner(const TemplateQuery& q) const {
  if (!has_peers_) return nullptr;
  return peer_group_.ring->Owner(RegionOwnershipKey(
      q.qt.id(), q.nonspatial_fp, q.region, kPeerOwnershipCell));
}

std::optional<QueryPlan> FunctionProxy::ProbePeer(const TemplateQuery& q,
                                                  FlightGuard* local_flight) {
  QueryRecord* record = q.record;
  const std::string* owner = RegionOwner(q);
  if (owner == nullptr || *owner == peer_group_.self_id) return std::nullopt;
  auto peer_it = peer_group_.peers.find(*owner);
  if (peer_it == peer_group_.peers.end()) return std::nullopt;
  net::PeerChannel* peer = peer_it->second;
  if (!peer->Allow()) {
    ins_.peer_lookup_breaker_open->Increment();
    record->peer_degraded = true;
    return std::nullopt;
  }

  // The client's own form request, with what is left of its budget. The
  // owner holds its plan to that budget, so the round trip is not capped
  // here too: a fetch that overran the budget is the origin's fault, and
  // the owner answers it with a clean miss.
  HttpRequest probe;
  probe.path = "/peer/lookup";
  probe.query_params = q.request.query_params;
  probe.headers["X-Peer-Form"] = q.request.path;
  if (q.deadline_micros > 0) {
    probe.headers[net::kDeadlineBudgetHeader] = std::to_string(
        std::max<int64_t>(q.deadline_micros - clock_->NowMicros(), 1));
  }
  obs::ScopedSpan span(q.trace, "peer_lookup", clock_,
                       ins_.phase_peer_lookup);
  span.AddAttr("owner", *owner);
  HttpResponse response = peer->RoundTrip(probe, /*deadline_micros=*/0);
  span.AddAttr("status", std::to_string(response.status_code));
  if (net::RetryPolicy::Retryable(response)) {
    // Outage or overload on the sibling: the plan goes on to the origin.
    // The channel already fed the per-peer breaker.
    ins_.peer_lookup_error->Increment();
    ins_.peer_failures->Increment();
    record->peer_degraded = true;
    return std::nullopt;
  }
  const std::string outcome =
      PeerHeaderOr(response.headers, "X-Peer-Outcome", "miss");
  span.AddAttr("outcome", outcome);
  if (!response.ok()) {
    ins_.peer_lookup_miss->Increment();
    return std::nullopt;
  }

  // 200: the owner's complete answer to this very query, from its cache,
  // from a flight it joined, or from its own origin trip, with the tuple
  // counts of its record. Anything else is an unusable answer.
  auto garbage = [&]() -> std::optional<QueryPlan> {
    peer->NoteGarbage();
    ins_.peer_lookup_error->Increment();
    ins_.peer_failures->Increment();
    record->peer_degraded = true;
    return std::nullopt;
  };
  QueryPlan::Source source;
  if (outcome == "hit") {
    source = QueryPlan::Source::kPeerHit;
  } else if (outcome == "flight") {
    source = QueryPlan::Source::kPeerFlight;
  } else if (outcome == "fetched") {
    source = QueryPlan::Source::kPeerFetch;
  } else {
    return garbage();
  }
  auto total = util::ParseUint64(
      PeerHeaderOr(response.headers, "X-Peer-Tuples-Total", ""));
  auto cached = util::ParseUint64(
      PeerHeaderOr(response.headers, "X-Peer-Tuples-From-Cache", ""));
  sql::ResultXmlAttrs attrs;
  auto table = sql::TableFromXml(response.body, &attrs);
  if (!total.ok() || !cached.ok() || *cached > *total || !table.ok() ||
      attrs.partial) {
    return garbage();
  }
  ChargeMicros(config_.costs.per_origin_response_tuple_us *
               static_cast<double>(table->num_rows()));

  // An entry of the query's own region, served whole; a TOP answer that
  // filled its N rows holds the region's top N only. The region stays
  // cached with its owner: the entry serves this request and the local
  // flight's followers, and is not admitted. The executor counts the
  // lookup's outcome and copies the owner's counts once the answer is
  // certain, so every probe lands in exactly one fnproxy_peer_lookups_total
  // series and a fallen-back answer keeps none of the owner's counts.
  auto entry = std::make_shared<CacheEntry>();
  entry->region = q.region.Clone();
  entry->result = sql::ColumnarTable(std::move(*table));
  const std::optional<int64_t>& top_n = q.qt.statement().top_n;
  entry->truncated =
      top_n.has_value() &&
      entry->result.num_rows() == static_cast<size_t>(*top_n);
  local_flight->Fulfill(FlightOutcome{entry});
  QueryPlan plan =
      QueryPlan::FromEntry(std::move(entry), /*scan=*/false, source);
  plan.peer_tuples_total = *total;
  plan.peer_tuples_from_cache = *cached;
  return plan;
}

// --- Storage tier (docs/STORAGE.md) -----------------------------------------

std::shared_ptr<const CacheEntry> FunctionProxy::EnsureHot(
    const std::shared_ptr<const CacheEntry>& entry, obs::QueryTrace* trace) {
  if (entry == nullptr || entry->tier == EntryTier::kHot) return entry;
  obs::ScopedSpan span(trace, "restore", clock_, ins_.phase_restore);
  span.AddAttr("tier", EntryTierName(entry->tier));
  auto hot = cache_->FindHot(entry->id);
  if (hot == nullptr) return nullptr;
  // Decoding the frozen columns is the real work of a promotion; charge it
  // on the virtual clock like every other proxy-side computation.
  ChargeMicros(config_.costs.per_frozen_tuple_thaw_us *
               static_cast<double>(hot->result.num_rows()));
  span.AddAttr("rows", std::to_string(hot->result.num_rows()));
  return hot;
}

void FunctionProxy::MaybeRunMaintenance() {
  if (!config_.storage.enable) return;
  const uint64_t tick = maintenance_ticks_.fetch_add(1, kRelaxed) + 1;
  if (tick % kSweepEveryRequests != 0) return;
  const int64_t now = clock_->NowMicros();
  if (maintenance_pool_ == nullptr) {
    RunTierSweep(now);
    return;
  }
  // Background lane: at most one sweep queued or running. The task touches
  // only atomics and internally locked state (cache_), so it is safe off
  // the request threads.
  if (!sweep_scheduled_.exchange(true, kRelaxed)) {
    bool queued = maintenance_pool_->Submit([this, now] {
      RunTierSweep(now);
      sweep_scheduled_.store(false, kRelaxed);
    });
    if (!queued) sweep_scheduled_.store(false, kRelaxed);
  }
}

void FunctionProxy::RunTierSweep(int64_t now_micros) {
  const auto wall_start = std::chrono::steady_clock::now();
  const size_t frozen = cache_->SweepColdEntries(now_micros, kFreezeIdleMicros);
  sweeps_run_.fetch_add(1, kRelaxed);
  if (frozen > 0) {
    // Wall time, not virtual: the sweep runs off the request lane, and its
    // cost is real compression work rather than modeled latency.
    const auto wall_micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    ins_.phase_sweep->Observe(wall_micros);
  }
}

void FunctionProxy::WriteSnapshotAndCount() {
  util::Status status = WriteSnapshot(config_.storage.snapshot_path);
  if (status.ok()) {
    snapshots_written_.fetch_add(1, kRelaxed);
  } else {
    snapshot_errors_.fetch_add(1, kRelaxed);
    FNPROXY_LOG(kWarning) << "snapshot write failed: " << status.ToString();
  }
}

util::Status FunctionProxy::WriteSnapshot(const std::string& path) const {
  // Everything /proxy/stats renders, so a restarted proxy reproduces the
  // writer's XML byte for byte.
  SnapshotStats stats;
  for (const auto& [series, counter] : registry_.CounterSeries()) {
    stats.counters[series] = counter->Value();
  }
  stats.origin_retries = origin_->retry_stats().retries -
                         channel_retries_baseline_ +
                         restored_origin_retries_.load(kRelaxed);
  stats.breaker_transitions =
      breaker_->transitions() + restored_breaker_transitions_.load(kRelaxed);
  {
    util::MutexLock lock(records_mu_);
    stats.coverage_served = coverage_served_;
    stats.records = records_;
  }
  return storage::WriteFileAtomic(
      path, SerializeSnapshot(config_.mode, clock_->NowMicros(),
                              cache_->LiveEntries(), stats));
}

util::StatusOr<size_t> FunctionProxy::RestoreSnapshot(const std::string& path) {
  FNPROXY_ASSIGN_OR_RETURN(const std::string file,
                           storage::ReadFileToString(path));
  // The whole file parses before anything is installed, so a bad file
  // leaves the proxy as it was.
  FNPROXY_ASSIGN_OR_RETURN(Snapshot snapshot, ParseSnapshot(file));
  size_t restored = 0;
  for (CacheEntry& entry : snapshot.entries) {
    size_t comparisons = 0;
    if (cache_->Insert(std::move(entry), &comparisons) != 0) ++restored;
  }
  // A counter this build does not register is ignored.
  const SnapshotStats& stats = snapshot.stats;
  for (const auto& [series, counter] : registry_.CounterSeries()) {
    auto value = stats.counters.find(series);
    if (value != stats.counters.end()) counter->Increment(value->second);
  }
  restored_origin_retries_.fetch_add(stats.origin_retries, kRelaxed);
  restored_breaker_transitions_.fetch_add(stats.breaker_transitions,
                                          kRelaxed);
  {
    util::MutexLock lock(records_mu_);
    coverage_served_ += stats.coverage_served;
    records_.insert(records_.end(), stats.records.begin(),
                    stats.records.end());
  }
  restored_entries_.fetch_add(restored, kRelaxed);
  return restored;
}

HttpResponse FunctionProxy::Handle(const HttpRequest& request) {
  // Reserved admin endpoints: answered from proxy state, never forwarded,
  // never counted as query traffic.
  if (request.path == "/proxy/stats") return HandleStats();
  if (request.path == "/metrics") return HandleMetrics();
  if (request.path == "/proxy/trace") return HandleTrace(request);
  // Cooperative-tier endpoint: sibling traffic, never counted as query
  // traffic and never subject to client admission control.
  if (request.path == "/peer/lookup") return HandlePeerLookup(request);

  ins_.requests->Increment();
  MaybeRunMaintenance();

  // Admission control: hard shed above max_queue_depth, before any real
  // work — an overloaded proxy that answers 503 fast keeps its goodput.
  struct AdmissionGuard {
    std::atomic<int64_t>* counter;
    ~AdmissionGuard() { counter->fetch_sub(1, kRelaxed); }
  } admission{&inflight_requests_};
  const int64_t depth = inflight_requests_.fetch_add(1, kRelaxed) + 1;
  if (config_.max_queue_depth > 0 &&
      depth > static_cast<int64_t>(config_.max_queue_depth)) {
    QueryRecord record;
    HttpResponse response = Unavailable(kOverload, &record);
    record.failed = true;
    RecordAnswer(record);
    return response;
  }

  // Client deadline: a relative budget header, pinned to an absolute
  // virtual-clock deadline at receipt.
  const int64_t deadline_budget = net::DeadlineBudgetMicros(request);
  const int64_t deadline_micros =
      deadline_budget > 0 ? clock_->NowMicros() + deadline_budget : 0;

  // Span recording is on whenever the ring or an external sink wants the
  // completed trace; histograms observe either way (null-trace spans).
  std::shared_ptr<obs::QueryTrace> owned_trace;
  obs::QueryTrace* trace = nullptr;
  if (config_.trace_ring_capacity > 0 || config_.trace_sink != nullptr) {
    owned_trace = std::make_shared<obs::QueryTrace>(
        next_trace_id_.fetch_add(1, kRelaxed), request.path);
    owned_trace->AddAttr("mode", CachingModeName(config_.mode));
    trace = owned_trace.get();
  }
  obs::ScopedSpan root(trace, "request", clock_, ins_.request_duration,
                       ins_.request_wall);

  ChargeMicros(config_.costs.request_parse_ms * 1000.0);

  QueryRecord record;
  const QueryTemplate* qt;
  const FunctionTemplate* ft;
  {
    obs::ScopedSpan match(trace, "template_match", clock_,
                          ins_.phase_template_match);
    qt = templates_->FindByPath(request.path);
    ft = qt == nullptr ? nullptr
                       : templates_->FindFunctionTemplate(qt->function_name());
    match.AddAttr("matched", ft != nullptr ? "true" : "false");
  }

  HttpResponse response;
  if (config_.mode == CachingMode::kNoCache || qt == nullptr ||
      ft == nullptr) {
    response = Forward(request, deadline_micros, &record, trace);
  } else {
    ins_.template_requests->Increment();
    record.handled_by_template = true;
    response =
        HandleTemplate(request, *qt, *ft, deadline_micros, &record, trace);
  }
  record.failed = !response.ok();
  // Tier-visible outcome headers: X-Peer-Served marks answers that avoided
  // an origin trip via a sibling; X-Peer-Degraded marks origin fallbacks
  // forced by a failed or breaker-opened peer path.
  if (record.peer_hit) response.headers["X-Peer-Served"] = "1";
  if (record.peer_degraded) response.headers["X-Peer-Degraded"] = "1";
  RecordAnswer(record);
  root.Finish();
  if (owned_trace != nullptr) {
    owned_trace->AddAttr("status", std::to_string(response.status_code));
    if (record.handled_by_template) {
      owned_trace->AddAttr("relation",
                           geometry::RegionRelationName(record.status));
    }
    if (record.degraded) owned_trace->AddAttr("degraded", "true");
    if (record.peer_hit) owned_trace->AddAttr("peer", "served");
    if (record.peer_degraded) owned_trace->AddAttr("peer", "degraded");
    if (config_.trace_sink != nullptr) {
      config_.trace_sink->Consume(*owned_trace);
    }
    trace_ring_.Push(std::move(owned_trace));
  }
  return response;
}

}  // namespace fnproxy::core
