#include "workload/multi_proxy.h"

#include <algorithm>
#include <utility>

#include "server/web_app.h"
#include "util/logging.h"

namespace fnproxy::workload {

std::string ProxyTier::NodeId(size_t index) {
  return "proxy-" + std::to_string(index);
}

ProxyTier::ProxyTier(const ProxyTierOptions& options,
                     const core::TemplateRegistry* templates,
                     net::HttpHandler* origin, util::SimulatedClock* clock)
    : options_(options), ring_(options.ring_vnodes) {
  const size_t n = options_.num_proxies == 0 ? 1 : options_.num_proxies;
  for (size_t i = 0; i < n; ++i) {
    ring_.AddNode(NodeId(i));
  }
  // Proxies first: every proxy owns a private channel to the shared origin
  // handler, so per-proxy breaker state and retry accounting stay isolated.
  for (size_t i = 0; i < n; ++i) {
    origin_channels_.push_back(std::make_unique<net::SimulatedChannel>(
        origin, options_.origin_link, clock));
    proxies_.push_back(std::make_unique<core::FunctionProxy>(
        options_.proxy, templates, origin_channels_.back().get(), clock));
  }
  // Inbound fault layer: a sibling probing proxy `i` goes through the
  // injector, while proxy `i`'s own clients (the router) bypass it.
  peer_inbound_faults_.resize(n);
  for (const auto& [target, profile] : options_.peer_faults) {
    if (target < n) {
      peer_inbound_faults_[target] = std::make_unique<net::FaultInjector>(
          proxies_[target].get(), profile, clock);
    }
  }
  // One channel + breaker per ordered pair, so "A distrusts B" is
  // independent of "B distrusts A".
  peer_links_.resize(n * n);
  peer_channels_.resize(n * n);
  for (size_t from = 0; from < n; ++from) {
    for (size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      net::HttpHandler* inbound =
          peer_inbound_faults_[to] != nullptr
              ? static_cast<net::HttpHandler*>(peer_inbound_faults_[to].get())
              : proxies_[to].get();
      auto link = std::make_unique<net::SimulatedChannel>(
          inbound, options_.peer_link, clock);
      link->set_retry_policy(options_.peer_retry);
      peer_channels_[from * n + to] = std::make_unique<net::PeerChannel>(
          NodeId(to), link.get(), options_.peer_breaker, clock);
      peer_links_[from * n + to] = std::move(link);
    }
  }
  if (options_.proxy_workers > 0) {
    worker_pools_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto pool = std::make_unique<WorkerPool>();
      {
        util::MutexLock lock(pool->mu);
        pool->free = options_.proxy_workers;
      }
      worker_pools_.push_back(std::move(pool));
    }
  }
  for (size_t from = 0; from < n; ++from) {
    core::PeerGroup group;
    group.self_id = NodeId(from);
    group.ring = &ring_;
    for (size_t to = 0; to < n; ++to) {
      if (from == to) continue;
      group.peers[NodeId(to)] = peer_channels_[from * n + to].get();
    }
    proxies_[from]->set_peer_group(std::move(group));
  }
}

net::HttpResponse ProxyTier::Handle(const net::HttpRequest& request) {
  const uint64_t turn =
      next_proxy_.fetch_add(1, std::memory_order_relaxed);
  const size_t index = turn % proxies_.size();
  if (worker_pools_.empty()) return proxies_[index]->Handle(request);
  // Finite worker pool: wait for a free slot on this proxy. Only router
  // traffic is gated; a worker probing a sibling enters it directly, so a
  // full tier cannot deadlock on its own peer lookups.
  WorkerPool& pool = *worker_pools_[index];
  {
    util::MutexLock lock(pool.mu);
    // Explicit wait loop so the thread-safety analysis sees `free` read
    // with the pool mutex held.
    while (pool.free == 0) {
      pool.cv.wait(lock);
    }
    --pool.free;
  }
  net::HttpResponse response = proxies_[index]->Handle(request);
  {
    util::MutexLock lock(pool.mu);
    ++pool.free;
  }
  pool.cv.notify_one();
  return response;
}

uint64_t ProxyTier::origin_requests_total() const {
  uint64_t total = 0;
  for (const auto& channel : origin_channels_) {
    total += channel->total_requests();
  }
  return total;
}

core::ProxyStats ProxyTier::AggregateStats() const {
  core::ProxyStats sum;
  for (const auto& proxy : proxies_) {
    core::ProxyStats s = proxy->stats();
    sum.requests += s.requests;
    sum.template_requests += s.template_requests;
    sum.exact_hits += s.exact_hits;
    sum.containment_hits += s.containment_hits;
    sum.region_containments += s.region_containments;
    sum.overlaps_handled += s.overlaps_handled;
    sum.misses += s.misses;
    sum.origin_form_requests += s.origin_form_requests;
    sum.origin_sql_requests += s.origin_sql_requests;
    sum.remainders_elided += s.remainders_elided;
    sum.origin_failures += s.origin_failures;
    sum.origin_retries += s.origin_retries;
    sum.breaker_open_rejections += s.breaker_open_rejections;
    sum.breaker_transitions += s.breaker_transitions;
    sum.degraded_full += s.degraded_full;
    sum.degraded_partial += s.degraded_partial;
    sum.degraded_unavailable += s.degraded_unavailable;
    sum.collapsed += s.collapsed;
    sum.shed += s.shed;
    sum.deadline_exceeded += s.deadline_exceeded;
    sum.peer_lookups += s.peer_lookups;
    sum.peer_hits += s.peer_hits;
    sum.peer_failures += s.peer_failures;
    sum.coverage_served += s.coverage_served;
    sum.check_micros += s.check_micros;
    sum.local_eval_micros += s.local_eval_micros;
    sum.merge_micros += s.merge_micros;
    sum.records.insert(sum.records.end(), s.records.begin(), s.records.end());
  }
  return sum;
}

namespace {

void Check(const util::Status& status, const char* what) {
  if (!status.ok()) {
    FNPROXY_LOG(kError) << what << ": " << status.ToString();
    std::abort();
  }
}

}  // namespace

TierRunOutput RunTraceTier(SkyExperiment& sky, const Trace& trace,
                           const ProxyTierOptions& options,
                           const TierRunOptions& run) {
  util::SimulatedClock clock;
  clock.set_real_time_scale(run.real_time_scale);
  server::OriginWebApp app(sky.database(), &clock,
                           sky.options().server_costs);
  Check(app.RegisterForm("/radial", kRadialTemplateSql), "register /radial");
  Check(app.RegisterForm("/rect", kRectTemplateSql), "register /rect");
  ProxyTier tier(options, &sky.templates(), &app, &clock);
  net::SimulatedChannel lan_channel(&tier, sky.options().lan, &clock);
  ConcurrentDriver driver(&lan_channel, &clock);
  driver.set_calibration(run.calibration);
  driver.set_latency_histogram(tier.proxy(0).metrics().AddHistogram(
      "fnproxy_client_latency_micros",
      "Client-observed wall-clock latency per request"));

  TierRunOutput output;
  output.driver =
      driver.Replay(trace, run.num_threads, run.deadline_budget_micros);
  for (size_t i = 0; i < tier.num_proxies(); ++i) {
    output.per_proxy.push_back(tier.proxy(i).stats());
    output.cache_entries_final += tier.proxy(i).cache().num_entries();
  }
  output.aggregate = tier.AggregateStats();
  output.origin_form_queries = app.form_queries_served();
  output.origin_sql_queries = app.sql_queries_served();
  output.origin_requests = tier.origin_requests_total();

  // Tier-wide phase view: sum counts/totals, keep the worst per-proxy
  // percentile (conservative — see TierRunOutput::phases).
  std::vector<obs::PhaseBreakdown> merged;
  for (size_t i = 0; i < tier.num_proxies(); ++i) {
    for (const obs::PhaseBreakdown& phase : obs::PhaseBreakdownFromRegistry(
             tier.proxy(i).metrics(), "fnproxy_phase_duration_micros")) {
      auto it = std::find_if(
          merged.begin(), merged.end(),
          [&](const obs::PhaseBreakdown& m) { return m.phase == phase.phase; });
      if (it == merged.end()) {
        merged.push_back(phase);
        continue;
      }
      it->count += phase.count;
      it->total_micros += phase.total_micros;
      it->p50_micros = std::max(it->p50_micros, phase.p50_micros);
      it->p95_micros = std::max(it->p95_micros, phase.p95_micros);
      it->p99_micros = std::max(it->p99_micros, phase.p99_micros);
    }
  }
  output.phases = std::move(merged);
  return output;
}

}  // namespace fnproxy::workload
