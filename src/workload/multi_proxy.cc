#include "workload/multi_proxy.h"

#include <utility>

namespace fnproxy::workload {

namespace {

/// Virtual nodes per proxy on the consistent-hash ring.
constexpr size_t kRingVnodes = 128;
/// Sibling-to-sibling link: same machine room, ~two orders of magnitude
/// cheaper than the WAN — the whole point of asking a peer first. Peer
/// channels keep the default retry policy, no retries: a failed lookup
/// falls back to the origin instead of waiting on a sick sibling.
constexpr net::LinkConfig kPeerLink{0.3, 200000.0};

}  // namespace

std::string ProxyTier::NodeId(size_t index) {
  return std::string("proxy-") + std::to_string(index);
}

ProxyTier::ProxyTier(const ProxyTierOptions& options,
                     const core::TemplateRegistry* templates,
                     net::HttpHandler* origin,
                     const net::LinkConfig& wan,
                     util::SimulatedClock* clock)
    : options_(options), ring_(kRingVnodes) {
  const size_t n = options_.num_proxies == 0 ? 1 : options_.num_proxies;
  for (size_t i = 0; i < n; ++i) {
    ring_.AddNode(NodeId(i));
  }
  // Proxies first: every proxy owns a private channel to the shared origin
  // handler, so per-proxy breaker state and retry accounting stay isolated.
  for (size_t i = 0; i < n; ++i) {
    origin_channels_.push_back(std::make_unique<net::SimulatedChannel>(
        origin, wan, clock));
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
      auto link =
          std::make_unique<net::SimulatedChannel>(inbound, kPeerLink, clock);
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

}  // namespace fnproxy::workload
