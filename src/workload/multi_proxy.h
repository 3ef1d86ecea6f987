#ifndef FNPROXY_WORKLOAD_MULTI_PROXY_H_
#define FNPROXY_WORKLOAD_MULTI_PROXY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hash_ring.h"
#include "core/proxy.h"
#include "core/template_registry.h"
#include "net/fault.h"
#include "net/http.h"
#include "net/network.h"
#include "net/peer_channel.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fnproxy::workload {

/// Topology knobs for a cooperative proxy tier.
struct ProxyTierOptions {
  size_t num_proxies = 1;
  /// Per-proxy configuration (every proxy gets a copy).
  core::ProxyConfig proxy;
  /// Per-peer circuit breaker configuration (enabled by default).
  net::CircuitBreakerConfig peer_breaker;
  /// Closed worker pool per proxy: at most this many router requests are in
  /// service on one proxy at a time (0 = unlimited). Models the finite
  /// capacity of a single proxy box — the thing a tier multiplies — so the
  /// throughput bench sees real scaling instead of a free infinite server.
  /// Sibling /peer/lookup traffic bypasses the pool (a worker blocked on a
  /// full sibling must not be able to deadlock the tier).
  size_t proxy_workers = 0;
  /// Scripted faults on a proxy's *inbound* peer traffic, keyed by proxy
  /// index: every sibling probing that proxy goes through the injector
  /// (the prober's breaker sees the faults; the target stays healthy for
  /// its own clients). Used by the peer-outage fault tests.
  std::map<size_t, net::FaultProfile> peer_faults;

  ProxyTierOptions() { peer_breaker.enabled = true; }
};

/// A cooperative tier of FunctionProxy instances behind a round-robin
/// router. Construction wires the whole topology: per-proxy origin channels
/// over the `wan` link to the shared origin handler, the consistent-hash ring
/// ("proxy-0" .. "proxy-N-1", 128 virtual nodes each), and a breaker-guarded
/// PeerChannel for every ordered sibling pair over a 0.3 ms machine-room
/// link without retries (optionally through a FaultInjector on the target's
/// inbound side).
///
/// The tier itself is an HttpHandler: Handle() dispatches each request to
/// the next proxy round-robin, so a LAN SimulatedChannel in front of it
/// drives N proxies exactly like one.
class ProxyTier final : public net::HttpHandler {
 public:
  /// `templates`, `origin` and `clock` must outlive the tier.
  ProxyTier(const ProxyTierOptions& options,
            const core::TemplateRegistry* templates, net::HttpHandler* origin,
            const net::LinkConfig& wan, util::SimulatedClock* clock);

  net::HttpResponse Handle(const net::HttpRequest& request) override;

  size_t num_proxies() const { return proxies_.size(); }
  core::FunctionProxy& proxy(size_t i) { return *proxies_[i]; }
  const core::FunctionProxy& proxy(size_t i) const { return *proxies_[i]; }
  /// The channel proxy `from` uses to probe proxy `to` (from != to).
  net::PeerChannel& peer_channel(size_t from, size_t to) {
    return *peer_channels_[from * proxies_.size() + to];
  }
  /// Proxy `i`'s private channel to the origin.
  net::SimulatedChannel& origin_channel(size_t i) {
    return *origin_channels_[i];
  }

  /// Field-wise sum of every proxy's statistics (records concatenated in
  /// proxy order) — the tier-wide view the invariant tests check.
  core::ProxyStats AggregateStats() const;

  static std::string NodeId(size_t index);

 private:
  ProxyTierOptions options_;
  core::HashRing ring_;
  std::vector<std::unique_ptr<net::SimulatedChannel>> origin_channels_;
  std::vector<std::unique_ptr<core::FunctionProxy>> proxies_;
  /// Inbound-side fault injectors, indexed by target proxy (may be null).
  std::vector<std::unique_ptr<net::FaultInjector>> peer_inbound_faults_;
  /// Dense N×N matrices indexed [from * N + to]; diagonal entries are null.
  std::vector<std::unique_ptr<net::SimulatedChannel>> peer_links_;
  std::vector<std::unique_ptr<net::PeerChannel>> peer_channels_;
  std::atomic<uint64_t> next_proxy_{0};

  /// Counting semaphore for the per-proxy worker pool (wall-clock).
  struct WorkerPool {
    util::Mutex mu;
    std::condition_variable_any cv;
    size_t free GUARDED_BY(mu) = 0;
  };
  std::vector<std::unique_ptr<WorkerPool>> worker_pools_;
};

}  // namespace fnproxy::workload

#endif  // FNPROXY_WORKLOAD_MULTI_PROXY_H_
