#ifndef FNPROXY_NET_PEER_CHANNEL_H_
#define FNPROXY_NET_PEER_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "net/circuit_breaker.h"
#include "net/http.h"
#include "net/network.h"
#include "util/clock.h"

namespace fnproxy::net {

/// A proxy's client-side view of one cooperative-tier sibling: a simulated
/// channel (paying the peer link's transfer costs and retry policy) guarded
/// by a per-peer circuit breaker. A prober asks Allow() before touching the
/// wire; RoundTrip feeds the breaker from the response (transport errors and
/// 5xx count as failures, anything else — including a clean 404 miss — as
/// success). NoteGarbage lets the caller demote a 200 whose body failed to
/// parse, so a faulty peer serving garbage trips the breaker just like one
/// that drops connections.
///
/// Concurrency contract: PeerChannel owns no mutex. Its mutable state is
/// the two relaxed atomic counters below plus the CircuitBreaker, which
/// synchronizes internally (its own mu_, every public method EXCLUDES it),
/// so any worker thread may call Allow/RoundTrip/NoteGarbage concurrently
/// and nothing here can participate in a lock-order cycle.
class PeerChannel {
 public:
  /// `channel` and `clock` must outlive the PeerChannel.
  PeerChannel(std::string peer_id, SimulatedChannel* channel,
              const CircuitBreakerConfig& breaker_config,
              util::SimulatedClock* clock)
      : peer_id_(std::move(peer_id)),
        channel_(channel),
        breaker_(breaker_config, clock) {}

  /// True when the breaker admits a probe (closed, or half-open trial slot).
  bool Allow() { return breaker_.Allow(); }

  /// One guarded round trip, capped by `deadline_micros` (0 = none).
  HttpResponse RoundTrip(const HttpRequest& request, int64_t deadline_micros);

  /// Records a breaker failure for a response that was transport-clean but
  /// semantically unusable (unparseable body, unknown outcome).
  void NoteGarbage();

  const std::string& peer_id() const { return peer_id_; }
  SimulatedChannel* channel() { return channel_; }
  const CircuitBreaker& breaker() const { return breaker_; }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  std::string peer_id_;
  SimulatedChannel* channel_;
  CircuitBreaker breaker_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
};

}  // namespace fnproxy::net

#endif  // FNPROXY_NET_PEER_CHANNEL_H_
