// Statistics invariants and a gated origin shared by the proxy, overload,
// tier and workload tests.

#ifndef FNPROXY_TESTS_PROXY_TEST_UTIL_H_
#define FNPROXY_TESTS_PROXY_TEST_UTIL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/proxy.h"
#include "net/http.h"

namespace fnproxy {

/// The one-outcome sum: every template request counts exactly one outcome,
/// so this equals `s.template_requests` per proxy and tier-wide.
inline uint64_t OutcomeSum(const core::ProxyStats& s) {
  return s.exact_hits + s.containment_hits + s.region_containments +
         s.overlaps_handled + s.peer_hits + s.misses + s.collapsed + s.shed;
}

/// Wraps the origin app behind a wall-clock gate: while closed, requests
/// block inside the handler until OpenGate(). Optionally fails the first
/// request (leader-failure scenarios).
class GatedOrigin final : public net::HttpHandler {
 public:
  explicit GatedOrigin(net::HttpHandler* inner) : inner_(inner) {}

  net::HttpResponse Handle(const net::HttpRequest& request) override {
    requests_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !gate_closed_; });
    }
    if (fail_first_.exchange(false)) {
      return net::HttpResponse::MakeError(500, "injected leader failure");
    }
    return inner_->Handle(request);
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_closed_ = false;
    }
    cv_.notify_all();
  }
  void FailFirst() { fail_first_.store(true); }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Spins until `count` requests have entered the handler (they may still
  /// be blocked on the gate).
  void AwaitRequests(uint64_t count) {
    while (requests() < count) std::this_thread::yield();
  }

 private:
  net::HttpHandler* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_closed_ = false;
  std::atomic<bool> fail_first_{false};
  std::atomic<uint64_t> requests_{0};
};

}  // namespace fnproxy

#endif  // FNPROXY_TESTS_PROXY_TEST_UTIL_H_
