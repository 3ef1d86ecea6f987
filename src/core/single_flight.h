#ifndef FNPROXY_CORE_SINGLE_FLIGHT_H_
#define FNPROXY_CORE_SINGLE_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/cache_store.h"
#include "geometry/region.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fnproxy::core {

/// What a completed flight hands to its followers: the cache entry the
/// leader obtained (its region covers every follower's query region), or
/// null on a failure (e.g. the origin was unreachable or the result was too
/// large to cache). Followers of a failed flight retry on their own.
struct FlightOutcome {
  std::shared_ptr<const CacheEntry> entry;
};

/// The proxy's in-flight table for single-flight request collapsing: when
/// several origin-bound requests for the same (template, non-spatial
/// fingerprint) subsumption class arrive concurrently, exactly one — the
/// leader — performs the origin fetch; the rest — followers — block on a
/// shared future of the leader's cache entry and then serve locally. A
/// follower joins any in-flight leader whose region equals or contains its
/// own query region, so identical *and* subsumed misses collapse.
///
/// Thread-safe. The flight map is tiny (bounded by concurrent origin
/// fetches), so lookup is a linear scan under one mutex.
class SingleFlightTable {
 public:
  struct Ticket {
    /// True: the caller must perform the fetch and call Complete (or let a
    /// FlightGuard do it) — followers are blocked on this flight.
    bool leader = false;
    /// Leader-only completion token.
    uint64_t token = 0;
    /// Follower-only: resolves when the leader completes.
    std::shared_future<FlightOutcome> result;
  };

  SingleFlightTable() = default;
  SingleFlightTable(const SingleFlightTable&) = delete;
  SingleFlightTable& operator=(const SingleFlightTable&) = delete;

  /// Joins an in-flight leader whose region covers `region` (follower
  /// ticket), or registers a new flight for `region` (leader ticket).
  Ticket JoinOrLead(const std::string& template_id,
                    const std::string& nonspatial_fingerprint,
                    const geometry::Region& region) EXCLUDES(mu_);

  /// Leader completion: publishes `outcome` to every follower and retires
  /// the flight. Safe to call once per token; unknown tokens are ignored
  /// (the flight was already completed).
  void Complete(uint64_t token, FlightOutcome outcome) EXCLUDES(mu_);

  /// Flights currently in progress.
  size_t inflight() const EXCLUDES(mu_);
  /// Flights ever led (== origin fetches the table allowed).
  uint64_t flights_total() const {
    return flights_total_.load(std::memory_order_relaxed);
  }
  /// Requests that joined an existing flight instead of fetching.
  uint64_t joins_total() const {
    return joins_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Flight {
    std::string template_id;
    std::string nonspatial_fingerprint;
    std::unique_ptr<geometry::Region> region;
    std::promise<FlightOutcome> promise;
    std::shared_future<FlightOutcome> future;
  };

  mutable util::Mutex mu_;
  std::map<uint64_t, Flight> flights_ GUARDED_BY(mu_);
  uint64_t next_token_ GUARDED_BY(mu_) = 1;
  std::atomic<uint64_t> flights_total_{0};
  std::atomic<uint64_t> joins_total_{0};
};

/// RAII completion for a leader ticket: unless Fulfill() ran, the destructor
/// completes the flight as failed — so no exit path (error return, fallback,
/// exception) can strand followers on a future that never resolves.
class FlightGuard {
 public:
  FlightGuard() = default;
  FlightGuard(SingleFlightTable* table, uint64_t token)
      : table_(table), token_(token) {}
  FlightGuard(FlightGuard&& other) noexcept
      : table_(other.table_), token_(other.token_) {
    other.table_ = nullptr;
    other.token_ = 0;
  }
  FlightGuard& operator=(FlightGuard&& other) noexcept {
    if (this != &other) {
      if (armed()) table_->Complete(token_, FlightOutcome{});
      table_ = other.table_;
      token_ = other.token_;
      other.table_ = nullptr;
      other.token_ = 0;
    }
    return *this;
  }
  FlightGuard(const FlightGuard&) = delete;
  FlightGuard& operator=(const FlightGuard&) = delete;
  ~FlightGuard() {
    if (armed()) table_->Complete(token_, FlightOutcome{});
  }

  bool armed() const { return table_ != nullptr; }

  /// Publishes the outcome and disarms the guard.
  void Fulfill(FlightOutcome outcome) {
    if (!armed()) return;
    table_->Complete(token_, std::move(outcome));
    table_ = nullptr;
    token_ = 0;
  }

 private:
  SingleFlightTable* table_ = nullptr;
  uint64_t token_ = 0;
};

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_SINGLE_FLIGHT_H_
