#ifndef FNPROXY_NET_ORIGIN_CHANNEL_H_
#define FNPROXY_NET_ORIGIN_CHANNEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/network.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fnproxy::net {

struct OriginChannelOptions {
  /// Dispatcher threads draining the request queue. Each in-flight origin
  /// round trip occupies one dispatcher, so this bounds concurrent wire
  /// requests to the origin.
  size_t num_dispatchers = 4;
  /// Coalesce queued batchable requests (deadline-free GET /sql remainder
  /// fetches) into one wire request to /sql/batch.
  bool coalesce = true;
  /// Most requests folded into one batch.
  size_t max_batch = 8;
};

/// Asynchronous front-end over a SimulatedChannel to the origin site. The
/// proxy sends each remainder query through RoundTripAsync once it has
/// evaluated the cached portion and planned the remainder, and waits on
/// the returned future.
///
/// When several deadline-free remainder fetches are queued at once (typical
/// under concurrent load, where single-flight leaders from different
/// templates miss together), the dispatcher coalesces up to `max_batch` of
/// them into one wire request to the origin's `/sql/batch` endpoint,
/// paying one request/response transfer for the lot. Origins that do not
/// implement `/sql/batch` answer 404 once; the channel then falls back to
/// solo round trips and stops batching for its lifetime.
///
/// Thread-safe. Every future is eventually fulfilled, including during
/// shutdown (the destructor drains the queue before joining).
class OriginChannel {
 public:
  /// `channel` must outlive this object.
  explicit OriginChannel(SimulatedChannel* channel,
                         OriginChannelOptions options = OriginChannelOptions());
  ~OriginChannel();

  OriginChannel(const OriginChannel&) = delete;
  OriginChannel& operator=(const OriginChannel&) = delete;

  /// Enqueues `request` for dispatch and returns a future for its response.
  /// `deadline_micros` is the absolute virtual-clock deadline forwarded to
  /// SimulatedChannel::RoundTrip (0 = none); deadline-bearing requests are
  /// never batched, so their per-request budget accounting stays exact.
  std::future<HttpResponse> RoundTripAsync(HttpRequest request,
                                           int64_t deadline_micros = 0)
      EXCLUDES(mu_);

  /// Requests accepted through RoundTripAsync.
  uint64_t async_requests() const {
    return async_requests_.load(std::memory_order_relaxed);
  }
  /// Coalesced wire requests sent to /sql/batch.
  uint64_t batches_sent() const {
    return batches_sent_.load(std::memory_order_relaxed);
  }
  /// Logical requests that travelled inside a coalesced batch (each batch
  /// counts all of its members, so requests_batched / batches_sent is the
  /// mean batch occupancy).
  uint64_t requests_batched() const {
    return requests_batched_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    HttpRequest request;
    int64_t deadline_micros = 0;
    std::promise<HttpResponse> promise;
  };

  void DispatchLoop() EXCLUDES(mu_);
  bool Batchable(const Pending& pending) const;
  /// Sends `batch` (size >= 2) as one /sql/batch wire request and fulfills
  /// every member's promise. Falls back to solo dispatch when the origin
  /// does not support batching.
  void DispatchBatch(std::vector<Pending> batch);

  SimulatedChannel* channel_;
  const OriginChannelOptions options_;

  util::Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<Pending> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> dispatchers_;

  std::atomic<bool> batch_supported_{true};
  std::atomic<uint64_t> async_requests_{0};
  std::atomic<uint64_t> batches_sent_{0};
  std::atomic<uint64_t> requests_batched_{0};
};

/// Wire framing helpers for the /sql/batch endpoint, shared between
/// OriginChannel (client side) and OriginWebApp (server side).
///
/// Request body: for each statement, `<decimal byte length>\n` followed by
/// exactly that many bytes of SQL. Response body: for each sub-response,
/// `<status code> <decimal byte length>\n` followed by that many body bytes,
/// in request order.
std::string EncodeSqlBatchRequest(const std::vector<std::string>& statements);
bool DecodeSqlBatchRequest(const std::string& body,
                           std::vector<std::string>* statements);
std::string EncodeSqlBatchResponse(const std::vector<HttpResponse>& responses);
bool DecodeSqlBatchResponse(const std::string& body,
                            std::vector<HttpResponse>* responses);

}  // namespace fnproxy::net

#endif  // FNPROXY_NET_ORIGIN_CHANNEL_H_
