#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/http_wire.h"
#include "util/logging.h"

namespace fnproxy::net {

using util::Status;
using util::StatusOr;

namespace {

Status ErrnoStatus(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

/// Reads from `fd` until the buffer holds a complete HTTP message or the
/// peer closes. Returns false on socket error.
bool ReadMessage(int fd, std::string* buffer) {
  char chunk[4096];
  while (!IsCompleteMessage(*buffer)) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // Peer closed; parse whatever we have.
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buffer->append(chunk, static_cast<size_t>(n));
    if (buffer->size() > (64u << 20)) return false;  // 64 MB sanity cap.
  }
  return true;
}

/// True for requests that should ride the pool's high-priority lane: the
/// admin surface (metrics scrapes, stats, traces) must stay responsive
/// even when query traffic has the normal lane backed up.
bool IsHighPriority(const std::string& buffer) {
  size_t line_end = buffer.find("\r\n");
  std::string_view line(buffer.data(),
                        line_end == std::string::npos ? buffer.size()
                                                      : line_end);
  size_t path_start = line.find(' ');
  if (path_start == std::string_view::npos) return false;
  std::string_view path = line.substr(path_start + 1);
  return path.rfind("/metrics", 0) == 0 || path.rfind("/proxy/", 0) == 0;
}

bool WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(uint16_t port) {
  if (running_.load()) return Status::AlreadyExists("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return ErrnoStatus("listen");
  }
  socklen_t address_len = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &address_len) == 0) {
    port_ = ntohs(address.sin_port);
  }
  running_.store(true);
  if (worker_threads_ > 0) {
    util::ThreadPool::Options options;
    options.num_threads = worker_threads_;
    options.max_queue_depth = max_queue_depth_;
    pool_ = std::make_unique<util::ThreadPool>(options);
  }
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // Shut the listening socket down to unblock accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (thread_.joinable()) thread_.join();
  // Drain in-flight connections before returning so the handler is never
  // used after the caller tears it down.
  pool_.reset();
}

void HttpServer::AcceptLoop() {
  // Snapshot the fd: Start() set it before spawning this thread, and Stop()
  // overwrites the member (-1) concurrently with the loop. accept() on the
  // snapshotted fd returns with an error once Stop() closes it.
  const int listen_fd = listen_fd_;
  while (running_.load()) {
    int connection_fd = ::accept(listen_fd, nullptr, nullptr);
    if (connection_fd < 0) {
      if (errno == EINTR) continue;
      break;  // Socket closed by Stop().
    }
    if (pool_ != nullptr) {
      // Read and classify on the accept thread (with a receive timeout so a
      // stalled client cannot wedge accepting) — classification needs the
      // request line, and the admission decision must be made before the
      // request can consume a queue slot's worth of latency.
      timeval receive_timeout{/*tv_sec=*/2, /*tv_usec=*/0};
      ::setsockopt(connection_fd, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
                   sizeof(receive_timeout));
      auto buffer = std::make_shared<std::string>();
      if (!ReadMessage(connection_fd, buffer.get())) {
        ::close(connection_fd);
        continue;
      }
      util::TaskPriority priority = IsHighPriority(*buffer)
                                        ? util::TaskPriority::kHigh
                                        : util::TaskPriority::kNormal;
      bool submitted = pool_->Submit(
          [this, connection_fd, buffer] {
            ServeBuffered(connection_fd, *buffer);
            ::close(connection_fd);
          },
          priority);
      if (!submitted) {
        // Queue full (or shutting down): shed with an explicit 503 rather
        // than silently dropping the connection — the client learns it may
        // retry, and the shed is visible in metrics.
        shed_total_.fetch_add(1, std::memory_order_relaxed);
        HttpResponse response =
            HttpResponse::MakeError(503, "server worker queue full");
        response.headers.emplace("Retry-After", "1");
        response.headers.emplace("X-Shed-Reason", "queue-full");
        WriteAll(connection_fd, SerializeResponse(response));
        ::close(connection_fd);
      }
    } else {
      ServeConnection(connection_fd);
      ::close(connection_fd);
    }
  }
}

void HttpServer::ServeConnection(int connection_fd) {
  std::string buffer;
  if (!ReadMessage(connection_fd, &buffer)) return;
  ServeBuffered(connection_fd, buffer);
}

void HttpServer::ServeBuffered(int connection_fd, const std::string& buffer) {
  HttpResponse response;
  auto request = ParseWireRequest(buffer);
  if (!request.ok()) {
    response = HttpResponse::MakeError(400, request.status().ToString());
  } else {
    response = handler_->Handle(*request);
  }
  WriteAll(connection_fd, SerializeResponse(response));
}

StatusOr<HttpResponse> HttpGet(uint16_t port,
                               const std::string& path_and_query) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) <
      0) {
    ::close(fd);
    return ErrnoStatus("connect");
  }
  auto request = HttpRequest::Get(path_and_query);
  if (!request.ok()) {
    ::close(fd);
    return request.status();
  }
  if (!WriteAll(fd, SerializeRequest(*request, "127.0.0.1"))) {
    ::close(fd);
    return Status::Internal("send failed");
  }
  ::shutdown(fd, SHUT_WR);
  std::string buffer;
  bool read_ok = ReadMessage(fd, &buffer);
  ::close(fd);
  if (!read_ok) return Status::Internal("recv failed");
  return ParseWireResponse(buffer);
}

HttpResponse RemoteHostHandler::Handle(const HttpRequest& request) {
  auto response = HttpGet(port_, request.ToUrl());
  if (!response.ok()) {
    return HttpResponse::MakeError(502, response.status().ToString());
  }
  return *response;
}

}  // namespace fnproxy::net
