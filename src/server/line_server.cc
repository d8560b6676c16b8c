#include "server/line_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace rescq {

namespace {

// A request line longer than this is hostile or garbage; the connection
// gets one structured error and is dropped.
constexpr size_t kMaxLineBytes = 64 * 1024;

// Coalesced replies are sent early once they reach this size: a read's
// worth of short requests with long replies (`sessions`, `stats`) must
// not grow the output buffer without bound.
constexpr size_t kMaxPendingReplyBytes = 64 * 1024;

/// send() the whole buffer, riding out EINTR and partial writes.
/// MSG_NOSIGNAL: a client that hung up mid-reply costs us an EPIPE
/// errno, never a SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

LineServer::LineServer(const LineServerOptions& options,
                       HandlerFactory factory)
    : options_(options),
      factory_(std::move(factory)),
      connections_(options.connections_metric) {}

LineServer::~LineServer() { Stop(); }

bool LineServer::Start(std::string* error) {
  if (::pipe(wake_fds_) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host '" + options_.host + "' (numeric IPv4 required)";
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "bind " + options_.host + ":" + std::to_string(options_.port) +
             ": " + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  // Plain threads, not a WorkerPool: the transport is not a solver
  // pool, so it publishes no pool.* utilization counters.
  const int threads = options_.threads < 1 ? 1 : options_.threads;
  for (int i = 0; i < threads; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return true;
}

void LineServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_fds_[0];
    fds[1].events = POLLIN;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      // A SignalStop (pipe write from a signal handler) or RequestStop
      // woke us: escalate to the full stop from normal thread context.
      RequestStop();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_.Add();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) {
        ::close(fd);
        break;
      }
      pending_fds_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void LineServer::HandlerLoop() {
  for (;;) {
    int fd;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !pending_fds_.empty(); });
      if (pending_fds_.empty()) return;  // stop, queue drained
      fd = pending_fds_.front();
      pending_fds_.pop_front();
      if (stop_) {
        ::close(fd);
        continue;  // drain the rest, then exit
      }
      active_fds_.insert(fd);
    }
    ServeConnection(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_fds_.erase(fd);
    }
    ::close(fd);
  }
}

void LineServer::ServeConnection(int fd) {
  // Replies leave in batches the client is already waiting for; Nagle
  // would only hold a batch's tail until the client's delayed ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::unique_ptr<LineConnectionHandler> handler = factory_();
  std::string in;   // received bytes; [cursor, size) not yet handled
  size_t cursor = 0;
  std::string out;  // replies not yet sent, in request order
  char chunk[64 * 1024];
  for (;;) {
    size_t newline = in.find('\n', cursor);
    size_t line_end = newline == std::string::npos ? in.size() : newline;
    if (line_end - cursor > kMaxLineBytes) {
      SendAll(fd, out + "err bad-request request line over 64KiB\n");
      return;
    }
    if (newline != std::string::npos) {
      std::string_view line(in.data() + cursor, newline - cursor);
      cursor = newline + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      LineResult result = handler->Handle(line);
      out += result.response;
      if (result.close_connection || result.stop_server) {
        SendAll(fd, out);
        if (result.stop_server) RequestStop();
        return;
      }
      if (out.size() >= kMaxPendingReplyBytes) {
        if (!SendAll(fd, out)) return;
        out.clear();
      }
      continue;
    }
    // Every complete line received so far is handled: send their
    // replies before waiting for more input, and keep only the partial
    // line.
    if (!out.empty()) {
      if (!SendAll(fd, out)) return;
      out.clear();
    }
    in.erase(0, cursor);
    cursor = 0;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // peer hung up, or RequestStop shut us down
    in.append(chunk, static_cast<size_t>(n));
  }
}

void LineServer::RequestStop() {
  std::vector<int> to_shutdown;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    to_shutdown.assign(active_fds_.begin(), active_fds_.end());
  }
  // Unblock every handler stuck in recv: the peers see a clean EOF, the
  // loops see n <= 0. The fds stay open (their handler closes them), so
  // shutdown never races a number reuse.
  for (int fd : to_shutdown) ::shutdown(fd, SHUT_RDWR);
  SignalStop();  // wake the accept poll
  queue_cv_.notify_all();
}

void LineServer::SignalStop() {
  if (wake_fds_[1] < 0) return;
  char byte = 's';
  // A full pipe already has a wake pending; short/failed writes are fine.
  ssize_t ignored = ::write(wake_fds_[1], &byte, 1);
  (void)ignored;
}

void LineServer::Wait() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || joined_) return;
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : handler_threads_) t.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
}

void LineServer::Stop() {
  bool started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    started = started_;
  }
  if (!started) {
    // Start may have half-opened fds before failing.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
    if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
    listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
    return;
  }
  RequestStop();
  Wait();
}

}  // namespace rescq
