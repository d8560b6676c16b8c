#include "server/client.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/line_server.h"
#include "server/protocol.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace rescq {

namespace {

/// "ok explain 3" / "ok sessions 2" → 3 / 2; -1 for single-line replies.
int PayloadLines(const std::string& header) {
  std::vector<std::string> parts = SplitTrimmed(header, ' ');
  if (parts.size() != 3 || parts[0] != "ok") return -1;
  if (!FindVerb(parts[1]).multi_line) return -1;
  uint64_t n = 0;
  if (!ParseUint64(parts[2], &n) || n > 1000000) return -1;
  return static_cast<int>(n);
}

bool SetNonBlocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if (on) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  return ::fcntl(fd, F_SETFL, flags) == 0;
}

/// connect() one address under a deadline: non-blocking connect, poll
/// for writability, read back SO_ERROR, then restore blocking mode.
/// timeout_ms 0 = plain blocking connect.
bool ConnectWithDeadline(int fd, const sockaddr* addr, socklen_t addrlen,
                         int timeout_ms, std::string* error) {
  if (timeout_ms <= 0) {
    if (::connect(fd, addr, addrlen) != 0) {
      *error = std::strerror(errno);
      return false;
    }
    return true;
  }
  if (!SetNonBlocking(fd, true)) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS) {
      *error = std::strerror(errno);
      return false;
    }
    pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int64_t deadline = SteadyNowMs() + timeout_ms;
    for (;;) {
      int64_t remaining = deadline - SteadyNowMs();
      if (remaining <= 0) {
        *error = "timeout: connect took longer than " +
                 std::to_string(timeout_ms) + "ms";
        return false;
      }
      int r = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) {
        *error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      if (r == 0) {
        *error = "timeout: connect took longer than " +
                 std::to_string(timeout_ms) + "ms";
        return false;
      }
      break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      *error = std::strerror(so_error != 0 ? so_error : errno);
      return false;
    }
  }
  if (!SetNonBlocking(fd, false)) {
    *error = std::string("fcntl: ") + std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineClient::Connect(const std::string& host, int port,
                         std::string* error) {
  Close();
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &result);
  if (rc != 0) {
    *error = "resolve " + host + ": " + ::gai_strerror(rc);
    return false;
  }
  std::string last_error = "no addresses";
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd_ < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    std::string attempt_error;
    if (ConnectWithDeadline(fd_, ai->ai_addr, ai->ai_addrlen,
                            connect_timeout_ms_, &attempt_error)) {
      ::freeaddrinfo(result);
      return true;
    }
    last_error = attempt_error;
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(result);
  *error =
      "connect " + host + ":" + std::to_string(port) + ": " + last_error;
  return false;
}

bool LineClient::ReadLine(std::string* line, std::string* error) {
  char chunk[4096];
  size_t newline;
  const int64_t deadline =
      io_timeout_ms_ > 0 ? SteadyNowMs() + io_timeout_ms_ : 0;
  while ((newline = buffer_.find('\n')) == std::string::npos) {
    if (buffer_.size() > kMaxReplyLineBytes) {
      *error = "reply line over " + std::to_string(kMaxReplyLineBytes) +
               " bytes";
      return false;
    }
    if (deadline != 0) {
      pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int64_t remaining = deadline - SteadyNowMs();
      int r = remaining <= 0
                  ? 0
                  : ::poll(&pfd, 1, static_cast<int>(remaining));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) {
        *error = std::string("poll: ") + std::strerror(errno);
        return false;
      }
      if (r == 0) {
        *error = "timeout: no reply within " +
                 std::to_string(io_timeout_ms_) + "ms";
        return false;
      }
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      *error = "server closed the connection";
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  *line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return true;
}

bool LineClient::Request(const std::string& line, std::string* reply,
                         std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  if (!SendAll(fd_, line + "\n", error)) {
    Close();
    return false;
  }
  std::string header;
  if (!ReadLine(&header, error)) {
    Close();
    return false;
  }
  *reply = header;
  int payload = PayloadLines(header);
  for (int i = 0; i < payload; ++i) {
    std::string extra;
    if (!ReadLine(&extra, error)) {
      Close();
      return false;
    }
    *reply += "\n" + extra;
  }
  return true;
}

}  // namespace rescq
