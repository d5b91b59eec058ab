#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>

namespace m3 {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Returns bytes read (0 only at clean end-of-stream on the first byte).
StatusOr<std::size_t> ReadFull(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (SetRecvTimeout): the peer is alive but not
        // talking. Distinct from kUnavailable so callers can treat a
        // wedged peer as a deadline, not a transport fault.
        return Status::DeadlineExceeded("socket read timed out");
      }
      return Status::Unavailable(Errno("socket read"));
    }
    if (r == 0) break;  // peer closed
    got += static_cast<std::size_t>(r);
  }
  return got;
}

// Gathered write of `iovcnt` buffers: retries EINTR, keeps pushing through
// short writes (routine on TCP), classifies an expired SO_SNDTIMEO as
// kDeadlineExceeded, and uses MSG_NOSIGNAL so EPIPE on a closed peer
// surfaces as a Status instead of killing the process. Mutates the iovec
// array as data drains. One sendmsg per kernel round keeps a small frame in
// one TCP segment instead of a header packet plus a payload packet.
Status SendAllVec(int fd, iovec* iov, int iovcnt) {
  int first = 0;
  while (first < iovcnt) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt - first);
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket write timed out");
      }
      return Status::Unavailable(Errno("socket write"));
    }
    std::size_t done = static_cast<std::size_t>(w);
    while (first < iovcnt && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (first < iovcnt && done > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
  return Status::Ok();
}

// Shared SO_RCVTIMEO / SO_SNDTIMEO plumbing.
Status SetTimeoutOpt(int fd, int optname, double seconds, const char* what) {
  timeval tv{};
  if (seconds > 0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    // Sub-microsecond budgets round to zero, which the kernel reads as
    // "block forever" — the opposite of what the caller asked for.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Status::Unavailable(Errno(std::string("setsockopt ") + what));
  }
  return Status::Ok();
}

StatusOr<sockaddr_un> MakeAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path '" + path + "': length must be in [1, " +
                                   std::to_string(sizeof(addr.sun_path) - 1) + "]");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixFd& UnixFd::operator=(UnixFd&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void UnixFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<UnixFd> ListenUnix(const std::string& path, int backlog) {
  StatusOr<sockaddr_un> addr = MakeAddr(path);
  if (!addr.ok()) return addr.status();

  // Unlink only a stale *socket* file; refuse to clobber a regular file the
  // user pointed us at by mistake.
  struct stat st{};
  if (::lstat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
    ::unlink(path.c_str());
  }

  UnixFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Unavailable(Errno("socket"));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    return Status::Unavailable(Errno("bind " + path));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return Status::Unavailable(Errno("listen " + path));
  }
  return fd;
}

StatusOr<UnixFd> AcceptUnix(const UnixFd& listener) {
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return UnixFd(fd);
    // EINTR: signal during accept. ECONNABORTED/EPROTO: the pending client
    // died between connect and accept — its problem, not the listener's.
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    return Status::Unavailable(Errno("accept"));
  }
}

StatusOr<UnixFd> ConnectUnix(const std::string& path) {
  StatusOr<sockaddr_un> addr = MakeAddr(path);
  if (!addr.ok()) return addr.status();
  UnixFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Unavailable(Errno("socket"));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    if (errno == ENOENT || errno == ECONNREFUSED) {
      return Status::NotFound("no m3d daemon listening at " + path + " (" +
                              std::strerror(errno) + ")");
    }
    return Status::Unavailable(Errno("connect " + path));
  }
  return fd;
}

StatusOr<UnixFd> ConnectUnixTimeout(const std::string& path, double timeout_seconds) {
  if (timeout_seconds <= 0) return ConnectUnix(path);
  StatusOr<sockaddr_un> addr = MakeAddr(path);
  if (!addr.ok()) return addr.status();
  UnixFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Unavailable(Errno("socket"));

  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Unavailable(Errno("fcntl O_NONBLOCK"));
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    if (errno == ENOENT || errno == ECONNREFUSED) {
      return Status::NotFound("no m3d daemon listening at " + path + " (" +
                              std::strerror(errno) + ")");
    }
    if (errno != EINPROGRESS && errno != EAGAIN) {
      return Status::Unavailable(Errno("connect " + path));
    }
    // AF_UNIX connect blocks only when the listener's backlog is full; wait
    // for writability up to the deadline.
    pollfd pfd{fd.get(), POLLOUT, 0};
    const int timeout_ms = static_cast<int>(std::ceil(timeout_seconds * 1000.0));
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) return Status::Unavailable(Errno("poll connect " + path));
    if (rc == 0) {
      return Status::DeadlineExceeded("connect " + path + " timed out after " +
                                      std::to_string(timeout_seconds) + "s");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      errno = err != 0 ? err : errno;
      if (errno == ENOENT || errno == ECONNREFUSED) {
        return Status::NotFound("no m3d daemon listening at " + path + " (" +
                                std::strerror(errno) + ")");
      }
      return Status::Unavailable(Errno("connect " + path));
    }
  }
  if (::fcntl(fd.get(), F_SETFL, flags) != 0) {
    return Status::Unavailable(Errno("fcntl restore flags"));
  }
  return fd;
}

Status SetRecvTimeout(const UnixFd& fd, double seconds) {
  return SetTimeoutOpt(fd.get(), SO_RCVTIMEO, seconds, "SO_RCVTIMEO");
}

Status SetSendTimeout(const UnixFd& fd, double seconds) {
  return SetTimeoutOpt(fd.get(), SO_SNDTIMEO, seconds, "SO_SNDTIMEO");
}

StatusOr<UnixFd> ListenTcp(const std::string& host, std::uint16_t port, int backlog) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  const std::string service = std::to_string(port);
  addrinfo* raw = nullptr;
  if (const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(),
                                   &hints, &raw);
      rc != 0) {
    return Status::InvalidArgument("resolve " + host + ": " + ::gai_strerror(rc));
  }
  // Owns the list, so every return below frees it.
  const std::unique_ptr<addrinfo, decltype(&::freeaddrinfo)> res(raw, &::freeaddrinfo);
  Status last = Status::Unavailable("no usable address for " + host + ":" + service);
  for (addrinfo* ai = res.get(); ai != nullptr; ai = ai->ai_next) {
    UnixFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Status::Unavailable(Errno("socket"));
      continue;
    }
    // A restarted daemon must be able to rebind while old connections sit
    // in TIME_WAIT.
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Status::Unavailable(Errno("bind " + host + ":" + service));
      continue;
    }
    if (::listen(fd.get(), backlog) != 0) {
      last = Status::Unavailable(Errno("listen " + host + ":" + service));
      continue;
    }
    return fd;
  }
  return last;
}

StatusOr<UnixFd> ConnectTcpTimeout(const std::string& host, std::uint16_t port,
                                   double timeout_seconds) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  const std::string service = std::to_string(port);
  const std::string where = host + ":" + service;
  addrinfo* raw = nullptr;
  if (const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &raw); rc != 0) {
    return Status::InvalidArgument("resolve " + host + ": " + ::gai_strerror(rc));
  }
  // Owns the list, so every return below frees it.
  const std::unique_ptr<addrinfo, decltype(&::freeaddrinfo)> res(raw, &::freeaddrinfo);
  Status last = Status::Unavailable("no usable address for " + where);
  for (addrinfo* ai = res.get(); ai != nullptr; ai = ai->ai_next) {
    UnixFd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) {
      last = Status::Unavailable(Errno("socket"));
      continue;
    }
    const int flags = ::fcntl(fd.get(), F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
      last = Status::Unavailable(Errno("fcntl O_NONBLOCK"));
      continue;
    }
    bool ok = ::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0;
    if (!ok && (errno == EINPROGRESS || errno == EAGAIN)) {
      pollfd pfd{fd.get(), POLLOUT, 0};
      const int timeout_ms =
          timeout_seconds <= 0 ? -1 : static_cast<int>(std::ceil(timeout_seconds * 1000.0));
      int rc;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) {
        last = Status::Unavailable(Errno("poll connect " + where));
        continue;
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("connect " + where + " timed out after " +
                                        std::to_string(timeout_seconds) + "s");
      }
      int err = 0;
      socklen_t err_len = sizeof(err);
      ok = ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) == 0 && err == 0;
      if (!ok && err != 0) errno = err;
    }
    if (!ok) {
      if (errno == ECONNREFUSED) {
        last = Status::NotFound("no m3d daemon listening at " + where + " (" +
                                std::strerror(errno) + ")");
      } else {
        last = Status::Unavailable(Errno("connect " + where));
      }
      continue;
    }
    if (::fcntl(fd.get(), F_SETFL, flags) != 0) {
      last = Status::Unavailable(Errno("fcntl restore flags"));
      continue;
    }
    // Strict request/response protocol: Nagle buys nothing and costs a
    // delayed-ACK round trip on small frames.
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
  return last;
}

std::string Endpoint::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

StatusOr<Endpoint> ParseEndpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    std::size_t colon;
    if (!rest.empty() && rest[0] == '[') {
      // Bracketed IPv6 literal: tcp:[::1]:9000.
      const std::size_t close = rest.find("]:");
      if (close == std::string::npos) {
        return Status::InvalidArgument("endpoint '" + spec + "': expected tcp:[host]:port");
      }
      ep.host = rest.substr(1, close - 1);
      colon = close + 1;
    } else {
      colon = rest.rfind(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("endpoint '" + spec + "': expected tcp:host:port");
      }
      ep.host = rest.substr(0, colon);
    }
    if (ep.host.empty()) {
      return Status::InvalidArgument("endpoint '" + spec + "': empty host");
    }
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    errno = 0;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (port_str.empty() || end == nullptr || *end != '\0' || errno != 0 || port == 0 ||
        port > 65535) {
      return Status::InvalidArgument("endpoint '" + spec + "': port must be in [1, 65535]");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
  if (ep.path.empty()) {
    return Status::InvalidArgument("endpoint '" + spec + "': empty socket path");
  }
  return ep;
}

StatusOr<UnixFd> ConnectEndpoint(const Endpoint& ep, double timeout_seconds) {
  if (ep.kind == Endpoint::Kind::kTcp) {
    return ConnectTcpTimeout(ep.host, ep.port, timeout_seconds);
  }
  return ConnectUnixTimeout(ep.path, timeout_seconds);
}

StatusOr<UnixFd> ListenEndpoint(const Endpoint& ep, int backlog) {
  if (ep.kind == Endpoint::Kind::kTcp) return ListenTcp(ep.host, ep.port, backlog);
  return ListenUnix(ep.path, backlog);
}

Status MakeSocketPair(UnixFd* a, UnixFd* b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Unavailable(Errno("socketpair"));
  }
  *a = UnixFd(fds[0]);
  *b = UnixFd(fds[1]);
  return Status::Ok();
}

Status SendFrame(const UnixFd& fd, std::uint32_t type, std::string_view payload,
                 std::string_view tail) {
  char header[16];
  const std::uint32_t magic = kM3dFrameMagic;
  const std::uint64_t len = payload.size() + tail.size();
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &type, 4);
  std::memcpy(header + 8, &len, 8);
  iovec iov[3] = {{header, sizeof(header)}};
  int n = 1;
  for (const std::string_view part : {payload, tail}) {
    if (!part.empty()) iov[n++] = {const_cast<char*>(part.data()), part.size()};
  }
  return SendAllVec(fd.get(), iov, n);
}

StatusOr<Frame> RecvFrame(const UnixFd& fd) {
  char header[16];
  StatusOr<std::size_t> got = ReadFull(fd.get(), header, sizeof(header));
  if (!got.ok()) return got.status();
  if (*got == 0) return Status::NotFound("end of stream");
  if (*got < sizeof(header)) {
    return Status::DataLoss("peer closed mid-frame (got " + std::to_string(*got) +
                            " of 16 header bytes)");
  }
  std::uint32_t magic, type;
  std::uint64_t len;
  std::memcpy(&magic, header, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  if (magic != kM3dFrameMagic) {
    return Status::InvalidArgument("bad frame magic (not an m3d peer?)");
  }
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(kMaxFramePayload) + "-byte cap");
  }
  Frame f;
  f.type = type;
  f.payload.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    got = ReadFull(fd.get(), f.payload.data(), f.payload.size());
    if (!got.ok()) return got.status();
    if (*got < f.payload.size()) {
      return Status::DataLoss("peer closed mid-frame (got " + std::to_string(*got) +
                              " of " + std::to_string(len) + " payload bytes)");
    }
  }
  return f;
}

}  // namespace m3
