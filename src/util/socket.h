// Stream sockets (Unix-domain and TCP) + length-prefixed frame transport:
// the wire substrate of the m3d estimation service and the sharded fleet.
//
// Frame layout (all little-endian):
//   magic u32 ("m3d\1") | type u32 | payload_len u64 | payload bytes
//
// The framing layer is payload-agnostic; message payloads are defined in
// serve/wire.h. Reads and writes retry on EINTR and handle short transfers
// (routine on TCP, not just possible); a peer that closes mid-frame yields
// kDataLoss, a clean close before the magic yields kNotFound (end of
// stream), and oversized or bad-magic frames yield kInvalidArgument without
// reading the payload. A read or write that exceeds a configured
// SetRecvTimeout/SetSendTimeout bound yields kDeadlineExceeded.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace m3 {

/// Bytes on the wire: 'm' '3' 'd' 0x01, read as a little-endian u32.
constexpr std::uint32_t kM3dFrameMagic = 0x0164336d;

/// Hard cap on a single frame payload; protects the daemon from a hostile
/// or corrupt length field. 64 MB fits ~2M wire flows.
constexpr std::uint64_t kMaxFramePayload = 64ull * 1024 * 1024;

struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

/// An owned file descriptor (closes on destruction; movable, not copyable).
class UnixFd {
 public:
  UnixFd() = default;
  explicit UnixFd(int fd) : fd_(fd) {}
  ~UnixFd() { Close(); }
  UnixFd(UnixFd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  UnixFd& operator=(UnixFd&& o) noexcept;
  UnixFd(const UnixFd&) = delete;
  UnixFd& operator=(const UnixFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

/// Creates, binds, and listens on a Unix-domain socket at `path`. An
/// existing socket file at `path` is unlinked first (stale socket from a
/// crashed daemon); a non-socket file at `path` is left alone and the bind
/// fails. kInvalidArgument for over-long paths, kUnavailable for OS errors.
StatusOr<UnixFd> ListenUnix(const std::string& path, int backlog = 64);

/// Accepts one connection on any stream listener (Unix or TCP); blocks.
/// kUnavailable on error. EINTR is retried, and so are ECONNABORTED /
/// EPROTO — a client that connects and dies before accept() must not kill
/// the accept loop.
StatusOr<UnixFd> AcceptUnix(const UnixFd& listener);

/// Connects to the daemon socket at `path`. kNotFound when nothing is bound
/// there, kUnavailable for other OS errors.
StatusOr<UnixFd> ConnectUnix(const std::string& path);

/// ConnectUnix with a wall-clock bound (non-blocking connect + poll): a
/// daemon whose accept queue is wedged cannot hang the client forever.
/// kDeadlineExceeded when the timeout expires; timeout_seconds <= 0 means
/// block indefinitely (identical to ConnectUnix).
StatusOr<UnixFd> ConnectUnixTimeout(const std::string& path, double timeout_seconds);

/// Bounds every subsequent read on `fd` (SO_RCVTIMEO): a recv that sits
/// longer than `seconds` with no bytes arriving fails, surfacing from
/// RecvFrame as kDeadlineExceeded. seconds <= 0 clears the bound. This is
/// both the client-side "wedged daemon" guard and the supervisor's
/// per-query watchdog primitive (deadline + grace, then SIGKILL).
Status SetRecvTimeout(const UnixFd& fd, double seconds);

/// Bounds every subsequent write on `fd` (SO_SNDTIMEO): a peer that stops
/// reading while we push a large frame fails the send as kDeadlineExceeded
/// instead of wedging the writer forever. seconds <= 0 clears the bound.
Status SetSendTimeout(const UnixFd& fd, double seconds);

/// Creates, binds, and listens on a TCP socket at host:port (SO_REUSEADDR
/// set so a restarted daemon can rebind immediately). `host` may be a
/// numeric address or a resolvable name; empty means all interfaces.
/// kUnavailable on OS errors, kInvalidArgument for unresolvable hosts.
StatusOr<UnixFd> ListenTcp(const std::string& host, std::uint16_t port, int backlog = 64);

/// Connects to a TCP peer with a wall-clock bound (non-blocking connect +
/// poll), then sets TCP_NODELAY — the protocol is strict request/response,
/// so Nagle only adds latency. timeout_seconds <= 0 blocks indefinitely.
/// kNotFound when nothing listens there, kDeadlineExceeded on timeout.
StatusOr<UnixFd> ConnectTcpTimeout(const std::string& host, std::uint16_t port,
                                   double timeout_seconds);

/// A parsed listen/connect address: "unix:/path", "tcp:host:port", or a
/// bare path (treated as unix). This is the shard-address format used by
/// m3d-router and m3_client.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         // kUnix
  std::string host;         // kTcp
  std::uint16_t port = 0;   // kTcp

  std::string ToString() const;
};

/// Parses an endpoint spec. kInvalidArgument on malformed specs (missing
/// port, port out of range, empty path).
StatusOr<Endpoint> ParseEndpoint(const std::string& spec);

/// Connects to an endpoint of either kind with a wall-clock bound.
StatusOr<UnixFd> ConnectEndpoint(const Endpoint& ep, double timeout_seconds);

/// Listens on an endpoint of either kind.
StatusOr<UnixFd> ListenEndpoint(const Endpoint& ep, int backlog = 64);

/// A connected AF_UNIX stream socketpair (the supervisor <-> worker
/// channel; both ends speak the same framed protocol as daemon sockets).
Status MakeSocketPair(UnixFd* a, UnixFd* b);

/// Writes the whole frame. kUnavailable on any I/O failure (incl. EPIPE).
/// The payload is `payload` followed by `tail`, sent with one gathered
/// write and never joined: a scatter sends one shared head to every shard,
/// each with its own tail.
Status SendFrame(const UnixFd& fd, std::uint32_t type, std::string_view payload,
                 std::string_view tail = {});

/// Reads one frame. kNotFound on clean end-of-stream (peer closed between
/// frames), kDataLoss on mid-frame close, kInvalidArgument on bad magic or
/// an oversized declared payload.
StatusOr<Frame> RecvFrame(const UnixFd& fd);

}  // namespace m3
