#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "serve/service.h"

namespace m3::serve {

ServerHooks ServiceHooks(EstimationService& service) {
  ServerHooks h;
  h.query = [&service](const QueryRequest& req) { return service.Query(req); };
  h.stats = [&service] { return service.Stats(); };
  h.ping = [&service] { return service.Ping(); };
  h.reload = [&service](const ReloadRequest& req) {
    ReloadResponse resp;
    resp.status = service.ReloadModel(req.checkpoint_path);
    const ServerStatsWire stats = service.Stats();
    resp.model_version = stats.model_version;
    resp.model_crc = stats.model_crc;
    return resp;
  };
  h.shard_query = [&service](const ShardQueryRequest& req) { return service.ExecuteShard(req); };
  return h;
}

SocketServer::SocketServer(EstimationService& service) : hooks_(ServiceHooks(service)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start(const std::string& socket_path) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = socket_path;
  return Start(ep);
}

Status SocketServer::Start(const Endpoint& ep) {
  StatusOr<UnixFd> listener = ListenEndpoint(ep);
  if (!listener.ok()) return listener.status();
  Listener* l;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listeners_.emplace_back();
    l = &listeners_.back();
    l->fd = std::move(*listener);
    if (ep.kind == Endpoint::Kind::kUnix) {
      l->unlink_path = ep.path;
      if (path_.empty()) path_ = ep.path;
    }
    started_ = true;
    stopping_ = false;
  }
  l->acceptor = std::thread([this, l] { AcceptLoop(l); });
  return Status::Ok();
}

void SocketServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
    // Unblock every parked read: each acceptor's accept() and each live
    // connection thread's recv(). Exited handlers (done) already closed
    // their fd, which may have been recycled — never shutdown() those.
    for (Listener& l : listeners_) {
      if (l.fd.valid()) ::shutdown(l.fd.get(), SHUT_RDWR);
    }
    for (const Conn& c : conns_) {
      if (!c.done) ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  for (Listener& l : listeners_) {
    if (l.acceptor.joinable()) l.acceptor.join();
  }
  // After the acceptors exit no new connection threads appear; join the
  // existing ones (their recv() has been shut down).
  std::list<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.splice(conns.end(), conns_);
  }
  for (Conn& c : conns) c.t.join();
  for (Listener& l : listeners_) {
    l.fd.Close();
    if (!l.unlink_path.empty()) ::unlink(l.unlink_path.c_str());
  }
  std::lock_guard<std::mutex> lock(mu_);
  listeners_.clear();
  path_.clear();
  started_ = false;
  stopping_ = false;
}

std::size_t SocketServer::connection_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

void SocketServer::AcceptLoop(Listener* l) {
  for (;;) {
    StatusOr<UnixFd> conn = AcceptUnix(l->fd);
    ReapFinished();
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;  // shutdown() woke us; drop any race-winner conn
    if (!conn.ok()) return;  // listener broken: no way to serve further
    conns_.emplace_back();
    const auto it = std::prev(conns_.end());
    it->fd = conn->get();
    // mu_ is held until the thread handle lands in the Conn, and the
    // handler's first touch of `it` (the done flag) also takes mu_ — so
    // the publication of `it->t` always happens-before its reap.
    it->t = std::thread([this, it, fd = std::move(*conn)]() mutable {
      ServeConnection(std::move(fd), it);
    });
  }
}

void SocketServer::ReapFinished() {
  std::list<Conn> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      const auto next = std::next(it);
      if (it->done) finished.splice(finished.end(), conns_, it);
      it = next;
    }
  }
  for (Conn& c : finished) c.t.join();  // near-instant: done is their last act
}

void SocketServer::ServeConnection(UnixFd fd, std::list<Conn>::iterator self) {
  for (;;) {
    StatusOr<Frame> frame = RecvFrame(fd);
    if (!frame.ok()) break;  // clean close, peer error, or shutdown
    Status send;
    try {
      switch (static_cast<MsgType>(frame->type)) {
        case MsgType::kQueryRequest: {
          StatusOr<QueryRequest> req = DecodeQueryRequest(frame->payload);
          QueryResponse resp;
          if (!req.ok()) {
            resp.status = req.status().Annotate("decoding query request");
          } else if (!hooks_.query) {
            resp.status = Status::Unavailable("this daemon does not serve queries");
          } else {
            resp = hooks_.query(*req);
          }
          send = SendFrame(fd, static_cast<std::uint32_t>(MsgType::kQueryResponse),
                           EncodeQueryResponse(resp));
          break;
        }
        case MsgType::kPingRequest: {
          // Ping and stats bodies are never decoded: a liveness probe wants
          // "is anyone home", not a parse verdict.
          PingResponse resp;
          if (hooks_.ping) resp = hooks_.ping();
          send = SendFrame(fd, static_cast<std::uint32_t>(MsgType::kPingResponse),
                           EncodePingResponse(resp));
          break;
        }
        case MsgType::kStatsRequest: {
          ServerStatsWire stats;
          if (hooks_.stats) stats = hooks_.stats();
          send = SendFrame(fd, static_cast<std::uint32_t>(MsgType::kStatsResponse),
                           EncodeStats(stats));
          break;
        }
        case MsgType::kReloadRequest: {
          StatusOr<ReloadRequest> req = DecodeReloadRequest(frame->payload);
          ReloadResponse resp;
          if (!req.ok()) {
            resp.status = req.status().Annotate("decoding reload request");
          } else if (!hooks_.reload) {
            resp.status = Status::Unavailable("this daemon does not serve reloads");
          } else {
            resp = hooks_.reload(*req);
          }
          send = SendFrame(fd, static_cast<std::uint32_t>(MsgType::kReloadResponse),
                           EncodeReloadResponse(resp));
          break;
        }
        case MsgType::kShardQueryRequest: {
          StatusOr<ShardQueryRequest> req = DecodeShardQueryRequest(frame->payload);
          ShardQueryResponse resp;
          if (!req.ok()) {
            resp.status = req.status().Annotate("decoding shard query");
          } else if (!hooks_.shard_query) {
            resp.status = Status::Unavailable("this daemon does not serve shard queries");
          } else {
            resp = hooks_.shard_query(*req);
          }
          send = SendFrame(fd, static_cast<std::uint32_t>(MsgType::kShardQueryResponse),
                           EncodeShardQueryResponse(resp));
          break;
        }
        default:
          // Unknown type: the peer's expected response shape is unknowable,
          // so the only safe protocol action is to hang up.
          send = Status::InvalidArgument("unknown frame type");
          break;
      }
    } catch (...) {
      // Belt-and-braces: decoding is Status-based and should never throw,
      // but an escaped exception here would std::terminate the daemon. One
      // hostile frame may cost its own connection, never the process.
      send = Status::Internal("exception while handling frame");
    }
    if (!send.ok()) break;
  }
  // Publish completion *before* the fd closes (it is destroyed after this
  // scope): once done is visible, Stop() skips the shutdown() and an
  // acceptor may join this thread; the fd number cannot have been recycled
  // while done was still false.
  std::lock_guard<std::mutex> lock(mu_);
  self->done = true;
}

}  // namespace m3::serve
