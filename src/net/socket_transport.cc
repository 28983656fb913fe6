#include "src/net/socket_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cctype>

#include "src/util/log.h"

namespace globe::net {

namespace {

// Frame header past the u32 length word: src node/port, dst node/port.
constexpr size_t kFrameHeaderBytes = 12;
constexpr size_t kReadChunk = 64 * 1024;

void PutU16(Bytes* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(Bytes* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Scans an HTTP header block for Content-Length (case-insensitive). Returns 0
// if absent — GETs carry no body.
size_t ParseContentLength(const uint8_t* headers, size_t len) {
  static constexpr char kName[] = "content-length:";
  constexpr size_t kNameLen = sizeof(kName) - 1;
  for (size_t i = 0; i + kNameLen <= len; ++i) {
    size_t j = 0;
    while (j < kNameLen &&
           std::tolower(static_cast<unsigned char>(headers[i + j])) == kName[j]) {
      ++j;
    }
    if (j < kNameLen) {
      continue;
    }
    size_t pos = i + kNameLen;
    while (pos < len && headers[pos] == ' ') {
      ++pos;
    }
    size_t value = 0;
    while (pos < len && headers[pos] >= '0' && headers[pos] <= '9') {
      value = value * 10 + (headers[pos] - '0');
      ++pos;
    }
    return value;
  }
  return 0;
}

}  // namespace

std::shared_ptr<Bytes> BufferPool::Acquire() {
  std::unique_ptr<Bytes> buf;
  if (!free_list_->buffers.empty()) {
    buf = std::move(free_list_->buffers.back());
    free_list_->buffers.pop_back();
    ++recycled_;
  } else {
    buf = std::make_unique<Bytes>();
  }
  // The deleter runs when the last pinned view drops — possibly long after
  // this pool (transport) is gone, hence the weak_ptr guard.
  std::weak_ptr<FreeList> weak = free_list_;
  return std::shared_ptr<Bytes>(buf.release(), [weak](Bytes* b) {
    if (auto fl = weak.lock(); fl && fl->buffers.size() < kMaxFree) {
      b->clear();
      fl->buffers.emplace_back(b);
    } else {
      delete b;
    }
  });
}

SocketTransport::SocketTransport(EventLoop* loop, std::string bind_address)
    : loop_(loop), bind_address_(std::move(bind_address)) {}

SocketTransport::~SocketTransport() {
  for (auto& [fd, conn] : connections_) {
    loop_->UnwatchFd(fd);
    close(fd);
    conn->state = ConnState::kClosed;
  }
  connections_.clear();
  for (const Listener& listener : listeners_) {
    loop_->UnwatchFd(listener.fd);
    close(listener.fd);
  }
}

Result<int> SocketTransport::OpenListener(uint16_t tcp_port, uint16_t* bound_port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Internal("socket(): " + std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp_port);
  if (inet_pton(AF_INET, bind_address_.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return InvalidArgument("bad bind address: " + bind_address_);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status err = Unavailable("bind(" + bind_address_ + ":" + std::to_string(tcp_port) +
                             "): " + strerror(errno));
    close(fd);
    return err;
  }
  if (listen(fd, 64) != 0) {
    Status err = Internal("listen(): " + std::string(strerror(errno)));
    close(fd);
    return err;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

Result<uint16_t> SocketTransport::Listen(sim::NodeId node, uint16_t tcp_port) {
  uint16_t bound = 0;
  ASSIGN_OR_RETURN(int fd, OpenListener(tcp_port, &bound));
  listeners_.push_back(Listener{fd, ConnKind::kFrame, node});
  loop_->WatchFd(fd, EPOLLIN, [this, fd, node](uint32_t) {
    AcceptReady(fd, ConnKind::kFrame, node);
  });
  AddRoute(node, bind_address_, bound);
  return bound;
}

Result<uint16_t> SocketTransport::ListenHttp(sim::NodeId node, uint16_t tcp_port) {
  uint16_t bound = 0;
  ASSIGN_OR_RETURN(int fd, OpenListener(tcp_port, &bound));
  listeners_.push_back(Listener{fd, ConnKind::kHttp, node});
  loop_->WatchFd(fd, EPOLLIN, [this, fd, node](uint32_t) {
    AcceptReady(fd, ConnKind::kHttp, node);
  });
  return bound;
}

void SocketTransport::AddRoute(sim::NodeId node, const std::string& host,
                               uint16_t tcp_port) {
  routes_[node] = Route{host, tcp_port};
}

void SocketTransport::RegisterPort(sim::NodeId node, uint16_t port,
                                   sim::TransportHandler handler) {
  handlers_[{node, port}] = std::make_shared<sim::TransportHandler>(std::move(handler));
}

void SocketTransport::UnregisterPort(sim::NodeId node, uint16_t port) {
  handlers_.erase({node, port});
}

void SocketTransport::QueueFrame(const std::shared_ptr<Connection>& conn,
                                 const sim::Endpoint& src, const sim::Endpoint& dst,
                                 ByteSpan payload) {
  conn->sent_pairs.insert({src, dst});
  Bytes* buf = &conn->write_buf;
  PutU32(buf, static_cast<uint32_t>(kFrameHeaderBytes + payload.size()));
  PutU32(buf, src.node);
  PutU16(buf, src.port);
  PutU32(buf, dst.node);
  PutU16(buf, dst.port);
  buf->insert(buf->end(), payload.begin(), payload.end());
  ++stats_.frames_sent;
  stats_.bytes_sent += 4 + kFrameHeaderBytes + payload.size();
  FlushWrites(conn);  // no-op while still kConnecting; drains on completion
}

void SocketTransport::Send(const sim::Endpoint& src, const sim::Endpoint& dst,
                           ByteSpan payload) {
  if (payload.size() > sim::kMaxFrameBytes) {
    ++stats_.oversized_rejected;
    GLOG_WARN << "socket transport refusing oversized frame (" << payload.size()
              << " bytes) from " << ToString(src) << " to " << ToString(dst);
    return;  // same silent drop as the simulated network; deadlines recover
  }

  // Learned reply path: the connection the destination's traffic arrived on.
  auto learned = learned_.find(dst);
  if (learned != learned_.end() && learned->second->state != ConnState::kClosed) {
    // A copy, not a reference: closing the connection erases its learned_
    // entry, and the shared_ptr inside that entry with it.
    std::shared_ptr<Connection> conn = learned->second;
    if (conn->kind == ConnKind::kHttp) {
      // Raw HTTP response: no framing, one response per HTTP/1.0 connection.
      QueueBytes(conn, payload.data(), payload.size());
      stats_.bytes_sent += payload.size();
      conn->close_after_flush = true;
      FlushWrites(conn);
      return;
    }
    QueueFrame(conn, src, dst, payload);
    return;
  }

  // Route table: connect (or reuse the connection) to the destination node.
  if (routes_.count(dst.node) > 0) {
    auto existing = outbound_.find(dst.node);
    std::shared_ptr<Connection> conn;
    if (existing != outbound_.end() && existing->second->state != ConnState::kClosed) {
      conn = existing->second;
    } else if (Connection* fresh = ConnectTo(dst.node)) {
      conn = connections_.at(fresh->fd);
    } else {
      ++stats_.undeliverable;
      DeliverError(src, dst);
      return;
    }
    QueueFrame(conn, src, dst, payload);
    return;
  }

  // No path at all: fail fast so retries / error handling engage immediately.
  ++stats_.undeliverable;
  GLOG_WARN << "socket transport has no route to " << ToString(dst);
  DeliverError(src, dst);
}

SocketTransport::Connection* SocketTransport::ConnectTo(sim::NodeId node) {
  const Route& route = routes_.at(node);
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return nullptr;
  }
  SetNoDelay(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(route.port);
  if (inet_pton(AF_INET, route.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return nullptr;
  }
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return nullptr;
  }

  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  conn->state = rc == 0 ? ConnState::kOpen : ConnState::kConnecting;
  conn->kind = ConnKind::kFrame;
  conn->peer_node = node;
  conn->outbound = true;
  conn->read_buf = read_buf_pool_.Acquire();
  stats_.read_bufs_recycled = read_buf_pool_.recycled();
  connections_[fd] = conn;
  outbound_[node] = conn;
  ++stats_.connections_opened;

  loop_->WatchFd(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                 [this, conn](uint32_t events) { ConnectionReady(conn, events); });
  return conn.get();
}

void SocketTransport::AcceptReady(int listen_fd, ConnKind kind, sim::NodeId http_node) {
  while (true) {
    int fd = accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or transient error; epoll re-arms
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->state = ConnState::kOpen;
    conn->kind = kind;
    conn->outbound = false;
    conn->read_buf = read_buf_pool_.Acquire();
    stats_.read_bufs_recycled = read_buf_pool_.recycled();
    connections_[fd] = conn;
    ++stats_.connections_accepted;
    if (kind == ConnKind::kHttp) {
      conn->peer_node = http_node;  // the hosted node whose httpd this feeds
      conn->http_client = sim::Endpoint{kHttpClientNode, next_http_slot_++};
      if (next_http_slot_ == 0) {
        next_http_slot_ = 1;
      }
      learned_[conn->http_client] = conn;
    }
    loop_->WatchFd(fd, EPOLLIN | EPOLLRDHUP,
                   [this, conn](uint32_t events) { ConnectionReady(conn, events); });
  }
}

void SocketTransport::ConnectionReady(const std::shared_ptr<Connection>& conn,
                                      uint32_t events) {
  if (conn->state == ConnState::kClosed) {
    return;
  }
  if (conn->state == ConnState::kConnecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      CloseConnection(conn, /*peer_lost=*/true);  // connection refused
      return;
    }
    conn->state = ConnState::kOpen;
    FlushWrites(conn);
    if (conn->state == ConnState::kClosed) {
      return;
    }
    UpdateEpollMask(conn);
  }
  if ((events & EPOLLERR) != 0) {
    CloseConnection(conn, /*peer_lost=*/true);
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
    ReadReady(conn);
    if (conn->state == ConnState::kClosed) {
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    FlushWrites(conn);
  }
}

void SocketTransport::EnsureExclusiveReadBuffer(Connection* conn) {
  if (conn->read_buf.use_count() == 1) {
    return;
  }
  // Delivered views still pin the buffer: growing it could reallocate and
  // dangle every one of them. Swap in a fresh pool buffer, carrying over only
  // the unconsumed tail (at most one partial frame); the pinned buffer returns
  // to the freelist when its last view drops.
  std::shared_ptr<Bytes> fresh = read_buf_pool_.Acquire();
  stats_.read_bufs_recycled = read_buf_pool_.recycled();
  fresh->assign(conn->read_buf->begin() + static_cast<ptrdiff_t>(conn->read_pos),
                conn->read_buf->end());
  conn->read_buf = std::move(fresh);
  conn->read_pos = 0;
  ++stats_.read_buf_swaps;
}

void SocketTransport::ReadReady(const std::shared_ptr<Connection>& conn) {
  while (true) {
    EnsureExclusiveReadBuffer(conn.get());
    Bytes& buf = *conn->read_buf;
    size_t old_size = buf.size();
    buf.resize(old_size + kReadChunk);
    ssize_t n = recv(conn->fd, buf.data() + old_size, kReadChunk, 0);
    if (n > 0) {
      buf.resize(old_size + static_cast<size_t>(n));
      stats_.bytes_received += static_cast<uint64_t>(n);
      if (conn->kind == ConnKind::kFrame) {
        ParseFrames(conn);
      } else {
        ParseHttp(conn);
      }
      if (conn->state == ConnState::kClosed) {
        return;
      }
      continue;
    }
    buf.resize(old_size);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF or hard error. An HTTP client hanging up after its response is the
    // protocol working; anything else is peer loss.
    bool peer_lost = conn->kind == ConnKind::kFrame;
    CloseConnection(conn, peer_lost);
    return;
  }
}

void SocketTransport::ParseFrames(const std::shared_ptr<Connection>& conn) {
  // The buffer is never resized inside this loop, so payload views stay valid
  // across deliveries even while earlier frames' views are still pinned.
  Bytes& buf = *conn->read_buf;
  while (conn->state != ConnState::kClosed) {
    size_t available = buf.size() - conn->read_pos;
    if (available < 4) {
      break;
    }
    const uint8_t* base = buf.data() + conn->read_pos;
    uint32_t frame_len = GetU32(base);
    if (frame_len < kFrameHeaderBytes ||
        frame_len - kFrameHeaderBytes > sim::kMaxFrameBytes) {
      // A corrupt or hostile length prefix must never drive an unbounded
      // allocation: kill the connection instead of trusting it.
      ++stats_.oversized_rejected;
      GLOG_WARN << "socket transport closing connection on bad frame length "
                << frame_len;
      CloseConnection(conn, /*peer_lost=*/true);
      return;
    }
    if (available < 4 + static_cast<size_t>(frame_len)) {
      break;  // partial frame; wait for more bytes
    }

    sim::TransportDelivery delivery;
    delivery.src.node = GetU32(base + 4);
    delivery.src.port = GetU16(base + 8);
    delivery.dst.node = GetU32(base + 10);
    delivery.dst.port = GetU16(base + 14);
    size_t payload_len = frame_len - kFrameHeaderBytes;
    const uint8_t* payload = base + 4 + kFrameHeaderBytes;
    // Zero-copy delivery: the payload is a pinned view straight into the read
    // buffer. A handler that stashes it keeps the buffer alive; the next
    // ReadReady then swaps the connection onto a fresh pool buffer.
    delivery.payload =
        sim::PayloadView(conn->read_buf, ByteSpan(payload, payload_len));
    conn->read_pos += 4 + frame_len;
    ++stats_.frames_received;

    // Learn the reply path: frames back to this source ride this connection.
    learned_[delivery.src] = conn;
    Deliver(std::move(delivery));
  }
  if (conn->read_pos > 0 && conn->state != ConnState::kClosed &&
      conn->read_buf.use_count() == 1) {
    // Compact the consumed prefix in place; capacity is retained across
    // frames. Skipped while views pin the buffer — the next ReadReady swaps
    // it out instead.
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(conn->read_pos));
    conn->read_pos = 0;
  }
}

void SocketTransport::ParseHttp(const std::shared_ptr<Connection>& conn) {
  Bytes& buf = *conn->read_buf;
  while (conn->state != ConnState::kClosed) {
    size_t available = buf.size() - conn->read_pos;
    if (available == 0) {
      break;
    }
    const uint8_t* base = buf.data() + conn->read_pos;
    // Find the end of the header block.
    size_t header_end = 0;
    for (size_t i = 3; i < available; ++i) {
      if (base[i - 3] == '\r' && base[i - 2] == '\n' && base[i - 1] == '\r' &&
          base[i] == '\n') {
        header_end = i + 1;
        break;
      }
    }
    if (header_end == 0) {
      if (available > sim::kMaxFrameBytes) {
        ++stats_.oversized_rejected;
        CloseConnection(conn, /*peer_lost=*/false);
        return;
      }
      break;  // headers incomplete
    }
    size_t body_len = ParseContentLength(base, header_end);
    if (body_len > sim::kMaxFrameBytes) {
      ++stats_.oversized_rejected;
      CloseConnection(conn, /*peer_lost=*/false);
      return;
    }
    size_t request_len = header_end + body_len;
    if (available < request_len) {
      break;  // body incomplete
    }

    ++stats_.http_requests;
    sim::TransportDelivery delivery;
    delivery.src = conn->http_client;
    delivery.dst = sim::Endpoint{conn->peer_node, sim::kPortHttp};
    delivery.payload = sim::PayloadView(conn->read_buf, ByteSpan(base, request_len));
    conn->read_pos += request_len;
    Deliver(std::move(delivery));
  }
  if (conn->read_pos > 0 && conn->state != ConnState::kClosed &&
      conn->read_buf.use_count() == 1) {
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(conn->read_pos));
    conn->read_pos = 0;
  }
}

void SocketTransport::QueueBytes(const std::shared_ptr<Connection>& conn,
                                 const uint8_t* data, size_t len) {
  conn->write_buf.insert(conn->write_buf.end(), data, data + len);
}

void SocketTransport::FlushWrites(const std::shared_ptr<Connection>& conn) {
  if (conn->state != ConnState::kOpen) {
    return;  // queued bytes drain when the connect completes
  }
  while (conn->write_pos < conn->write_buf.size()) {
    size_t remaining = conn->write_buf.size() - conn->write_pos;
    ssize_t n = ::send(conn->fd, conn->write_buf.data() + conn->write_pos, remaining,
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpollMask(conn);  // wait for EPOLLOUT
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(conn, /*peer_lost=*/conn->kind == ConnKind::kFrame);
    return;
  }
  // Fully drained: reset the buffer (capacity retained) and drop EPOLLOUT.
  conn->write_buf.clear();
  conn->write_pos = 0;
  if (conn->close_after_flush) {
    CloseConnection(conn, /*peer_lost=*/false);
    return;
  }
  UpdateEpollMask(conn);
}

void SocketTransport::UpdateEpollMask(const std::shared_ptr<Connection>& conn) {
  uint32_t events = EPOLLIN | EPOLLRDHUP;
  if (conn->state == ConnState::kConnecting ||
      conn->write_pos < conn->write_buf.size()) {
    events |= EPOLLOUT;
  }
  loop_->ModifyFd(conn->fd, events);
}

void SocketTransport::CloseConnection(const std::shared_ptr<Connection>& conn,
                                      bool peer_lost) {
  if (conn->state == ConnState::kClosed) {
    return;
  }
  conn->state = ConnState::kClosed;
  loop_->UnwatchFd(conn->fd);
  close(conn->fd);
  connections_.erase(conn->fd);
  if (conn->outbound) {
    auto it = outbound_.find(conn->peer_node);
    if (it != outbound_.end() && it->second == conn) {
      outbound_.erase(it);
    }
  }
  for (auto it = learned_.begin(); it != learned_.end();) {
    it = it->second == conn ? learned_.erase(it) : std::next(it);
  }
  if (peer_lost) {
    ++stats_.disconnects;
    // Every local endpoint that sent over this connection learns its peer is
    // gone, so in-flight RPCs fail fast with UNAVAILABLE and retries engage.
    for (const auto& [local_src, remote_dst] : conn->sent_pairs) {
      DeliverError(local_src, remote_dst);
    }
  }
}

void SocketTransport::Deliver(sim::TransportDelivery delivery) {
  auto it = handlers_.find({delivery.dst.node, delivery.dst.port});
  if (it == handlers_.end()) {
    return;  // no listener on this port; same silent drop as the simulator
  }
  // Pin: the handler may unregister its own port mid-delivery.
  std::shared_ptr<sim::TransportHandler> handler = it->second;
  (*handler)(delivery);
}

void SocketTransport::DeliverError(const sim::Endpoint& local,
                                   const sim::Endpoint& lost_peer) {
  // Deferred: Transport's contract is that handlers never run inside Send().
  loop_->ScheduleAfter(0, [this, local, lost_peer]() {
    sim::TransportDelivery delivery;
    delivery.src = lost_peer;
    delivery.dst = local;
    delivery.transport_error = true;
    Deliver(std::move(delivery));
  });
}

}  // namespace globe::net
