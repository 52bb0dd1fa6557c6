#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "serialize/rlp.h"

namespace confide::net {

namespace {

struct NetMetrics {
  metrics::Counter* send = metrics::GetCounter("net.send.count");
  metrics::Counter* send_bytes = metrics::GetCounter("net.send.bytes");
  metrics::Counter* send_drop = metrics::GetCounter("net.send.drop.count");
  metrics::Counter* send_error = metrics::GetCounter("net.send.error.count");
  metrics::Counter* recv = metrics::GetCounter("net.recv.count");
  metrics::Counter* recv_bytes = metrics::GetCounter("net.recv.bytes");
  metrics::Counter* frame_corrupt = metrics::GetCounter("net.frame.corrupt.count");
  metrics::Counter* conn_accept = metrics::GetCounter("net.conn.accept.count");
  metrics::Counter* conn_connect = metrics::GetCounter("net.conn.connect.count");
  metrics::Counter* conn_close = metrics::GetCounter("net.conn.close.count");
  metrics::Counter* conn_error = metrics::GetCounter("net.conn.error.count");

  static NetMetrics& Get() {
    static NetMetrics m;
    return m;
  }
};

/// Encodes the kHello body: [node_id, role].
Bytes HelloBody(uint32_t node_id, PeerRole role) {
  serialize::RlpWriter w;
  size_t list = w.BeginList();
  w.WriteU64(node_id);
  w.WriteU64(uint64_t(role));
  w.EndList(list);
  return std::move(w).Take();
}

}  // namespace

Result<std::pair<std::string, uint16_t>> SplitHostPort(const std::string& addr) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return Status::InvalidArgument("net: address '" + addr +
                                   "' is not host:port");
  }
  char* end = nullptr;
  unsigned long port = std::strtoul(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    return Status::InvalidArgument("net: bad port in '" + addr + "'");
  }
  return std::make_pair(addr.substr(0, colon), uint16_t(port));
}

struct TcpTransport::Connection {
  int fd = -1;
  /// Peer node id, or kClientPeer until a kHello identifies the peer.
  std::atomic<uint32_t> peer_id{kClientPeer};
  std::atomic<bool> alive{true};
  std::atomic<bool> closed{false};
  std::mutex write_mu;

  /// Shutdown-only: unblocks any reader parked in ::read(), but the fd
  /// stays open until the last shared_ptr drops. Closing the fd here would
  /// race a concurrent read and could hand the fd number to an unrelated
  /// accept() before the reader notices.
  void Close() {
    alive.store(false, std::memory_order_relaxed);
    bool expected = false;
    if (closed.compare_exchange_strong(expected, true)) {
      ::shutdown(fd, SHUT_RDWR);
      NetMetrics::Get().conn_close->Increment();
    }
  }

  ~Connection() {
    Close();
    if (fd >= 0) ::close(fd);
  }

  /// Write exactly `data`, looping over short writes. Returns false on
  /// any socket error (connection is marked dead).
  bool WriteAll(ByteView data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        alive.store(false, std::memory_order_relaxed);
        return false;
      }
      off += size_t(n);
    }
    return true;
  }
};

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)) {}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::SetHandler(HandlerFn handler) { handler_ = std::move(handler); }

void TcpTransport::SetTimer(uint64_t period_ns, std::function<void()> tick) {
  timer_period_ns_ = period_ns;
  timer_tick_ = std::move(tick);
}

uint64_t TcpTransport::NowNs() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

void TcpTransport::TimerLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(timer_period_ns_));
    if (!running_.load(std::memory_order_relaxed)) break;
    timer_tick_();
  }
}

Status TcpTransport::Start() {
  if (options_.self_id >= options_.peers.size()) {
    return Status::InvalidArgument("tcp transport: self_id out of range");
  }
  uint16_t port = options_.listen_port;
  if (port == 0) {
    CONFIDE_ASSIGN_OR_RETURN(auto self_addr,
                             SplitHostPort(options_.peers[options_.self_id]));
    port = self_addr.second;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable("tcp transport: socket(): " +
                               std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (options_.listen_host == "0.0.0.0") {
    addr.sin_addr.s_addr = INADDR_ANY;
  } else if (::inet_pton(AF_INET, options_.listen_host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("tcp transport: bad listen host '" +
                                   options_.listen_host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Unavailable("tcp transport: bind(" + std::to_string(port) +
                                    "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::Unavailable("tcp transport: listen(): " +
                                    std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (timer_tick_ && timer_period_ns_ > 0) {
    timer_thread_ = std::thread([this] { TimerLoop(); });
  }
  return Status::OK();
}

void TcpTransport::Stop() {
  bool was_running = running_.exchange(false);
  // The tick may send: it finishes before the connections close.
  if (timer_thread_.joinable()) timer_thread_.join();
  if (!was_running && listen_fd_ < 0) return;
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = inbound_;
    for (auto& [peer, conn] : outbound_) conns.push_back(conn);
    inbound_.clear();
    outbound_.clear();
    readers.swap(reader_threads_);
  }
  for (auto& conn : conns) conn->Close();
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept thread is gone (the running_ flip bounds its poll at 100 ms),
  // so the listener can be closed without racing AcceptLoop's reads of
  // listen_fd_.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpTransport::AcceptLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (!running_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    NetMetrics::Get().conn_accept->Increment();
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_.load(std::memory_order_relaxed)) {
      conn->Close();
      break;
    }
    inbound_.push_back(conn);
    reader_threads_.emplace_back([this, conn] { ReadLoop(conn); });
  }
}

void TcpTransport::ReadLoop(std::shared_ptr<Connection> conn) {
  FrameAssembler assembler;
  uint8_t buf[64 * 1024];
  bool stream_ok = true;
  while (running_.load(std::memory_order_relaxed) &&
         conn->alive.load(std::memory_order_relaxed)) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n == 0) {
      // EOF: a connection that ends mid-frame was dropped (or truncated
      // by injection) while a frame was in flight.
      if (!assembler.Finish().ok()) {
        NetMetrics::Get().frame_corrupt->Increment();
      }
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // reset/shutdown
    }
    if (fault::FaultInjector::Global().ShouldFail("fault.net.recv.corrupt")) {
      buf[0] ^= 0x55;
      std::lock_guard<std::mutex> lock(mu_);
      recv_corrupted_peers_[conn->peer_id.load(std::memory_order_relaxed)] = true;
    }
    assembler.Append(ByteView(buf, size_t(n)));
    while (true) {
      FrameView frame;
      auto next = assembler.Next(&frame);
      if (!next.ok()) {
        // Unrecoverable stream: count, drop the connection. The peer's
        // reconnect gives framing a clean start.
        NetMetrics::Get().frame_corrupt->Increment();
        CONFIDE_LOG(kWarn, "net", "corrupt frame stream: " +
                                      next.status().ToString());
        stream_ok = false;
        break;
      }
      if (!*next) break;  // need more bytes
      NetMetrics::Get().recv->Increment();
      NetMetrics::Get().recv_bytes->Increment(frame.body.size());
      const uint32_t from = conn->peer_id.load(std::memory_order_relaxed);
      if (frame.type == MsgType::kHello) {
        auto reader = serialize::RlpReader::AtList(frame.body);
        if (reader.ok()) {
          auto id = reader->NextU64();
          auto role = reader->NextU64();
          if (id.ok() && role.ok() && *role == uint64_t(PeerRole::kNode) &&
              *id < options_.peers.size()) {
            conn->peer_id.store(uint32_t(*id), std::memory_order_relaxed);
          }
        }
        continue;
      }
      // A clean frame from a peer whose earlier stream was corrupted by
      // injection closes the recovery loop: reconnect + redelivery works.
      if (from != kClientPeer) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = recv_corrupted_peers_.find(from);
        if (it != recv_corrupted_peers_.end() && it->second) {
          it->second = false;
          fault::NoteRecovered("fault.net.recv.corrupt");
        }
      }
      if (!handler_) continue;
      std::optional<OwnedFrame> reply = handler_(from, frame.type, frame.body);
      if (reply.has_value()) {
        Bytes wire = EncodeFrame(reply->type, reply->body);
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (conn->WriteAll(wire)) {
          NetMetrics::Get().send->Increment();
          NetMetrics::Get().send_bytes->Increment(reply->body.size());
        } else {
          NetMetrics::Get().send_error->Increment();
        }
      }
    }
    if (!stream_ok) break;
  }
  conn->Close();
  // Drop the maps' references so the destructor can release the fd; the
  // thread's own shared_ptr is then the last holder.
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbound_.erase(std::remove(inbound_.begin(), inbound_.end(), conn),
                   inbound_.end());
    const uint32_t peer = conn->peer_id.load(std::memory_order_relaxed);
    auto it = outbound_.find(peer);
    if (it != outbound_.end() && it->second == conn) outbound_.erase(it);
  }
}

Result<std::shared_ptr<TcpTransport::Connection>> TcpTransport::OutboundTo(
    uint32_t peer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = outbound_.find(peer);
    if (it != outbound_.end() && it->second->alive.load(std::memory_order_relaxed)) {
      return it->second;
    }
  }
  if (peer >= options_.peers.size()) {
    return Status::InvalidArgument("tcp transport: unknown peer " +
                                   std::to_string(peer));
  }
  CONFIDE_ASSIGN_OR_RETURN(auto host_port, SplitHostPort(options_.peers[peer]));

  uint64_t backoff_ms = options_.connect_backoff_ms;
  Status last = Status::Unavailable("tcp transport: no connect attempt made");
  for (uint32_t attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    if (fault::FaultInjector::Global().ShouldFail("fault.net.connect.fail")) {
      std::lock_guard<std::mutex> lock(mu_);
      injected_connect_fail_ = true;
      last = Status::Unavailable("tcp transport: injected connect failure");
      NetMetrics::Get().conn_error->Increment();
      continue;
    }
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    std::string port_str = std::to_string(host_port.second);
    int rc = ::getaddrinfo(host_port.first.c_str(), port_str.c_str(), &hints, &res);
    if (rc != 0 || res == nullptr) {
      last = Status::Unavailable("tcp transport: resolve " + host_port.first +
                                 ": " + gai_strerror(rc));
      NetMetrics::Get().conn_error->Increment();
      continue;
    }
    int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    if (fd < 0) {
      ::freeaddrinfo(res);
      last = Status::Unavailable("tcp transport: socket(): " +
                                 std::string(std::strerror(errno)));
      continue;
    }
    rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
    if (rc != 0) {
      ::close(fd);
      last = Status::Unavailable("tcp transport: connect " +
                                 options_.peers[peer] + ": " +
                                 std::strerror(errno));
      NetMetrics::Get().conn_error->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    NetMetrics::Get().conn_connect->Increment();

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->peer_id.store(peer, std::memory_order_relaxed);
    // Identify ourselves. The hello is part of connection establishment
    // and bypasses the send fault sites (they model frame loss on an
    // established link).
    Bytes hello = EncodeFrame(MsgType::kHello,
                              HelloBody(options_.self_id, PeerRole::kNode));
    {
      std::lock_guard<std::mutex> wlock(conn->write_mu);
      if (!conn->WriteAll(hello)) {
        last = Status::Unavailable("tcp transport: hello write failed");
        NetMetrics::Get().conn_error->Increment();
        continue;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (injected_connect_fail_) {
        injected_connect_fail_ = false;
        fault::NoteRecovered("fault.net.connect.fail");
      }
      outbound_[peer] = conn;
      if (running_.load(std::memory_order_relaxed)) {
        reader_threads_.emplace_back([this, conn] { ReadLoop(conn); });
      }
    }
    return conn;
  }
  return last;
}

Status TcpTransport::WriteFrame(Connection* conn, uint32_t peer, MsgType type,
                                ByteView body) {
  uint64_t arg = 0;
  if (fault::FaultInjector::Global().ShouldFail("fault.net.send.delay", &arg)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(arg == 0 ? 5 : arg));
  }
  if (fault::FaultInjector::Global().ShouldFail("fault.net.send.drop")) {
    NetMetrics::Get().send_drop->Increment();
    return Status::OK();  // fire-and-forget: loss is legal
  }
  Bytes wire = EncodeFrame(type, body);
  if (fault::FaultInjector::Global().ShouldFail("fault.net.send.truncate")) {
    std::lock_guard<std::mutex> wlock(conn->write_mu);
    (void)conn->WriteAll(ByteView(wire.data(), wire.size() / 2));
    conn->Close();  // peer's stream now ends mid-frame
    std::lock_guard<std::mutex> lock(mu_);
    truncate_poisoned_[peer] = true;
    return Status::OK();
  }
  bool ok;
  {
    std::lock_guard<std::mutex> wlock(conn->write_mu);
    ok = conn->WriteAll(wire);
  }
  if (!ok) {
    NetMetrics::Get().send_error->Increment();
    return Status::Unavailable("tcp transport: write to peer " +
                               std::to_string(peer) + " failed");
  }
  NetMetrics::Get().send->Increment();
  NetMetrics::Get().send_bytes->Increment(body.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = truncate_poisoned_.find(peer);
    if (it != truncate_poisoned_.end() && it->second) {
      it->second = false;
      // A full frame reached the peer on a fresh connection after an
      // injected truncation: the reconnect path healed the link.
      fault::NoteRecovered("fault.net.send.truncate");
    }
  }
  return Status::OK();
}

Status TcpTransport::Send(uint32_t peer, MsgType type, ByteView body) {
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("tcp transport: not started");
  }
  if (peer == options_.self_id) {
    return Status::InvalidArgument("tcp transport: send to self");
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = OutboundTo(peer);
    if (!conn.ok()) return conn.status();
    last = WriteFrame(conn->get(), peer, type, body);
    if (last.ok()) return last;
    // Dead connection: drop it and redial once.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = outbound_.find(peer);
    if (it != outbound_.end() && it->second == *conn) outbound_.erase(it);
  }
  return last;
}

Status TcpTransport::Broadcast(MsgType type, ByteView body) {
  if (!running_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("tcp transport: not started");
  }
  for (uint32_t peer = 0; peer < options_.peers.size(); ++peer) {
    if (peer == options_.self_id) continue;
    Status sent = Send(peer, type, body);
    if (!sent.ok()) {
      NetMetrics::Get().send_error->Increment();
      CONFIDE_LOG(kDebug, "net",
                  "broadcast to peer " + std::to_string(peer) +
                      " failed: " + sent.ToString());
    }
  }
  return Status::OK();
}

}  // namespace confide::net
