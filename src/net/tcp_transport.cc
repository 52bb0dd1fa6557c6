#include "net/tcp_transport.h"

#include <algorithm>
#include <chrono>
#include <utility>

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

struct TcpTransport::Connection {
  explicit Connection(Fd socket) : fd(std::move(socket)) {}

  Fd fd;
  /// Peer node id, or kClientPeer until a kHello identifies the peer.
  std::atomic<uint32_t> peer_id{kClientPeer};
  std::atomic<bool> closed{false};
  std::mutex write_mu;

  /// Shutdown-only: unblocks any reader parked in ::read(), but the fd
  /// stays open until the last shared_ptr drops. Closing the fd here would
  /// race a concurrent read and could hand the fd number to an unrelated
  /// accept() before the reader notices.
  void Close() {
    if (!closed.exchange(true)) {
      fd.Shutdown();
      NetMetrics::Get().conn_close->Increment();
    }
  }

  ~Connection() { Close(); }

  /// Writes all of `data`. A socket error closes the connection: its
  /// reader wakes and exits, and the next Send redials.
  bool Write(ByteView data) {
    if (WriteAll(fd.get(), data).ok()) return true;
    Close();
    return false;
  }

  /// Writes one whole frame under the write lock and counts it.
  bool SendFrame(MsgType type, ByteView body) {
    Bytes wire = EncodeFrame(type, body);
    std::lock_guard<std::mutex> lock(write_mu);
    if (!Write(wire)) {
      NetMetrics::Get().send_error->Increment();
      return false;
    }
    NetMetrics::Get().send->Increment();
    NetMetrics::Get().send_bytes->Increment(body.size());
    return true;
  }
};

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(std::move(options)) {}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::SetHandler(HandlerFn handler) { handler_ = std::move(handler); }

void TcpTransport::SetTimer(uint64_t period_ns, TickFn tick) {
  timer_period_ns_ = period_ns;
  timer_tick_ = std::move(tick);
}

uint64_t TcpTransport::NowNs() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

void TcpTransport::WakeAt(uint64_t due_ns) {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (wake_at_ns_ != 0 && wake_at_ns_ <= due_ns) return;
    wake_at_ns_ = std::max<uint64_t>(due_ns, 1);
  }
  timer_cv_.notify_one();
}

void TcpTransport::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  uint64_t next_beat_ns = NowNs() + timer_period_ns_;
  while (running_.load(std::memory_order_relaxed)) {
    const uint64_t due_ns =
        wake_at_ns_ != 0 ? std::min(next_beat_ns, wake_at_ns_) : next_beat_ns;
    const uint64_t now = NowNs();
    if (now < due_ns) {
      timer_cv_.wait_until(lock, std::chrono::steady_clock::time_point(
                                     std::chrono::nanoseconds(due_ns)));
      continue;  // re-read: woken early, by a new WakeAt, or by Stop
    }
    const bool beat = now >= next_beat_ns;
    if (beat) next_beat_ns = now + timer_period_ns_;
    if (wake_at_ns_ != 0 && wake_at_ns_ <= now) wake_at_ns_ = 0;
    lock.unlock();
    timer_tick_(beat);
    lock.lock();
  }
}

Status TcpTransport::Start() {
  if (options_.self_id >= options_.peers.size()) {
    return Status::InvalidArgument("tcp transport: self_id out of range");
  }
  CONFIDE_ASSIGN_OR_RETURN(auto self_addr,
                           SplitHostPort(options_.peers[options_.self_id]));
  running_.store(true);
  Status listening =
      listener_.Start(options_.listen_host, self_addr.second, [this](Fd fd) {
        NetMetrics::Get().conn_accept->Increment();
        SpawnReader(std::make_shared<Connection>(std::move(fd)));
      });
  if (!listening.ok()) {
    running_.store(false);
    return listening;
  }
  if (timer_tick_ && timer_period_ns_ > 0) {
    timer_thread_ = std::thread([this] { TimerLoop(); });
  }
  return Status::OK();
}

void TcpTransport::Stop() {
  {
    // Under the timer lock, so the timer thread cannot miss the wake-up
    // between its running_ check and its wait.
    std::lock_guard<std::mutex> lock(timer_mu_);
    running_.store(false);
  }
  timer_cv_.notify_all();
  // The tick may send: it finishes before the connections close.
  if (timer_thread_.joinable()) timer_thread_.join();
  listener_.Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    outbound_.clear();
  }
  readers_.StopAll();
}

void TcpTransport::SpawnReader(std::shared_ptr<Connection> conn) {
  readers_.Spawn([this, conn] { ReadLoop(conn); }, [conn] { conn->Close(); });
}

void TcpTransport::ReadLoop(std::shared_ptr<Connection> conn) {
  FrameAssembler assembler;
  uint8_t buf[64 * 1024];
  bool stream_ok = true;
  while (running_.load(std::memory_order_relaxed) &&
         !conn->closed.load(std::memory_order_relaxed)) {
    ssize_t n = ReadSome(conn->fd.get(), buf, sizeof(buf));
    if (n < 0) break;  // reset/shutdown
    if (n == 0) {
      // EOF: a connection that ends mid-frame was dropped (or truncated
      // by injection) while a frame was in flight.
      if (!assembler.Finish().ok()) {
        NetMetrics::Get().frame_corrupt->Increment();
      }
      break;
    }
    if (fault::FaultInjector::Global().ShouldFail("fault.net.recv.corrupt")) {
      buf[0] ^= 0x55;
      std::lock_guard<std::mutex> lock(mu_);
      recv_corrupted_peers_.insert(conn->peer_id.load(std::memory_order_relaxed));
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
        if (recv_corrupted_peers_.erase(from) > 0) {
          fault::NoteRecovered("fault.net.recv.corrupt");
        }
      }
      if (!handler_) continue;
      std::optional<OwnedFrame> reply = handler_(from, frame.type, frame.body);
      if (reply.has_value()) (void)conn->SendFrame(reply->type, reply->body);
    }
    if (!stream_ok) break;
  }
  conn->Close();
  // Drop the outbound map's reference; the fd closes when the reader
  // thread is retired and its references drop.
  {
    std::lock_guard<std::mutex> lock(mu_);
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
    if (it != outbound_.end() && !it->second->closed.load(std::memory_order_relaxed)) {
      return it->second;
    }
  }
  if (peer >= options_.peers.size()) {
    return Status::InvalidArgument("tcp transport: unknown peer " +
                                   std::to_string(peer));
  }
  CONFIDE_ASSIGN_OR_RETURN(auto host_port, SplitHostPort(options_.peers[peer]));

  // One dial per call, on the caller's thread: a refused dial fails this
  // Send at once and the next Send dials again.
  if (fault::FaultInjector::Global().ShouldFail("fault.net.connect.fail")) {
    std::lock_guard<std::mutex> lock(mu_);
    injected_connect_fail_ = true;
    NetMetrics::Get().conn_error->Increment();
    return Status::Unavailable("tcp transport: injected connect failure");
  }
  auto fd = Dial(host_port.first, host_port.second);
  if (!fd.ok()) {
    NetMetrics::Get().conn_error->Increment();
    return fd.status();
  }
  NetMetrics::Get().conn_connect->Increment();

  auto conn = std::make_shared<Connection>(std::move(*fd));
  conn->peer_id.store(peer, std::memory_order_relaxed);
  // Identify ourselves. The hello is part of connection establishment
  // and bypasses the send fault sites (they model frame loss on an
  // established link). Nothing else holds `conn` yet: no write lock.
  if (!conn->Write(EncodeFrame(MsgType::kHello,
                               HelloBody(options_.self_id, PeerRole::kNode)))) {
    NetMetrics::Get().conn_error->Increment();
    return Status::Unavailable("tcp transport: hello write failed");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::exchange(injected_connect_fail_, false)) {
      fault::NoteRecovered("fault.net.connect.fail");
    }
    outbound_[peer] = conn;
    if (running_.load(std::memory_order_relaxed)) SpawnReader(conn);
  }
  return conn;
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
  if (fault::FaultInjector::Global().ShouldFail("fault.net.send.truncate")) {
    Bytes wire = EncodeFrame(type, body);
    std::lock_guard<std::mutex> wlock(conn->write_mu);
    (void)conn->Write(ByteView(wire.data(), wire.size() / 2));
    conn->Close();  // peer's stream now ends mid-frame
    std::lock_guard<std::mutex> lock(mu_);
    truncate_poisoned_.insert(peer);
    return Status::OK();
  }
  if (!conn->SendFrame(type, body)) {
    return Status::Unavailable("tcp transport: write to peer " +
                               std::to_string(peer) + " failed");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A full frame reached the peer on a fresh connection after an
    // injected truncation: the reconnect path healed the link.
    if (truncate_poisoned_.erase(peer) > 0) {
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
  // A failed write closed the connection, so the second attempt redials.
  Status last = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto conn = OutboundTo(peer);
    if (!conn.ok()) return conn.status();
    last = WriteFrame(conn->get(), peer, type, body);
    if (last.ok()) return last;
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
