/// \file tcp_transport.h
/// \brief Real length-prefixed TCP transport between separately deployed
/// node processes (the `confided` binary) and their clients.
///
/// One listening socket per node serves both planes: peers identify with
/// a kHello frame (consensus frames are only accepted from identified
/// node peers); connections that never send kHello are client/gateway
/// connections and see only the request/reply plane. Outbound peer
/// connections are established lazily on first Send and re-established
/// on failure: one dial per Send, with no backoff, so a Send to a peer
/// that refuses connections fails at once and the next Send redials. Writes loop over short writes; reads feed a FrameAssembler
/// so a frame split at any byte boundary reassembles. A corrupt inbound
/// stream (oversized/garbled/truncated frame) closes the connection —
/// framing cannot resynchronize inside a corrupt byte stream — and the
/// next Send to that peer reconnects.
///
/// Fault-injection sites (chaos suite, docs/METRICS.md appendix):
///   fault.net.connect.fail   outbound connect fails (the next Send
///                            redials)
///   fault.net.send.drop      frame silently not written
///   fault.net.send.truncate  half the frame written, then the
///                            connection is closed (peer sees a stream
///                            ending mid-frame)
///   fault.net.send.delay     send stalls for `arg` milliseconds
///   fault.net.recv.corrupt   one inbound byte flipped before framing

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/transport.h"

namespace confide::net {

struct TcpTransportOptions {
  /// This node's id; must index into `peers`.
  uint32_t self_id = 0;
  /// One "host:port" per cluster node, indexed by node id. The entry at
  /// self_id is this node's advertised address; the listener binds its
  /// port (0 = ephemeral, see listen_port()).
  std::vector<std::string> peers;
  /// Address to bind the listener to.
  std::string listen_host = "0.0.0.0";
};

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  void SetHandler(HandlerFn handler) override;
  /// \brief The tick runs on its own thread, every `period_ns` of wall
  /// time, from Start until Stop. The thread waits on a condition
  /// variable, so WakeAt and Stop interrupt a wait mid-period.
  void SetTimer(uint64_t period_ns, TickFn tick) override;
  void WakeAt(uint64_t due_ns) override;
  Status Start() override;
  void Stop() override;
  Status Send(uint32_t peer, MsgType type, ByteView body) override;
  Status Broadcast(MsgType type, ByteView body) override;
  uint32_t self_id() const override { return options_.self_id; }
  size_t cluster_size() const override { return options_.peers.size(); }
  /// \brief The steady clock.
  uint64_t NowNs() const override;

  /// \brief Bound listener port (after Start; resolves ephemeral binds).
  uint16_t listen_port() const { return listener_.port(); }

 private:
  struct Connection;

  void TimerLoop();
  /// \brief Starts the reader thread of `conn` (inbound or outbound).
  void SpawnReader(std::shared_ptr<Connection> conn);
  void ReadLoop(std::shared_ptr<Connection> conn);
  /// \brief Returns the established outbound connection to `peer`,
  /// dialing once (+ kHello) when absent.
  Result<std::shared_ptr<Connection>> OutboundTo(uint32_t peer);
  /// \brief Writes one whole frame to `conn`, honoring fault sites and
  /// looping over short writes.
  Status WriteFrame(Connection* conn, uint32_t peer, MsgType type, ByteView body);

  TcpTransportOptions options_;
  HandlerFn handler_;
  std::atomic<bool> running_{false};
  Listener listener_;

  uint64_t timer_period_ns_ = 0;
  TickFn timer_tick_;
  std::thread timer_thread_;
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;  ///< WakeAt and Stop notify
  uint64_t wake_at_ns_ = 0;  ///< earliest pending WakeAt, 0 = none; timer_mu_

  std::mutex mu_;
  std::map<uint32_t, std::shared_ptr<Connection>> outbound_;  // by peer id
  /// Peers whose outbound stream was poisoned by an injected truncation;
  /// the next successful frame to them reports fault recovery.
  std::set<uint32_t> truncate_poisoned_;
  /// Peers whose inbound stream saw an injected byte flip; the next good
  /// frame from them reports fault recovery.
  std::set<uint32_t> recv_corrupted_peers_;
  bool injected_connect_fail_ = false;
  /// Declared last: destroyed first, while the state readers use is alive.
  ConnectionThreads readers_;
};

}  // namespace confide::net
