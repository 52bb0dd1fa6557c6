/// \file transport.h
/// \brief The transport seam: how a cluster node exchanges frames with
/// its peers, abstracted from what carries them.
///
/// Everything above this interface (chain/cluster replication, the
/// gateway plane) is transport-agnostic. Two implementations exist:
///
///  - SimTransport (sim_transport.h): in-process delivery over the
///    NetworkSim link model in virtual time — deterministic, the substrate
///    for the chaos suite, the failover tests and the single-process
///    benchmarks.
///  - TcpTransport (tcp_transport.h): real length-prefixed TCP between
///    separately deployed processes (the `confided` binary).
///
/// Contract shared by all implementations:
///  - Send/Broadcast are fire-and-forget: a returned OK means the frame
///    was handed to the medium, not that the peer processed it. Loss is
///    legal (links drop, connections die); consensus above must tolerate
///    it (and repairs gaps via kFetchBlocks).
///  - The handler is invoked once per complete, well-formed frame, with
///    the sender's node id (kClientPeer for unidentified client/gateway
///    connections). The body view is only valid for the duration of the
///    call. The optional returned frame is written back to the sender
///    (the request/reply plane).
///  - Handlers may call Send/Broadcast re-entrantly; implementations must
///    not hold internal locks across handler invocations.
///  - Time comes from the medium: NowNs(), the SetTimer tick and its
///    WakeAt one-shots run on the steady clock and a real thread under TCP,
///    on the hub's virtual clock under SimTransport, so timer-driven logic
///    is written once.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/bytes.h"
#include "common/status.h"
#include "net/frame.h"

namespace confide::net {

/// \brief Sender id the handler sees for connections that never
/// identified as a cluster node (clients, the gateway).
inline constexpr uint32_t kClientPeer = UINT32_MAX;

class Transport {
 public:
  /// \brief Frame delivery callback. `from` is the sending node id or
  /// kClientPeer; `body` aliases transport-internal memory for the call
  /// only. A returned frame is sent back to the sender.
  using HandlerFn =
      std::function<std::optional<OwnedFrame>(uint32_t from, MsgType type, ByteView body)>;

  virtual ~Transport() = default;

  /// \brief Installs the delivery handler. Must be called before Start.
  virtual void SetHandler(HandlerFn handler) = 0;

  /// \brief The timer tick. `beat` is true on the periodic beat and false
  /// on a run that only a WakeAt asked for.
  using TickFn = std::function<void(bool beat)>;

  /// \brief Installs a periodic tick that runs every `period_ns` of this
  /// medium's time from Start until Stop (an empty `tick` clears it). Must
  /// be called before Start. The tick may Send/Broadcast.
  virtual void SetTimer(uint64_t period_ns, TickFn tick) = 0;

  /// \brief Runs the timer tick once more at `due_ns` of this medium's time
  /// (at once when that has passed), with `beat` false unless the beat
  /// falls due then too; the periodic beat keeps its schedule.
  /// Wake-ups still pending coalesce to the earliest. A no-op without a
  /// timer. Callable from any thread, handlers and the tick included.
  virtual void WakeAt(uint64_t due_ns) = 0;

  /// \brief Monotonic time of this endpoint's medium, in nanoseconds.
  virtual uint64_t NowNs() const = 0;

  /// \brief Begins accepting/delivering frames.
  virtual Status Start() = 0;

  /// \brief Stops delivery and releases the medium. Idempotent.
  virtual void Stop() = 0;

  /// \brief Sends one frame to `peer` (fire-and-forget).
  virtual Status Send(uint32_t peer, MsgType type, ByteView body) = 0;

  /// \brief Sends one frame to every other cluster node. Per-peer
  /// failures are counted (net.send.error.count), not returned — a
  /// broadcast succeeds if the local transport is up.
  virtual Status Broadcast(MsgType type, ByteView body) = 0;

  /// \brief This endpoint's cluster node id.
  virtual uint32_t self_id() const = 0;

  /// \brief Cluster size (peers + self).
  virtual size_t cluster_size() const = 0;
};

}  // namespace confide::net
