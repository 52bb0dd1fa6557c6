/// \file sim_transport.h
/// \brief Transport over the NetworkSim link model in virtual time: every
/// endpoint lives in one process and frames move through one event queue,
/// so Figure 11's consensus term and the failover tests run the deployed
/// ClusterNode protocol.
///
/// Timing model (virtual ns):
///  - departure = max(sender's local time, sender NIC free); the NIC then
///    stays busy for NetworkSim::SerializationNs, so a broadcast of a
///    large proposal serializes copy after copy;
///  - arrival = departure + SerializationNs + LatencyNs + a uniform jitter
///    draw of up to NetworkSim::JitterNs;
///  - the receiver handles one frame at a time, busy for a fixed cost per
///    MsgType; what it sends from the handler departs when that ends.
/// Frames are delivered in (arrival time, enqueue sequence) order.
/// Partitions, per-link loss and `fault.net.send.drop` apply at send time.
///
/// Endpoint timers (Transport::SetTimer) fire when the virtual clock
/// passes their due time, and once more at a Transport::WakeAt due time;
/// RunUntil also advances the clock across idle gaps, which is how an
/// election timeout elapses. Everything is a pure
/// function of the call sequence and the hub seed.

#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "chain/network.h"
#include "crypto/drbg.h"
#include "net/transport.h"

namespace confide::net {

class SimTransport;

/// \brief Shared medium for a set of SimTransports. Not thread-safe
/// against concurrent delivery calls; Send may be called from handlers
/// and timers (frames enqueue). The NetworkSim is borrowed and must
/// outlive the hub (partitions and links set on it take effect at the
/// next send).
class SimHub {
 public:
  explicit SimHub(chain::NetworkSim* net, uint64_t seed = 1)
      : net_(net), rng_(seed) {}

  /// \brief Delivers queued frames in arrival order until the queue
  /// drains (replies re-enqueue), firing timers that fall due on the
  /// way. Returns the number of frames delivered. A timer whose period
  /// is shorter than a link's latency keeps the queue non-empty; drive
  /// such clusters with RunUntil.
  size_t DeliverAll();

  /// \brief Fires the timers due before the next queued frame, then
  /// delivers that frame. False when no frame is queued.
  bool DeliverOne();

  /// \brief Delivers frames and fires timers in virtual-time order until
  /// the next event lies past `deadline_ns`, then sets the clock to
  /// `deadline_ns`. Returns the number of frames delivered.
  size_t RunUntil(uint64_t deadline_ns);

  /// \brief The hub clock: the time of the last delivered frame's
  /// arrival or fired timer (or RunUntil's deadline).
  uint64_t now_ns() const;

  /// \brief `node`'s local time: the later of the hub clock and the end
  /// of the node's last frame processing. Frames it sends now depart at
  /// this time; right after DeliverOne, it is the time the receiving
  /// node finished handling the frame.
  uint64_t now_ns(uint32_t node) const;

  size_t pending() const;

 private:
  friend class SimTransport;

  struct Pending {
    uint32_t from = 0;
    uint32_t to = 0;
    OwnedFrame frame;
  };
  struct Node {
    SimTransport* endpoint = nullptr;  ///< null when not started
    uint64_t busy_until_ns = 0;        ///< receiver processing ends
    uint64_t nic_free_ns = 0;          ///< sender serialization ends
  };

  void Register(SimTransport* endpoint);
  void Unregister(SimTransport* endpoint);
  /// \brief Called by SimTransport::Send: applies reachability/loss,
  /// stamps the arrival time and enqueues.
  Status Route(uint32_t from, uint32_t to, MsgType type, ByteView body);
  /// \brief Arrival time of the next queued frame (UINT64_MAX if none).
  uint64_t NextArrivalNs() const;
  /// \brief Fires the earliest timer due at or before `limit_ns`. False
  /// when none is.
  bool FireTimerDueBy(uint64_t limit_ns);
  /// \brief Pops and hands the earliest frame to its endpoint.
  void DeliverNext();
  uint64_t LocalNowLocked(uint32_t node) const;

  chain::NetworkSim* net_;
  crypto::Drbg rng_;
  mutable std::mutex mu_;
  std::vector<Node> nodes_;  // index = node id
  /// Keyed by (arrival time, enqueue sequence): begin() is the next frame.
  std::map<std::pair<uint64_t, uint64_t>, Pending> queue_;
  uint64_t next_seq_ = 0;
  uint64_t clock_ns_ = 0;
};

/// \brief One simulated endpoint. `self_id` must be a node id of the
/// hub's NetworkSim.
class SimTransport : public Transport {
 public:
  SimTransport(SimHub* hub, uint32_t self_id) : hub_(hub), self_id_(self_id) {}
  ~SimTransport() override { Stop(); }

  void SetHandler(HandlerFn handler) override { handler_ = std::move(handler); }
  void SetTimer(uint64_t period_ns, TickFn tick) override;
  /// \brief A one-shot due time on the hub's virtual clock, beside the
  /// periodic one.
  void WakeAt(uint64_t due_ns) override;
  Status Start() override;
  void Stop() override;
  Status Send(uint32_t peer, MsgType type, ByteView body) override;
  Status Broadcast(MsgType type, ByteView body) override;
  uint32_t self_id() const override { return self_id_; }
  size_t cluster_size() const override;
  /// \brief This node's local virtual time (SimHub::now_ns(self_id)).
  uint64_t NowNs() const override { return hub_->now_ns(self_id_); }

 private:
  friend class SimHub;

  SimHub* hub_;
  uint32_t self_id_;
  bool started_ = false;
  HandlerFn handler_;
  uint64_t timer_period_ns_ = 0;
  uint64_t timer_due_ns_ = 0;  ///< guarded by the hub's mutex once started
  uint64_t wake_due_ns_ = UINT64_MAX;  ///< pending WakeAt; the hub's mutex
  TickFn timer_tick_;
};

}  // namespace confide::net
