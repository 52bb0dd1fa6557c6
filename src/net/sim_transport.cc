#include "net/sim_transport.h"

#include <algorithm>

#include "common/fault.h"
#include "common/metrics.h"

namespace confide::net {

namespace {

/// Receiver CPU per frame (decode, digest, bookkeeping): a frame carrying
/// a proposal to validate costs more than a vote.
constexpr uint64_t kProposalProcessingNs = 150'000;
constexpr uint64_t kVoteProcessingNs = 20'000;

uint64_t ProcessingNs(MsgType type) {
  return type == MsgType::kPrePrepare || type == MsgType::kNewView
             ? kProposalProcessingNs
             : kVoteProcessingNs;
}

constexpr uint64_t kNever = UINT64_MAX;

struct SimMetrics {
  metrics::Counter* send = metrics::GetCounter("net.send.count");
  metrics::Counter* send_bytes = metrics::GetCounter("net.send.bytes");
  metrics::Counter* drop = metrics::GetCounter("net.send.drop.count");
  metrics::Counter* unreachable = metrics::GetCounter("net.send.unreachable.count");
  metrics::Counter* recv = metrics::GetCounter("net.recv.count");
  metrics::Counter* recv_bytes = metrics::GetCounter("net.recv.bytes");

  static SimMetrics& Get() {
    static SimMetrics m;
    return m;
  }
};

}  // namespace

size_t SimHub::DeliverAll() {
  size_t delivered = 0;
  while (DeliverOne()) ++delivered;
  return delivered;
}

bool SimHub::DeliverOne() {
  uint64_t next_arrival = kNever;
  do {
    next_arrival = NextArrivalNs();
    if (next_arrival == kNever) return false;
  } while (FireTimerDueBy(next_arrival));
  DeliverNext();
  return true;
}

size_t SimHub::RunUntil(uint64_t deadline_ns) {
  size_t delivered = 0;
  while (true) {
    const uint64_t next_arrival = NextArrivalNs();
    if (FireTimerDueBy(std::min(next_arrival, deadline_ns))) continue;
    if (next_arrival > deadline_ns) break;
    DeliverNext();
    ++delivered;
  }
  std::lock_guard<std::mutex> lock(mu_);
  clock_ns_ = std::max(clock_ns_, deadline_ns);
  return delivered;
}

uint64_t SimHub::NextArrivalNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty() ? kNever : queue_.begin()->first.first;
}

bool SimHub::FireTimerDueBy(uint64_t limit_ns) {
  SimTransport* due = nullptr;
  uint64_t due_ns = kNever;
  bool beat = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Node& node : nodes_) {
      SimTransport* endpoint = node.endpoint;
      if (endpoint == nullptr || endpoint->timer_period_ns_ == 0) continue;
      const uint64_t at = std::min(endpoint->timer_due_ns_, endpoint->wake_due_ns_);
      if (at > limit_ns || at >= due_ns) continue;
      due = endpoint;
      due_ns = at;
    }
    if (due == nullptr) return false;
    clock_ns_ = std::max(clock_ns_, due_ns);
    // One tick serves a wake-up and a beat that fall due together.
    if (due->wake_due_ns_ <= due_ns) due->wake_due_ns_ = kNever;
    beat = due->timer_due_ns_ <= due_ns;
    if (beat) due->timer_due_ns_ += due->timer_period_ns_;
  }
  due->timer_tick_(beat);
  return true;
}

void SimHub::DeliverNext() {
  Pending next;
  SimTransport* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto entry = queue_.extract(queue_.begin());
    const uint64_t arrival = entry.key().first;
    next = std::move(entry.mapped());
    clock_ns_ = std::max(clock_ns_, arrival);
    if (next.to < nodes_.size() && nodes_[next.to].endpoint != nullptr) {
      Node& node = nodes_[next.to];
      target = node.endpoint;
      node.busy_until_ns =
          std::max(node.busy_until_ns, arrival) + ProcessingNs(next.frame.type);
    }
  }
  if (target == nullptr || !target->handler_) {
    SimMetrics::Get().drop->Increment();
    return;
  }
  SimMetrics::Get().recv->Increment();
  SimMetrics::Get().recv_bytes->Increment(next.frame.body.size());
  std::optional<OwnedFrame> reply =
      target->handler_(next.from, next.frame.type, next.frame.body);
  if (reply.has_value()) {
    // Replies travel the same lossy medium back to the requester.
    (void)Route(next.to, next.from, reply->type, reply->body);
  }
}

uint64_t SimHub::now_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_ns_;
}

uint64_t SimHub::now_ns(uint32_t node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LocalNowLocked(node);
}

uint64_t SimHub::LocalNowLocked(uint32_t node) const {
  return node < nodes_.size() ? std::max(clock_ns_, nodes_[node].busy_until_ns)
                              : clock_ns_;
}

size_t SimHub::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void SimHub::Register(SimTransport* endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (nodes_.size() <= endpoint->self_id_) nodes_.resize(endpoint->self_id_ + 1);
  nodes_[endpoint->self_id_].endpoint = endpoint;
  endpoint->timer_due_ns_ =
      LocalNowLocked(endpoint->self_id_) + endpoint->timer_period_ns_;
}

void SimHub::Unregister(SimTransport* endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (endpoint->self_id_ < nodes_.size() &&
      nodes_[endpoint->self_id_].endpoint == endpoint) {
    nodes_[endpoint->self_id_].endpoint = nullptr;
  }
}

Status SimHub::Route(uint32_t from, uint32_t to, MsgType type, ByteView body) {
  SimMetrics::Get().send->Increment();
  SimMetrics::Get().send_bytes->Increment(body.size());
  if (!net_->Reachable(from, to)) {
    SimMetrics::Get().unreachable->Increment();
    return Status::OK();  // partitioned: silently lost, like the real net
  }
  if (fault::FaultInjector::Global().ShouldFail("fault.net.send.drop")) {
    SimMetrics::Get().drop->Increment();
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  const double drop_rate = net_->DropRate(from, to);
  if (drop_rate > 0.0 &&
      double(rng_.NextBounded(1'000'000)) < drop_rate * 1'000'000.0) {
    SimMetrics::Get().drop->Increment();
    return Status::OK();
  }
  // Senders are started endpoints, so `from` has a Node.
  uint64_t& nic_free = nodes_[from].nic_free_ns;
  nic_free = std::max(LocalNowLocked(from), nic_free) +
             net_->SerializationNs(from, to, body.size());
  uint64_t arrival = nic_free + net_->LatencyNs(from, to);
  if (const uint64_t jitter = net_->JitterNs(from, to); jitter > 0) {
    arrival += rng_.NextBounded(jitter + 1);
  }
  queue_.emplace(std::make_pair(arrival, next_seq_++),
                 Pending{from, to, OwnedFrame{type, ToBytes(body)}});
  return Status::OK();
}

void SimTransport::SetTimer(uint64_t period_ns, TickFn tick) {
  timer_period_ns_ = tick ? period_ns : 0;
  timer_tick_ = std::move(tick);
}

void SimTransport::WakeAt(uint64_t due_ns) {
  std::lock_guard<std::mutex> lock(hub_->mu_);
  wake_due_ns_ = std::min(wake_due_ns_, due_ns);
}

Status SimTransport::Start() {
  if (self_id_ >= hub_->net_->NodeCount()) {
    return Status::InvalidArgument("sim transport: node id " +
                                   std::to_string(self_id_) +
                                   " not in the NetworkSim");
  }
  hub_->Register(this);
  started_ = true;
  return Status::OK();
}

void SimTransport::Stop() {
  if (!started_) return;
  started_ = false;
  hub_->Unregister(this);
}

Status SimTransport::Send(uint32_t peer, MsgType type, ByteView body) {
  if (!started_) return Status::Unavailable("sim transport: not started");
  return hub_->Route(self_id_, peer, type, body);
}

Status SimTransport::Broadcast(MsgType type, ByteView body) {
  if (!started_) return Status::Unavailable("sim transport: not started");
  const size_t n = hub_->net_->NodeCount();
  for (uint32_t peer = 0; peer < n; ++peer) {
    if (peer == self_id_) continue;
    (void)hub_->Route(self_id_, peer, type, body);
  }
  return Status::OK();
}

size_t SimTransport::cluster_size() const { return hub_->net_->NodeCount(); }

}  // namespace confide::net
