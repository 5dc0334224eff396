#include "net/fabric.h"

#include "obs/trace.h"

namespace minuet::net {

namespace {
// Depth of open RoundTripScopes; >0 means messages join the current round.
thread_local int t_batch_depth = 0;
// True once the open batch has charged its round trip.
thread_local bool t_batch_charged = false;
}  // namespace

Fabric::Fabric(uint32_t n_nodes, uint32_t max_nodes)
    : n_nodes_(n_nodes),
      max_nodes_(max_nodes < n_nodes ? n_nodes : max_nodes),
      up_(new std::atomic<bool>[max_nodes_]),
      retired_(new std::atomic<bool>[max_nodes_]),
      node_msgs_(new obs::Counter[max_nodes_]) {
  for (uint32_t i = 0; i < max_nodes_; i++) {
    // Not-yet-registered slots are pre-marked up so RegisterNode is just a
    // count bump; the bounds check against n_nodes_ keeps them unreachable.
    up_[i].store(true, std::memory_order_relaxed);
    retired_[i].store(false, std::memory_order_relaxed);
  }
}

Result<NodeId> Fabric::RegisterNode() {
  const uint32_t id = n_nodes_.load(std::memory_order_acquire);
  if (id >= max_nodes_) {
    return Status::NoSpace("fabric at its configured max_nodes");
  }
  up_[id].store(true, std::memory_order_release);
  n_nodes_.store(id + 1, std::memory_order_release);
  return id;
}

void Fabric::Deregister(NodeId id) {
  if (id >= n_nodes()) return;
  retired_[id].store(true, std::memory_order_release);
  up_[id].store(false, std::memory_order_release);
}

Status Fabric::Charge(NodeId to, bool on_critical_path) {
  if (IsRetired(to)) {
    // Distinct from a crash: retirement is permanent, so callers (and their
    // retry loops) can tell a stale pointer from a transient outage.
    return Status::Unavailable("memnode retired");
  }
  if (to >= n_nodes() || !IsUp(to)) {
    return Status::Unavailable("memnode down");
  }
  node_msgs_[to].Increment();
  if (obs::TraceContext* tr = obs::TraceContext::Current()) {
    bool new_round = false;
    if (on_critical_path) {
      new_round = t_batch_depth == 0 || !t_batch_charged;
      if (t_batch_depth > 0) t_batch_charged = true;
    }
    tr->CountMessage(to, new_round);
  }
  return Status::OK();
}

Status Fabric::ChargeMessage(NodeId to) {
  return Charge(to, /*on_critical_path=*/true);
}

Status Fabric::ChargeMessageAsync(NodeId to) {
  return Charge(to, /*on_critical_path=*/false);
}

uint64_t Fabric::TotalMessages() const {
  uint64_t sum = 0;
  for (uint32_t i = 0; i < n_nodes(); i++) {
    sum += node_msgs_[i].Value();
  }
  return sum;
}

RoundTripScope::RoundTripScope() : outermost_(t_batch_depth == 0) {
  t_batch_depth++;
  if (outermost_) t_batch_charged = false;
}

RoundTripScope::~RoundTripScope() {
  t_batch_depth--;
  if (outermost_) t_batch_charged = false;
}

}  // namespace minuet::net
