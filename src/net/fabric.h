// The message fabric connecting proxies to memnodes.
//
// In the paper's testbed, components communicate by RPC over a 10 GigE data
// center LAN. In this reproduction the whole cluster lives in one process:
// an "RPC" is a direct function call dispatched through the fabric, which
//   (1) checks failure-injection state (a downed node returns Unavailable,
//       exactly as a crashed memnode would),
//   (2) counts one message against the destination node (used by the
//       benchmark cost model to locate capacity bottlenecks), and
//   (3) records the message and round trip in the calling thread's
//       obs::TraceContext, if one is armed: the same context carries the
//       op's round and attempt spans, and per-operation network cost is
//       derived from its counts.
//
// Parallel fan-out (a coordinator contacting several memnodes at once, as in
// Sinfonia's two-phase commit) is expressed with RoundTripScope so that a
// batch of concurrent messages is charged a single round trip, matching how
// the real system overlaps them on the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "obs/metrics.h"

namespace minuet::net {

using NodeId = uint32_t;

class Fabric {
 public:
  // `max_nodes` caps how far RegisterNode can grow the fabric (elastic
  // scale-out); the per-node arrays are sized to it up front so readers
  // never race a reallocation. Defaults to a fixed-size fabric.
  explicit Fabric(uint32_t n_nodes) : Fabric(n_nodes, n_nodes) {}
  Fabric(uint32_t n_nodes, uint32_t max_nodes);

  uint32_t n_nodes() const {
    return n_nodes_.load(std::memory_order_acquire);
  }
  uint32_t max_nodes() const { return max_nodes_; }

  // Bring one more node online; returns its id. The caller (the
  // coordinator's membership change) is responsible for seeding the node's
  // state BEFORE any traffic can name it. Fails with NoSpace at capacity.
  Result<NodeId> RegisterNode();

  // Take a node out of the fabric permanently (elastic scale-in). The id is
  // NOT reused — addresses embed memnode ids, so a recycled id could
  // resurrect stale pointers — and every later message to it is rejected
  // with Unavailable("memnode retired"). Unlike a crash, retirement cannot
  // be undone by SetUp/recovery. The caller (the coordinator's membership
  // change) must have drained the node first.
  void Deregister(NodeId id);
  // Bounds-checked: the stale-pointer recovery paths probe this with ids
  // decoded from recycled slab bytes, which can be arbitrary garbage.
  bool IsRetired(NodeId id) const {
    return id < max_nodes_ && retired_[id].load(std::memory_order_acquire);
  }

  // --- Failure injection -------------------------------------------------
  bool IsUp(NodeId id) const {
    return up_[id].load(std::memory_order_acquire);
  }
  // No-op on a retired node: retirement is permanent, not a crash state.
  void SetUp(NodeId id, bool up) {
    if (up && IsRetired(id)) return;
    up_[id].store(up, std::memory_order_release);
  }

  // --- Accounting ---------------------------------------------------------
  // Charge one message to `to`. Returns Unavailable if the node is down.
  // When already inside a RoundTripScope the message joins the open round
  // trip; otherwise it is its own round trip.
  Status ChargeMessage(NodeId to);
  // Charge a message that is OFF the operation's critical path: it counts
  // against the destination's capacity (and the op's message total) but
  // adds no round trip. Used for the lock-release phase of read-only
  // two-phase minitransactions — the caller already holds the read
  // results after prepare, so the release latency is never observed.
  Status ChargeMessageAsync(NodeId to);

  // Total messages ever delivered to `to` (capacity-model input).
  uint64_t NodeMessages(NodeId to) const {
    return to < n_nodes() ? node_msgs_[to].Value() : 0;
  }
  // The counter behind NodeMessages, for linking into a MetricsRegistry.
  const obs::Counter* NodeMessageCounter(NodeId to) const {
    return &node_msgs_[to];
  }
  uint64_t TotalMessages() const;

 private:
  friend class RoundTripScope;

  // Shared body of the two charge flavors: availability check + message
  // accounting, with the round trip charged only on the critical path.
  Status Charge(NodeId to, bool on_critical_path);

  // Arrays are sized to max_nodes_ once; only [0, n_nodes_) is live.
  std::atomic<uint32_t> n_nodes_;
  uint32_t max_nodes_;
  std::unique_ptr<std::atomic<bool>[]> up_;
  std::unique_ptr<std::atomic<bool>[]> retired_;
  std::unique_ptr<obs::Counter[]> node_msgs_;
};

// Opens a "parallel batch": every ChargeMessage issued by this thread while
// the scope is alive shares one round trip. Nested scopes are flattened
// into the outermost one (a coordinator's fan-out is one network step no
// matter how the code composes it).
class RoundTripScope {
 public:
  RoundTripScope();
  ~RoundTripScope();
  RoundTripScope(const RoundTripScope&) = delete;
  RoundTripScope& operator=(const RoundTripScope&) = delete;

 private:
  bool outermost_;
};

}  // namespace minuet::net
