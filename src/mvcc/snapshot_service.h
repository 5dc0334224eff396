// The snapshot creation service (SCS, paper §4.3).
//
// Snapshot creation is heavyweight: it updates the replicated tip snapshot
// id and root location at every memnode. The SCS therefore (1) serializes
// all snapshot creation through one logical server, and (2) lets concurrent
// requests BORROW the snapshot another request just created whenever that
// preserves strict serializability — precisely the double-read of the
// numSnapshots counter from the paper's Fig. 7: if the counter advanced by
// two or more between a request's arrival and its turn in the critical
// section, some complete snapshot creation happened within the request's
// lifetime, so its result can be reused.
//
// The service also implements the §6.3 stale-snapshot policy: with a
// minimum interval k > 0 between snapshots, scans reuse the latest snapshot
// if it is younger than k seconds — trading strict serializability for
// ordinary (slightly stale) serializability.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>

#include "btree/tree.h"

namespace minuet::mvcc {

class GarbageCollector;

using btree::BTree;
using btree::SnapshotRef;

class SnapshotService {
 public:
  // Identity under which a lease is accounted. Proxies pass their id so a
  // departing proxy's leases can be bulk-released (ReleaseOwner); direct
  // users of the service (tests, single-owner deployments) can ignore the
  // parameter and land in the anonymous bucket.
  using LeaseOwner = uint64_t;
  static constexpr LeaseOwner kNoLeaseOwner = ~0ull;

  struct Options {
    // Minimum seconds between snapshots (the paper's k). 0 = a fresh
    // snapshot per request → strict serializability.
    double min_interval_seconds = 0;
    // GC horizon: the lowest retained snapshot id trails the newest by
    // this many snapshots (§4.4 "always supporting queries over the N most
    // recent snapshots").
    uint64_t retain_last = 16;
    // Commit the tip update with a blocking minitransaction (§4.1).
    bool blocking_commit = true;
    // Disable to measure the cost of naive per-request snapshot creation
    // (the paper's Fig. 15 comparison).
    bool enable_borrowing = true;
    uint32_t max_attempts = 10000;
  };

  // `clock` returns seconds on a monotonic scale; injectable so benchmarks
  // can drive the stale-snapshot policy with virtual time.
  SnapshotService(BTree* tree, Options options,
                  std::function<double()> clock = nullptr);

  // Strictly serializable snapshot acquisition (Fig. 7): create a snapshot
  // or borrow one proven to have been created within this call's lifetime.
  // With `pin`, the returned snapshot is pinned BEFORE the acquisition path
  // releases its locks, so the GC horizon can never slip past it between
  // acquisition and the caller's own Pin (the caller must Unpin it).
  Result<SnapshotRef> CreateSnapshot(bool pin = false,
                                     LeaseOwner owner = kNoLeaseOwner);

  // Snapshot acquisition for scans under the stale policy: reuse the latest
  // snapshot if younger than min_interval_seconds, else create (borrowing
  // still applies). With k=0 this is exactly CreateSnapshot().
  Result<SnapshotRef> AcquireForScan(bool pin = false,
                                     LeaseOwner owner = kNoLeaseOwner);

  // --- Snapshot leases (client-API pinning) --------------------------------
  // A pinned snapshot is exempt from the retention window: the GC horizon
  // never advances past the lowest pinned sid, so a SnapshotView (or a
  // long-running cursor) can outlive `retain_last` newer snapshots without
  // its reads failing at the horizon. Pins nest (multiset semantics) and
  // are accounted per owner: Unpin must name the owner that pinned, and an
  // Unpin after that owner was bulk-released is a harmless no-op (the
  // straggler-safety RemoveProxy relies on). So is a Pin after it: a
  // straggler that passed the proxy's handle check before RemoveProxy
  // must not leave a lease behind that nothing will ever release.
  void Pin(uint64_t sid, LeaseOwner owner = kNoLeaseOwner);
  void Unpin(uint64_t sid, LeaseOwner owner = kNoLeaseOwner);
  // Drop EVERY lease `owner` holds (a proxy leaving the cluster) and
  // refuse its later pins: the GC horizon advances past them immediately.
  // Returns the number of leases released.
  uint64_t ReleaseOwner(LeaseOwner owner);
  uint64_t pinned_count() const;
  // Leases currently accounted to `owner` (introspection, tests).
  uint64_t owner_pinned_count(LeaseOwner owner) const;

  // --- Garbage-collection horizon -----------------------------------------
  // Lowest snapshot id still queryable; everything copied at or before it
  // is reclaimable. Never exceeds the lowest pinned lease.
  uint64_t LowestRetained() const;

  // Horizon-driven reclamation: after every snapshot this service creates
  // (not on a borrow or a stale reuse), free `gc`'s retired copies up to
  // min(LowestRetained(), reclaim_floor()) — GarbageCollector::
  // ReclaimRetired, run outside the creation critical section. Attach
  // before the service is shared.
  void AttachReclaimer(GarbageCollector* gc,
                       std::function<uint64_t()> reclaim_floor);

  // --- Introspection --------------------------------------------------------
  uint64_t snapshots_created() const {
    return created_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_borrowed() const {
    return borrowed_.load(std::memory_order_relaxed);
  }
  uint64_t stale_reuses() const {
    return stale_reuses_.load(std::memory_order_relaxed);
  }
  // The most recent snapshot (sid 0 root if none created yet).
  SnapshotRef latest() const;

 private:
  // Lock order everywhere: last_mu_ before pins_mu_.
  Result<SnapshotRef> CreateLocked(bool pin, LeaseOwner owner);

  BTree* tree_;
  Options options_;
  std::function<double()> clock_;
  GarbageCollector* gc_ = nullptr;  // AttachReclaimer
  std::function<uint64_t()> reclaim_floor_;

  std::mutex mutex_;
  std::atomic<uint64_t> num_snapshots_{0};
  SnapshotRef last_{};          // guarded by mutex_ for writes
  double last_created_at_ = -1e300;
  mutable std::mutex last_mu_;  // cheap reads of last_

  std::atomic<uint64_t> created_{0};
  std::atomic<uint64_t> borrowed_{0};
  std::atomic<uint64_t> stale_reuses_{0};

  mutable std::mutex pins_mu_;
  // The authoritative horizon input: sid -> total lease count across all
  // owners (LowestRetained reads pins_.begin() only).
  std::map<uint64_t, uint32_t> pins_;
  // Per-owner breakdown of pins_, kept in exact correspondence under
  // pins_mu_; ReleaseOwner subtracts an owner's slice wholesale.
  std::map<LeaseOwner, std::map<uint64_t, uint32_t>> owner_pins_;
  // Owners ReleaseOwner has run for (proxy ids are never reused).
  std::set<LeaseOwner> released_owners_;
};

}  // namespace minuet::mvcc
