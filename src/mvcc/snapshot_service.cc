#include "mvcc/snapshot_service.h"

#include <algorithm>

#include "mvcc/gc.h"

namespace minuet::mvcc {

SnapshotService::SnapshotService(BTree* tree, Options options,
                                 std::function<double()> clock)
    : tree_(tree), options_(options), clock_(std::move(clock)) {
  if (!clock_) {
    clock_ = [] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
  }
}

Result<SnapshotRef> SnapshotService::CreateLocked(bool pin,
                                                  LeaseOwner owner) {
  // Runs with mutex_ held. Fig. 6: the snapshot materializes when the
  // dynamic transaction commits; the tip update uses a blocking
  // minitransaction so snapshot storms degrade to queueing, not livelock.
  txn::DynamicTxn::Options topts;
  topts.blocking_commit = options_.blocking_commit;
  Status last = Status::Aborted("no attempts");
  for (uint32_t attempt = 0; attempt < options_.max_attempts; attempt++) {
    txn::DynamicTxn txn(tree_->coordinator(), tree_->cache(), topts);
    auto snap = tree_->CreateSnapshotInTxn(txn);
    if (snap.ok()) {
      Status st = txn.Commit();
      if (st.ok()) {
        {
          std::lock_guard<std::mutex> g(last_mu_);
          last_ = *snap;
          last_created_at_ = clock_();
          // Pin before last_mu_ drops: LowestRetained (which also takes
          // last_mu_ first) can never see the new horizon without the pin.
          if (pin) Pin(snap->sid, owner);
        }
        num_snapshots_.fetch_add(1, std::memory_order_release);
        created_.fetch_add(1, std::memory_order_relaxed);
        return *snap;
      }
      if (!st.IsRetryable()) return st;
      last = st;
    } else if (snap.status().IsRetryable()) {
      last = snap.status();
    } else {
      return snap.status();
    }
    tree_->InvalidateTipCache();
  }
  return last;
}

Result<SnapshotRef> SnapshotService::CreateSnapshot(bool pin,
                                                    LeaseOwner owner) {
  // Fig. 7: read the counter before and after entering the critical
  // section; an advance of >= 2 proves a complete creation within this
  // call's window, making the latest snapshot borrowable.
  const uint64_t tmp1 = num_snapshots_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> g(mutex_);
  const uint64_t tmp2 = num_snapshots_.load(std::memory_order_acquire);
  if (!options_.enable_borrowing || tmp2 < tmp1 + 2) {
    Result<SnapshotRef> snap = CreateLocked(pin, owner);
    g.unlock();
    // The new snapshot may have moved the horizon. Reclaim outside mutex_:
    // it is fabric I/O and must not stall the next creation.
    if (snap.ok() && gc_ != nullptr) {
      IgnoreStatus(
          gc_->ReclaimRetired(std::min(LowestRetained(), reclaim_floor_())));
    }
    return snap;
  }
  borrowed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lg(last_mu_);
  if (pin) Pin(last_.sid, owner);
  return last_;
}

Result<SnapshotRef> SnapshotService::AcquireForScan(bool pin,
                                                    LeaseOwner owner) {
  if (options_.min_interval_seconds > 0) {
    std::lock_guard<std::mutex> lg(last_mu_);
    if (last_created_at_ + options_.min_interval_seconds > clock_() &&
        num_snapshots_.load(std::memory_order_acquire) > 0) {
      stale_reuses_.fetch_add(1, std::memory_order_relaxed);
      if (pin) Pin(last_.sid, owner);
      return last_;
    }
  }
  return CreateSnapshot(pin, owner);
}

void SnapshotService::Pin(uint64_t sid, LeaseOwner owner) {
  std::lock_guard<std::mutex> g(pins_mu_);
  if (released_owners_.count(owner) != 0) return;
  pins_[sid]++;
  owner_pins_[owner][sid]++;
}

void SnapshotService::Unpin(uint64_t sid, LeaseOwner owner) {
  std::lock_guard<std::mutex> g(pins_mu_);
  // Route through the owner slice first: an Unpin whose lease was already
  // bulk-released (the owner left via ReleaseOwner) must be a no-op, not
  // eat some other owner's pin.
  auto oit = owner_pins_.find(owner);
  if (oit == owner_pins_.end()) return;
  auto sit = oit->second.find(sid);
  if (sit == oit->second.end()) return;
  if (--sit->second == 0) oit->second.erase(sit);
  if (oit->second.empty()) owner_pins_.erase(oit);
  auto it = pins_.find(sid);
  if (it != pins_.end() && --it->second == 0) pins_.erase(it);
}

uint64_t SnapshotService::ReleaseOwner(LeaseOwner owner) {
  std::lock_guard<std::mutex> g(pins_mu_);
  if (owner != kNoLeaseOwner) released_owners_.insert(owner);
  auto oit = owner_pins_.find(owner);
  if (oit == owner_pins_.end()) return 0;
  uint64_t released = 0;
  for (const auto& [sid, count] : oit->second) {
    released += count;
    auto it = pins_.find(sid);
    if (it == pins_.end()) continue;
    it->second = it->second > count ? it->second - count : 0;
    if (it->second == 0) pins_.erase(it);
  }
  owner_pins_.erase(oit);
  return released;
}

uint64_t SnapshotService::pinned_count() const {
  std::lock_guard<std::mutex> g(pins_mu_);
  uint64_t n = 0;
  for (const auto& [sid, count] : pins_) n += count;
  return n;
}

uint64_t SnapshotService::owner_pinned_count(LeaseOwner owner) const {
  std::lock_guard<std::mutex> g(pins_mu_);
  auto oit = owner_pins_.find(owner);
  if (oit == owner_pins_.end()) return 0;
  uint64_t n = 0;
  for (const auto& [sid, count] : oit->second) n += count;
  return n;
}

uint64_t SnapshotService::LowestRetained() const {
  uint64_t horizon;
  {
    std::lock_guard<std::mutex> lg(last_mu_);
    const uint64_t newest = last_.sid;
    horizon = newest > options_.retain_last ? newest - options_.retain_last
                                            : 0;
  }
  std::lock_guard<std::mutex> g(pins_mu_);
  if (!pins_.empty()) horizon = std::min(horizon, pins_.begin()->first);
  return horizon;
}

void SnapshotService::AttachReclaimer(
    GarbageCollector* gc, std::function<uint64_t()> reclaim_floor) {
  gc_ = gc;
  reclaim_floor_ = std::move(reclaim_floor);
}

SnapshotRef SnapshotService::latest() const {
  std::lock_guard<std::mutex> lg(last_mu_);
  return last_;
}

}  // namespace minuet::mvcc
