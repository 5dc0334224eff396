// TreeCatalog: the single registry of every tree a cluster has created.
//
// Before the catalog, per-tree state lived in parallel vectors replicated
// per proxy (Proxy::trees_ / version_managers_) and per cluster
// (snapshot_services_ / gcs_ / tree_branching_), so CreateTree had to
// replay its side effects into every proxy and adding a proxy at runtime
// would have meant replaying every CreateTree by hand. The catalog owns
// the per-tree metadata exactly once:
//
//   - the slot and branching flag (the canonical slot <-> handle mapping),
//   - the tree's SnapshotService and GarbageCollector, which run on a
//     catalog-owned "service" BTree bound to the catalog's own cache —
//     deliberately not any proxy's: proxies come and go (AddProxy /
//     RemoveProxy), the snapshot/GC services do not. For a linear tree
//     every BTree instance of the slot appends its copies to the GC's
//     retire list, and the snapshot service drains it as the horizon
//     advances,
//   - the TreeOptions needed to materialize further instances.
//
// Proxies hold no tree state of their own beyond a lazily-attached view
// stack (BTree + VersionManager bound to the proxy's cache) that
// Materialize() mints on demand — which is what makes a proxy added to a
// serving cluster immediately able to operate on every existing tree.
//
// Thread safety: lookups are lock-free (entries live in a fixed-capacity
// array, a slot is visible once published through the atomic tree count).
// Register is serialized by a control-plane mutex; like the coordinator's
// membership lock it is held across the tree-create minitransaction — a
// once-per-tree-lifetime operation no data-plane path ever waits on.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "alloc/allocator.h"
#include "btree/tree.h"
#include "minuet/tree_handle.h"
#include "mvcc/gc.h"
#include "mvcc/snapshot_service.h"
#include "txn/object_cache.h"
#include "version/version_manager.h"

namespace minuet {

class Cluster;

class TreeCatalog {
 public:
  // `owner` is the minting cluster recorded in every handle; `capacity`
  // bounds the slot space (alloc::Layout::max_trees — the address-space
  // layout preallocates per-tree replicated objects against it).
  // `reclaim_floor(slot)` caps how far a slot's horizon-driven reclamation
  // may go (the durability checkpoint floor; UINT64_MAX when none).
  TreeCatalog(sinfonia::Coordinator* coord, alloc::NodeAllocator* allocator,
              const btree::VersionOracle* linear_oracle, const Cluster* owner,
              uint32_t capacity, size_t service_cache_capacity,
              std::function<uint64_t(uint32_t)> reclaim_floor);

  // Create and register one tree: claim the next slot, run the one-time
  // BTree::CreateTree minitransaction, and stand up the shared service
  // stack (snapshot service + GC). The slot is published only on success;
  // a failed create releases it for the next Register.
  Result<TreeHandle> Register(bool branching, const btree::TreeOptions& topts,
                              const mvcc::SnapshotService::Options& sopts,
                              std::function<double()> snapshot_clock);

  // Re-derive the handle of an already-registered slot.
  Result<TreeHandle> Handle(uint32_t slot) const;

  uint32_t n_trees() const {
    return n_trees_.load(std::memory_order_acquire);
  }
  uint32_t capacity() const { return capacity_; }

  // Handle validation (the single implementation behind Cluster::OwnsHandle
  // and Proxy::CheckHandle): minted by `owner`, slot registered.
  bool Owns(const TreeHandle& tree) const {
    return tree.valid() && tree.owner_ == owner_ && tree.slot() < n_trees();
  }
  Status CheckHandle(const TreeHandle& tree) const {
    if (!Owns(tree)) {
      return Status::InvalidArgument(
          "tree handle was not minted by this cluster");
    }
    return Status::OK();
  }

  // Per-tree services; nullptr when `slot` is not registered.
  mvcc::SnapshotService* snapshot_service(uint32_t slot) const {
    return slot < n_trees() ? entries_[slot].snapshots.get() : nullptr;
  }
  mvcc::GarbageCollector* gc(uint32_t slot) const {
    return slot < n_trees() ? entries_[slot].gc.get() : nullptr;
  }
  // The catalog-owned tree instance the services run on. Control-plane
  // machinery (rebalancer, GC passes) goes through this — never through
  // some proxy's instance, which may belong to a since-removed proxy.
  btree::BTree* service_tree(uint32_t slot) const {
    return slot < n_trees() ? entries_[slot].service_tree.get() : nullptr;
  }

  // One proxy's per-tree view stack: a BTree bound to that proxy's cache,
  // plus (branching trees only) the VersionManager installing the branch
  // oracle into that instance.
  struct ProxyTree {
    std::unique_ptr<btree::BTree> tree;
    std::unique_ptr<version::VersionManager> version_manager;
  };
  // Factory for the stack above. Precondition: slot < n_trees().
  ProxyTree Materialize(uint32_t slot, txn::ObjectCache* cache) const;

  // The per-tree stats shared by EVERY BTree instance serving this slot
  // (the service tree and each proxy's materialized view), so per-tree
  // rollups aggregate across the whole cluster; nullptr for an
  // unregistered slot.
  const btree::BTree::Stats* tree_stats(uint32_t slot) const {
    return slot < n_trees() ? entries_[slot].stats.get() : nullptr;
  }

 private:
  struct Entry {
    bool branching = false;
    btree::TreeOptions tree_options;
    std::unique_ptr<btree::BTree::Stats> stats;
    std::unique_ptr<btree::BTree> service_tree;
    std::unique_ptr<version::VersionManager> service_vm;
    std::unique_ptr<mvcc::SnapshotService> snapshots;
    std::unique_ptr<mvcc::GarbageCollector> gc;
  };

  sinfonia::Coordinator* coord_;
  alloc::NodeAllocator* allocator_;
  const btree::VersionOracle* linear_oracle_;
  const Cluster* owner_;
  const uint32_t capacity_;
  std::function<uint64_t(uint32_t)> reclaim_floor_;
  // The service trees' cache: shared across slots, incoherent with the
  // proxies' caches by design (§2.3 — staleness is caught by traversal
  // safety checks, not coherence).
  std::unique_ptr<txn::ObjectCache> service_cache_;

  // Fixed-capacity so lookups never race a reallocation: entries_[slot]
  // is immutable once `slot < n_trees_` is published (release store in
  // Register, acquire load in n_trees()).
  std::unique_ptr<Entry[]> entries_;
  std::atomic<uint32_t> n_trees_{0};
  std::mutex register_mu_;
};

}  // namespace minuet
