#include "minuet/tree_catalog.h"

namespace minuet {

TreeCatalog::TreeCatalog(sinfonia::Coordinator* coord,
                         alloc::NodeAllocator* allocator,
                         const btree::VersionOracle* linear_oracle,
                         const Cluster* owner, uint32_t capacity,
                         size_t service_cache_capacity,
                         std::function<uint64_t(uint32_t)> reclaim_floor)
    : coord_(coord),
      allocator_(allocator),
      linear_oracle_(linear_oracle),
      owner_(owner),
      capacity_(capacity),
      reclaim_floor_(std::move(reclaim_floor)),
      service_cache_(
          std::make_unique<txn::ObjectCache>(service_cache_capacity)),
      entries_(new Entry[capacity]) {}

Result<TreeHandle> TreeCatalog::Register(
    bool branching, const btree::TreeOptions& topts,
    const mvcc::SnapshotService::Options& sopts,
    std::function<double()> snapshot_clock) {
  // Control-plane lock, held across the create minitransaction (see the
  // header note): registrations serialize against each other only; no
  // data-plane path takes register_mu_.
  std::lock_guard<std::mutex> g(register_mu_);
  const uint32_t slot = n_trees_.load(std::memory_order_relaxed);
  if (slot >= capacity_) {
    return Status::NoSpace("tree slots exhausted");
  }
  Entry& e = entries_[slot];
  e.branching = branching;
  e.tree_options = topts;
  e.stats = std::make_unique<btree::BTree::Stats>();
  e.service_tree = std::make_unique<btree::BTree>(
      coord_, allocator_, service_cache_.get(), linear_oracle_, slot, topts,
      e.stats.get());
  // Branching trees: the service tree needs the branch oracle installed
  // (same as any proxy instance) before the create minitransaction writes
  // catalog entry 0.
  if (branching) {
    e.service_vm =
        std::make_unique<version::VersionManager>(e.service_tree.get());
  }
  Status st = e.service_tree->CreateTree();
  if (!st.ok()) {
    // Unpublished slot: wipe the half-built entry so the next Register
    // can reclaim it.
    e = Entry{};
    return st;
  }
  e.snapshots = std::make_unique<mvcc::SnapshotService>(
      e.service_tree.get(), sopts, std::move(snapshot_clock));
  e.gc = std::make_unique<mvcc::GarbageCollector>(e.service_tree.get());
  if (!branching) {
    // Branching trees keep relying on the full pass (GC's copy rule is
    // only exact for linear histories).
    e.service_tree->set_retire_list(e.gc->retire_list());
    e.snapshots->AttachReclaimer(e.gc.get(), [floor = reclaim_floor_, slot] {
      return floor(slot);
    });
  }
  n_trees_.store(slot + 1, std::memory_order_release);
  return TreeHandle(slot, branching, owner_);
}

Result<TreeHandle> TreeCatalog::Handle(uint32_t slot) const {
  if (slot >= n_trees()) {
    return Status::InvalidArgument("no such tree slot");
  }
  return TreeHandle(slot, entries_[slot].branching, owner_);
}

TreeCatalog::ProxyTree TreeCatalog::Materialize(uint32_t slot,
                                                txn::ObjectCache* cache) const {
  const Entry& e = entries_[slot];
  ProxyTree out;
  out.tree = std::make_unique<btree::BTree>(
      coord_, allocator_, cache, linear_oracle_, slot, e.tree_options,
      e.stats.get());
  if (e.branching) {
    out.version_manager =
        std::make_unique<version::VersionManager>(out.tree.get());
  } else {
    out.tree->set_retire_list(e.gc->retire_list());
  }
  return out;
}

}  // namespace minuet
