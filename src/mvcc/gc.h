// Snapshot garbage collection (paper §4.4).
//
// Minuet records a global lowest retained snapshot id; a background pass
// walks the B-tree slabs stored at each memnode and frees every node that
// has been copied to a snapshot at or below that horizon — such a node
// serves only snapshots older than any still queryable. Freed slabs return
// to the allocator free lists; their sequence numbers keep advancing, so
// stale cached pointers can never validate against a recycled slab.
//
// Linear trees also free copy-on-write garbage as the horizon passes it:
// the collector owns the slot's RetireList (btree/retire_list.h), and
// ReclaimRetired frees the listed slabs the horizon has reached — the
// snapshot service calls it after each snapshot it creates. The full pass
// stays as the backstop for anything the list misses.
#pragma once

#include <cstdint>

#include "btree/retire_list.h"
#include "btree/tree.h"

namespace minuet::mvcc {

class GarbageCollector {
 public:
  struct Report {
    uint64_t scanned = 0;
    uint64_t freed = 0;
    uint64_t skipped_live = 0;
    uint64_t skipped_non_node = 0;  // free-list links, unused slabs
  };

  explicit GarbageCollector(btree::BTree* tree) : tree_(tree) {}

  // One full pass over every memnode's slab region. `lowest_sid` is the GC
  // horizon (typically SnapshotService::LowestRetained()). Also publishes
  // the horizon to the replicated lowest-sid object so other proxies can
  // observe it.
  Result<Report> CollectOnce(uint64_t lowest_sid);

  // As above, but the effective horizon is min(lowest_sid, reclaim_floor).
  // With durability on, the cluster passes the snapshot horizon as of the
  // last COMPLETE checkpoint pass as the floor: a recovered memnode image
  // is only as new as its checkpoint + WAL, and must never find a slab it
  // references reclaimed (reused) by a pass the durable state predates.
  Result<Report> CollectOnce(uint64_t lowest_sid, uint64_t reclaim_floor);

  // The list every BTree instance of this (linear) tree slot appends its
  // real copies to (BTree::set_retire_list).
  btree::RetireList* retire_list() { return &retired_; }

  // Free the retired copies at or below `horizon` (the caller clamps it to
  // the reclaim floor, as for CollectOnce): publish the horizon as
  // CollectOnce does, then free each listed slab through the same
  // transactional re-check. Entries above the horizon stay listed. Best
  // effort: a slab that cannot be freed now is dropped from the list and
  // left to the next full pass.
  Result<Report> ReclaimRetired(uint64_t horizon);

  uint64_t total_freed() const { return total_freed_.Value(); }

 private:
  // Raise the replicated lowest-sid object to `lowest_sid` (never lowers).
  Status PublishHorizon(uint64_t lowest_sid);

  // Frees one slab in its own small transaction; returns true if freed.
  Result<bool> TryFreeSlab(sinfonia::Addr addr, uint64_t lowest_sid,
                           Report* report);

  btree::BTree* tree_;
  btree::RetireList retired_;
  // Counter (not a plain integer): the metrics registry samples it from
  // whatever thread runs DumpStats while a GC pass is incrementing it.
  obs::Counter total_freed_;
};

}  // namespace minuet::mvcc
