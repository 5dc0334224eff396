// Standalone unit-cost probes: each times one layer's public call on a
// fresh instance, outside any workload, and reports the median per-call
// cost over repeated batches. A unit cost times a per-op count (ledger.cc)
// estimates that layer's share of an operation.
#pragma once

#include <string>
#include <vector>

#include "minuet/cluster.h"

namespace perfbench {

struct UnitCosts {
  double lock_node_ns = 0;     // LockTable::Lock + Unlock of one node range
  double lock_stripes_per_node = 0;  // stripes one node range acquires
  double slab_read_ns = 0;     // RamSlabStore::Read of node_size bytes
  double cache_lookup_ns = 0;  // ObjectCache::Lookup hit
  double view_init_ns = 0;     // NodeView::Init on a real leaf image
  double wal_sync_us = 0;      // Wal::Append + Sync of one node-size record
};

// The durability layers (wal, store) exercised on a small cluster of their
// own with durability=sync, so every workload's ledger carries them: puts
// through the group-commit WAL, timed checkpoints, then a whole-cluster
// crash, a timed recovery and a re-read of every acked write.
struct DurabilityCosts {
  double puts = 0;
  double wal_appends = 0;
  double wal_fsyncs = 0;
  double wal_bytes = 0;
  std::vector<double> checkpoint_ms;
  double recovery_ms = 0;
  double replayed = 0;    // WAL records replayed by that recovery
  uint64_t verified = 0;  // acked writes re-read after recovery
  uint64_t wrong = 0;     // ... that were missing or stale
};

// `records` are preloaded, `puts` overwrite them; `data_dir` must be a
// scratch directory (removed afterwards).
minuet::Result<DurabilityCosts> MeasureDurability(uint32_t node_size,
                                                  uint64_t records,
                                                  uint64_t puts,
                                                  const std::string& data_dir);

// `cluster`/`tree` supply the real leaf image; `wal_dir` is an empty
// scratch directory for the WAL probe (removed afterwards).
minuet::Result<UnitCosts> MeasureUnitCosts(minuet::Cluster& cluster,
                                           const minuet::TreeHandle& tree,
                                           uint32_t node_size,
                                           const std::string& wal_dir);

}  // namespace perfbench
