// Sharded shared/exclusive lock table used by each memnode to lock the
// objects a minitransaction touches (Sinfonia's phase-one locking). Locks
// are owned by a transaction id so they can be held across the
// prepare/commit boundary of two-phase commit, and support both try-lock
// (ordinary minitransactions abort on busy locks) and bounded blocking
// acquisition (the blocking minitransactions of paper §4.1).
//
// Slot map. A byte's lock slot depends on where it lives. Below
// `slab_base` (replicated objects, the seqnum table, allocator metadata)
// a slot is `granularity` bytes wide, so small neighbouring objects keep
// their own locks. From `slab_base` up a slot is one slab of `slab_size`
// bytes, so a node read, compare or write takes exactly one slot. A range
// takes every slot it covers; overlapping byte ranges therefore always
// share a slot and no conflict is lost. A table built without a slab
// region uses `granularity`-byte slots everywhere.
//
// Slots hash onto a fixed set of stripes. Compare and read items take a
// stripe shared; write items take it exclusive, and a stripe one call
// wants both ways is taken exclusive. A blocking writer waiting on a
// stripe holds off new readers, so a stream of short reads cannot starve
// it.
//
// Stripes are split across shards (global stripe s lives in shard
// s % n_shards); each shard carries acquire/contend/timeout counters
// surfaced through the cluster metrics registry. A transaction's held set
// lives in shard tx % n_shards. Deadlock avoidance: stripes are acquired
// in sorted GLOBAL id order, a total order every caller shares.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace minuet::obs {
class MetricsRegistry;
}  // namespace minuet::obs

namespace minuet::sinfonia {

using TxId = uint64_t;

class LockTable {
 public:
  static constexpr uint32_t kMaxShards = 16;

  // `granularity` is the slot width below `slab_base`; with `slab_size` > 0
  // every slab of `slab_size` bytes from `slab_base` up is one slot (see
  // the slot map above). Distinct slots may hash to one stripe, which is
  // safe (coarser locking) but can cause spurious Busy results. `n_shards`
  // is clamped to [1, min(kMaxShards, n_stripes)].
  explicit LockTable(uint32_t n_stripes = 4096, uint32_t granularity = 64,
                     uint32_t n_shards = 8, uint64_t slab_base = 0,
                     uint32_t slab_size = 0);

  struct Range {
    uint64_t offset;
    uint64_t len;
    bool shared = false;  // compare/read items; writes are exclusive
  };

  // Acquire every stripe covering `ranges` for `tx`, in sorted global-id
  // order (deadlock avoidance within a memnode). Stripes `tx` already holds
  // are re-entered; a shared hold is upgraded when `tx` is its only reader.
  // If `max_wait` == 0, fails immediately with Busy when any stripe is held
  // in a conflicting mode by another transaction; otherwise waits up to
  // `max_wait` per acquisition and fails with TimedOut on expiry. On
  // failure everything this call took (shared holds and upgrades included)
  // is rolled back.
  Status Lock(TxId tx, const std::vector<Range>& ranges,
              std::chrono::microseconds max_wait = std::chrono::microseconds(0));

  // Release every stripe held by `tx`.
  void Unlock(TxId tx);

  // True if any stripe covering `r` is currently held in any mode (test
  // hook).
  bool IsLocked(const Range& r);

  // --- Observability -------------------------------------------------------
  struct ShardStats {
    uint64_t acquires = 0;   // stripes successfully acquired (any mode)
    uint64_t contended = 0;  // acquisitions that found a conflicting hold
    uint64_t timeouts = 0;   // blocking waits that expired
  };
  uint32_t shard_count() const { return n_shards_; }
  ShardStats StatsForShard(uint32_t shard) const;
  ShardStats TotalStats() const;

  // Link the per-shard counters (and totals) into `registry` under
  // `subsystem`, e.g. "memnode3.locks" → "shard0.acquires", ....
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& subsystem) const;

 private:
  struct Stripe {
    std::mutex mu;
    std::condition_variable cv;
    TxId owner = 0;             // exclusive holder; 0 = none
    std::vector<TxId> readers;  // shared holders
    uint32_t waiters = 0;          // blocked in cv.wait_for
    uint32_t writers_waiting = 0;  // of which want the stripe exclusive
  };

  // One stripe a Lock call wants, and what the call did to it (rollback).
  enum class Took : uint8_t { kShared, kExclusive, kUpgrade };
  struct Want {
    uint32_t stripe;
    bool shared;
  };
  struct Taken {
    uint32_t stripe;
    Took how;
  };

  struct Shard {
    std::vector<Stripe> stripes;  // global id s at local index s / n_shards
    // Held sets of the transactions whose id maps to THIS shard.
    std::mutex held_mu;
    std::unordered_map<TxId, std::vector<Taken>> held;
    obs::Counter acquires;
    obs::Counter contended;
    obs::Counter timeouts;
  };

  uint64_t SlotOf(uint64_t offset) const {
    if (offset < slab_base_) return offset / granularity_;
    return base_slots_ + (offset - slab_base_) / slab_size_;
  }
  uint32_t GlobalStripeFor(uint64_t slot) const {
    // Mix to avoid adjacent slots mapping to adjacent stripes.
    uint64_t h = slot * 0x9E3779B97F4A7C15ULL;
    return static_cast<uint32_t>(h >> 32) % n_stripes_;
  }
  Stripe& StripeAt(uint32_t global) {
    return shards_[global % n_shards_].stripes[global / n_shards_];
  }

  // The sorted, deduplicated stripe set for `ranges`; a stripe wanted both
  // ways is wanted exclusive.
  std::vector<Want> StripesFor(const std::vector<Range>& ranges) const;

  // Undo one acquisition this transaction made (rollback and Unlock).
  void Release(TxId tx, const Taken& t);

  uint32_t n_stripes_;
  uint32_t granularity_;
  uint32_t n_shards_;
  uint64_t slab_base_;   // UINT64_MAX when there is no slab region
  uint32_t slab_size_;
  uint64_t base_slots_;  // slot ids below slab_base_
  std::vector<Shard> shards_;
};

}  // namespace minuet::sinfonia
