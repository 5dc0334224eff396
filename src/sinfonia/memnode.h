// A Sinfonia memnode: an unstructured byte-addressable storage space plus
// the server half of the minitransaction commit protocol (lock, compare,
// read, conditionally write). Also hosts the backup images of peer memnodes
// when primary-backup replication is enabled, and supports crash/recovery
// fault injection.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sinfonia/addr.h"
#include "sinfonia/lock_table.h"
#include "sinfonia/minitxn.h"
#include "store/slab_store.h"

namespace minuet::sinfonia {

class Memnode {
 public:
  struct Options {
    uint32_t lock_stripes = 4096;
    uint32_t lock_shards = 8;  // LockTable shard count (clamped there)
    // The node slab region (alloc::Layout::slab_base / node_size): from
    // slab_base up, one lock slot per slab; below it, 64-byte slots. 0 =
    // no slab region, 64-byte slots everywhere.
    uint64_t slab_base = 0;
    uint32_t node_size = 0;
    // Lock-wait threshold for blocking minitransactions (paper §4.1: "the
    // waiting time is bounded by a threshold small enough so that blocking
    // minitransactions do not trigger Sinfonia's recovery mechanism").
    std::chrono::microseconds blocking_wait{2000};
  };

  explicit Memnode(MemnodeId id) : Memnode(id, Options()) {}
  Memnode(MemnodeId id, Options options);

  MemnodeId id() const { return id_; }

  // ---- One-phase execution (single-memnode minitransactions) -----------
  // Locks every touched range, evaluates compares, performs reads, applies
  // writes if all compares match, and unlocks. Returns Busy/TimedOut if
  // locks could not be acquired; `result->committed` reports compare
  // outcome. With `hold_locks_on_commit` the locks stay held after a
  // COMMITTED execution (abort paths always release) so the coordinator
  // can log and replicate the write set inside the lock window —
  // conflicting transactions then reach the WAL and the backup in commit
  // order. The caller must follow up with Release(tx).
  Status ExecuteLocal(TxId tx, const std::vector<MiniTxn::CompareItem>& compares,
                      const std::vector<MiniTxn::ReadItem>& reads,
                      const std::vector<MiniTxn::WriteItem>& writes,
                      bool blocking, MiniResult* result,
                      bool hold_locks_on_commit = false);
  // Release the range locks a hold_locks_on_commit execution kept.
  void Release(TxId tx);

  // ---- Two-phase protocol ----------------------------------------------
  // Phase one: acquire locks, evaluate compares, perform reads. On success
  // the memnode votes yes and HOLDS its locks until Commit/Abort. A false
  // `*vote` (compare mismatch) also releases locks immediately: the
  // coordinator will abort everywhere.
  Status Prepare(TxId tx, const std::vector<MiniTxn::CompareItem>& compares,
                 const std::vector<MiniTxn::ReadItem>& reads,
                 const std::vector<MiniTxn::WriteItem>& writes, bool blocking,
                 bool* vote, std::vector<std::string>* read_results,
                 std::vector<uint32_t>* failed_compares);
  // Phase two.
  void Commit(TxId tx, const std::vector<MiniTxn::WriteItem>& writes);
  void Abort(TxId tx);

  // ---- Replication & fault injection ------------------------------------
  // Apply `writes` (addressed at `primary`) to this node's backup image of
  // that primary. Called by the coordinator during commit, while the
  // primary still holds the transaction's range locks — conflicting write
  // sets therefore arrive here already serialized, in commit order. The
  // whole batch runs under backup_mu_ so it is also atomic against
  // RestoreFrom reading the image. `lsn` (when nonzero) advances the ring's
  // durability watermark for `primary`: recovery compares it against the
  // local WAL to pick the local-log vs peer-re-seed path.
  void ApplyBackupWrites(MemnodeId primary,
                         const std::vector<MiniTxn::WriteItem>& writes,
                         uint64_t lsn = 0);

  // Highest LSN this node has seen replicated for `primary` (0 = none).
  uint64_t BackupLsn(MemnodeId primary) const;
  // Force the watermark (backup-ring rewires and post-recovery re-anchor).
  void SetBackupLsn(MemnodeId primary, uint64_t lsn);

  // Wipe this node's primary space (simulates a crash losing main memory).
  void LoseState();
  // Drop every hosted backup image (full-cluster crash simulation).
  void LoseBackups();
  // Reload this node's primary space from the backup image held by `peer`.
  void RestoreFrom(const Memnode& peer);

  // ---- Elastic membership ------------------------------------------------
  // Copy [0, min(limit, src extent)) of `src`'s primary space into this
  // node's primary space (seeding the replicated region of a node added at
  // runtime). Caller guarantees quiescence (the coordinator's exclusive
  // membership lock).
  void ClonePrimaryRegion(const Memnode& src, uint64_t limit);
  // Install a backup image of `primary` cloned from `peer`'s live primary
  // space (the backup-ring rewire when a node joins). Same quiescence
  // contract as ClonePrimaryRegion.
  void SeedBackupFrom(MemnodeId primary, const Memnode& peer);
  // Drop a hosted backup image this node is no longer responsible for.
  void DropBackup(MemnodeId primary);

  // Snapshot the hosted backup image of `primary` into *out (byte-for-byte,
  // [0, image extent)). False if no image is hosted. Test/verification
  // helper: recovery proofs compare this against the recovered primary.
  bool CopyBackupImage(MemnodeId primary, std::string* out) const;

  // ---- Direct access (garbage collector, recovery, tests) ---------------
  // Raw read that bypasses the minitransaction protocol. The GC uses this
  // under its own slab locking discipline.
  void RawRead(uint64_t offset, uint32_t len, std::string* out) const {
    space_.Read(offset, len, out);
  }
  void RawWrite(uint64_t offset, const std::string& data) {
    space_.Write(offset, data.data(), static_cast<uint32_t>(data.size()));
  }
  uint64_t Extent() const { return space_.Extent(); }

  // The primary byte space itself — recovery streams checkpoint images and
  // WAL redo into it while the node is fenced off the fabric.
  store::SlabStore* mutable_space() { return &space_; }

  LockTable& lock_table() { return locks_; }

 private:
  static std::vector<LockTable::Range> TouchedRanges(
      const std::vector<MiniTxn::CompareItem>& compares,
      const std::vector<MiniTxn::ReadItem>& reads,
      const std::vector<MiniTxn::WriteItem>& writes);

  // Evaluate compares and perform reads with locks already held.
  bool EvaluateAndRead(const std::vector<MiniTxn::CompareItem>& compares,
                       const std::vector<MiniTxn::ReadItem>& reads,
                       std::vector<std::string>* read_results,
                       std::vector<uint32_t>* failed_compares) const;

  void ApplyWrites(const std::vector<MiniTxn::WriteItem>& writes);

  MemnodeId id_;
  Options options_;
  store::RamSlabStore space_;
  LockTable locks_;

  // Backup images of peer primaries (primary-backup replication), plus the
  // highest replicated LSN per primary (the ring durability watermark).
  mutable std::mutex backup_mu_;
  std::unordered_map<MemnodeId, std::unique_ptr<store::RamSlabStore>>
      backups_;
  std::unordered_map<MemnodeId, uint64_t> backup_lsns_;
};

}  // namespace minuet::sinfonia
