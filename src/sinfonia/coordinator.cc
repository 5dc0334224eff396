#include "sinfonia/coordinator.h"

#include <algorithm>
#include <thread>

namespace minuet::sinfonia {

Coordinator::Coordinator(net::Fabric* fabric, std::vector<Memnode*> memnodes,
                         Options options)
    : fabric_(fabric),
      memnodes_(std::move(memnodes)),
      durable_stores_(fabric->max_nodes(), nullptr),
      crash_points_(new std::atomic<uint8_t>[fabric->max_nodes()]()),
      n_memnodes_(static_cast<uint32_t>(memnodes_.size())),
      n_live_(static_cast<uint32_t>(memnodes_.size())),
      options_(options) {
  // Indexed reads of memnodes_ run without the membership lock; reserving
  // the fabric's capacity up front means AddMemnode's push_back never
  // reallocates under them.
  memnodes_.reserve(fabric_->max_nodes());
}

MemnodeId Coordinator::NextLive(MemnodeId id) const {
  const uint32_t n = n_memnodes();
  MemnodeId m = static_cast<MemnodeId>((id + 1) % n);
  for (uint32_t i = 0; i + 1 < n; i++, m = (m + 1) % n) {
    if (!retired(m)) return m;
  }
  return id;
}

MemnodeId Coordinator::PrevLive(MemnodeId id) const {
  const uint32_t n = n_memnodes();
  MemnodeId m = static_cast<MemnodeId>((id + n - 1) % n);
  for (uint32_t i = 0; i + 1 < n; i++, m = (m + n - 1) % n) {
    if (!retired(m)) return m;
  }
  return id;
}

std::vector<Coordinator::PerNode> Coordinator::Partition(
    const MiniTxn& mtx) const {
  std::vector<PerNode> parts;
  auto find = [&parts](MemnodeId node) -> PerNode& {
    for (auto& p : parts) {
      if (p.node == node) return p;
    }
    parts.push_back(PerNode{node, {}, {}, {}, {}, {}});
    return parts.back();
  };
  for (uint32_t i = 0; i < mtx.compares.size(); i++) {
    PerNode& p = find(mtx.compares[i].addr.memnode);
    p.compares.push_back(mtx.compares[i]);
    p.compare_index.push_back(i);
  }
  for (uint32_t i = 0; i < mtx.reads.size(); i++) {
    PerNode& p = find(mtx.reads[i].addr.memnode);
    p.reads.push_back(mtx.reads[i]);
    p.read_index.push_back(i);
  }
  const uint32_t n = n_memnodes();
  for (const auto& w : mtx.writes) {
    if (w.all_nodes) {
      // Replicated object: one write per LIVE memnode, expanded against the
      // membership in force for this execution (retired ids left the
      // replication group permanently).
      for (MemnodeId m = 0; m < n; m++) {
        if (retired(m)) continue;
        find(m).writes.push_back(
            MiniTxn::WriteItem{Addr{m, w.addr.offset}, w.data, false});
      }
    } else {
      find(w.addr.memnode).writes.push_back(w);
    }
  }
  std::sort(parts.begin(), parts.end(),
            [](const PerNode& a, const PerNode& b) { return a.node < b.node; });
  return parts;
}

std::vector<MemnodeId> MiniTxn::Participants() const {
  std::vector<MemnodeId> ids;
  for (const auto& c : compares) ids.push_back(c.addr.memnode);
  for (const auto& r : reads) ids.push_back(r.addr.memnode);
  for (const auto& w : writes) ids.push_back(w.addr.memnode);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Status Coordinator::Execute(const MiniTxn& mtx, MiniResult* result) {
  // Membership is stable for the whole execution: all-node writes expand
  // over exactly the set that will receive them, and BackupOf cannot flip
  // mid-replication.
  std::shared_lock<std::shared_mutex> membership(membership_mu_);
  const std::vector<PerNode> parts = Partition(mtx);
  metrics_.executions.Increment();
  if (parts.empty()) {
    result->committed = true;
    return Status::OK();
  }
  obs::TraceContext* const trace = obs::TraceContext::Current();
  int items = 0;
  if (trace != nullptr) {
    for (const PerNode& pn : parts) {
      items += static_cast<int>(pn.compares.size() + pn.reads.size() +
                                pn.writes.size());
    }
  }

  Status last = Status::OK();
  for (uint32_t attempt = 0; attempt <= options_.max_retries; attempt++) {
    if (attempt > 0) {
      metrics_.busy_retries.Increment();
      if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->retries++;
      // Give the lock holder a chance to finish. On a machine with fewer
      // cores than threads, a holder can sit preempted mid-commit for a
      // whole scheduling quantum; yield alone then degenerates into a
      // retry storm, so back off for real after a few attempts. (In the
      // paper's deployment the "holder" is a memnode executing a
      // minitransaction to completion — this wait stands in for the lock
      // hold time that a busy lock implies there.)
      if (attempt < 4) {
        std::this_thread::yield();
      } else {
        // lint:allow(sleep-in-src): bounded backoff standing in for the
        // lock-hold time of the blocking minitransaction's conflicting
        // holder; there is no local event to wait on.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const TxId tx = next_tx_.fetch_add(1, std::memory_order_relaxed);
    result->committed = false;
    result->failed_compares.clear();
    result->read_results.assign(mtx.reads.size(), std::string());

    const bool one_phase = parts.size() == 1;
    (one_phase ? metrics_.one_phase : metrics_.two_phase).Increment();
    const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
    Status st = one_phase ? ExecuteSingle(tx, parts[0], mtx.blocking, result)
                          : ExecuteTwoPhase(tx, parts, mtx.blocking, result);
    if (trace != nullptr) {
      // A decided compare mismatch returns OK with committed=false; stamp
      // the span with the abort it means rather than a bare OK.
      const Status span_outcome =
          st.ok() && !result->committed
              ? Status::Aborted(AbortReason::kValidationConflict)
              : st;
      trace->RecordRound(one_phase ? "1pc" : "2pc",
                         static_cast<int>(parts.size()), items, span_outcome,
                         obs::NowNs() - t0);
    }
    if (st.ok()) {
      (result->committed ? metrics_.committed : metrics_.compare_aborts)
          .Increment();
      return Status::OK();
    }
    if (!st.IsRetryable()) return st;  // Unavailable etc.
    last = st;
  }
  return last.ok() ? Status::Busy("retries exhausted") : last;
}

Status Coordinator::ExecuteSingle(TxId tx, const PerNode& pn, bool blocking,
                                  MiniResult* result) {
  MINUET_RETURN_NOT_OK(fabric_->ChargeMessage(pn.node));
  // Logging and replication must happen inside the primary's lock window,
  // or two conflicting commits could reach the WAL / backup image
  // concurrently and out of commit order — so a committed execution keeps
  // its range locks until the log record and the backup write land.
  const bool replicate = options_.replication && !pn.writes.empty();
  const bool durable = options_.durability != wal::DurabilityMode::kNone &&
                       durable_stores_[pn.node] != nullptr &&
                       !pn.writes.empty();
  const bool hold = replicate || durable;
  MiniResult local;
  MINUET_RETURN_NOT_OK(memnodes_[pn.node]->ExecuteLocal(
      tx, pn.compares, pn.reads, pn.writes, blocking, &local,
      /*hold_locks_on_commit=*/hold));
  result->committed = local.committed;
  if (local.committed) {
    for (uint32_t i = 0; i < local.read_results.size(); i++) {
      result->read_results[pn.read_index[i]] = std::move(local.read_results[i]);
    }
    if (hold) {
      uint64_t lsn = 0;
      const Status logged = LogDurable(pn, &lsn);
      if (!logged.ok()) {
        // Crash injection / log failure: the write applied locally but the
        // commit is NOT acknowledged. The node is down; recovery decides
        // whether the record survived.
        memnodes_[pn.node]->Release(tx);
        return logged;
      }
      if (replicate) ReplicateWrites(pn, lsn);
      memnodes_[pn.node]->Release(tx);
    }
  } else {
    for (uint32_t idx : local.failed_compares) {
      result->failed_compares.push_back(pn.compare_index[idx]);
    }
  }
  return Status::OK();
}

Status Coordinator::ExecuteTwoPhase(TxId tx,
                                    const std::vector<PerNode>& parts,
                                    bool blocking, MiniResult* result) {
  // Phase one: prepare at every participant. Messages in this loop overlap
  // on the wire, so they share one round trip.
  std::vector<const PerNode*> prepared;
  bool all_yes = true;
  Status failure = Status::OK();
  {
    net::RoundTripScope rt;
    for (const PerNode& pn : parts) {
      Status st = fabric_->ChargeMessage(pn.node);
      if (st.ok()) {
        bool vote = false;
        std::vector<std::string> reads;
        std::vector<uint32_t> failed;
        st = memnodes_[pn.node]->Prepare(tx, pn.compares, pn.reads, pn.writes,
                                         blocking, &vote, &reads, &failed);
        if (st.ok()) {
          if (vote) {
            prepared.push_back(&pn);
            for (uint32_t i = 0; i < reads.size(); i++) {
              result->read_results[pn.read_index[i]] = std::move(reads[i]);
            }
          } else {
            all_yes = false;
            for (uint32_t idx : failed) {
              result->failed_compares.push_back(pn.compare_index[idx]);
            }
          }
          continue;
        }
      }
      // Lock conflict or node down: decided abort.
      all_yes = false;
      failure = st;
      break;
    }
  }

  if (!all_yes) {
    // Phase two (abort): release locks at yes-voters. When a READ-ONLY
    // minitransaction aborts on a decided compare mismatch, the outcome
    // (committed=false) is already in hand after the votes, so — exactly
    // as on the read-only commit path below — the release leaves the
    // critical path. Read-only is judged over the WHOLE minitransaction
    // (`parts`), not just the yes-voters: a write whose writing
    // participant voted no still retries-and-waits like any write abort.
    // A Busy/Unavailable abort likewise keeps the critical-path charge:
    // the coordinator's own retry waits on that release.
    bool decided_read_only = failure.ok();
    for (const PerNode& pn : parts) decided_read_only &= pn.writes.empty();
    net::RoundTripScope rt;
    for (const PerNode* pn : prepared) {
      Status st = decided_read_only ? fabric_->ChargeMessageAsync(pn->node)
                                    : fabric_->ChargeMessage(pn->node);
      IgnoreStatus(st);  // local cleanup even if "down"
      memnodes_[pn->node]->Abort(tx);
    }
    if (!failure.ok()) return failure;  // Busy/TimedOut/Unavailable: retry?
    result->committed = false;          // compare failure: final answer
    std::sort(result->failed_compares.begin(), result->failed_compares.end());
    return Status::OK();
  }

  // Phase two (commit). A minitransaction with no write items is decided
  // the moment every participant votes yes: the read results are already
  // in hand and commit cannot fail, so the lock-release messages leave the
  // critical path (charged, but not as a round trip) — a read-only
  // multi-node minitransaction costs ONE observed round, like Sinfonia's.
  bool read_only = true;
  for (const PerNode* pn : prepared) read_only &= pn->writes.empty();
  Status commit_failure = Status::OK();
  {
    net::RoundTripScope rt;
    for (const PerNode* pn : prepared) {
      // A participant that crashed between prepare and commit does not stop
      // the transaction: Sinfonia's recovery would replay from the backup.
      if (read_only) {
        IgnoreStatus(fabric_->ChargeMessageAsync(pn->node));
      } else {
        IgnoreStatus(fabric_->ChargeMessage(pn->node));
      }
      // Log and replicate BEFORE Commit releases the prepare locks:
      // conflicting write sets must reach the WAL and the backup image in
      // commit order (and never concurrently).
      uint64_t lsn = 0;
      if (!pn->writes.empty()) {
        const Status logged = LogDurable(*pn, &lsn);
        if (!logged.ok()) {
          // This participant crashed at its durability point. The other
          // participants still commit — a torn cross-node commit, exactly
          // the window 2PC leaves when a participant dies after voting yes
          // (docs/ARCHITECTURE.md, Durability: known limitation). Its
          // locks are released; recovery decides whether its record
          // survived.
          memnodes_[pn->node]->Abort(tx);
          commit_failure = logged;
          continue;
        }
      }
      if (options_.replication && !pn->writes.empty()) {
        ReplicateWrites(*pn, lsn);
      }
      memnodes_[pn->node]->Commit(tx, pn->writes);
    }
  }
  if (!commit_failure.ok()) return commit_failure;
  result->committed = true;
  std::sort(result->failed_compares.begin(), result->failed_compares.end());
  return Status::OK();
}

Status Coordinator::LogDurable(const PerNode& pn, uint64_t* lsn) {
  *lsn = 0;
  store::CheckpointedStore* ds = durable_stores_[pn.node];
  if (ds == nullptr || options_.durability == wal::DurabilityMode::kNone ||
      pn.writes.empty()) {
    return Status::OK();
  }
  if (FireCrashPoint(pn.node, CrashPoint::kBeforeWalAppend)) {
    return Status::Unavailable("crash injected before WAL append");
  }
  std::vector<wal::WalWrite> writes;
  writes.reserve(pn.writes.size());
  for (const auto& w : pn.writes) {
    writes.push_back(wal::WalWrite{w.addr.offset, w.data});
  }
  auto appended = ds->wal().Append(writes);
  MINUET_RETURN_NOT_OK(appended.status());
  *lsn = *appended;
  if (FireCrashPoint(pn.node, CrashPoint::kAfterWalAppendBeforeSync)) {
    return Status::Unavailable("crash injected after WAL append");
  }
  if (options_.durability == wal::DurabilityMode::kSync) {
    MINUET_RETURN_NOT_OK(ds->wal().Sync(*lsn));
  }
  if (FireCrashPoint(pn.node, CrashPoint::kAfterWalSyncBeforeAck)) {
    // The record IS durable; the ack (and the ring replication that
    // follows) never happens. Recovery's local log runs ahead of the
    // ring's watermark here — the local path must win.
    return Status::Unavailable("crash injected after WAL sync");
  }
  return Status::OK();
}

bool Coordinator::FireCrashPoint(MemnodeId id, CrashPoint point) {
  uint8_t expected = static_cast<uint8_t>(point);
  if (crash_points_[id].load(std::memory_order_acquire) != expected) {
    return false;
  }
  if (!crash_points_[id].compare_exchange_strong(
          expected, static_cast<uint8_t>(CrashPoint::kNone),
          std::memory_order_acq_rel)) {
    return false;
  }
  // The "machine" loses power: page-cache WAL bytes are gone and the node
  // stops answering. (The RAM image is NOT wiped here — recovery Resets it
  // before rebuilding; wiping under a shared membership lock could race a
  // concurrent reader on another range.)
  if (store::CheckpointedStore* ds = durable_stores_[id]) {
    ds->CrashLoseVolatile();
  }
  fabric_->SetUp(id, false);
  return true;
}

void Coordinator::ReplicateWrites(const PerNode& pn, uint64_t lsn) {
  const MemnodeId backup = BackupOf(pn.node);
  if (backup == pn.node) return;  // single-memnode cluster: no peer
  IgnoreStatus(fabric_->ChargeMessage(backup));
  memnodes_[backup]->ApplyBackupWrites(pn.node, pn.writes, lsn);
}

void Coordinator::Crash(MemnodeId id) {
  // Exclusive: the wipe lands at a quiescent instant. An in-memory fault
  // injection cannot model a crash racing a half-applied memcpy without
  // undefined behavior (RamSlabStore::Reset would free chunks under an
  // in-flight writer), so executions that already charged their messages
  // drain first and the crash takes effect between minitransactions —
  // which is also Sinfonia's recovery-visible granularity.
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  if (retired(id)) return;  // already permanently gone
  fabric_->SetUp(id, false);
  memnodes_[id]->LoseState();
  if (store::CheckpointedStore* ds = durable_stores_[id]) {
    ds->CrashLoseVolatile();
  }
}

void Coordinator::CrashAll() {
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  const uint32_t n = n_memnodes_.load(std::memory_order_relaxed);
  for (MemnodeId id = 0; id < n; id++) {
    if (retired(id)) continue;
    fabric_->SetUp(id, false);
    memnodes_[id]->LoseState();
    memnodes_[id]->LoseBackups();
    if (store::CheckpointedStore* ds = durable_stores_[id]) {
      ds->CrashLoseVolatile();
    }
  }
}

void Coordinator::Recover(MemnodeId id) {
  std::shared_lock<std::shared_mutex> membership(membership_mu_);
  if (retired(id)) return;  // retirement is permanent, not a crash state
  const MemnodeId backup = BackupOf(id);
  store::CheckpointedStore* const ds =
      options_.durability != wal::DurabilityMode::kNone ? durable_stores_[id]
                                                        : nullptr;
  obs::TraceContext* const trace = obs::TraceContext::Current();

  // Local-log path: checkpoint image + WAL redo, taken iff the local log
  // is at least as current as the ring's replicated watermark for `id`.
  if (ds != nullptr) {
    const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
    store::CheckpointedStore::RecoveryInfo info;
    const Status st = ds->RecoverInto(memnodes_[id]->mutable_space(), &info);
    const uint64_t ring_lsn =
        backup == id ? 0 : memnodes_[backup]->BackupLsn(id);
    if (st.ok() && info.lsn >= ring_lsn) {
      ds->metrics().recoveries_local.Increment();
      if (options_.replication && backup != id) {
        // Converge the ring onto the recovered image: the peer's backup
        // must mirror what local recovery rebuilt (the local log may have
        // run AHEAD of the ring — crash after fsync, before replication).
        memnodes_[backup]->SeedBackupFrom(id, *memnodes_[id]);
        memnodes_[backup]->SetBackupLsn(id, info.lsn);
      }
      fabric_->SetUp(id, true);
      if (trace != nullptr) {
        trace->RecordRound("recover.replay", 1,
                           static_cast<int>(info.replayed), st,
                           obs::NowNs() - t0);
      }
      return;
    }
    // Local log behind the ring (async-mode losses) or unreadable: fall
    // back to the peer image below. Drop the partial local rebuild first.
    memnodes_[id]->LoseState();
  }

  if (backup == id) return;  // single-node cluster, nothing to reseed from
  const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
  memnodes_[id]->RestoreFrom(*memnodes_[backup]);
  if (ds != nullptr) {
    ds->metrics().recoveries_reseed.Increment();
    // Re-anchor durable state to the restored image (quiesced: the node is
    // still fenced off the fabric, so raw reads cannot race writers). A
    // failure here only costs the NEXT crash a re-seed.
    IgnoreStatus(CheckpointNode(id, /*quiesced=*/true));
    memnodes_[backup]->SetBackupLsn(id, ds->wal().CurrentLsn());
  }
  fabric_->SetUp(id, true);
  if (trace != nullptr) {
    trace->RecordRound("recover.reseed", 2, 0, Status::OK(),
                       obs::NowNs() - t0);
  }
}

Status Coordinator::CheckpointMemnode(MemnodeId id) {
  return CheckpointNode(id, /*quiesced=*/false);
}

Status Coordinator::CheckpointNode(MemnodeId id, bool quiesced) {
  if (id >= n_memnodes() || retired(id)) {
    return Status::InvalidArgument("no such live memnode");
  }
  store::CheckpointedStore* const ds = durable_stores_[id];
  if (ds == nullptr) {
    return Status::InvalidArgument("memnode has no durable store");
  }
  if (!quiesced && !fabric_->IsUp(id)) {
    return Status::Unavailable("memnode is down");
  }
  if (!ds->TryBeginCheckpoint()) {
    return Status::Busy("checkpoint already in flight");
  }
  const Status st = RunCheckpoint(id, ds, quiesced);
  ds->EndCheckpoint();
  return st;
}

Status Coordinator::RunCheckpoint(MemnodeId id, store::CheckpointedStore* ds,
                                  bool quiesced) {
  // Fuzzy capture: L is taken BEFORE the dump, so records with lsn > L may
  // or may not already be reflected in the image — replaying them anyway is
  // idempotent physical redo. The FULL extent is dumped (not just the live
  // tree frontier): free-list chains thread through freed slabs, and the
  // replicated region / sequence tables / allocator metadata live outside
  // any tree.
  const uint64_t ckpt_lsn = ds->wal().CurrentLsn();
  const uint64_t extent = memnodes_[id]->Extent();
  MINUET_RETURN_NOT_OK(ds->StageCheckpoint(ckpt_lsn, extent));
  constexpr uint32_t kBlock = 64 * 1024;
  std::string block;
  for (uint64_t off = 0; off < extent; off += kBlock) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(kBlock, extent - off));
    if (quiesced) {
      // Node fenced off the fabric (recovery re-anchor): no writer can
      // race, read the space directly.
      memnodes_[id]->RawRead(off, n, &block);
    } else {
      // One minitransaction per block: its range lock serializes the read
      // against concurrent commits, so every block is internally
      // consistent (cross-block skew is what makes the checkpoint fuzzy —
      // the WAL redo squares it).
      MiniTxn mtx;
      mtx.AddRead(Addr{id, off}, n);
      mtx.blocking = true;
      MiniResult res;
      MINUET_RETURN_NOT_OK(Execute(mtx, &res));
      if (!res.committed || res.read_results.size() != 1) {
        return Status::Unavailable("checkpoint block read aborted");
      }
      block = std::move(res.read_results[0]);
    }
    if (FireCrashPoint(id, CrashPoint::kMidCheckpoint)) {
      // Staged image half-written, root never flipped: the previous
      // checkpoint (or none) stays the recovery root.
      return Status::Unavailable("crash injected mid-checkpoint");
    }
    if (!store::IsAllZero(block)) {
      MINUET_RETURN_NOT_OK(ds->WriteImageBlock(off, block));
    }
  }
  MINUET_RETURN_NOT_OK(ds->SealImageAndFlipRoot());
  if (FireCrashPoint(id, CrashPoint::kAfterRootFlipBeforeTruncate)) {
    // New root is live but covered WAL segments linger: recovery replays
    // records with lsn <= ckpt_lsn over the image — idempotent, benign.
    return Status::Unavailable("crash injected after root flip");
  }
  return ds->TruncateWal();
}

Status Coordinator::AddMemnode(Memnode* node, uint64_t replicated_bytes) {
  // Exclusive: every in-flight minitransaction drains first, and none can
  // start until the new node is seeded and published. Commits built before
  // this point therefore wrote their all-node objects to the old set — all
  // of which the seeding copy below captures.
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  const uint32_t n = n_memnodes_.load(std::memory_order_relaxed);
  if (n >= fabric_->max_nodes()) {
    return Status::NoSpace("cluster at its configured max memnode count");
  }
  if (node->id() != n) {
    return Status::InvalidArgument("memnode id must be the next free id");
  }
  if (n_live_.load(std::memory_order_relaxed) == 0) {
    return Status::InvalidArgument("cannot grow an empty memnode set");
  }
  // The ring neighbors over LIVE nodes: the new node slots in between the
  // highest live id (`last`) and the lowest (`first`) — retired ids are
  // holes the ring already closes around.
  const MemnodeId first = NextLive(static_cast<MemnodeId>(n - 1));
  const MemnodeId last = PrevLive(0);
  // Both seeding sources must be alive: cloning a crashed (wiped) peer
  // would install zeros as the new node's replicated region — and, worse,
  // the ring rewire below would REPLACE the last good backup image of
  // `last` with a clone of its wiped primary. Grow the cluster after
  // recovery, not during an outage.
  if (!fabric_->IsUp(first) || !fabric_->IsUp(last)) {
    return Status::Unavailable("a seeding peer memnode is down");
  }

  // Seed the replicated region (and seqnum-table mirrors): replicated
  // objects live at the SAME offset on every memnode, so the new node's
  // image is a byte copy of any seeded peer's prefix.
  node->ClonePrimaryRegion(*memnodes_[first], replicated_bytes);

  if (options_.replication) {
    // The backup ring rewires from (last → first) to (last → n → first):
    // the new node takes over hosting last's image (seeded from last's live
    // primary — consistent, as no writes run under the exclusive lock), and
    // `first` hosts the new node's image — seeded from the region copy
    // above, so a crash BEFORE the node's first replicated write still
    // recovers the pre-join history.
    node->SeedBackupFrom(last, *memnodes_[last]);
    memnodes_[first]->SeedBackupFrom(n, *node);
    if (last != first) memnodes_[first]->DropBackup(last);
  }

  auto id = fabric_->RegisterNode();
  if (!id.ok()) return id.status();
  memnodes_.push_back(node);
  n_memnodes_.store(n + 1, std::memory_order_release);
  n_live_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Coordinator::RetireMemnode(MemnodeId id) {
  // Exclusive: every in-flight minitransaction drains first, so no
  // execution can observe a half-rewired ring or a half-expanded
  // replicated write set.
  std::unique_lock<std::shared_mutex> membership(membership_mu_);
  const uint32_t n = n_memnodes_.load(std::memory_order_relaxed);
  if (id >= n || retired(id)) {
    return Status::InvalidArgument("no such live memnode");
  }
  if (n_live_.load(std::memory_order_relaxed) <= 1) {
    return Status::InvalidArgument("cannot retire the last memnode");
  }
  const MemnodeId prev = PrevLive(id);
  const MemnodeId next = NextLive(id);
  if (options_.replication) {
    // The ring rewires from (prev → id → next) to (prev → next): `next`
    // takes over hosting prev's backup image, seeded from prev's live
    // primary — consistent, as no writes run under the exclusive lock. A
    // crashed neighbor would make that seed (or the image we are about to
    // drop the last copy of) a wipe: refuse, recover first.
    if (!fabric_->IsUp(prev) || !fabric_->IsUp(next)) {
      return Status::Unavailable("a ring-neighbor memnode is down");
    }
    if (prev != next) {
      // With exactly two live nodes prev == next == the survivor, which
      // backs itself (a no-op ring); only the orphaned image is dropped.
      memnodes_[next]->SeedBackupFrom(prev, *memnodes_[prev]);
    }
    memnodes_[next]->DropBackup(id);
  }
  // The fabric registry is the single retirement record: deregistering
  // flips retired(id) for every layer at once (all under this exclusive
  // lock, so no execution sees a half-applied retirement).
  fabric_->Deregister(id);
  n_live_.fetch_sub(1, std::memory_order_release);
  return Status::OK();
}

}  // namespace minuet::sinfonia
