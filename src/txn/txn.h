// The dynamic transaction layer (paper §2.2 plus the §3 dirty-read
// extension): optimistic transactions with backward validation, built from
// minitransactions.
//
// A dynamic transaction keeps a read set and a write set of objects.
//   Read       — serve from the write/read set, else fetch from the memnode
//                (one minitransaction) and add to the read set. Fetches
//                piggy-back validation of the existing read set, so a
//                transaction discovers staleness early and a read-only
//                transaction needs no commit-time validation at all.
//   DirtyRead  — serve from the proxy cache or fetch, WITHOUT adding to the
//                read set (§3). Used for B-tree traversal of internal nodes;
//                the traversal's own safety checks (fence keys, heights,
//                copied-snapshot ids) replace validation.
//   Write      — buffer in the write set; memnodes are updated only at
//                commit. Writing an object not yet read fetches it first so
//                its sequence number is known.
//   Commit     — one minitransaction that (1) compares the sequence number
//                of every read-set object against the master copy and
//                (2) if all match, installs the write set with seqnums
//                bumped. Engages a single memnode (one-phase commit)
//                whenever all touched objects validate there.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/payload.h"
#include "common/status.h"
#include "sinfonia/coordinator.h"
#include "txn/object.h"
#include "txn/object_cache.h"

namespace minuet::txn {

class DynamicTxn {
 public:
  struct Options {
    // Validate the current read set inside every fetch minitransaction.
    bool piggyback_validation = true;
    // Commit with a blocking minitransaction (waits for busy locks up to
    // the memnode threshold); used for replicated tip-snapshot-id updates.
    bool blocking_commit = false;
  };

  DynamicTxn(sinfonia::Coordinator* coord, ObjectCache* cache)
      : DynamicTxn(coord, cache, Options()) {}
  DynamicTxn(sinfonia::Coordinator* coord, ObjectCache* cache,
             Options options);

  // --- Transactional operations ------------------------------------------
  //
  // Every read flavor comes in two shapes. The *View variants are the hot
  // path: they return a Payload — a Slice over the image bytes plus
  // a shared owner that pins them — so serving a read-set or cache hit is a
  // refcount bump, never a byte copy. The std::string variants are thin
  // copying wrappers kept for control-plane callers (GC, allocator, catalog)
  // where a copy per call is irrelevant.
  Result<Payload> ReadView(const ObjectRef& ref);
  Result<Payload> DirtyReadView(const ObjectRef& ref);
  // Cache-first transactional read: like Read, but a proxy-cache hit joins
  // the read set WITHOUT fetching (commit-time validation catches staleness,
  // as when Aguilera et al. validate cached internal nodes against the
  // replicated seqnum table, and when Minuet proxies validate their cached
  // tip snapshot id). Falls back to a fetch on miss.
  Result<Payload> ReadCachedView(const ObjectRef& ref);
  // Fetch without consulting or populating the proxy cache, and without
  // joining the read set: used for leaf reads on read-only snapshots, which
  // the paper validates by fence keys alone (§4.2).
  Result<Payload> FetchFreshView(const ObjectRef& ref);
  Result<std::string> Read(const ObjectRef& ref);
  Result<std::string> DirtyRead(const ObjectRef& ref);
  Result<std::string> ReadCached(const ObjectRef& ref);
  Result<std::string> FetchFresh(const ObjectRef& ref);
  // Batched transactional read (the read-side analogue of the buffered
  // write set): every ref not already served by the read/write set is
  // fetched in ONE minitransaction — one coordinator round no matter how
  // many objects or memnodes are involved — and joins the read set, with
  // the usual piggy-backed validation. `(*this)[i]` of the result is
  // refs[i]'s payload; duplicate addresses are fetched once.
  Result<std::vector<Payload>> ReadBatchViews(
      const std::vector<ObjectRef>& refs);
  // Batched FetchFresh: one minitransaction, no cache, no read set. Used
  // for the grouped leaf reads of snapshot MultiGet (§4.2: fence-key
  // checks replace validation).
  Result<std::vector<Payload>> FetchFreshBatchViews(
      const std::vector<ObjectRef>& refs);
  // Batched DirtyRead (§3): each ref is served from the write/read set or
  // the proxy cache when possible; ALL remaining misses are fetched in ONE
  // minitransaction (with the usual piggy-backed validation) and fill the
  // cache per entry, WITHOUT joining the read set. This is the frontier
  // fetch of level-synchronized B-tree descents: a cold cache pays one
  // coordinator round per tree level, not one per node per key.
  Result<std::vector<Payload>> DirtyReadBatchViews(
      const std::vector<ObjectRef>& refs);
  // Batched ReadCached: cache hits join the read set without fetching;
  // all misses are fetched in ONE minitransaction, join the read set, and
  // fill the cache. Used for the tip-object pair, so a cold tip resolution
  // costs one round instead of two.
  Result<std::vector<Payload>> ReadCachedBatchViews(
      const std::vector<ObjectRef>& refs);
  Result<std::vector<std::string>> ReadBatch(const std::vector<ObjectRef>& refs);
  Result<std::vector<std::string>> FetchFreshBatch(
      const std::vector<ObjectRef>& refs);
  Result<std::vector<std::string>> DirtyReadBatch(
      const std::vector<ObjectRef>& refs);
  Result<std::vector<std::string>> ReadCachedBatch(
      const std::vector<ObjectRef>& refs);
  // Buffer a write. The payload bytes are COPIED into the transaction arena
  // (std::string arguments convert to Slice and are safe to pass as
  // temporaries — the dup happens before Write returns).
  Status Write(const ObjectRef& ref, Slice payload);
  // Write an object this transaction knows to be freshly allocated: expects
  // the slab's seqnum to still be zero at commit (fails validation if any
  // other transaction initialized it concurrently).
  Status WriteNew(const ObjectRef& ref, Slice payload);
  // Zero-copy variants: the caller guarantees `payload` stays valid and
  // unmodified until the transaction is destroyed — in practice, bytes
  // encoded directly into this transaction's arena(). No dup is taken.
  Status WriteStable(const ObjectRef& ref, Slice payload);
  Status WriteNewStable(const ObjectRef& ref, Slice payload);

  // Commit. Returns OK, Aborted (validation failed — retry the whole
  // transaction), Busy (persistent lock contention) or Unavailable.
  Status Commit();

  // Run `undo` when this transaction ends without its writes applied:
  // never committed, or its commit aborted cleanly. A commit whose outcome
  // is unknown (a non-retryable coordinator failure, e.g. a crash between
  // applying and acknowledging) skips it: leaking is safe, reuse is not.
  // The allocator uses this to take back slabs it handed out of a
  // proxy-local reservation.
  void OnAbort(std::function<void()> undo) {
    on_abort_.push_back(std::move(undo));
  }
  ~DynamicTxn();
  DynamicTxn(const DynamicTxn&) = delete;
  DynamicTxn& operator=(const DynamicTxn&) = delete;

  // Mark the transaction as doomed (traversal safety check failed, stale
  // cached pointer, ...). All further operations and Commit return Aborted
  // carrying `reason`, so the retry loop's abort taxonomy sees WHY the
  // transaction died rather than a generic "doomed".
  void MarkAborted(AbortReason reason = AbortReason::kOther) {
    doomed_ = true;
    if (abort_reason_ == AbortReason::kNone) abort_reason_ = reason;
  }
  bool doomed() const { return doomed_; }
  AbortReason abort_reason() const { return abort_reason_; }
  bool committed() const { return committed_; }

  // --- Introspection (B-tree cache refresh, tests) ------------------------
  struct WriteRecord {
    ObjectRef ref;
    // Points into the transaction arena (or caller-stable bytes via
    // WriteStable); valid for the transaction's lifetime.
    Slice payload;
    uint64_t new_seqnum;
  };
  const std::vector<WriteRecord>& write_set() const { return writes_; }
  size_t read_set_size() const { return reads_.size(); }
  // Redirect commit-time validation of an already-read object to a
  // replicated seqnum mirror (the Aguilera baseline's seqnum table). Used
  // when the caller only learns the object's kind — and hence where its
  // seqnum is mirrored — after decoding the fetched bytes.
  void SetReadValidationMirror(const Addr& addr, uint64_t rep_seq_offset) {
    auto it = read_index_.find(addr);
    if (it != read_index_.end()) {
      reads_[it->second].ref.rep_seq_offset = rep_seq_offset;
    }
  }

  // Serve `ref` from the write or read set WITHOUT fetching; nullopt when
  // this transaction has not touched it. The zero-allocation fast path
  // for repeatedly re-read hot objects (the tip pair). The Slice is valid
  // for the transaction's lifetime (it points into pinned images or the
  // arena, not into the record vectors themselves).
  std::optional<Slice> Peek(const ObjectRef& ref) const {
    if (auto it = write_index_.find(ref.addr); it != write_index_.end()) {
      return writes_[it->second].payload;
    }
    if (auto it = read_index_.find(ref.addr); it != read_index_.end()) {
      return reads_[it->second].payload.data;
    }
    return std::nullopt;
  }

  // Addresses in the read set — callers use this to invalidate proxy-cache
  // entries after a validation failure, so retries refetch fresh state.
  std::vector<Addr> ReadSetAddrs() const {
    std::vector<Addr> out;
    out.reserve(reads_.size());
    for (const auto& r : reads_) out.push_back(r.ref.addr);
    return out;
  }
  bool InReadSet(const ObjectRef& ref) const {
    return read_index_.count(ref.addr) != 0;
  }

  ObjectCache* cache() { return cache_; }
  sinfonia::Coordinator* coordinator() { return coord_; }
  // Transaction-lifetime bump allocator: node encodings, object images and
  // staging buffers allocate here so a whole minitransaction's worth of
  // buffers is one malloc in the steady state. Never Reset() while the
  // transaction is live — the write set points into it.
  Arena& arena() { return arena_; }

 private:
  struct ReadRecord {
    ObjectRef ref;
    uint64_t seqnum;
    Payload payload;
  };

  // What one batched-fetch flavor does at each stage. The four public
  // variants are this one skeleton — dedupe → probe local state → ONE
  // minitransaction for the misses → per-entry bookkeeping — with the
  // stages toggled:
  //                     serve_read_set  consult_cache  cache_hit_joins  fill_cache  join_read_set  piggyback
  //   ReadBatch               yes            no              —              no           yes           yes
  //   FetchFreshBatch         no             no              —              no           no            no
  //   DirtyReadBatch          yes            yes             no             yes          no            yes
  //   ReadCachedBatch         yes            yes             yes            yes          yes           yes
  struct BatchPolicy {
    bool serve_read_set;        // read-set hits answer without a fetch
    bool consult_cache;         // probe the proxy cache before fetching
    bool cache_hit_joins_read_set;  // a cache hit joins the read set unfetched
    bool fill_cache;            // fetched entries populate the proxy cache
    bool join_read_set;         // fetched entries join the read set
    bool piggyback;             // validate the read set inside the fetch
  };
  Result<std::vector<Payload>> BatchFetch(
      const std::vector<ObjectRef>& refs, const BatchPolicy& policy);

  // Shared body of the four Write* flavors; `stable` skips the arena dup.
  Status WriteImpl(const ObjectRef& ref, Slice payload, bool fresh,
                   bool stable);

  // Fetch `ref` from a memnode, piggy-backing read-set validation.
  // On validation failure dooms the transaction and returns Aborted.
  Result<ReadRecord> Fetch(const ObjectRef& ref);

  // The Aborted status a doomed transaction answers every operation with,
  // tagged with the reason it was doomed.
  Status DoomedStatus() const {
    return Status::Aborted(
        abort_reason_ == AbortReason::kNone ? AbortReason::kOther
                                            : abort_reason_,
        "transaction doomed");
  }

  // Where a read of `ref` should be served.
  sinfonia::MemnodeId ReadHome(const ObjectRef& ref) const;
  // Add `ref`'s seqnum compare to `mtx`, validating replicated objects at
  // `at` so single-memnode minitransactions stay single-memnode.
  void AddSeqCompare(sinfonia::MiniTxn* mtx, const ReadRecord& rec,
                     sinfonia::MemnodeId at) const;

  sinfonia::Coordinator* coord_;
  ObjectCache* cache_;
  Options options_;
  Arena arena_;

  std::vector<ReadRecord> reads_;
  std::unordered_map<Addr, size_t, sinfonia::AddrHash> read_index_;
  std::vector<WriteRecord> writes_;
  std::unordered_map<Addr, size_t, sinfonia::AddrHash> write_index_;

  // How many reads_ entries the last successful piggy-backed fetch
  // validated. Records that joined the read set AFTER that fetch — cache
  // hits served by ReadCached/ReadCachedBatch with no subsequent
  // minitransaction — have never been checked against a memnode, so the
  // read-only commit shortcut must not trust them (a transaction served
  // 100% from a stale proxy cache would otherwise "commit" fiction).
  size_t validated_reads_ = 0;

  bool doomed_ = false;
  AbortReason abort_reason_ = AbortReason::kNone;
  bool committed_ = false;
  bool outcome_unknown_ = false;  // commit failed non-retryably
  std::vector<std::function<void()>> on_abort_;
};

// Retry loop: run `body` in fresh transactions until it commits or fails
// with a non-retryable status. `body` receives the transaction and returns
// OK to request commit, Aborted to retry immediately, or any other status
// to stop. NotFound and AlreadyExists are returned through WITH a commit:
// a Get that misses (or a strict Insert that hits) is an ANSWER derived
// from possibly-cached reads, so it must pass commit-time validation —
// and retry on a validation abort — before being reported.
template <typename Body>
Status RunTransaction(sinfonia::Coordinator* coord, ObjectCache* cache,
                      DynamicTxn::Options options, uint32_t max_attempts,
                      Body&& body) {
  Status last = Status::Aborted("no attempts");
  for (uint32_t i = 0; i < max_attempts; i++) {
    DynamicTxn txn(coord, cache, options);
    Status st = body(txn);
    bool retryable = false;
    if (st.IsCommittableAnswer()) {
      Status cst = txn.Commit();
      if (cst.ok()) {
        coord->RecordTxnAttempt(st);
        return st;
      }
      if (!cst.IsRetryable()) {
        coord->RecordTxnAttempt(cst);
        return cst;
      }
      last = cst;
      retryable = true;
    } else if (st.IsRetryable()) {
      last = st;
      retryable = true;
    } else {
      coord->RecordTxnAttempt(st);
      return st;
    }
    // Attempt ended retryable: count it (and its taxonomy reason) before
    // looping.
    coord->RecordTxnAttempt(last);
    if (retryable && cache != nullptr) {
      // The failed validation implicates something served from the proxy
      // cache (e.g. a stale tip object); drop the transaction's cached
      // reads so the retry refetches instead of failing identically.
      for (const Addr& a : txn.ReadSetAddrs()) cache->Invalidate(a);
    }
  }
  return last;
}

}  // namespace minuet::txn
