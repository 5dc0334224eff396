// The distributed multiversion B-tree (the paper's core contribution).
//
// Nodes live in Sinfonia slabs and are accessed through dynamic
// transactions. Traversal follows Fig. 5: internal nodes are read with
// DIRTY reads (proxy cache, no validation) and the leaf joins the read set;
// fence keys, height monotonicity and copied-snapshot checks replace
// validation of the path. The Aguilera-et-al. baseline (dirty traversals
// OFF) reads the whole path transactionally and validates internal nodes
// against the replicated sequence-number table.
//
// Writes are copy-on-write against the tip snapshot (§4.1): updating a node
// whose created-snapshot id predates the tip copies it (and its ancestors
// up to, but excluding, the root — the root is re-created at snapshot
// creation time). With branching versions (§5), copies are recorded in the
// bounded descendant set and discretionary copies keep the set within β.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/allocator.h"
#include "btree/node.h"
#include "btree/node_view.h"
#include "btree/retire_list.h"
#include "btree/version_oracle.h"
#include "common/payload.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "txn/txn.h"

namespace minuet::btree {

using alloc::Layout;
using alloc::NodeAllocator;
using txn::DynamicTxn;
using txn::ObjectCache;
using txn::ObjectRef;

struct TreeOptions {
  // Paper §3: traverse internal levels with dirty reads. OFF reproduces the
  // Aguilera baseline (whole path in the read set).
  bool dirty_traversals = true;
  // Aguilera baseline companion: replicate internal-node seqnums at every
  // memnode so path validation can happen at the leaf's memnode. Splits
  // then engage all memnodes.
  bool replicate_internal_seqnums = false;
  // Descendant-set bound β for branching versions (≤ kMaxDescendants).
  uint32_t beta = 2;
  // Retry budget for optimistic B-tree operations.
  uint32_t max_attempts = 10000;
  // Commit snapshot-creation transactions with blocking minitransactions.
  bool blocking_snapshot_commit = true;
};

// A writable tip resolved inside a transaction: operating snapshot id, root
// location, and where the root must be re-published if it moves.
struct TipContext {
  uint64_t sid = 0;
  Addr root;
  enum class Source { kLinearTip, kBranch } source = Source::kLinearTip;
};

// Read-only snapshot handle (returned by snapshot creation).
struct SnapshotRef {
  uint64_t sid = 0;
  Addr root;
};

class BTree {
 public:
  // Operation counters. Sharded obs::Counter cells, so concurrent proxy
  // threads do not contend; read them with .Value(). When several BTree
  // instances serve the same tree slot (one per attached proxy), the
  // TreeCatalog hands them one shared Stats so per-tree rollups aggregate
  // across the whole cluster — pass it via the constructor's
  // `shared_stats`; standalone trees default to a private instance.
  struct Stats {
    obs::Counter op_aborts;
    obs::Counter traversal_aborts;
    obs::Counter cow_copies;
    obs::Counter discretionary_copies;
    obs::Counter splits;
    obs::Counter redirects;
    obs::Counter migrations;  // live slab relocations

    // Link every counter into `registry` under `subsystem`.
    void BindMetrics(obs::MetricsRegistry* registry,
                     const std::string& subsystem) const {
      registry->LinkCounter(subsystem, "op_aborts", &op_aborts);
      registry->LinkCounter(subsystem, "traversal_aborts", &traversal_aborts);
      registry->LinkCounter(subsystem, "cow_copies", &cow_copies);
      registry->LinkCounter(subsystem, "discretionary_copies",
                            &discretionary_copies);
      registry->LinkCounter(subsystem, "splits", &splits);
      registry->LinkCounter(subsystem, "redirects", &redirects);
      registry->LinkCounter(subsystem, "migrations", &migrations);
    }
  };

  BTree(sinfonia::Coordinator* coord, NodeAllocator* allocator,
        ObjectCache* cache, const VersionOracle* oracle, uint32_t tree_slot,
        TreeOptions options, Stats* shared_stats = nullptr);

  // One-time, cluster-wide: initialize tip objects, catalog entry 0 and an
  // empty root leaf. Exactly one proxy calls this per tree.
  Status CreateTree();

  // --- Single-key operations on the (linear) tip snapshot ------------------
  Status Get(const std::string& key, std::string* value);
  Status Put(const std::string& key, const std::string& value);
  // Strict insert: fails with AlreadyExists when the key is present (the
  // distinction CDB draws between its kInsert and kUpsert procedures).
  Status Insert(const std::string& key, const std::string& value);
  Status Remove(const std::string& key);

  // --- Operations on a writable branch tip (branching mode) ---------------
  Status BranchGet(uint64_t branch_sid, const std::string& key,
                   std::string* value);
  Status BranchPut(uint64_t branch_sid, const std::string& key,
                   const std::string& value);
  Status BranchInsert(uint64_t branch_sid, const std::string& key,
                      const std::string& value);
  Status BranchRemove(uint64_t branch_sid, const std::string& key);


  // --- In-transaction variants (multi-key / multi-tree transactions) ------
  // The caller owns the transaction and its commit; these read the tip
  // inside the caller's transaction so everything validates together.
  Status GetInTxn(DynamicTxn& txn, const std::string& key,
                  std::string* value);
  // Batched point reads (the Sinfonia batching the paper's §4.1 argument
  // rests on): every key's leaf address is resolved through shared dirty
  // inner-node descents, then ALL distinct leaves are fetched in ONE
  // minitransaction round and join the read set together. `(*values)[i]`
  // is nullopt when `keys[i]` is absent. O(1) leaf-read coordinator rounds
  // instead of one per key.
  Status MultiGetInTxn(DynamicTxn& txn, const std::vector<std::string>& keys,
                       std::vector<std::optional<std::string>>* values);
  Status PutInTxn(DynamicTxn& txn, const std::string& key,
                  const std::string& value);
  // CAUTION: an AlreadyExists return must still COMMIT the enclosing
  // transaction (the answer comes from cached reads and needs commit-time
  // validation — RunTransaction handles this). In a multi-op transaction,
  // settle strict-insert existence via GetInTxn BEFORE buffering writes,
  // or the commit installs a partial result (see Proxy::Apply).
  Status InsertInTxn(DynamicTxn& txn, const std::string& key,
                     const std::string& value);
  Status RemoveInTxn(DynamicTxn& txn, const std::string& key);

  // --- Read-only snapshot operations (§4.2: no validation, fence-key and
  // copied-snapshot checks only; traversals follow copies when stale) ------
  Status SnapshotGet(const SnapshotRef& snap, const std::string& key,
                     std::string* value);
  // Batched snapshot point reads: same leaf grouping as MultiGetInTxn but
  // with §4.2 semantics — nothing joins a read set, fence-key and
  // copied-snapshot checks replace validation, no commit needed.
  Status SnapshotMultiGet(const SnapshotRef& snap,
                          const std::vector<std::string>& keys,
                          std::vector<std::optional<std::string>>* values);
  // Scan up to `limit` pairs starting at `start_key` (inclusive).
  Status SnapshotScan(const SnapshotRef& snap, const std::string& start_key,
                      size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out);
  // One cursor step: read a single leaf's worth of pairs starting at
  // `start_key` (at most `limit`). On return `*resume_key` is where the
  // next chunk begins — empty once the scan is exhausted. Streaming scans
  // (minuet::Cursor) chain chunks so a long scan never materializes.
  Status SnapshotScanChunk(const SnapshotRef& snap,
                           const std::string& start_key, size_t limit,
                           std::vector<std::pair<std::string, std::string>>*
                               out,
                           std::string* resume_key);

  // Strictly serializable scan against the tip: every leaf joins the read
  // set, so concurrent updates within the range abort the scan. This is the
  // operation the paper shows "may never commit" without snapshots.
  Status TipScan(const std::string& start_key, size_t limit,
                 std::vector<std::pair<std::string, std::string>>* out);

  // One contiguous slice of a scan range, tagged with the memnode that owns
  // the root-child subtree covering it — the unit of scan fan-out.
  struct ScanPartition {
    std::string start;  // inclusive ("" = from the range start)
    std::string end;    // exclusive ("" = to the range end / +infinity)
    sinfonia::MemnodeId home = 0;
  };
  // Split [start, end) of `snap` into disjoint, key-ordered partitions by
  // descending up to `max_levels` internal levels (1 = the root's child
  // subtrees; 2 = their children, the default) with the level-synchronized
  // batched descent — every level costs ONE coordinator round no matter
  // how many subtrees it holds. Each partition is tagged with the memnode
  // owning its subtree (or leaf), so deeper cuts give finer per-memnode
  // balance for fan-out scans. A single-leaf tree yields one partition.
  Result<std::vector<ScanPartition>> PartitionRange(const SnapshotRef& snap,
                                                    const std::string& start,
                                                    const std::string& end,
                                                    uint32_t max_levels = 2);

  // Warm the proxy cache along the root-to-leaf path of every key in
  // `keys` on `snap`, with ONE level-synchronized frontier descent: a cold
  // cache pays ~depth batched rounds for ANY number of keys, a warm cache
  // pays nothing. Fan-out scans call this with their partition start keys
  // before spawning workers, so no worker descends serially from the root
  // on its first chunk after a cache drop. Best-effort: a persistent abort
  // is returned but safe to ignore (workers fall back to cold descents).
  Status PrewarmSnapshotPaths(const SnapshotRef& snap,
                              const std::vector<std::string>& keys);

  // Number of levels (including the leaf level) on the current tip's
  // root-to-leaf paths. Diagnostic aid for the cold-descent round budgets
  // asserted in tests and printed by bench/abl_cold_descent.
  Result<uint32_t> Depth();

  // --- Live migration (src/rebalance, bench) — migrate.cc ------------------
  // One tip-reachable node and how to find it again: `routing_key` is a key
  // whose root-to-leaf path passes through the node, so a later traversal
  // can re-locate it (or discover it moved).
  struct NodePlacement {
    Addr addr;
    std::string routing_key;
    uint8_t height = 0;
  };
  // Enumerate every node reachable from the current linear tip with a
  // level-synchronized frontier walk (ONE batched round per level on a
  // cold cache). The listing is a placement snapshot, not a consistent cut:
  // concurrent writers may move nodes under it, which migration tolerates
  // (a stale entry is skipped, not mis-moved).
  Status CollectTipPlacement(std::vector<NodePlacement>* out);

  // Live-migrate the node at `expected` to memnode `dest`: allocate a slab
  // at the destination, copy the node's content (version metadata and all)
  // as a copy-on-write into the CURRENT tip snapshot, record the copy on
  // the source node, and swing the parent's child pointer (or re-publish
  // the root) through the ordinary CoW machinery — all in one dynamic
  // transaction with optimistic retry. The SOURCE slab stays intact: it
  // keeps serving snapshot readers below the tip and is reclaimed by the
  // MVCC garbage collector once the snapshot horizon passes the migration
  // sid. Sets `*migrated` false (with OK) when the node is no longer where
  // the placement snapshot saw it — moved, split, copied or already on
  // `dest` — since rebalancing treats that as "nothing to do", not failure.
  // Linear tips only (branching version trees are not rebalanced, matching
  // the GC's scope).
  Status MigrateNode(const NodePlacement& expected, sinfonia::MemnodeId dest,
                     bool* migrated);
  Status MigrateNodeInTxn(DynamicTxn& txn, const NodePlacement& expected,
                          sinfonia::MemnodeId dest, bool* migrated);

  // One buffered write for ApplyWritesInTxn. Strict-insert existence must
  // be settled by the caller BEFORE applying (see Proxy::Apply): here an
  // insert is a put, and a remove of an absent key is a tolerated no-op.
  struct WriteOp {
    enum class Kind : uint8_t { kPut, kRemove };
    Kind kind = Kind::kPut;
    std::string key;
    std::string value;
  };
  // Apply a batch of writes to the tip inside the caller's transaction,
  // with the batched cold path and per-leaf dedupe: all target leaves are
  // resolved with ONE level-synchronized descent (O(depth) rounds on a
  // cold cache) and fetched into the read set in ONE round (one commit
  // compare per leaf, not per key), then ops are applied grouped per leaf
  // — one traversal + one leaf mutation per flush instead of one per key.
  Status ApplyWritesInTxn(DynamicTxn& txn, const std::vector<WriteOp>& ops);

  // --- In-transaction branch-tip writes (branching mode) -------------------
  // WriteBatch routing and multi-key transactions against a writable
  // branch: the branch's writability is read (and validated) inside the
  // caller's transaction, and the mutations ride the same batched
  // ApplyWritesInTxn machinery as linear-tip batches. Remove here is BLIND
  // (absent keys are tolerated, matching WriteOp semantics); use
  // BranchRemove for the NotFound-reporting single op.
  Status BranchApplyWritesInTxn(DynamicTxn& txn, uint64_t branch_sid,
                                const std::vector<WriteOp>& ops);
  Status BranchPutInTxn(DynamicTxn& txn, uint64_t branch_sid,
                        const std::string& key, const std::string& value);
  Status BranchRemoveInTxn(DynamicTxn& txn, uint64_t branch_sid,
                           const std::string& key);

  // --- Snapshot creation (Fig. 6; called via the mvcc snapshot service) ----
  // Freezes the current tip and installs tip id + 1. Returns the frozen
  // (read-only) snapshot. The whole effect takes place when `txn` commits.
  Result<SnapshotRef> CreateSnapshotInTxn(DynamicTxn& txn);

  // --- Tip plumbing (shared with mvcc/version modules) ---------------------
  Result<TipContext> ReadTipInTxn(DynamicTxn& txn);
  Result<TipContext> ReadBranchTipInTxn(DynamicTxn& txn, uint64_t branch_sid,
                                        bool for_write);
  // Invalidate the proxy-cached tip objects (called after aborts so the
  // retry refetches them).
  void InvalidateTipCache();

  // Resolve a read-only snapshot's root by following recorded root copies —
  // used by readers that only know the sid (branch catalog lookups).
  Result<Addr> BranchRootInTxn(DynamicTxn& txn, uint64_t sid);

  // Copy-on-write of an arbitrary node into snapshot `sid` (used by branch
  // creation to copy the root eagerly). Returns the copy's address.
  Result<Addr> CopyNodeInTxn(DynamicTxn& txn, Addr node_addr, uint64_t sid,
                             bool record_copy);

  const Stats& stats() const { return *stats_; }
  const Layout& layout() const { return allocator_->layout(); }
  uint32_t tree_slot() const { return tree_slot_; }
  const TreeOptions& options() const { return options_; }
  sinfonia::Coordinator* coordinator() { return coord_; }
  ObjectCache* cache() { return cache_; }
  NodeAllocator* allocator() { return allocator_; }
  // Replace the ancestry oracle (installed by the version manager when a
  // tree is switched to branching mode).
  void set_oracle(const VersionOracle* oracle) { oracle_ = oracle; }
  // Append every real copy this instance records to `retired` (linear
  // trees; the slot's GarbageCollector owns the list). Set before the
  // instance is shared; nullptr (the default) records nothing.
  void set_retire_list(RetireList* retired) { retired_ = retired; }

 private:
  enum class TraverseMode {
    kUpToDate,      // leaf joins the read set; abort on applicable copies
    kSnapshotRead,  // nothing joins the read set; follow applicable copies
  };

  // A fetched node on the read path: the pinned image bytes plus the
  // zero-copy view over them. No entry is materialized — mutation paths
  // call view.ToNode() explicitly.
  struct FetchedNode {
    Payload raw;
    NodeView view;
  };

  struct PathEntry {
    // Where the node's content lives. When the traversal followed a
    // discretionary copy (content-identical, §5.2), this is the copy.
    Addr addr;
    // The address the PARENT's child entry holds — the entry point of the
    // redirect chain. Equal to `addr` unless a discretionary hop happened.
    Addr link_addr;
    // The node content, zero-copy: `raw` pins the image (read set, proxy
    // cache or fetch), `view` answers every read-side query over it.
    Payload raw;
    NodeView view;
  };

  ObjectRef NodeRef(Addr addr, bool internal) const;
  uint32_t capacity() const { return layout().slab_payload_len(); }

  // Fetch a node as a zero-copy view. `as_leaf` selects the access path
  // (dirty/cached vs validated leaf read). An undecodable image — a freed
  // or garbage slab reached through a stale pointer — surfaces as
  // Corruption, as does a pointer into a retired memnode.
  Result<FetchedNode> FetchView(DynamicTxn& txn, Addr addr, bool as_leaf,
                                TraverseMode mode);

  // Fig. 5 traversal plus the §4.2/§5.2 version checks. On success the
  // returned path runs root → leaf. Aborts (Status::Aborted) on any safety
  // check failure after invalidating implicated cache entries.
  Result<std::vector<PathEntry>> Traverse(DynamicTxn& txn, uint64_t sid,
                                          Addr root, const Slice& key,
                                          TraverseMode mode);

  // --- Batched (level-synchronized) descent engine — descent.cc -----------
  // The shared abort discipline of every batched descent: invalidate the
  // implicated address plus everything the descent leaned on (`visited`),
  // count the abort, and doom the transaction — same rules as Traverse.
  Status AbortDescent(DynamicTxn& txn, Addr at,
                      const std::vector<Addr>& visited, const char* reason,
                      AbortReason why = AbortReason::kStaleCachePointer);
  // The §4.2/§5.2 node-settling checks shared by the batched descents:
  // verify version lineage, follow discretionary-copy redirects with
  // (cached) point hops — `*hop` is the caller's scratch storage, `*node`
  // is repointed at it after a hop so the no-redirect common path stays
  // zero-copy — and abort on an applicable real copy. On return `*at`
  // names the settled content address; hop addresses join `visited`.
  Status SettleNodeForSid(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                          const NodeView** node, FetchedNode* hop, Addr* at,
                          std::vector<Addr>* visited);
  // --- The shared frontier-visitor (descent.cc) ----------------------------
  // One pending node of a level-synchronized walk: the address its PARENT
  // holds (what a later traversal must find in the parent again), the
  // height the parent promised (-1: unknown, the root), and an opaque
  // consumer handle — typically an index into consumer-side payload
  // storage (a key, a routing key, a clipped scan range).
  struct FrontierItem {
    Addr addr;
    int expected_height = -1;
    size_t tag = 0;
  };
  struct FrontierCallbacks {
    // A leaf. Either promised by the parent's entry (`node == nullptr`,
    // `at == item.addr` — the frontier never fetches leaves; consumers
    // refetch them with the read discipline their mode requires) or reached
    // through the internal-read path (root == leaf, or a redirect): then
    // `node` is the settled content, `at` its address, and the engine has
    // already scrubbed it from the proxy cache.
    std::function<Status(const FrontierItem&, const NodeView* node, Addr at)>
        on_leaf;
    // A settled internal node with at least one child. `level` counts fetch
    // rounds from the roots (0-based). Push next-level items into `next` —
    // or none, to cut the walk below this node.
    std::function<Status(const FrontierItem&, const NodeView& node, Addr at,
                         uint32_t level, std::vector<FrontierItem>* next)>
        on_internal;
  };
  // The engine shared by every exhaustive or multi-key walk —
  // ResolveLeafGroups (per-key descents), PartitionRange (scan
  // partitioning), CollectTipPlacement (rebalancer/drain placement): the
  // whole frontier advances one level at a time, each level's distinct
  // nodes are fetched in ONE batched minitransaction round (DirtyReadBatch
  // filling the cache — or, with `validated_path`, the Aguilera baseline's
  // ReadCachedBatch joining the read set with seqnum-table mirrors), each
  // node is decoded once, and every item settles through the §4.2/§5.2
  // version checks (SettleNodeForSid) and the promised-height check before
  // dispatching to the callbacks. Aborts (Status::Aborted) invalidate every
  // implicated cache entry, exactly like Traverse; `visited` (caller-owned)
  // collects every address the walk leaned on, so callbacks and the
  // caller's own later aborts extend the same invalidation discipline.
  Status VisitFrontier(DynamicTxn& txn, uint64_t sid, TraverseMode mode,
                       bool validated_path, std::vector<FrontierItem> level,
                       const FrontierCallbacks& cb,
                       std::vector<Addr>* visited);
  // Map a batch-fetch failure onto the abort discipline when it was caused
  // by a stale pointer to a RETIRED memnode (elastic scale-in): retirement
  // guarantees the node held no live slab, so any pointer at it is stale by
  // definition — invalidate and retry, instead of surfacing Unavailable.
  Status MaybeRetiredAbort(DynamicTxn& txn, Status st,
                           const std::vector<ObjectRef>& refs,
                           const std::vector<Addr>& visited);

  // Keys that resolved to the same leaf, in key-index order. `addr` is the
  // leaf's content address (after any discretionary hops of the inner
  // descent; leaf-level hops are re-checked by the consumer's fetch).
  struct LeafGroup {
    Addr addr;
    std::vector<size_t> key_idx;
  };
  // The shared cold-path engine: resolve every key's leaf address with a
  // BFS frontier that walks ALL keys one level at a time. At each level,
  // the distinct nodes no cache can serve are fetched in ONE batched
  // minitransaction round (DirtyReadBatch — or ReadCachedBatch in the
  // Aguilera baseline, where internal nodes join the read set), each node
  // is decoded once, and every key advances through it under the Fig. 5 /
  // §4.2 / §5.2 safety checks. A cold cache therefore pays ~depth rounds
  // for ANY number of keys; a warm cache pays nothing, exactly as before.
  // Discretionary-copy redirects fall back to (cached) point hops. Aborts
  // (Status::Aborted) invalidate every implicated cache entry, like
  // Traverse. Leaves are NOT fetched (only grouped): consumers batch-fetch
  // them with the read discipline their mode requires. When `visited_out`
  // is non-null it collects every address the descent leaned on, so the
  // caller's own later aborts can extend the same invalidation discipline.
  Status ResolveLeafGroups(DynamicTxn& txn, uint64_t sid, Addr root,
                           TraverseMode mode,
                           const std::vector<std::string>& keys,
                           std::vector<LeafGroup>* groups,
                           std::vector<Addr>* visited_out);

  // Shared body of MultiGetInTxn / SnapshotMultiGet: resolve every key's
  // leaf with ResolveLeafGroups, batch-fetch all distinct leaves in one
  // minitransaction, then run the per-leaf safety checks (§4.2/§5.2
  // version checks, fences, height) that Traverse would have run,
  // aborting for retry on any failure.
  Status MultiGetAt(DynamicTxn& txn, uint64_t sid, Addr root,
                    TraverseMode mode, const std::vector<std::string>& keys,
                    std::vector<std::optional<std::string>>* values);

  // Shared body of ApplyWritesInTxn / BranchApplyWritesInTxn (descent.cc):
  // with `branch`, every tip read resolves the branch catalog entry for
  // `branch_sid` (validated, writable-checked) instead of the linear tip.
  Status ApplyWritesToTip(DynamicTxn& txn, const std::vector<WriteOp>& ops,
                          bool branch, uint64_t branch_sid);

  // Shared body of the four put/insert entry points: traverse to the leaf
  // under `tip` and upsert `key`; with `strict`, fail AlreadyExists when
  // the key is present.
  Status UpsertLeafInTxn(DynamicTxn& txn, const TipContext& tip,
                         const std::string& key, const std::string& value,
                         bool strict);

  // Write back a modified leaf (path.back()), performing copy-on-write,
  // splits and parent updates as needed; re-publishes the root if it moves
  // or splits.
  Status ApplyLeafMutation(DynamicTxn& txn, const TipContext& tip,
                           std::vector<PathEntry>& path, Node leaf);

  // Record that `old_addr` (content `old_node`) has been copied to
  // snapshot `sid` at `copy_addr`, maintaining the β-bounded descendant-set
  // invariant with discretionary copies. Writes the old node.
  Status RecordCopy(DynamicTxn& txn, Addr old_addr, Node old_node,
                    uint64_t sid, Addr copy_addr);

  // Allocate a slab (load-aware placement) and write `node` into it.
  Result<Addr> WriteFreshNode(DynamicTxn& txn, const Node& node);
  // Same, but on a caller-chosen memnode (live migration placement).
  Result<Addr> WriteFreshNodeAt(DynamicTxn& txn, const Node& node,
                                sinfonia::MemnodeId memnode);

  Status PublishRoot(DynamicTxn& txn, const TipContext& tip, Addr new_root);

  Status CheckKeyValue(const std::string& key, const std::string& value) const;

  // Fails with InvalidArgument when `sid` precedes the published
  // garbage-collection horizon (such snapshots are no longer queryable).
  Status CheckGcHorizon(uint64_t sid);

  // Retry wrapper for whole-operation optimistic retry.
  template <typename Body>
  Status RunOp(Body&& body);

  // Retry wrapper for validation-free snapshot reads (§4.2): `body` runs
  // in a fresh fetch-only transaction per attempt (no commit), retryable
  // aborts back off, and the GC horizon is consulted periodically so reads
  // below it fail fast with InvalidArgument instead of retrying forever.
  template <typename Body>
  Status RunSnapshotOp(uint64_t sid, Body&& body);

  sinfonia::Coordinator* coord_;
  NodeAllocator* allocator_;
  ObjectCache* cache_;
  const VersionOracle* oracle_;
  uint32_t tree_slot_;
  TreeOptions options_;
  // Private fallback storage; stats_ points here unless the constructor was
  // handed a catalog-shared Stats (see Stats doc above).
  mutable Stats own_stats_;
  Stats* stats_;
  RetireList* retired_ = nullptr;
};

// Encoders for the small tip/catalog payloads (shared with mvcc/version).
// Decoders take Slices so both owned strings and zero-copy views decode
// without a staging copy.
std::string EncodeTipId(uint64_t sid);
uint64_t DecodeTipId(Slice payload);
std::string EncodeRootLoc(Addr root);
Addr DecodeRootLoc(Slice payload);

// Retry wrapper for whole-operation optimistic retry: defined here so the
// batched-descent entry points in descent.cc can instantiate it too.
template <typename Body>
Status BTree::RunOp(Body&& body) {
  Status last = Status::Aborted("no attempts");
  for (uint32_t attempt = 0; attempt < options_.max_attempts; attempt++) {
    DynamicTxn txn(coord_, cache_);
    Status st = body(txn);
    // A stale cache must not refuse an Insert or invent a miss: answers
    // commit (validating the read set) before being reported, and retry
    // if validation aborts.
    if (st.IsCommittableAnswer()) {
      Status cst = txn.Commit();
      if (cst.ok()) {
        coord_->RecordTxnAttempt(st);
        return st;
      }
      if (!cst.IsRetryable()) {
        coord_->RecordTxnAttempt(cst);
        return cst;
      }
      last = cst;
    } else if (st.IsRetryable()) {
      last = st;
    } else {
      coord_->RecordTxnAttempt(st);
      return st;
    }
    coord_->RecordTxnAttempt(last);
    stats_->op_aborts.Increment();
    // The failed validation implicates something the transaction read from
    // the proxy cache (the tip objects, or — with dirty traversals off —
    // cached internal nodes). Drop them all so the retry refetches.
    if (cache_ != nullptr) {
      for (const Addr& a : txn.ReadSetAddrs()) cache_->Invalidate(a);
    }
    InvalidateTipCache();
    // Persistent conflicts on an oversubscribed host: let the conflicting
    // writer actually run before retrying (see Coordinator::Execute).
    if (attempt >= 3) {
      // lint:allow(sleep-in-src): bounded contention backoff inside the
      // retry loop; there is no event to wait on, only a conflicting
      // writer that needs CPU time to finish.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return last;
}

// The shared retry skeleton of every validation-free snapshot read: a
// fresh fetch-only transaction per attempt (no commit, §4.2), backoff on
// persistent aborts, and a periodic horizon check so reads below the GC
// horizon fail fast instead of retrying to exhaustion.
template <typename Body>
Status BTree::RunSnapshotOp(uint64_t sid, Body&& body) {
  Status last = Status::Aborted("no attempts");
  for (uint32_t attempt = 0; attempt < options_.max_attempts; attempt++) {
    DynamicTxn txn(coord_, cache_);
    Status st = body(txn);
    if (st.ok() || !st.IsRetryable()) {
      coord_->RecordTxnAttempt(st);
      return st;
    }
    last = st;
    coord_->RecordTxnAttempt(last);
    stats_->op_aborts.Increment();
    if (attempt % 64 == 5) MINUET_RETURN_NOT_OK(CheckGcHorizon(sid));
    if (attempt >= 3) {
      // lint:allow(sleep-in-src): bounded contention backoff inside the
      // retry loop; there is no event to wait on, only a conflicting
      // writer that needs CPU time to finish.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return last;
}

struct CatalogEntry {
  Addr root;
  uint64_t branch_id = 0;  // first branch created from this snapshot; 0=none
  uint64_t parent = kNoParent;
  uint32_t branch_count = 0;

  static constexpr uint64_t kNoParent = ~0ULL;
};
std::string EncodeCatalogEntry(const CatalogEntry& e);
CatalogEntry DecodeCatalogEntry(Slice payload);

}  // namespace minuet::btree
