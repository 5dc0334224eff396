#include "btree/tree.h"
#include <cstdlib>
#include <cstdio>

#include <cassert>
#include <chrono>
#include <thread>

#include "common/byteio.h"

namespace minuet::btree {

// ---------------------------------------------------------------------------
// Small payload codecs

std::string EncodeTipId(uint64_t sid) {
  std::string out;
  PutFixed64(&out, sid);
  return out;
}

uint64_t DecodeTipId(Slice payload) {
  return payload.size() >= 8 ? DecodeFixed64(payload.data()) : 0;
}

std::string EncodeRootLoc(Addr root) {
  std::string out;
  PutFixed32(&out, root.memnode);
  PutFixed64(&out, root.offset);
  return out;
}

Addr DecodeRootLoc(Slice payload) {
  if (payload.size() < 12) return sinfonia::kNullAddr;
  Addr a;
  a.memnode = DecodeFixed32(payload.data());
  a.offset = DecodeFixed64(payload.data() + 4);
  return a;
}

std::string EncodeCatalogEntry(const CatalogEntry& e) {
  std::string out;
  PutFixed32(&out, e.root.memnode);
  PutFixed64(&out, e.root.offset);
  PutFixed64(&out, e.branch_id);
  PutFixed64(&out, e.parent);
  PutFixed32(&out, e.branch_count);
  return out;
}

CatalogEntry DecodeCatalogEntry(Slice payload) {
  CatalogEntry e;
  if (payload.size() < 32) return e;
  e.root.memnode = DecodeFixed32(payload.data());
  e.root.offset = DecodeFixed64(payload.data() + 4);
  e.branch_id = DecodeFixed64(payload.data() + 12);
  e.parent = DecodeFixed64(payload.data() + 20);
  e.branch_count = DecodeFixed32(payload.data() + 28);
  return e;
}

// ---------------------------------------------------------------------------
// Construction & bootstrap

BTree::BTree(sinfonia::Coordinator* coord, NodeAllocator* allocator,
             ObjectCache* cache, const VersionOracle* oracle,
             uint32_t tree_slot, TreeOptions options, Stats* shared_stats)
    : coord_(coord),
      allocator_(allocator),
      cache_(cache),
      oracle_(oracle),
      tree_slot_(tree_slot),
      options_(options),
      stats_(shared_stats != nullptr ? shared_stats : &own_stats_) {
  assert(options_.beta >= 1 && options_.beta <= kMaxDescendants);
}

ObjectRef BTree::NodeRef(Addr addr, bool internal) const {
  ObjectRef ref = layout().SlabRef(addr);
  if (internal && options_.replicate_internal_seqnums) {
    ref.rep_seq_offset = layout().SeqSlotFor(addr);
  }
  return ref;
}

Status BTree::CheckKeyValue(const std::string& key,
                            const std::string& value) const {
  if (key.empty()) return Status::InvalidArgument("empty key");
  const size_t max_entry = MaxEntryBytes(capacity());
  if (key.size() + value.size() > max_entry) {
    return Status::InvalidArgument("entry exceeds node capacity");
  }
  return Status::OK();
}

Status BTree::CreateTree() {
  return txn::RunTransaction(
      coord_, cache_, {}, options_.max_attempts,
      [&](DynamicTxn& txn) -> Status {
        Node root;
        root.height = 0;
        root.created_sid = 0;
        auto root_addr = WriteFreshNode(txn, root);
        if (!root_addr.ok()) return root_addr.status();
        MINUET_RETURN_NOT_OK(
            txn.WriteNew(layout().TipIdRef(tree_slot_), EncodeTipId(0)));
        MINUET_RETURN_NOT_OK(txn.WriteNew(layout().TipRootRef(tree_slot_),
                                          EncodeRootLoc(*root_addr)));
        MINUET_RETURN_NOT_OK(
            txn.WriteNew(layout().NextSidRef(tree_slot_), EncodeTipId(1)));
        MINUET_RETURN_NOT_OK(
            txn.WriteNew(layout().LowestSidRef(tree_slot_), EncodeTipId(0)));
        CatalogEntry entry;
        entry.root = *root_addr;
        return txn.WriteNew(layout().CatalogRef(tree_slot_, 0),
                            EncodeCatalogEntry(entry));
      });
}

// ---------------------------------------------------------------------------
// Tip plumbing

Result<TipContext> BTree::ReadTipInTxn(DynamicTxn& txn) {
  // The proxy validates its CACHED tip copy (paper §4.1): no fetch in the
  // common case, and commit/leaf-fetch validation catches staleness. On a
  // cold cache the pair is fetched in ONE batched round, not two; when
  // this transaction already read (or wrote) the pair — every re-read
  // after the first, e.g. ApplyWritesInTxn's flush loop — it is served
  // straight from the read/write set with no batch machinery.
  const ObjectRef id_ref = layout().TipIdRef(tree_slot_);
  const ObjectRef root_ref = layout().TipRootRef(tree_slot_);
  TipContext tip;
  const std::optional<Slice> id_raw = txn.Peek(id_ref);
  const std::optional<Slice> root_raw = txn.Peek(root_ref);
  if (id_raw && root_raw) {
    tip.sid = DecodeTipId(*id_raw);
    tip.root = DecodeRootLoc(*root_raw);
  } else {
    auto raw = txn.ReadCachedBatchViews({id_ref, root_ref});
    if (!raw.ok()) return raw.status();
    tip.sid = DecodeTipId((*raw)[0].data);
    tip.root = DecodeRootLoc((*raw)[1].data);
  }
  tip.source = TipContext::Source::kLinearTip;
  if (tip.root == sinfonia::kNullAddr) {
    return Status::InvalidArgument("tree not created");
  }
  return tip;
}

Result<TipContext> BTree::ReadBranchTipInTxn(DynamicTxn& txn,
                                             uint64_t branch_sid,
                                             bool for_write) {
  auto raw = txn.ReadCachedView(layout().CatalogRef(tree_slot_, branch_sid));
  if (!raw.ok()) return raw.status();
  const CatalogEntry entry = DecodeCatalogEntry(raw->data);
  if (entry.root == sinfonia::kNullAddr) {
    return Status::NotFound("no such snapshot");
  }
  if (for_write && entry.branch_id != 0) {
    // A branch has been created from this snapshot: it is read-only now.
    // (The cached entry may be stale the other way — claiming writable when
    // it is not — but then the commit-time validation of this catalog read
    // aborts the transaction, which is exactly the paper's §5.1 rule.)
    return Status::ReadOnly("snapshot has branches");
  }
  TipContext tip;
  tip.sid = branch_sid;
  tip.root = entry.root;
  tip.source = TipContext::Source::kBranch;
  return tip;
}

void BTree::InvalidateTipCache() {
  if (cache_ == nullptr) return;
  cache_->Invalidate(layout().TipIdRef(tree_slot_).addr);
  cache_->Invalidate(layout().TipRootRef(tree_slot_).addr);
}

Result<Addr> BTree::BranchRootInTxn(DynamicTxn& txn, uint64_t sid) {
  auto raw = txn.ReadCachedView(layout().CatalogRef(tree_slot_, sid));
  if (!raw.ok()) return raw.status();
  const CatalogEntry entry = DecodeCatalogEntry(raw->data);
  if (entry.root == sinfonia::kNullAddr) {
    return Status::NotFound("no such snapshot");
  }
  return entry.root;
}

Status BTree::PublishRoot(DynamicTxn& txn, const TipContext& tip,
                          Addr new_root) {
  if (tip.source == TipContext::Source::kLinearTip) {
    return txn.Write(layout().TipRootRef(tree_slot_),
                     EncodeRootLoc(new_root));
  }
  const ObjectRef ref = layout().CatalogRef(tree_slot_, tip.sid);
  auto raw = txn.ReadView(ref);  // read-set hit: already validated
  if (!raw.ok()) return raw.status();
  CatalogEntry entry = DecodeCatalogEntry(raw->data);
  entry.root = new_root;
  return txn.Write(ref, EncodeCatalogEntry(entry));
}

// ---------------------------------------------------------------------------
// Node fetch & traversal

Result<BTree::FetchedNode> BTree::FetchView(DynamicTxn& txn, Addr addr,
                                            bool as_leaf, TraverseMode mode) {
  Result<Payload> raw = Status::Aborted("");
  if (as_leaf) {
    // Leaves are never served from the proxy cache.
    raw = mode == TraverseMode::kUpToDate
              ? txn.ReadView(NodeRef(addr, /*internal=*/false))
              : txn.FetchFreshView(NodeRef(addr, /*internal=*/false));
  } else if (options_.dirty_traversals || mode == TraverseMode::kSnapshotRead) {
    raw = txn.DirtyReadView(NodeRef(addr, /*internal=*/true));
  } else {
    // Aguilera baseline: the whole path joins the read set; internal nodes
    // come from the proxy cache and validate against the replicated seqnum
    // table at commit. The node's kind is only known after the header is
    // parsed, so fetch with a plain ref and upgrade the mirror below.
    raw = txn.ReadCachedView(layout().SlabRef(addr));
  }
  if (!raw.ok()) {
    if (raw.status().IsUnavailable() && coord_->retired(addr.memnode)) {
      // A pointer at a RETIRED memnode (elastic scale-in) is stale by
      // definition — retirement guarantees the node held no live slab.
      // Surface it as Corruption so every caller's existing stale-pointer
      // conversion (invalidate the path, abort, retry) applies, instead of
      // failing the operation with a permanent Unavailable.
      return Status::Corruption("pointer to a retired memnode");
    }
    return raw.status();
  }
  FetchedNode out;
  out.raw = std::move(raw).value();
  const Status init = out.view.Init(out.raw.data);
  if (!init.ok()) {
    if (std::getenv("MINUET_DEBUG") != nullptr && out.raw.size() >= 4) {
      const char* b = out.raw.data.data();
      std::fprintf(stderr,
                   "[minuet] undecodable node at %s (as_leaf=%d len=%zu "
                   "first4=%02x%02x%02x%02x)\n",
                   addr.ToString().c_str(), as_leaf, out.raw.size(),
                   static_cast<unsigned char>(b[0]),
                   static_cast<unsigned char>(b[1]),
                   static_cast<unsigned char>(b[2]),
                   static_cast<unsigned char>(b[3]));
    }
    // A view-init failure (freed or garbage slab reached through a stale
    // pointer) surfaces as Corruption; the traversal converts it into an
    // abort that invalidates the WHOLE cached path, so the retry cannot
    // walk the same dead pointer again.
    return init;
  }
  if (!out.view.is_leaf() && !as_leaf && !options_.dirty_traversals &&
      mode == TraverseMode::kUpToDate &&
      options_.replicate_internal_seqnums) {
    txn.SetReadValidationMirror(addr, layout().SeqSlotFor(addr));
  }
  return out;
}

Result<std::vector<BTree::PathEntry>> BTree::Traverse(DynamicTxn& txn,
                                                      uint64_t sid, Addr root,
                                                      const Slice& key,
                                                      TraverseMode mode) {
  std::vector<PathEntry> path;
  // Every traversal abort is, at bottom, a stale cached pointer or node
  // image — except the retired-memnode case, which gets its own taxonomy
  // bucket (the caller passes it explicitly).
  auto abort = [&](Addr at, const char* reason,
                   AbortReason why =
                       AbortReason::kStaleCachePointer) -> Status {
    if (cache_ != nullptr) {
      cache_->Invalidate(at);
      for (const PathEntry& p : path) cache_->Invalidate(p.addr);
    }
    stats_->traversal_aborts.Increment();
    txn.MarkAborted(why);
    return Status::Aborted(why, reason);
  };

  Addr addr = root;
  // The address this level was ENTERED at (what the parent points to);
  // differs from `addr` after a discretionary-copy hop.
  Addr link_addr = root;
  int expected_height = -1;  // unknown until the first node is decoded
  // Bound redirect/descent loops defensively (a cyclic corruption would
  // otherwise hang the proxy).
  for (int steps = 0; steps < 256; steps++) {
    const bool known_leaf = expected_height == 0;
    auto fetched = FetchView(txn, addr, known_leaf, mode);
    if (!fetched.ok()) {
      if (fetched.status().IsCorruption()) {
        return abort(addr, "undecodable node (stale pointer)",
                     coord_->retired(addr.memnode)
                         ? AbortReason::kRetiredMemnode
                         : AbortReason::kStaleCachePointer);
      }
      return fetched.status();
    }
    FetchedNode fn = std::move(fetched).value();
    const NodeView& node = fn.view;

    // -- Version checks (§4.2, §5.2) --------------------------------------
    if (!oracle_->IsAncestorOrEqual(node.created_sid(), sid)) {
      return abort(addr, "node from a different version lineage");
    }
    DescendantEntry applicable_entry;
    bool has_applicable = false;
    for (size_t di = 0; di < node.descendant_count(); di++) {
      const DescendantEntry d = node.descendant(di);
      if (oracle_->IsAncestorOrEqual(d.sid, sid)) {
        applicable_entry = d;
        has_applicable = true;
        break;
      }
    }
    if (has_applicable) {
      const DescendantEntry* applicable = &applicable_entry;
      if (applicable->discretionary) {
        // Discretionary copies (§5.2) exist only to bound descendant sets;
        // they are content-identical but carry the folded-away real-copy
        // records, so EVERY traversal must consult them: follow the copy
        // (parents keep pointing at the chain's entry — remembered in
        // link_addr — because nothing ever links to a discretionary copy).
        // Safe with respect to GC: discretionary copies belong to
        // branching histories, which the collector does not reclaim.
        stats_->redirects.Increment();
        addr = applicable->copy_addr;
        continue;
      }
      // A real copy applies: the traversal came through stale pointers;
      // a fresh retry reaches the copy through current parents (every
      // copy updates its whole ancestor chain atomically). Following the
      // copy pointer directly is NOT safe: intermediate links of a copy
      // chain may already be garbage-collected even when this snapshot
      // itself is still retained.
      return abort(addr, "node copied for this or an earlier snapshot");
    }

    // -- Structural safety checks (Fig. 5) ---------------------------------
    if (expected_height >= 0 &&
        node.height() != static_cast<uint8_t>(expected_height)) {
      return abort(addr, "height mismatch");
    }
    if (!node.InFenceRange(key)) {
      return abort(addr, "key outside fence range");
    }
    if (!node.is_leaf() && node.num_entries() == 0) {
      return abort(addr, "internal node without children");
    }

    if (node.is_leaf()) {
      if (mode == TraverseMode::kUpToDate && !known_leaf) {
        // The node arrived through the internal-read path (root == leaf);
        // redo the fetch as a validated leaf read.
        if (cache_ != nullptr) cache_->Invalidate(addr);
        expected_height = 0;
        continue;
      }
      path.push_back(
          PathEntry{addr, link_addr, std::move(fn.raw), std::move(fn.view)});
      return path;
    }

    const size_t idx = node.ChildIndexFor(key);
    const Addr child = node.EntryChild(idx);
    expected_height = node.height() - 1;
    path.push_back(
        PathEntry{addr, link_addr, std::move(fn.raw), std::move(fn.view)});
    addr = child;
    link_addr = child;
  }
  return abort(addr, "traversal did not terminate");
}

// ---------------------------------------------------------------------------
// Copy-on-write bookkeeping

Result<Addr> BTree::WriteFreshNode(DynamicTxn& txn, const Node& node) {
  return WriteFreshNodeAt(txn, node, allocator_->NextPlacement());
}

Result<Addr> BTree::WriteFreshNodeAt(DynamicTxn& txn, const Node& node,
                                     sinfonia::MemnodeId memnode) {
  auto slab = allocator_->Allocate(txn, memnode);
  if (!slab.ok()) return slab.status();
  if (node.EncodedSize() > capacity()) return Status::NoSpace("node overflow");
  // Encode straight into the transaction arena: the image lives until
  // commit, so the write set can reference it without another copy.
  const Slice image = node.EncodeToArena(txn.arena());
  ObjectRef ref = slab->ref;
  if (node.height > 0 && options_.replicate_internal_seqnums) {
    ref.rep_seq_offset = layout().SeqSlotFor(ref.addr);
  }
  Status st = slab->fresh ? txn.WriteNewStable(ref, image)
                          : txn.WriteStable(ref, image);
  if (!st.ok()) return st;
  return ref.addr;
}

Status BTree::RecordCopy(DynamicTxn& txn, Addr old_addr, Node old_node,
                         uint64_t sid, Addr copy_addr) {
  old_node.descendants.push_back(DescendantEntry{sid, copy_addr, false});
  // The old slab is garbage once the GC horizon reaches `sid`. Recorded
  // before commit: an entry from an attempt that aborts is harmless (the
  // collector re-checks the slab transactionally before freeing it).
  if (retired_ != nullptr) retired_->Add(old_addr, sid);

  // Enforce the §5.2 invariant: keep at most β descendant entries by
  // folding subsets of copies under their LCA via a discretionary copy.
  const size_t beta = options_.beta;
  while (old_node.descendants.size() > beta) {
    auto& ds = old_node.descendants;
    size_t best_i = 0, best_j = 0;
    uint64_t best_lca = 0, best_depth = 0;
    bool found = false;
    for (size_t i = 0; i < ds.size(); i++) {
      for (size_t j = i + 1; j < ds.size(); j++) {
        const uint64_t lca = oracle_->Lca(ds[i].sid, ds[j].sid);
        if (lca == old_node.created_sid) continue;  // cannot fold above x
        const uint64_t depth = oracle_->Depth(lca);
        if (!found || depth > best_depth) {
          found = true;
          best_i = i;
          best_j = j;
          best_lca = lca;
          best_depth = depth;
        }
      }
    }
    if (!found) {
      // All entries branch directly off the creation snapshot; the version
      // tree's branching factor must stay within β to prevent this.
      return Status::NoSpace("descendant set cannot be folded within beta");
    }
    (void)best_i;
    (void)best_j;

    // The discretionary copy carries the node's (identical) content,
    // created at the LCA, and inherits the entries that fold under it.
    Node disc;
    disc.height = old_node.height;
    disc.created_sid = best_lca;
    disc.low_fence = old_node.low_fence;
    disc.high_fence = old_node.high_fence;
    disc.entries = old_node.entries;
    std::vector<DescendantEntry> keep;
    for (const DescendantEntry& d : ds) {
      if (d.sid != best_lca && oracle_->IsAncestorOrEqual(best_lca, d.sid)) {
        disc.descendants.push_back(d);
      } else {
        keep.push_back(d);
      }
    }
    auto disc_addr = WriteFreshNode(txn, disc);
    if (!disc_addr.ok()) return disc_addr.status();
    keep.push_back(DescendantEntry{best_lca, *disc_addr, true});
    old_node.descendants = std::move(keep);
    stats_->discretionary_copies.Increment();
  }

  return txn.WriteStable(NodeRef(old_addr, old_node.height > 0),
                         old_node.EncodeToArena(txn.arena()));
}

Result<Addr> BTree::CopyNodeInTxn(DynamicTxn& txn, Addr node_addr,
                                  uint64_t sid, bool record_copy) {
  // Transactional read: the copied content is validated through commit.
  // This is a mutation path, so the full decode is intentional.
  auto raw = txn.ReadView(NodeRef(node_addr, /*internal=*/true));
  if (!raw.ok()) return raw.status();
  auto decoded = Node::Decode(raw->data);
  if (!decoded.ok()) return decoded.status();
  Node copy = std::move(decoded).value();
  Node original = copy;

  copy.created_sid = sid;
  copy.descendants.clear();
  auto copy_addr = WriteFreshNode(txn, copy);
  if (!copy_addr.ok()) return copy_addr.status();
  stats_->cow_copies.Increment();
  if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->nodes_copied++;

  if (record_copy) {
    MINUET_RETURN_NOT_OK(
        RecordCopy(txn, node_addr, std::move(original), sid, *copy_addr));
  }
  return copy_addr;
}

// ---------------------------------------------------------------------------
// Leaf mutation with CoW, splits, and upward propagation

Status BTree::ApplyLeafMutation(DynamicTxn& txn, const TipContext& tip,
                                std::vector<PathEntry>& path, Node leaf) {
  // Carry from level i to its parent at level i-1.
  bool child_changed = false;
  Addr old_child, new_child;
  bool have_split = false;
  std::string split_sep;
  Addr split_right;

  for (int i = static_cast<int>(path.size()) - 1; i >= 0; i--) {
    const Addr addr = path[i].addr;
    const bool is_last = i == static_cast<int>(path.size()) - 1;

    Node pristine;
    Node modified;
    if (is_last) {
      // The leaf was read transactionally during traversal: validated.
      // Materialize it from the view — the mutation boundary's one decode.
      auto pr = path[i].view.ToNode();
      if (!pr.ok()) {
        txn.MarkAborted(AbortReason::kStaleCachePointer);
        return Status::Aborted(AbortReason::kStaleCachePointer,
                               "leaf no longer decodable");
      }
      pristine = std::move(pr).value();
      modified = std::move(leaf);
    } else {
      // Internal nodes were (possibly) dirty-read; mutating one requires a
      // transactional re-read so the edit bases on validated content.
      auto raw = txn.ReadView(NodeRef(addr, /*internal=*/true));
      if (!raw.ok()) return raw.status();
      auto decoded = Node::Decode(raw->data);
      if (!decoded.ok()) {
        txn.MarkAborted(AbortReason::kStaleCachePointer);
        return Status::Aborted(AbortReason::kStaleCachePointer,
                               "parent no longer decodable");
      }
      pristine = std::move(decoded).value();
      modified = pristine;

      // The fresh parent must still be the node the traversal used: same
      // height and it must actually point at the child we came from.
      size_t idx = modified.entries.size();
      for (size_t e = 0; e < modified.entries.size(); e++) {
        if (modified.entries[e].child == old_child) {
          idx = e;
          break;
        }
      }
      if (modified.height != path[i].view.height() ||
          idx == modified.entries.size()) {
        if (cache_ != nullptr) cache_->Invalidate(addr);
        txn.MarkAborted(AbortReason::kStaleCachePointer);
        return Status::Aborted(AbortReason::kStaleCachePointer,
                               "parent changed during operation");
      }
      if (child_changed) modified.entries[idx].child = new_child;
      if (have_split) modified.Upsert(split_sep, "", split_right);
      if (!child_changed && !have_split) return Status::OK();
    }

    child_changed = false;
    have_split = false;

    // -- Copy-on-write ------------------------------------------------------
    Addr target = addr;
    bool cowed = false;
    if (modified.created_sid != tip.sid) {
      modified.created_sid = tip.sid;
      modified.descendants.clear();
      cowed = true;
    }

    // -- Split --------------------------------------------------------------
    // Reserve slack for descendant entries the copy-on-write bookkeeping
    // may add to this node later (RecordCopy writes in place and must
    // never overflow the slab).
    const size_t desc_reserve =
        (kMaxDescendants - modified.descendants.size()) * kDescEntryBytes;
    Node right;
    if (modified.EncodedSize() + desc_reserve > capacity()) {
      if (modified.entries.size() < 4) {
        return Status::NoSpace("node cannot be split further");
      }
      split_sep = modified.SplitInto(&right);
      auto right_addr = WriteFreshNode(txn, right);
      if (!right_addr.ok()) return right_addr.status();
      split_right = *right_addr;
      have_split = true;
      stats_->splits.Increment();
    }

    // -- Write this level -----------------------------------------------------
    if (cowed) {
      auto copy_addr = WriteFreshNode(txn, modified);
      if (!copy_addr.ok()) return copy_addr.status();
      target = *copy_addr;
      stats_->cow_copies.Increment();
      if (net::OpTrace* tr = net::Fabric::ThreadTrace()) tr->nodes_copied++;
      MINUET_RETURN_NOT_OK(
          RecordCopy(txn, addr, std::move(pristine), tip.sid, target));
      child_changed = true;
      // The parent's entry holds the chain ENTRY address (link_addr), not
      // the discretionary copy the traversal may have hopped to.
      old_child = path[i].link_addr;
      new_child = target;
    } else {
      MINUET_RETURN_NOT_OK(
          txn.WriteStable(NodeRef(addr, modified.height > 0),
                          modified.EncodeToArena(txn.arena())));
      old_child = path[i].link_addr;
      new_child = path[i].link_addr;
    }

    if (!child_changed && !have_split) return Status::OK();
  }

  // The carry survived past the root: the root was copied and/or split.
  Addr root_addr = child_changed ? new_child : path[0].link_addr;
  if (have_split) {
    Node new_root;
    new_root.height = path[0].view.height() + 1;
    new_root.created_sid = tip.sid;
    new_root.entries.push_back(NodeEntry{path[0].view.low_fence().ToString(),
                                         "", root_addr});
    new_root.entries.push_back(NodeEntry{split_sep, "", split_right});
    auto nr = WriteFreshNode(txn, new_root);
    if (!nr.ok()) return nr.status();
    root_addr = *nr;
  }
  return PublishRoot(txn, tip, root_addr);
}

// ---------------------------------------------------------------------------
// Public operations

namespace {
Status LeafLookup(const NodeView& leaf, const std::string& key,
                  std::string* value) {
  const size_t i = leaf.FindKey(key);
  if (i == leaf.num_entries()) return Status::NotFound("key absent");
  if (value != nullptr) *value = leaf.EntryValue(i).ToString();
  return Status::OK();
}
}  // namespace

Status BTree::GetInTxn(DynamicTxn& txn, const std::string& key,
                       std::string* value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  auto tip = ReadTipInTxn(txn);
  if (!tip.ok()) return tip.status();
  auto path = Traverse(txn, tip->sid, tip->root, key,
                       TraverseMode::kUpToDate);
  if (!path.ok()) return path.status();
  return LeafLookup(path->back().view, key, value);
}

Status BTree::MultiGetAt(DynamicTxn& txn, uint64_t sid, Addr root,
                         TraverseMode mode,
                         const std::vector<std::string>& keys,
                         std::vector<std::optional<std::string>>* values) {
  values->assign(keys.size(), std::nullopt);

  // All dirty-read addresses this operation leaned on; a safety-check
  // failure invalidates them all (the same discipline as Traverse, which
  // invalidates the implicated path) so the retry refetches fresh state.
  std::vector<Addr> visited;
  auto abort = [&](Addr at, const char* reason) -> Status {
    return AbortDescent(txn, at, visited, reason);
  };

  // -- Phase 1: resolve each key's leaf with ONE level-synchronized descent.
  // Warm internal levels come from the proxy cache exactly as before (K
  // keys sharing a path prefix pay for it once); on a cold cache every
  // level is a single batched round across ALL keys (descent.cc), so the
  // whole resolution costs ~depth rounds instead of ~K × depth.
  std::vector<LeafGroup> groups;
  MINUET_RETURN_NOT_OK(
      ResolveLeafGroups(txn, sid, root, mode, keys, &groups, &visited));

  // -- Phase 2: fetch ALL distinct leaves in one minitransaction round ------
  std::vector<ObjectRef> refs;
  refs.reserve(groups.size());
  for (const LeafGroup& g : groups) {
    refs.push_back(NodeRef(g.addr, /*internal=*/false));
  }
  auto payloads = mode == TraverseMode::kUpToDate
                      ? txn.ReadBatchViews(refs)
                      : txn.FetchFreshBatchViews(refs);
  if (!payloads.ok()) {
    return MaybeRetiredAbort(txn, payloads.status(), refs, visited);
  }

  // -- Phase 3: the leaf-level safety checks Traverse would have run --------
  for (size_t gi = 0; gi < groups.size(); gi++) {
    Addr at = groups[gi].addr;
    Payload cur = std::move((*payloads)[gi]);  // keeps the image pinned
    NodeView leaf;
    if (!leaf.Init(cur.data).ok()) {
      return abort(at, "undecodable leaf (stale pointer)");
    }
    bool settled = false;  // the leaf passed its checks with no copy left
    for (int hops = 0; hops < 256; hops++) {
      if (!oracle_->IsAncestorOrEqual(leaf.created_sid(), sid)) {
        return abort(at, "leaf from a different version lineage");
      }
      DescendantEntry applicable;
      bool has_applicable = false;
      for (size_t di = 0; di < leaf.descendant_count(); di++) {
        const DescendantEntry d = leaf.descendant(di);
        if (oracle_->IsAncestorOrEqual(d.sid, sid)) {
          applicable = d;
          has_applicable = true;
          break;
        }
      }
      if (!has_applicable) {
        settled = true;
        break;
      }
      if (!applicable.discretionary) {
        return abort(at, "leaf copied for this or an earlier snapshot");
      }
      // Rare: follow the discretionary chain with point reads (the batch
      // could not have known about the hop).
      stats_->redirects.Increment();
      at = applicable.copy_addr;
      auto raw = mode == TraverseMode::kUpToDate
                     ? txn.ReadView(NodeRef(at, /*internal=*/false))
                     : txn.FetchFreshView(NodeRef(at, /*internal=*/false));
      if (!raw.ok()) return raw.status();
      cur = std::move(raw).value();
      if (!leaf.Init(cur.data).ok()) return abort(at, "undecodable leaf copy");
    }
    if (!settled) return abort(at, "leaf redirect chain did not terminate");
    if (!leaf.is_leaf()) return abort(at, "height mismatch");
    for (size_t i : groups[gi].key_idx) {
      if (!leaf.InFenceRange(keys[i])) {
        return abort(at, "key outside fence range");
      }
      const size_t e = leaf.FindKey(keys[i]);
      if (e != leaf.num_entries()) {
        (*values)[i] = leaf.EntryValue(e).ToString();
      }
    }
  }
  return Status::OK();
}

Status BTree::MultiGetInTxn(DynamicTxn& txn,
                            const std::vector<std::string>& keys,
                            std::vector<std::optional<std::string>>* values) {
  for (const std::string& key : keys) {
    MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  }
  auto tip = ReadTipInTxn(txn);
  if (!tip.ok()) return tip.status();
  return MultiGetAt(txn, tip->sid, tip->root, TraverseMode::kUpToDate, keys,
                    values);
}

Status BTree::UpsertLeafInTxn(DynamicTxn& txn, const TipContext& tip,
                              const std::string& key,
                              const std::string& value, bool strict) {
  auto path = Traverse(txn, tip.sid, tip.root, key, TraverseMode::kUpToDate);
  if (!path.ok()) return path.status();
  const NodeView& leaf_view = path->back().view;
  if (strict && leaf_view.FindKey(key) != leaf_view.num_entries()) {
    return Status::AlreadyExists("insert of a present key");
  }
  auto leaf = leaf_view.ToNode();  // mutation boundary: materialize
  if (!leaf.ok()) return leaf.status();
  leaf->Upsert(key, value, sinfonia::kNullAddr);
  return ApplyLeafMutation(txn, tip, *path, std::move(*leaf));
}

Status BTree::PutInTxn(DynamicTxn& txn, const std::string& key,
                       const std::string& value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, value));
  auto tip = ReadTipInTxn(txn);
  if (!tip.ok()) return tip.status();
  return UpsertLeafInTxn(txn, *tip, key, value, /*strict=*/false);
}

Status BTree::InsertInTxn(DynamicTxn& txn, const std::string& key,
                          const std::string& value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, value));
  auto tip = ReadTipInTxn(txn);
  if (!tip.ok()) return tip.status();
  return UpsertLeafInTxn(txn, *tip, key, value, /*strict=*/true);
}

Status BTree::RemoveInTxn(DynamicTxn& txn, const std::string& key) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  auto tip = ReadTipInTxn(txn);
  if (!tip.ok()) return tip.status();
  auto path = Traverse(txn, tip->sid, tip->root, key,
                       TraverseMode::kUpToDate);
  if (!path.ok()) return path.status();
  if (path->back().view.FindKey(key) == path->back().view.num_entries()) {
    return Status::NotFound("key absent");
  }
  auto leaf = path->back().view.ToNode();  // mutation boundary
  if (!leaf.ok()) return leaf.status();
  leaf->Erase(key);
  // Empty leaves are retained: they still own their fence range. (The
  // paper does not merge nodes either; compaction would be a GC concern.)
  return ApplyLeafMutation(txn, *tip, *path, std::move(*leaf));
}

Status BTree::Get(const std::string& key, std::string* value) {
  return RunOp([&](DynamicTxn& txn) { return GetInTxn(txn, key, value); });
}

Status BTree::Put(const std::string& key, const std::string& value) {
  return RunOp([&](DynamicTxn& txn) { return PutInTxn(txn, key, value); });
}

Status BTree::Insert(const std::string& key, const std::string& value) {
  return RunOp([&](DynamicTxn& txn) { return InsertInTxn(txn, key, value); });
}

Status BTree::Remove(const std::string& key) {
  return RunOp([&](DynamicTxn& txn) { return RemoveInTxn(txn, key); });
}

Status BTree::BranchGet(uint64_t branch_sid, const std::string& key,
                        std::string* value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  return RunOp([&](DynamicTxn& txn) -> Status {
    auto tip = ReadBranchTipInTxn(txn, branch_sid, /*for_write=*/false);
    if (!tip.ok()) return tip.status();
    auto path = Traverse(txn, tip->sid, tip->root, key,
                         TraverseMode::kUpToDate);
    if (!path.ok()) return path.status();
    return LeafLookup(path->back().view, key, value);
  });
}

Status BTree::BranchPut(uint64_t branch_sid, const std::string& key,
                        const std::string& value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, value));
  return RunOp([&](DynamicTxn& txn) -> Status {
    auto tip = ReadBranchTipInTxn(txn, branch_sid, /*for_write=*/true);
    if (!tip.ok()) return tip.status();
    return UpsertLeafInTxn(txn, *tip, key, value, /*strict=*/false);
  });
}

Status BTree::BranchInsert(uint64_t branch_sid, const std::string& key,
                           const std::string& value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, value));
  return RunOp([&](DynamicTxn& txn) -> Status {
    auto tip = ReadBranchTipInTxn(txn, branch_sid, /*for_write=*/true);
    if (!tip.ok()) return tip.status();
    return UpsertLeafInTxn(txn, *tip, key, value, /*strict=*/true);
  });
}

Status BTree::BranchPutInTxn(DynamicTxn& txn, uint64_t branch_sid,
                             const std::string& key,
                             const std::string& value) {
  WriteOp op;
  op.kind = WriteOp::Kind::kPut;
  op.key = key;
  op.value = value;
  return BranchApplyWritesInTxn(txn, branch_sid, {op});
}

Status BTree::BranchRemoveInTxn(DynamicTxn& txn, uint64_t branch_sid,
                                const std::string& key) {
  WriteOp op;
  op.kind = WriteOp::Kind::kRemove;
  op.key = key;
  return BranchApplyWritesInTxn(txn, branch_sid, {op});
}

Status BTree::BranchRemove(uint64_t branch_sid, const std::string& key) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  return RunOp([&](DynamicTxn& txn) -> Status {
    auto tip = ReadBranchTipInTxn(txn, branch_sid, /*for_write=*/true);
    if (!tip.ok()) return tip.status();
    auto path = Traverse(txn, tip->sid, tip->root, key,
                         TraverseMode::kUpToDate);
    if (!path.ok()) return path.status();
    if (path->back().view.FindKey(key) == path->back().view.num_entries()) {
      return Status::NotFound("key absent");
    }
    auto leaf = path->back().view.ToNode();  // mutation boundary
    if (!leaf.ok()) return leaf.status();
    leaf->Erase(key);
    return ApplyLeafMutation(txn, *tip, *path, std::move(*leaf));
  });
}

// ---------------------------------------------------------------------------
// Snapshot reads

// Reading below the garbage-collection horizon is unsupported (§4.4: the
// lowest retained snapshot id bounds queryable history). Persistent aborts
// on a snapshot read are the symptom; confirm against the published
// horizon and fail fast with a clear status.
Status BTree::CheckGcHorizon(uint64_t sid) {
  DynamicTxn txn(coord_, /*cache=*/nullptr);
  auto raw = txn.FetchFresh(layout().LowestSidRef(tree_slot_));
  if (raw.ok() && DecodeTipId(*raw) > sid) {
    // Non-retryable (the snapshot is gone for good), but worth a taxonomy
    // bucket: persistent retries that die here are a GC-pacing signal.
    coord_->metrics()
        .txn_aborts[static_cast<unsigned>(AbortReason::kGcHorizon)]
        .Increment();
    return Status::InvalidArgument("snapshot below the GC horizon");
  }
  return Status::OK();
}

Status BTree::SnapshotGet(const SnapshotRef& snap, const std::string& key,
                          std::string* value) {
  MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  return RunSnapshotOp(snap.sid, [&](DynamicTxn& txn) -> Status {
    auto path = Traverse(txn, snap.sid, snap.root, key,
                         TraverseMode::kSnapshotRead);
    if (!path.ok()) return path.status();
    return LeafLookup(path->back().view, key, value);
  });
}

Status BTree::SnapshotMultiGet(
    const SnapshotRef& snap, const std::vector<std::string>& keys,
    std::vector<std::optional<std::string>>* values) {
  for (const std::string& key : keys) {
    MINUET_RETURN_NOT_OK(CheckKeyValue(key, ""));
  }
  return RunSnapshotOp(snap.sid, [&](DynamicTxn& txn) -> Status {
    return MultiGetAt(txn, snap.sid, snap.root, TraverseMode::kSnapshotRead,
                      keys, values);
  });
}

Status BTree::SnapshotScanChunk(
    const SnapshotRef& snap, const std::string& start_key, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out,
    std::string* resume_key) {
  // A scan start is a position, not a key: any byte string is valid ("" =
  // the beginning; cursor resume keys may exceed the max entry size).
  resume_key->clear();
  return RunSnapshotOp(snap.sid, [&](DynamicTxn& txn) -> Status {
    auto path = Traverse(txn, snap.sid, snap.root, start_key,
                         TraverseMode::kSnapshotRead);
    if (!path.ok()) return path.status();
    const NodeView& leaf = path->back().view;
    size_t i = leaf.LowerBound(start_key);
    for (; i < leaf.num_entries() && out->size() < limit; i++) {
      out->emplace_back(leaf.EntryKey(i).ToString(),
                        leaf.EntryValue(i).ToString());
    }
    if (i < leaf.num_entries()) {
      *resume_key = leaf.EntryKey(i).ToString();  // limit hit mid-leaf
    } else if (!leaf.high_fence().empty()) {
      *resume_key = leaf.high_fence().ToString();
    }
    return Status::OK();
  });
}

Status BTree::SnapshotScan(
    const SnapshotRef& snap, const std::string& start_key, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  std::string cursor = start_key;
  while (out->size() < limit) {
    std::string resume;
    MINUET_RETURN_NOT_OK(
        SnapshotScanChunk(snap, cursor, limit, out, &resume));
    if (resume.empty()) break;  // rightmost leaf or limit reached
    cursor = std::move(resume);
  }
  return Status::OK();
}

Status BTree::TipScan(
    const std::string& start_key, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  // A scan start is a position, not a key: any byte string is valid ("" =
  // the beginning; cursor resume keys may exceed the max entry size).
  return RunOp([&](DynamicTxn& txn) -> Status {
    out->clear();
    auto tip = ReadTipInTxn(txn);
    if (!tip.ok()) return tip.status();
    std::string cursor = start_key;
    while (out->size() < limit) {
      auto path = Traverse(txn, tip->sid, tip->root, cursor,
                           TraverseMode::kUpToDate);
      if (!path.ok()) return path.status();
      const NodeView& leaf = path->back().view;
      for (size_t i = leaf.LowerBound(cursor);
           i < leaf.num_entries() && out->size() < limit; i++) {
        out->emplace_back(leaf.EntryKey(i).ToString(),
                          leaf.EntryValue(i).ToString());
      }
      if (leaf.high_fence().empty()) break;
      cursor = leaf.high_fence().ToString();
    }
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// Snapshot creation (Fig. 6)

Result<SnapshotRef> BTree::CreateSnapshotInTxn(DynamicTxn& txn) {
  auto sid_raw = txn.Read(layout().TipIdRef(tree_slot_));
  if (!sid_raw.ok()) return sid_raw.status();
  auto root_raw = txn.Read(layout().TipRootRef(tree_slot_));
  if (!root_raw.ok()) return root_raw.status();
  const uint64_t sid = DecodeTipId(*sid_raw);
  const Addr loc = DecodeRootLoc(*root_raw);

  const uint64_t new_sid = sid + 1;
  // Copy the root eagerly so the tip root location stays valid regardless
  // of where the first post-snapshot write lands (§4.1).
  auto new_root = CopyNodeInTxn(txn, loc, new_sid, /*record_copy=*/true);
  if (!new_root.ok()) return new_root.status();

  MINUET_RETURN_NOT_OK(
      txn.Write(layout().TipIdRef(tree_slot_), EncodeTipId(new_sid)));
  MINUET_RETURN_NOT_OK(
      txn.Write(layout().TipRootRef(tree_slot_), EncodeRootLoc(*new_root)));
  return SnapshotRef{sid, loc};
}

}  // namespace minuet::btree
