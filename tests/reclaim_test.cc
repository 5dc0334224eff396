// Tests for horizon-driven reclamation: a linear tree's copy-on-write
// garbage is freed as soon as snapshot creation moves the GC horizon past
// it, with no full collection pass, and never past a pinned snapshot or
// the durability checkpoint floor.
#include <gtest/gtest.h>

#include <set>

#include "common/byteio.h"
#include "common/key_codec.h"
#include "minuet/cluster.h"

namespace minuet {
namespace {

using sinfonia::Addr;
using Retired = btree::RetireList::Entry;

constexpr int kKeys = 80;

ClusterOptions ReclaimOptions() {
  ClusterOptions o;
  o.machines = 2;
  o.node_size = 1024;  // small nodes: a multi-level tree from few keys
  o.retain_snapshots = 1;
  return o;
}

class ReclaimTest : public ::testing::Test {
 protected:
  void Build(ClusterOptions opts = ReclaimOptions(), bool branching = false) {
    cluster_ = std::make_unique<Cluster>(opts);
    auto tree = cluster_->CreateTree(branching);
    ASSERT_TRUE(tree.ok());
    tree_ = *tree;
    gc_ = cluster_->catalog().gc(tree_.slot());
    scs_ = cluster_->snapshot_service(tree_.slot());
  }

  // Rewrite every key; after a snapshot this copies every leaf and path.
  void Rewrite(uint64_t base, int keys = kKeys) {
    for (int i = 0; i < keys; i++) {
      ASSERT_TRUE(cluster_->proxy(0)
                      .Put(tree_, EncodeUserKey(i), EncodeValue(base + i))
                      .ok());
    }
  }

  void Snap() { ASSERT_TRUE(scs_->CreateSnapshot().ok()); }

  void ExpectTip(uint64_t base, int keys = kKeys) {
    std::string value;
    for (int i = 0; i < keys; i++) {
      ASSERT_TRUE(cluster_->proxy(1).Get(tree_, EncodeUserKey(i), &value).ok())
          << i;
      EXPECT_EQ(DecodeValue(value), base + i);
    }
  }

  // The retire list's entries, left in place.
  std::vector<Retired> Peek() {
    btree::RetireList* list = gc_->retire_list();
    std::vector<Retired> all = list->TakeUpTo(UINT64_MAX);
    for (const Retired& e : all) list->Add(e.old_addr, e.copy_sid);
    return all;
  }

  // What stays listed is above the horizon (snapshot creation's own root
  // copies, mostly).
  void ExpectListedAbove(uint64_t horizon) {
    for (const Retired& e : Peek()) EXPECT_GT(e.copy_sid, horizon);
  }

  // Walk every memnode's free list straight from the byte space. Fails
  // the test on a slab linked twice, and checks the metadata counts
  // (free_count, MetaLiveSlabs) against what the walk found.
  std::set<Addr> FreeSlabs() {
    const alloc::Layout& layout = cluster_->layout();
    std::set<Addr> free;
    for (uint32_t m = 0; m < cluster_->coordinator()->n_memnodes(); m++) {
      sinfonia::Memnode* node = cluster_->coordinator()->memnode(m);
      std::string meta;
      node->RawRead(layout.alloc_meta_base() + txn::kSeqnumBytes, 24, &meta);
      const uint64_t bump = DecodeFixed64(meta.data());
      const uint64_t free_count = DecodeFixed64(meta.data() + 16);
      const uint64_t bumped =
          bump > layout.slab_base()
              ? (bump - layout.slab_base()) / layout.node_size
              : 0;
      uint64_t walked = 0;
      for (uint64_t head = DecodeFixed64(meta.data() + 8); head != 0;) {
        EXPECT_TRUE(free.insert(Addr{m, head}).second)
            << "slab linked twice: " << Addr{m, head}.ToString();
        if (++walked > bumped) break;  // a cycle; already reported
        std::string link;
        node->RawRead(head + txn::kSeqnumBytes, 8, &link);
        head = DecodeFixed64(link.data());
      }
      EXPECT_EQ(walked, free_count) << "memnode " << m;
      auto live = cluster_->allocator()->MetaLiveSlabs(m);
      EXPECT_TRUE(live.ok());
      EXPECT_EQ(*live, bumped - walked) << "memnode " << m;
    }
    return free;
  }

  // No node the tip can reach may sit on a free list.
  void ExpectTipNodesLive(const std::set<Addr>& free) {
    std::vector<btree::BTree::NodePlacement> placement;
    ASSERT_TRUE(cluster_->service_tree(tree_.slot())
                    ->CollectTipPlacement(&placement)
                    .ok());
    ASSERT_FALSE(placement.empty());
    for (const auto& p : placement) {
      EXPECT_EQ(free.count(p.addr), 0u) << p.addr.ToString();
    }
  }

  std::unique_ptr<Cluster> cluster_;
  TreeHandle tree_;
  mvcc::GarbageCollector* gc_ = nullptr;
  mvcc::SnapshotService* scs_ = nullptr;
};

TEST_F(ReclaimTest, HorizonPassingACopyFreesTheOldSlab) {
  Build();
  Rewrite(0);
  Snap();  // sid 0; the tip moves to 1
  Rewrite(1000);
  const std::vector<Retired> copied = Peek();
  ASSERT_FALSE(copied.empty());
  for (const Retired& e : copied) EXPECT_EQ(e.copy_sid, 1u);
  EXPECT_EQ(gc_->total_freed(), 0u);

  Snap();  // sid 1: horizon 0, below the copies
  EXPECT_EQ(gc_->total_freed(), 0u);
  Snap();  // sid 2: horizon 1 reaches them
  EXPECT_GT(gc_->total_freed(), 0u);
  ExpectListedAbove(1);

  // Every listed slab is back on a free list — no CollectGarbage call.
  const std::set<Addr> free = FreeSlabs();
  for (const Retired& e : copied) {
    EXPECT_EQ(free.count(e.old_addr), 1u) << e.old_addr.ToString();
  }
  ExpectTipNodesLive(free);
  ExpectTip(1000);
  std::string value;
  auto latest = cluster_->proxy(0).ViewAt(tree_, scs_->latest());
  ASSERT_TRUE(latest.ok());
  ASSERT_TRUE(latest->Get(EncodeUserKey(7), &value).ok());
  EXPECT_EQ(DecodeValue(value), 1007u);
}

TEST_F(ReclaimTest, PinnedSnapshotHoldsCopiesBack) {
  Build();
  Rewrite(0);
  std::vector<Retired> copied;
  {
    auto pinned = cluster_->proxy(0).Snapshot(tree_);
    ASSERT_TRUE(pinned.ok());
    Rewrite(1000);  // copies at the pinned sid + 1
    copied = Peek();
    ASSERT_FALSE(copied.empty());
    for (int i = 0; i < 4; i++) Snap();
    EXPECT_EQ(gc_->total_freed(), 0u);
    std::set<Addr> listed;
    for (const Retired& e : Peek()) listed.insert(e.old_addr);
    for (const Retired& e : copied) EXPECT_EQ(listed.count(e.old_addr), 1u);
    // The pinned snapshot still reads its own state.
    std::string value;
    ASSERT_TRUE(pinned->Get(EncodeUserKey(3), &value).ok());
    EXPECT_EQ(DecodeValue(value), 3u);
  }
  Snap();  // the pin is gone: the horizon jumps past the copies
  EXPECT_GT(gc_->total_freed(), 0u);
  ExpectListedAbove(scs_->LowestRetained());
  const std::set<Addr> free = FreeSlabs();
  for (const Retired& e : copied) EXPECT_EQ(free.count(e.old_addr), 1u);
  ExpectTipNodesLive(free);
  ExpectTip(1000);
}

TEST_F(ReclaimTest, SyncDurabilityNeverFreesPastTheCheckpointFloor) {
  ClusterOptions opts = ReclaimOptions();
  opts.durability = wal::DurabilityMode::kSync;
  Build(opts);
  constexpr int kFew = 40;
  Rewrite(0, kFew);
  Snap();                 // sid 0
  Rewrite(1000, kFew);    // copies at sid 1
  Snap();                 // sid 1
  Rewrite(2000, kFew);    // copies at sid 2
  Snap();                 // sid 2: horizon 1, but no checkpoint yet
  EXPECT_EQ(gc_->total_freed(), 0u);

  ASSERT_TRUE(cluster_->CheckpointAll().ok());  // floor = horizon 1
  Rewrite(3000, kFew);                          // copies at sid 3
  Snap();                                       // sid 3: horizon 2
  EXPECT_GT(gc_->total_freed(), 0u);  // the sid-1 copies
  bool kept_above_floor = false;
  for (const Retired& e : Peek()) {
    EXPECT_GT(e.copy_sid, 1u);
    kept_above_floor |= e.copy_sid == 2;
  }
  EXPECT_TRUE(kept_above_floor);
  ExpectTipNodesLive(FreeSlabs());
  ExpectTip(3000, kFew);
}

TEST_F(ReclaimTest, FullPassAfterReclaimFreesNothingTwice) {
  Build();
  Rewrite(0);
  for (int epoch = 1; epoch <= 4; epoch++) {
    Snap();
    Rewrite(epoch * 1000);
  }
  Snap();
  Snap();
  const uint64_t reclaimed = gc_->total_freed();
  ASSERT_GT(reclaimed, 0u);
  const std::set<Addr> before = FreeSlabs();

  auto report = cluster_->CollectGarbage(tree_);
  ASSERT_TRUE(report.ok());
  const std::set<Addr> after = FreeSlabs();  // no slab linked twice
  EXPECT_EQ(after.size(), before.size() + report->freed);
  for (const Addr& a : before) EXPECT_EQ(after.count(a), 1u);
  ExpectTipNodesLive(after);
  ExpectTip(4000);
}

TEST_F(ReclaimTest, DuplicateAndAbortedAttemptEntriesAreNoOps) {
  Build();
  Rewrite(0);
  Snap();
  Rewrite(1000);
  // List every copy twice, plus a live tip node no copy ever retired (what
  // an aborted attempt leaves behind).
  const std::vector<Retired> copied = Peek();
  ASSERT_FALSE(copied.empty());
  std::vector<btree::BTree::NodePlacement> placement;
  ASSERT_TRUE(cluster_->service_tree(tree_.slot())
                  ->CollectTipPlacement(&placement)
                  .ok());
  ASSERT_FALSE(placement.empty());
  btree::RetireList* list = gc_->retire_list();
  for (const Retired& e : copied) list->Add(e.old_addr, e.copy_sid);
  list->Add(placement[0].addr, 0);

  Snap();
  Snap();
  std::set<Addr> distinct;
  for (const Retired& e : copied) distinct.insert(e.old_addr);
  EXPECT_EQ(gc_->total_freed(), distinct.size());
  std::set<Addr> free = FreeSlabs();
  EXPECT_EQ(free.count(placement[0].addr), 0u);
  ExpectTipNodesLive(free);

  // Replaying the same entries over already-free slabs frees nothing.
  for (const Retired& e : copied) list->Add(e.old_addr, e.copy_sid);
  auto report = gc_->ReclaimRetired(scs_->LowestRetained());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->freed, 0u);
  EXPECT_EQ(FreeSlabs().size(), free.size());
  ExpectTip(1000);
}

TEST_F(ReclaimTest, BranchingTreesKeepTheFullPass) {
  Build(ReclaimOptions(), /*branching=*/true);
  Proxy& p = cluster_->proxy(0);
  auto base = p.Branch(tree_, 0);
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(base->Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto sid = p.CreateBranch(tree_, 0);
  ASSERT_TRUE(sid.ok());
  auto branch = p.Branch(tree_, *sid);
  ASSERT_TRUE(branch.ok());
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(branch->Put(EncodeUserKey(i), EncodeValue(500 + i)).ok());
  }
  EXPECT_GT(cluster_->catalog().tree_stats(tree_.slot())->cow_copies.Value(),
            0u);
  EXPECT_EQ(gc_->retire_list()->size(), 0u);
  EXPECT_EQ(gc_->total_freed(), 0u);
}

}  // namespace
}  // namespace minuet
