// Tests for the distributed node allocator: layout invariants, batched and
// unbatched allocation, free-list recycling, transactional rollback.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "alloc/allocator.h"

namespace minuet::alloc {
namespace {

using sinfonia::Coordinator;
using sinfonia::Memnode;

TEST(LayoutTest, RegionsDoNotOverlap) {
  Layout layout;
  layout.n_memnodes = 8;
  EXPECT_GE(layout.replicated_base, 4096u);
  EXPECT_GE(layout.seq_table_base(),
            layout.replicated_base + layout.replicated_size);
  EXPECT_GE(layout.alloc_meta_base(),
            layout.seq_table_base() + layout.seq_table_entries() * 8);
  EXPECT_GE(layout.slab_base(), layout.alloc_meta_base() + 64);
  EXPECT_EQ(layout.slab_base() % layout.node_size, 0u);
}

TEST(LayoutTest, SeqSlotsAreUniqueAcrossMemnodesAndSlabs) {
  Layout layout;
  layout.n_memnodes = 4;
  std::set<uint64_t> slots;
  for (uint32_t m = 0; m < 4; m++) {
    for (uint64_t i = 0; i < 100; i++) {
      const Addr a{m, layout.slab_base() + i * layout.node_size};
      slots.insert(layout.SeqSlotFor(a));
    }
  }
  EXPECT_EQ(slots.size(), 400u);
}

TEST(LayoutTest, WellKnownRefsAreReplicated) {
  Layout layout;
  EXPECT_TRUE(layout.TipIdRef(0).replicated_data);
  EXPECT_TRUE(layout.TipRootRef(0).replicated_data);
  EXPECT_TRUE(layout.CatalogRef(0, 3).replicated_data);
  EXPECT_NE(layout.TipIdRef(0).addr.offset,
            layout.TipRootRef(0).addr.offset);
  EXPECT_EQ(layout.CatalogRef(0, 1).addr.offset + Layout::kCatalogEntryStride,
            layout.CatalogRef(0, 2).addr.offset);
}

TEST(LayoutTest, TreeSlotsAreDisjoint) {
  Layout layout;
  EXPECT_GE(layout.max_trees(), 2u);
  // Every well-known object of tree 1 lies beyond tree 0's catalog.
  EXPECT_GE(layout.TipIdRef(1).addr.offset,
            layout.catalog_base(0) +
                layout.max_catalog_entries() * Layout::kCatalogEntryStride);
  EXPECT_LT(layout.tree_base(layout.max_trees() - 1) + Layout::kTreeStride,
            layout.seq_table_base() + 1);
}

class AllocatorTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 3;

  void SetUp() override {
    fabric_ = std::make_unique<net::Fabric>(kNodes);
    for (uint32_t i = 0; i < kNodes; i++) {
      raw_.push_back(std::make_unique<Memnode>(i));
      memnodes_.push_back(raw_.back().get());
    }
    coord_ = std::make_unique<Coordinator>(fabric_.get(), memnodes_);
    layout_.n_memnodes = kNodes;
  }

  NodeAllocator MakeAllocator(uint32_t batch) {
    return NodeAllocator(layout_, coord_.get(), {.batch = batch});
  }

  Layout layout_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<Memnode>> raw_;
  std::vector<Memnode*> memnodes_;
  std::unique_ptr<Coordinator> coord_;
};

TEST_F(AllocatorTest, UnbatchedAllocationsAreDistinct) {
  NodeAllocator alloc = MakeAllocator(0);
  std::set<uint64_t> offsets;
  for (int i = 0; i < 10; i++) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 0);
    ASSERT_TRUE(slab.ok());
    EXPECT_TRUE(slab->fresh);
    EXPECT_GE(slab->ref.addr.offset, layout_.slab_base());
    ASSERT_TRUE(t.WriteNew(slab->ref, "init").ok());
    ASSERT_TRUE(t.Commit().ok());
    EXPECT_TRUE(offsets.insert(slab->ref.addr.offset).second);
  }
}

TEST_F(AllocatorTest, BatchedAllocationsAreDistinctAcrossThreads) {
  NodeAllocator alloc = MakeAllocator(8);
  std::mutex mu;
  std::set<std::pair<uint32_t, uint64_t>> seen;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < 100; i++) {
        txn::DynamicTxn txn(coord_.get(), nullptr);
        auto slab = alloc.AllocateAnywhere(txn);
        ASSERT_TRUE(slab.ok());
        ASSERT_TRUE(txn.WriteNew(slab->ref, "x").ok());
        ASSERT_TRUE(txn.Commit().ok());
        std::lock_guard<std::mutex> g(mu);
        EXPECT_TRUE(seen.insert({slab->ref.addr.memnode,
                                 slab->ref.addr.offset}).second);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(seen.size(), 400u);
}

TEST_F(AllocatorTest, AbortedAllocationRollsBackMetadata) {
  NodeAllocator alloc = MakeAllocator(0);
  uint64_t first_offset = 0;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    first_offset = slab->ref.addr.offset;
    // Never commit: the bump-pointer update must not take effect.
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->ref.addr.offset, first_offset);
    ASSERT_TRUE(t.WriteNew(slab->ref, "kept").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

TEST_F(AllocatorTest, AbortedBatchedAllocationReturnsItsSlab) {
  // The batched path pays for slabs outside the caller's transaction: an
  // aborted caller must hand its slab back, or the slab stays counted as
  // occupied with no node in it (and a draining memnode never empties).
  NodeAllocator alloc = MakeAllocator(4);
  uint64_t offset = 0;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    offset = slab->ref.addr.offset;
    // Never committed.
  }
  {
    // A commit that fails validation gives it back too.
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(t.Read(layout_.MetaRef(2)).ok());
    {
      txn::DynamicTxn other(coord_.get(), nullptr);
      auto moved = alloc.Allocate(other, 2);  // replenishes node 2's meta
      ASSERT_TRUE(moved.ok());
      ASSERT_TRUE(other.WriteNew(moved->ref, "y").ok());
      ASSERT_TRUE(other.Commit().ok());
    }
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->ref.addr.offset, offset);
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    EXPECT_TRUE(t.Commit().IsAborted());
  }
  // Flushing the reservation returns all four reserved slabs.
  ASSERT_TRUE(alloc.BeginDrain(1).ok());
  auto live = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 0u);
}

TEST_F(AllocatorTest, FreeRecyclesThroughFreeList) {
  NodeAllocator alloc = MakeAllocator(0);
  Addr freed{};
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    freed = slab->ref.addr;
    ASSERT_TRUE(t.WriteNew(slab->ref, "shortlived").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, freed).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    EXPECT_EQ(slab->ref.addr, freed);
    EXPECT_FALSE(slab->fresh);  // recycled: already read into the txn
    ASSERT_TRUE(t.Write(slab->ref, "reborn").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

TEST_F(AllocatorTest, FreeBumpsSeqnumSoStaleCachesNeverValidate) {
  NodeAllocator alloc = MakeAllocator(0);
  Addr addr{};
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 0);
    ASSERT_TRUE(slab.ok());
    addr = slab->ref.addr;
    ASSERT_TRUE(t.WriteNew(slab->ref, "v1").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  std::string raw;
  memnodes_[0]->RawRead(addr.offset, 8, &raw);
  const uint64_t seq_before = DecodeFixed64(raw.data());
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, addr).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  memnodes_[0]->RawRead(addr.offset, 8, &raw);
  EXPECT_GT(DecodeFixed64(raw.data()), seq_before);
}

TEST_F(AllocatorTest, RoundRobinSpreadsPlacements) {
  NodeAllocator alloc = MakeAllocator(4);
  std::vector<int> per_node(kNodes, 0);
  for (int i = 0; i < 30; i++) {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.AllocateAnywhere(t);
    ASSERT_TRUE(slab.ok());
    per_node[slab->ref.addr.memnode]++;
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  for (uint32_t m = 0; m < kNodes; m++) {
    EXPECT_EQ(per_node[m], 10) << "memnode " << m;
  }
}

TEST_F(AllocatorTest, AllocatedCountTracks) {
  NodeAllocator alloc = MakeAllocator(4);
  txn::DynamicTxn t(coord_.get(), nullptr);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(alloc.AllocateAnywhere(t).ok());
  }
  EXPECT_EQ(alloc.allocated_count(), 5u);
}

// --- Placement lifecycle (elastic scale-in) ---------------------------------

TEST_F(AllocatorTest, DrainExcludesPlacementAndFlushesReservations) {
  NodeAllocator alloc = MakeAllocator(4);
  {
    // One allocation on node 1 reserves a batch of 4: 1 handed out, 3
    // pooled — all 4 count against the authoritative occupancy.
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 1);
    ASSERT_TRUE(slab.ok());
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  auto before = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, 4u);

  ASSERT_TRUE(alloc.BeginDrain(1).ok());
  EXPECT_EQ(alloc.placement_state(1),
            NodeAllocator::PlacementState::kDraining);
  // The three pooled slabs went back to the free list; only the handed-out
  // one still counts.
  auto after = alloc.MetaLiveSlabs(1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 1u);

  // No placement lands on the draining node; explicit allocation refused.
  for (int i = 0; i < 30; i++) {
    EXPECT_NE(alloc.NextPlacement(), 1u);
  }
  txn::DynamicTxn t(coord_.get(), nullptr);
  auto refused = alloc.Allocate(t, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument());

  // BeginDrain is idempotent; CancelDrain re-opens placement.
  EXPECT_TRUE(alloc.BeginDrain(1).ok());
  ASSERT_TRUE(alloc.CancelDrain(1).ok());
  EXPECT_EQ(alloc.placement_state(1), NodeAllocator::PlacementState::kActive);
}

TEST_F(AllocatorTest, RetireRequiresZeroOccupancyAndZeroesMeta) {
  NodeAllocator alloc = MakeAllocator(0);  // unbatched: exact occupancy
  Addr slab_addr;
  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    auto slab = alloc.Allocate(t, 2);
    ASSERT_TRUE(slab.ok());
    slab_addr = slab->ref.addr;
    ASSERT_TRUE(t.WriteNew(slab->ref, "x").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  EXPECT_TRUE(alloc.Retire(2).IsInvalidArgument()) << "must drain first";
  ASSERT_TRUE(alloc.BeginDrain(2).ok());
  EXPECT_TRUE(alloc.Retire(2).IsBusy()) << "a live slab remains";

  {
    txn::DynamicTxn t(coord_.get(), nullptr);
    ASSERT_TRUE(alloc.Free(t, slab_addr).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(alloc.Retire(2).ok());
  EXPECT_EQ(alloc.placement_state(2), NodeAllocator::PlacementState::kRetired);
  // Retired nodes report zero occupancy (no ghost bump/free capacity) and
  // never rejoin the lifecycle.
  auto live = alloc.MetaLiveSlabs(2);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 0u);
  EXPECT_EQ(alloc.ApproxLiveSlabs(2), 0u);
  EXPECT_TRUE(alloc.BeginDrain(2).IsInvalidArgument());
  EXPECT_TRUE(alloc.CancelDrain(2).IsInvalidArgument());
  for (int i = 0; i < 30; i++) {
    EXPECT_NE(alloc.NextPlacement(), 2u);
  }
}

TEST_F(AllocatorTest, CannotDrainLastActiveMemnode) {
  NodeAllocator alloc = MakeAllocator(0);
  ASSERT_TRUE(alloc.BeginDrain(0).ok());
  ASSERT_TRUE(alloc.BeginDrain(1).ok());
  EXPECT_TRUE(alloc.BeginDrain(2).IsInvalidArgument());
  ASSERT_TRUE(alloc.CancelDrain(0).ok());
  EXPECT_TRUE(alloc.BeginDrain(2).ok());
}

}  // namespace
}  // namespace minuet::alloc
