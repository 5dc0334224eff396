// Tests for the memnode lock table: try-lock semantics, re-entrancy,
// rollback on partial failure, blocking acquisition with timeout, the
// slab-region slot map and shared/exclusive modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "sinfonia/lock_table.h"

namespace minuet::sinfonia {
namespace {

using Range = LockTable::Range;
using std::chrono::microseconds;

TEST(LockTableTest, LockThenUnlock) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  EXPECT_TRUE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

TEST(LockTableTest, ConflictReturnsBusy) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{0, 64}}).IsBusy());
  lt.Unlock(1);
  EXPECT_TRUE(lt.Lock(2, {{0, 64}}).ok());
  lt.Unlock(2);
}

TEST(LockTableTest, DisjointRangesDoNotConflict) {
  // Widely separated offsets map to distinct stripes with high probability;
  // use several to make a collision essentially impossible.
  LockTable lt(4096, 64);
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  int ok = 0;
  for (uint64_t off : {1 << 16, 1 << 18, 1 << 20, 1 << 22}) {
    if (lt.Lock(2, {{static_cast<uint64_t>(off), 64}}).ok()) ok++;
  }
  EXPECT_GE(ok, 3);
  lt.Unlock(1);
  lt.Unlock(2);
}

TEST(LockTableTest, ReentrantWithinSameTx) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());  // same stripe, same tx
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
}

TEST(LockTableTest, PartialFailureRollsBack) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{1 << 20, 64}}).ok());
  // Tx 2 wants a free range AND the held range: the whole call must fail
  // and release anything it took.
  ASSERT_TRUE(lt.Lock(2, {{0, 64}, {1 << 20, 64}}).IsBusy());
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
}

TEST(LockTableTest, MultiRangeLockAndUnlock) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}, {1 << 16, 128}, {1 << 20, 4096}}).ok());
  EXPECT_TRUE(lt.IsLocked({1 << 16, 1}));
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  EXPECT_FALSE(lt.IsLocked({1 << 16, 1}));
  EXPECT_FALSE(lt.IsLocked({1 << 20, 1}));
}

TEST(LockTableTest, ZeroLengthRangeIsNoop) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 0}}).ok());
  EXPECT_FALSE(lt.IsLocked({0, 64}));
  lt.Unlock(1);
}

TEST(LockTableTest, RangeSpanningGranularityLocksAllStripes) {
  LockTable lt(4096, 64);
  // A 256-byte range covers 4 slots; a conflicting lock on any of them
  // must fail.
  ASSERT_TRUE(lt.Lock(1, {{0, 256}}).ok());
  EXPECT_TRUE(lt.Lock(2, {{128, 8}}).IsBusy());
  lt.Unlock(1);
  EXPECT_TRUE(lt.Lock(2, {{128, 8}}).ok());
  lt.Unlock(2);
}

TEST(LockTableTest, BlockingWaitTimesOut) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  const auto start = std::chrono::steady_clock::now();
  Status st = lt.Lock(2, {{0, 64}}, microseconds(20000));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsTimedOut());
  EXPECT_GE(elapsed, std::chrono::microseconds(15000));
  lt.Unlock(1);
}

TEST(LockTableTest, BlockingWaitSucceedsWhenReleased) {
  LockTable lt;
  ASSERT_TRUE(lt.Lock(1, {{0, 64}}).ok());
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    lt.Unlock(1);
  });
  Status st = lt.Lock(2, {{0, 64}}, microseconds(500000));
  releaser.join();
  EXPECT_TRUE(st.ok());
  lt.Unlock(2);
}

TEST(LockTableTest, ConcurrentDisjointThroughput) {
  LockTable lt;
  std::atomic<int> failures{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        const TxId tx = t * 1000 + i + 1;
        // Every thread uses its own offset region.
        const uint64_t off = (static_cast<uint64_t>(t) << 24) + i * 4096;
        if (!lt.Lock(tx, {{off, 64}},
                     std::chrono::microseconds(100000)).ok()) {
          failures++;
        }
        lt.Unlock(tx);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- Slot map: one slot per slab from slab_base up ------------------------

constexpr uint64_t kSlabBase = 1 << 20;
constexpr uint32_t kSlab = 4096;

LockTable SlabTable() { return LockTable(4096, 64, 8, kSlabBase, kSlab); }

Range Slab(uint64_t i, uint64_t at = 0, uint64_t len = kSlab,
           bool shared = false) {
  return Range{kSlabBase + i * kSlab + at, len, shared};
}

TEST(LockTableSlotMapTest, NodeSizedReadTakesOneSlot) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(3, 0, kSlab, /*shared=*/true)}).ok());
  EXPECT_EQ(lt.TotalStats().acquires, 1u);
  // A compare of the slab's header and a write to its tail share that slot.
  ASSERT_TRUE(lt.Lock(2, {Slab(5, 0, 8, true), Slab(5, 4000, 96)}).ok());
  EXPECT_EQ(lt.TotalStats().acquires, 2u);
  lt.Unlock(1);
  lt.Unlock(2);
}

TEST(LockTableSlotMapTest, BlockReadConflictsWithWriteToAnySlabInside) {
  // The checkpoint's 64 KiB block read covers 16 slabs.
  LockTable lt = SlabTable();
  const Range block{kSlabBase, 64 << 10, /*shared=*/true};
  ASSERT_TRUE(lt.Lock(1, {block}).ok());
  for (uint64_t i = 0; i < 16; i++) {
    EXPECT_TRUE(lt.Lock(2, {Slab(i, 100, 8)}).IsBusy()) << i;
  }
  EXPECT_TRUE(lt.Lock(2, {Slab(16, 100, 8)}).ok());  // past the block
  lt.Unlock(1);
  lt.Unlock(2);
  // And the other way round: a held write makes the block read Busy.
  ASSERT_TRUE(lt.Lock(3, {Slab(9, 512, 8)}).ok());
  EXPECT_TRUE(lt.Lock(4, {block}).IsBusy());
  lt.Unlock(3);
  EXPECT_TRUE(lt.Lock(4, {block}).ok());
  lt.Unlock(4);
}

TEST(LockTableSlotMapTest, RangeStraddlingSlabBaseLocksBothKinds) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {{kSlabBase - 64, 128}}).ok());
  // One 64-byte slot below the base, one slab slot above it.
  EXPECT_EQ(lt.TotalStats().acquires, 2u);
  EXPECT_TRUE(lt.Lock(2, {{kSlabBase - 8, 8}}).IsBusy());
  EXPECT_TRUE(lt.Lock(2, {Slab(0, 2048, 8)}).IsBusy());
  EXPECT_FALSE(lt.IsLocked({kSlabBase - 128, 64}));
  lt.Unlock(1);
  EXPECT_FALSE(lt.IsLocked({kSlabBase - 64, 128}));
}

TEST(LockTableSlotMapTest, ReplicatedObjectsStillLockIndependently) {
  // The per-tree replicated objects (tip id, tip root, next sid, lowest
  // sid) sit 64 bytes apart below the slab region: each keeps its own slot.
  LockTable lt = SlabTable();
  const uint64_t tree_base = 4096;
  for (TxId tx = 1; tx <= 4; tx++) {
    EXPECT_TRUE(lt.Lock(tx, {{tree_base + (tx - 1) * 64, 12}}).ok()) << tx;
  }
  for (TxId tx = 1; tx <= 4; tx++) lt.Unlock(tx);
}

// --- Shared/exclusive ----------------------------------------------------

TEST(LockTableSharedTest, SharedHoldsAreGrantedTogether) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());
  ASSERT_TRUE(lt.Lock(2, {Slab(0, 0, 8, true)}).ok());
  EXPECT_TRUE(lt.IsLocked(Slab(0)));
  lt.Unlock(1);
  EXPECT_TRUE(lt.IsLocked(Slab(0)));  // tx 2 still reads
  lt.Unlock(2);
  EXPECT_FALSE(lt.IsLocked(Slab(0)));
}

TEST(LockTableSharedTest, SharedAndExclusiveConflictInBothOrders) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());
  EXPECT_TRUE(lt.Lock(2, {Slab(0)}).IsBusy());
  lt.Unlock(1);
  ASSERT_TRUE(lt.Lock(2, {Slab(0)}).ok());
  EXPECT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).IsBusy());
  lt.Unlock(2);
  EXPECT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());
  lt.Unlock(1);
}

TEST(LockTableSharedTest, ReadAndWriteOfOneSlotInOneCallIsExclusive) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, 8, true), Slab(0, 8, 64)}).ok());
  EXPECT_TRUE(lt.Lock(2, {Slab(0, 0, 8, true)}).IsBusy());
  lt.Unlock(1);
}

TEST(LockTableSharedTest, SoleReaderUpgradesOthersBlockIt) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());  // re-entry
  ASSERT_TRUE(lt.Lock(1, {Slab(0)}).ok());                  // upgrade
  EXPECT_TRUE(lt.Lock(2, {Slab(0, 0, 8, true)}).IsBusy());
  lt.Unlock(1);
  ASSERT_TRUE(lt.Lock(1, {Slab(1, 0, kSlab, true)}).ok());
  ASSERT_TRUE(lt.Lock(2, {Slab(1, 0, kSlab, true)}).ok());
  EXPECT_TRUE(lt.Lock(1, {Slab(1)}).IsBusy());  // not the only reader
  lt.Unlock(2);
  // The failed upgrade left tx 1's shared hold in place.
  EXPECT_TRUE(lt.Lock(3, {Slab(1)}).IsBusy());
  EXPECT_TRUE(lt.Lock(3, {Slab(1, 0, kSlab, true)}).ok());
  lt.Unlock(1);
  lt.Unlock(3);
  EXPECT_FALSE(lt.IsLocked(Slab(1)));
}

TEST(LockTableSharedTest, PartialFailureReleasesSharedHolds) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(7)}).ok());
  // Tx 2 reads a free slab AND the written one: the whole call fails and
  // its shared hold on the free slab goes with it.
  ASSERT_TRUE(
      lt.Lock(2, {Slab(2, 0, kSlab, true), Slab(7, 0, kSlab, true)}).IsBusy());
  EXPECT_FALSE(lt.IsLocked(Slab(2)));
  EXPECT_TRUE(lt.Lock(3, {Slab(2)}).ok());
  lt.Unlock(1);
  lt.Unlock(3);
}

TEST(LockTableSharedTest, BlockingWriterWakesWhenLastReaderLeaves) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());
  ASSERT_TRUE(lt.Lock(2, {Slab(0, 0, kSlab, true)}).ok());
  std::atomic<bool> granted{false};
  Status st = Status::Busy("not run");
  std::thread writer([&] {
    st = lt.Lock(3, {Slab(0)}, microseconds(2000000));
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  lt.Unlock(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(granted.load());  // tx 2 still reads
  // A blocked writer holds off new readers.
  EXPECT_TRUE(lt.Lock(4, {Slab(0, 0, 8, true)}).IsBusy());
  lt.Unlock(2);
  writer.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  lt.Unlock(3);
  EXPECT_TRUE(lt.Lock(4, {Slab(0, 0, 8, true)}).ok());
  lt.Unlock(4);
}

TEST(LockTableSharedTest, TimedOutWriterLetsBlockedReadersIn) {
  LockTable lt = SlabTable();
  ASSERT_TRUE(lt.Lock(1, {Slab(0, 0, kSlab, true)}).ok());
  std::thread writer([&] {
    EXPECT_TRUE(lt.Lock(2, {Slab(0)}, microseconds(20000)).IsTimedOut());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // This reader waits behind the writer, then gets in once it gives up.
  EXPECT_TRUE(lt.Lock(3, {Slab(0, 0, 8, true)}, microseconds(2000000)).ok());
  writer.join();
  lt.Unlock(1);
  lt.Unlock(3);
  EXPECT_FALSE(lt.IsLocked(Slab(0)));
}

}  // namespace
}  // namespace minuet::sinfonia
