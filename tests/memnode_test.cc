// Tests for a single memnode: byte space semantics, one-phase execution,
// prepare/commit/abort, backup images, crash & restore.
#include <gtest/gtest.h>

#include "sinfonia/memnode.h"

namespace minuet::sinfonia {
namespace {

TEST(RamSlabStoreTest, UnwrittenReadsAsZero) {
  store::RamSlabStore s;
  std::string out;
  s.Read(12345, 16, &out);
  EXPECT_EQ(out, std::string(16, '\0'));
}

TEST(RamSlabStoreTest, WriteThenRead) {
  store::RamSlabStore s;
  s.Write(100, "hello", 5);
  std::string out;
  s.Read(100, 5, &out);
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(s.Extent(), 105u);
}

TEST(RamSlabStoreTest, CrossChunkWrite) {
  store::RamSlabStore s;
  const uint64_t off = store::RamSlabStore::kChunkBytes - 3;
  s.Write(off, "abcdef", 6);
  std::string out;
  s.Read(off, 6, &out);
  EXPECT_EQ(out, "abcdef");
}

class MemnodeTest : public ::testing::Test {
 protected:
  Memnode node_{0};
};

TEST_F(MemnodeTest, ExecuteLocalCommitsWritesWhenComparesMatch) {
  MiniResult r;
  // Empty compare set commits unconditionally.
  ASSERT_TRUE(node_.ExecuteLocal(1, {}, {}, {{Addr{0, 64}, "data"}},
                                 false, &r).ok());
  EXPECT_TRUE(r.committed);

  // Compare against what we wrote: should match and apply the new write.
  MiniResult r2;
  ASSERT_TRUE(node_.ExecuteLocal(2, {{Addr{0, 64}, "data"}}, {},
                                 {{Addr{0, 128}, "more"}}, false, &r2).ok());
  EXPECT_TRUE(r2.committed);

  std::string out;
  node_.RawRead(128, 4, &out);
  EXPECT_EQ(out, "more");
}

TEST_F(MemnodeTest, ExecuteLocalFailedCompareAppliesNothing) {
  MiniResult r;
  ASSERT_TRUE(node_.ExecuteLocal(1, {{Addr{0, 64}, "expected"}}, {},
                                 {{Addr{0, 128}, "neverwritten"}},
                                 false, &r).ok());
  EXPECT_FALSE(r.committed);
  ASSERT_EQ(r.failed_compares.size(), 1u);
  EXPECT_EQ(r.failed_compares[0], 0u);

  std::string out;
  node_.RawRead(128, 12, &out);
  EXPECT_EQ(out, std::string(12, '\0'));
}

TEST_F(MemnodeTest, ExecuteLocalReturnsReads) {
  node_.RawWrite(64, "abcd");
  MiniResult r;
  ASSERT_TRUE(node_.ExecuteLocal(1, {}, {{Addr{0, 64}, 4}, {Addr{0, 66}, 2}},
                                 {}, false, &r).ok());
  ASSERT_TRUE(r.committed);
  ASSERT_EQ(r.read_results.size(), 2u);
  EXPECT_EQ(r.read_results[0], "abcd");
  EXPECT_EQ(r.read_results[1], "cd");
}

TEST_F(MemnodeTest, ExecuteLocalReadsAndWritesAtomicTogether) {
  node_.RawWrite(64, "v1");
  MiniResult r;
  ASSERT_TRUE(node_.ExecuteLocal(1, {{Addr{0, 64}, "v1"}}, {{Addr{0, 64}, 2}},
                                 {{Addr{0, 64}, "v2"}}, false, &r).ok());
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(r.read_results[0], "v1");  // reads see pre-write state
  std::string out;
  node_.RawRead(64, 2, &out);
  EXPECT_EQ(out, "v2");
}

TEST_F(MemnodeTest, PrepareHoldsLocksUntilCommit) {
  bool vote = false;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, {}, {}, {{Addr{0, 64}, "x"}}, false, &vote,
                            &reads, &failed).ok());
  EXPECT_TRUE(vote);

  // Another transaction on the same range must see Busy.
  MiniResult r;
  EXPECT_TRUE(node_.ExecuteLocal(2, {}, {}, {{Addr{0, 64}, "y"}},
                                 false, &r).IsBusy());

  node_.Commit(1, {{Addr{0, 64}, "x"}});
  std::string out;
  node_.RawRead(64, 1, &out);
  EXPECT_EQ(out, "x");

  // Locks released after commit.
  ASSERT_TRUE(node_.ExecuteLocal(3, {}, {}, {{Addr{0, 64}, "y"}},
                                 false, &r).ok());
  EXPECT_TRUE(r.committed);
}

TEST_F(MemnodeTest, PrepareNoVoteReleasesLocksImmediately) {
  bool vote = true;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, {{Addr{0, 64}, "nope"}}, {},
                            {{Addr{0, 64}, "x"}}, false, &vote, &reads,
                            &failed).ok());
  EXPECT_FALSE(vote);
  ASSERT_EQ(failed.size(), 1u);

  MiniResult r;
  EXPECT_TRUE(node_.ExecuteLocal(2, {}, {}, {{Addr{0, 64}, "y"}},
                                 false, &r).ok());
}

TEST_F(MemnodeTest, AbortReleasesLocks) {
  bool vote = false;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  ASSERT_TRUE(node_.Prepare(1, {}, {}, {{Addr{0, 64}, "x"}}, false, &vote,
                            &reads, &failed).ok());
  node_.Abort(1);
  MiniResult r;
  EXPECT_TRUE(node_.ExecuteLocal(2, {}, {}, {{Addr{0, 64}, "y"}},
                                 false, &r).ok());
  std::string out;
  node_.RawRead(64, 1, &out);
  EXPECT_EQ(out, "y");  // the aborted write never applied
}

// A memnode shaped like a cluster's: one lock slot per 1 KiB slab from
// kSlabBase up.
constexpr uint64_t kSlabBase = 1 << 20;
constexpr uint32_t kNodeSize = 1024;

Memnode::Options SlabOptions() {
  Memnode::Options o;
  o.slab_base = kSlabBase;
  o.node_size = kNodeSize;
  return o;
}

TEST(MemnodeLockSlotTest, NodeReadTakesOneLockSlot) {
  Memnode node(0, SlabOptions());
  const Addr slab{0, kSlabBase + 5 * kNodeSize};
  MiniResult r;
  ASSERT_TRUE(node.ExecuteLocal(1, {{slab, std::string(8, '\0')}},
                                {{slab, kNodeSize}}, {}, false, &r).ok());
  ASSERT_TRUE(r.committed);
  EXPECT_EQ(node.lock_table().TotalStats().acquires, 1u);
}

TEST(MemnodeLockSlotTest, ReadOnlyMinitxnsShareAnObjectWritersWait) {
  Memnode node(0, SlabOptions());
  const Addr slab{0, kSlabBase};
  node.RawWrite(slab.offset, "v1");
  bool vote = false;
  std::vector<std::string> reads;
  std::vector<uint32_t> failed;
  // Two read-only minitransactions validate and read the same object; both
  // hold their (shared) locks across the prepare/commit boundary.
  ASSERT_TRUE(node.Prepare(1, {{slab, "v1"}}, {{slab, kNodeSize}}, {}, false,
                           &vote, &reads, &failed).ok());
  EXPECT_TRUE(vote);
  ASSERT_TRUE(node.Prepare(2, {}, {{slab, 2}}, {}, false, &vote, &reads,
                           &failed).ok());
  EXPECT_TRUE(vote);
  EXPECT_EQ(reads.back(), "v1");

  MiniResult r;
  EXPECT_TRUE(node.ExecuteLocal(3, {}, {}, {{slab, "v2"}}, false, &r)
                  .IsBusy());
  node.Commit(1, {});
  EXPECT_TRUE(node.ExecuteLocal(3, {}, {}, {{slab, "v2"}}, false, &r)
                  .IsBusy());  // tx 2 still reads
  node.Commit(2, {});
  ASSERT_TRUE(node.ExecuteLocal(3, {}, {}, {{slab, "v2"}}, false, &r).ok());
  EXPECT_TRUE(r.committed);
}

TEST(MemnodeBackupTest, BackupImageAndRestore) {
  Memnode primary(0), backup(1);
  primary.RawWrite(64, "payload");
  backup.ApplyBackupWrites(0, {{Addr{0, 64}, "payload"}});

  primary.LoseState();
  std::string out;
  primary.RawRead(64, 7, &out);
  EXPECT_EQ(out, std::string(7, '\0'));

  primary.RestoreFrom(backup);
  primary.RawRead(64, 7, &out);
  EXPECT_EQ(out, "payload");
}

TEST(MemnodeBackupTest, RestoreWithoutImageIsNoop) {
  Memnode primary(0), backup(1);
  primary.RestoreFrom(backup);  // no image registered: must not crash
  std::string out;
  primary.RawRead(0, 4, &out);
  EXPECT_EQ(out, std::string(4, '\0'));
}

}  // namespace
}  // namespace minuet::sinfonia
