// Tests for the distributed B-tree: basic operations, splits and deep
// trees, multi-proxy sharing with incoherent caches, fence-key safety,
// round-trip economy, dirty vs. validated traversals, and concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "obs/trace.h"
#include "test_cluster.h"

namespace minuet::btree {
namespace {

using minuet::testing::TestCluster;

class BTreeTest : public ::testing::Test {
 protected:
  void Build(TestCluster::Config config = {}, TreeOptions topts = {}) {
    cluster_ = std::make_unique<TestCluster>(config);
    trees_ = cluster_->MakeTrees(0, topts);
    ASSERT_TRUE(trees_[0]->CreateTree().ok());
  }

  void SetUp() override { Build(); }

  BTree& tree(uint32_t proxy = 0) { return *trees_[proxy]; }

  std::unique_ptr<TestCluster> cluster_;
  std::vector<std::unique_ptr<BTree>> trees_;
};

TEST_F(BTreeTest, PutGetSingleKey) {
  ASSERT_TRUE(tree().Put(Target::Tip(), "hello", "world").ok());
  std::string value;
  ASSERT_TRUE(tree().Get(Target::Tip(), "hello", &value).ok());
  EXPECT_EQ(value, "world");
}

TEST_F(BTreeTest, GetMissingIsNotFound) {
  std::string value;
  EXPECT_TRUE(tree().Get(Target::Tip(), "nothing", &value).IsNotFound());
}

TEST_F(BTreeTest, PutOverwrites) {
  ASSERT_TRUE(tree().Put(Target::Tip(), "k", "v1").ok());
  ASSERT_TRUE(tree().Put(Target::Tip(), "k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree().Get(Target::Tip(), "k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(BTreeTest, RemoveThenGetIsNotFound) {
  ASSERT_TRUE(tree().Put(Target::Tip(), "k", "v").ok());
  ASSERT_TRUE(tree().Remove(Target::Tip(), "k").ok());
  std::string value;
  EXPECT_TRUE(tree().Get(Target::Tip(), "k", &value).IsNotFound());
}

TEST_F(BTreeTest, RemoveMissingIsNotFound) {
  EXPECT_TRUE(tree().Remove(Target::Tip(), "ghost").IsNotFound());
}

TEST_F(BTreeTest, EmptyKeyRejected) {
  EXPECT_TRUE(tree().Put(Target::Tip(), "", "v").IsInvalidArgument());
  std::string value;
  EXPECT_TRUE(tree().Get(Target::Tip(), "", &value).IsInvalidArgument());
}

TEST_F(BTreeTest, OversizedEntryRejected) {
  const std::string big(4096, 'x');
  EXPECT_TRUE(tree().Put(Target::Tip(), "key", big).IsInvalidArgument());
}

TEST_F(BTreeTest, ManyKeysForceSplitsAndStayFindable) {
  // 1 KB nodes with 14-byte keys: several levels of splits.
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i * 7), EncodeValue(i)).ok())
        << "i=" << i;
  }
  EXPECT_GT(tree().stats().splits.Value(), 10u);
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(i * 7), &value).ok())
        << "i=" << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
  // Keys never inserted are absent.
  std::string value;
  EXPECT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(3), &value).IsNotFound());
}

TEST_F(BTreeTest, RandomOrderInsertionMatchesReferenceModel) {
  Rng rng(11);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; i++) {
    const std::string key = EncodeUserKey(rng.Uniform(500));
    if (rng.Chance(0.25) && !model.empty()) {
      Status st = tree().Remove(Target::Tip(), key);
      const bool existed = model.erase(key) > 0;
      EXPECT_EQ(st.ok(), existed);
      EXPECT_EQ(st.IsNotFound(), !existed);
    } else {
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(tree().Put(Target::Tip(), key, value).ok());
      model[key] = value;
    }
  }
  for (const auto& [k, v] : model) {
    std::string value;
    ASSERT_TRUE(tree().Get(Target::Tip(), k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
}

TEST_F(BTreeTest, TipScanReturnsSortedRange) {
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i * 2), EncodeValue(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  std::string resume;
  ASSERT_TRUE(
      tree().Scan(Target::Tip(), EncodeUserKey(100), 50, &out, &resume).ok());
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out[0].first, EncodeUserKey(100));
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
  EXPECT_EQ(out.back().first, EncodeUserKey(198));
}

TEST_F(BTreeTest, TipScanStopsAtTreeEnd) {
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  std::string resume;
  ASSERT_TRUE(
      tree().Scan(Target::Tip(), EncodeUserKey(15), 100, &out, &resume).ok());
  EXPECT_EQ(out.size(), 5u);
  EXPECT_TRUE(resume.empty());
}

TEST_F(BTreeTest, SecondProxySeesCommittedData) {
  ASSERT_TRUE(tree(0).Put(Target::Tip(), "shared", "value").ok());
  std::string value;
  ASSERT_TRUE(tree(1).Get(Target::Tip(), "shared", &value).ok());
  EXPECT_EQ(value, "value");
}

TEST_F(BTreeTest, StaleProxyCacheIsToleratedAfterSplits) {
  // Proxy 1 caches the internal structure, then proxy 0 splits nodes many
  // times. Proxy 1's subsequent reads must still be correct (fence-key
  // aborts + retry refresh the cache).
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        tree(0).Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  // Warm proxy 1's cache.
  ASSERT_TRUE(tree(1).Get(Target::Tip(), EncodeUserKey(25), &value).ok());
  for (int i = 50; i < 1200; i++) {
    ASSERT_TRUE(
        tree(0).Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  for (int i : {0, 25, 49, 50, 600, 1199}) {
    ASSERT_TRUE(tree(1).Get(Target::Tip(), EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, WarmGetUsesOneRoundTrip) {
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  // Warm up the proxy cache (internal nodes + tip objects).
  std::string value;
  ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(200), &value).ok());

  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(201), &value).ok());
  }
  // The paper's best case: traverse in-cache, fetch the leaf and validate
  // the path in the same minitransaction → one round trip to one memnode.
  EXPECT_EQ(trace.round_trips(), 1u);
  EXPECT_EQ(trace.messages(), 1u);
}

TEST_F(BTreeTest, WarmUpdateUsesTwoRoundTrips) {
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(200), &value).ok());

  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(200), EncodeValue(9)).ok());
  }
  // Leaf fetch (1 round trip) + one-phase commit at the leaf's memnode
  // (1 round trip), no split involved.
  EXPECT_EQ(trace.round_trips(), 2u);
  EXPECT_EQ(trace.messages(), 2u);
}

TEST_F(BTreeTest, DirtyTraversalKeepsReadSetSmall) {
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  txn::DynamicTxn txn(cluster_->coord(), cluster_->cache(0));
  std::string value;
  ASSERT_TRUE(
      tree().GetInTxn(txn, Target::Tip(), EncodeUserKey(400), &value).ok());
  // Read set: tip id + tip root + leaf = 3, independent of tree depth.
  EXPECT_EQ(txn.read_set_size(), 3u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(BTreeTest, ValidatedTraversalPutsWholePathInReadSet) {
  TreeOptions topts;
  topts.dirty_traversals = false;
  topts.replicate_internal_seqnums = true;
  Build({}, topts);
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  txn::DynamicTxn txn(cluster_->coord(), cluster_->cache(0));
  std::string value;
  ASSERT_TRUE(
      tree().GetInTxn(txn, Target::Tip(), EncodeUserKey(400), &value).ok());
  // tip id + tip root + root..leaf path (≥ 2 levels at this size).
  EXPECT_GE(txn.read_set_size(), 4u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(BTreeTest, BaselineModeIsStillCorrect) {
  TreeOptions topts;
  topts.dirty_traversals = false;
  topts.replicate_internal_seqnums = true;
  Build({}, topts);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  for (int i : {0, 1, 499, 999}) {
    ASSERT_TRUE(tree(1).Get(Target::Tip(), EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST_F(BTreeTest, MultiTreeTransactionIsAtomic) {
  auto trees_b = cluster_->MakeTrees(1);
  ASSERT_TRUE(trees_b[0]->CreateTree().ok());
  BTree& tree_a = tree();
  BTree& tree_b = *trees_b[0];

  // Atomically put into both trees.
  Status st = txn::RunTransaction(
      cluster_->coord(), cluster_->cache(0), {}, 64,
      [&](txn::DynamicTxn& t) -> Status {
        MINUET_RETURN_NOT_OK(tree_a.PutInTxn(t, Target::Tip(), "ka", "va"));
        return tree_b.PutInTxn(t, Target::Tip(), "kb", "vb");
      });
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::string value;
  ASSERT_TRUE(tree_a.Get(Target::Tip(), "ka", &value).ok());
  EXPECT_EQ(value, "va");
  ASSERT_TRUE(tree_b.Get(Target::Tip(), "kb", &value).ok());
  EXPECT_EQ(value, "vb");

  // A failing transaction leaves neither write behind.
  st = txn::RunTransaction(cluster_->coord(), cluster_->cache(0), {}, 4,
                           [&](txn::DynamicTxn& t) -> Status {
                             MINUET_RETURN_NOT_OK(
                                 tree_a.PutInTxn(t, Target::Tip(), "ka",
                                                 "poison"));
                             MINUET_RETURN_NOT_OK(
                                 tree_b.PutInTxn(t, Target::Tip(), "kb",
                                                 "poison"));
                             return Status::Corruption("deliberate failure");
                           });
  EXPECT_TRUE(st.IsCorruption());
  ASSERT_TRUE(tree_a.Get(Target::Tip(), "ka", &value).ok());
  EXPECT_EQ(value, "va");
  ASSERT_TRUE(tree_b.Get(Target::Tip(), "kb", &value).ok());
  EXPECT_EQ(value, "vb");
}

TEST_F(BTreeTest, DualKeyReadIsConsistent) {
  ASSERT_TRUE(tree().Put(Target::Tip(), "x", "1").ok());
  ASSERT_TRUE(tree().Put(Target::Tip(), "y", "1").ok());
  // Writer thread keeps x and y equal, incrementing both atomically;
  // readers must never observe x != y.
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (int i = 2; i < 60; i++) {
      Status st = txn::RunTransaction(
          cluster_->coord(), cluster_->cache(0), {}, 10000,
          [&](txn::DynamicTxn& t) -> Status {
            const std::string v = std::to_string(i);
            MINUET_RETURN_NOT_OK(tree(0).PutInTxn(t, Target::Tip(), "x", v));
            return tree(0).PutInTxn(t, Target::Tip(), "y", v);
          });
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    stop = true;
  });
  std::thread reader([&] {
    while (!stop) {
      std::string x, y;
      Status st = txn::RunTransaction(
          cluster_->coord(), cluster_->cache(1), {}, 10000,
          [&](txn::DynamicTxn& t) -> Status {
            MINUET_RETURN_NOT_OK(tree(1).GetInTxn(t, Target::Tip(), "x", &x));
            return tree(1).GetInTxn(t, Target::Tip(), "y", &y);
          });
      if (st.ok() && x != y) violations++;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_F(BTreeTest, ConcurrentDisjointWritersAllSucceed) {
  constexpr int kThreads = 4, kKeys = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeys; i++) {
        const uint64_t id = static_cast<uint64_t>(t) * 100000 + i;
        ASSERT_TRUE(tree(t % 2).Put(Target::Tip(), EncodeUserKey(id),
                                    EncodeValue(id)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kKeys; i += 37) {
      const uint64_t id = static_cast<uint64_t>(t) * 100000 + i;
      std::string value;
      ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(id), &value).ok());
      EXPECT_EQ(DecodeValue(value), id);
    }
  }
}

TEST_F(BTreeTest, ConflictingWriteAbortsAndRetrySucceeds) {
  // Deterministic OCC conflict: a transaction reads the leaf, another
  // proxy updates the same key, then the first transaction tries to write
  // based on its stale read. Its commit must fail validation; a retried
  // operation succeeds.
  ASSERT_TRUE(tree(0).Put(Target::Tip(), "hot", "v0").ok());

  txn::DynamicTxn stale(cluster_->coord(), cluster_->cache(0));
  std::string value;
  ASSERT_TRUE(tree(0).GetInTxn(stale, Target::Tip(), "hot", &value).ok());
  EXPECT_EQ(value, "v0");

  // A concurrent committed write.
  ASSERT_TRUE(tree(1).Put(Target::Tip(), "hot", "v1").ok());

  Status st = tree(0).PutInTxn(stale, Target::Tip(), "hot", "stale-write");
  if (st.ok()) st = stale.Commit();
  EXPECT_TRUE(st.IsAborted()) << st.ToString();

  // The standalone Put (with internal retry) still gets through.
  ASSERT_TRUE(tree(0).Put(Target::Tip(), "hot", "v2").ok());
  ASSERT_TRUE(tree(1).Get(Target::Tip(), "hot", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(BTreeTest, ConcurrentUpsertsOnHotKeysStayCorrect) {
  constexpr int kThreads = 4, kOps = 100;
  for (int k = 0; k < 4; k++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(k), EncodeValue(0)).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kOps; i++) {
        const std::string key = EncodeUserKey(rng.Uniform(4));
        ASSERT_TRUE(
            tree(t % 2).Put(Target::Tip(), key, EncodeValue(rng.Next())).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::string value;
  for (int k = 0; k < 4; k++) {
    ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(k), &value).ok());
    EXPECT_EQ(value.size(), 8u);
  }
}

TEST_F(BTreeTest, StatsTrackSplits) {
  EXPECT_EQ(tree().stats().splits.Value(), 0u);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  EXPECT_GT(tree().stats().splits.Value(), 0u);
}

TEST_F(BTreeTest, WorksWithReplicationEnabled) {
  Build({.n_memnodes = 4, .n_proxies = 2, .node_size = 1024,
         .replication = true, .alloc_batch = 8});
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(150), &value).ok());
  EXPECT_EQ(DecodeValue(value), 150u);
}

TEST_F(BTreeTest, SingleMemnodeClusterWorks) {
  Build({.n_memnodes = 1, .n_proxies = 1, .node_size = 1024,
         .replication = false, .alloc_batch = 8});
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(
        tree().Put(Target::Tip(), EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(tree().Get(Target::Tip(), EncodeUserKey(123), &value).ok());
}

// Parameterized sweep: correctness across node sizes and memnode counts.
struct SweepParam {
  uint32_t node_size;
  uint32_t memnodes;
  bool dirty;
};

class BTreeSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BTreeSweepTest, InsertLookupScanHoldUnderConfig) {
  const SweepParam p = GetParam();
  TestCluster cluster({.n_memnodes = p.memnodes, .n_proxies = 2,
                       .node_size = p.node_size, .replication = false,
                       .alloc_batch = 8});
  TreeOptions topts;
  topts.dirty_traversals = p.dirty;
  topts.replicate_internal_seqnums = !p.dirty;
  auto trees = cluster.MakeTrees(0, topts);
  ASSERT_TRUE(trees[0]->CreateTree().ok());

  constexpr int kKeys = 600;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(trees[i % 2]->Put(Target::Tip(), EncodeUserKey(i * 3),
                                  EncodeValue(i)).ok());
  }
  std::string value;
  for (int i = 0; i < kKeys; i += 13) {
    ASSERT_TRUE(trees[(i + 1) % 2]->Get(Target::Tip(), EncodeUserKey(i * 3),
                                        &value).ok());
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
  std::vector<std::pair<std::string, std::string>> out;
  std::string resume;
  ASSERT_TRUE(
      trees[0]->Scan(Target::Tip(), EncodeUserKey(0), 100, &out, &resume).ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BTreeSweepTest,
    ::testing::Values(SweepParam{512, 1, true}, SweepParam{512, 4, true},
                      SweepParam{1024, 2, true}, SweepParam{1024, 8, true},
                      SweepParam{4096, 4, true}, SweepParam{1024, 4, false},
                      SweepParam{512, 4, false}, SweepParam{4096, 8, false}));

}  // namespace
}  // namespace minuet::btree
