// End-to-end tests of the public facade: cluster assembly, linear and
// branching trees, snapshot policy wiring, multi-tree transactions, GC,
// fault injection, and the YCSB adapter.
#include <gtest/gtest.h>

#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"

namespace minuet {
namespace {

ClusterOptions SmallOptions() {
  ClusterOptions opts;
  opts.machines = 4;
  opts.node_size = 1024;
  return opts;
}

TEST(ClusterTest, QuickstartFlow) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->branching());
  TipView tip = cluster.proxy(0).Tip(*tree);
  ASSERT_TRUE(tip.Put("hello", "world").ok());
  std::string value;
  ASSERT_TRUE(tip.Get("hello", &value).ok());
  EXPECT_EQ(value, "world");
  ASSERT_TRUE(tip.Remove("hello").ok());
  EXPECT_TRUE(tip.Get("hello", &value).IsNotFound());

  // OpenTree re-derives an equal handle from the raw slot.
  auto reopened = cluster.OpenTree(tree->slot());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened, *tree);
  EXPECT_TRUE(cluster.OpenTree(99).status().IsInvalidArgument());
}

TEST(ClusterTest, InsertIsStrictPutIsUpsert) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  ASSERT_TRUE(tip.Insert("k", "v1").ok());
  EXPECT_TRUE(tip.Insert("k", "v2").IsAlreadyExists());
  std::string value;
  ASSERT_TRUE(tip.Get("k", &value).ok());
  EXPECT_EQ(value, "v1");  // the failed insert changed nothing
  ASSERT_TRUE(tip.Put("k", "v3").ok());
  ASSERT_TRUE(tip.Get("k", &value).ok());
  EXPECT_EQ(value, "v3");
}

TEST(ClusterTest, TipMultiGetIsAtomic) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  ASSERT_TRUE(tip.Put("a", "1").ok());
  ASSERT_TRUE(tip.Put("c", "3").ok());
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(tip.MultiGet({"a", "b", "c"}, &values).ok());
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], "1");
  EXPECT_FALSE(values[1].has_value());
  EXPECT_EQ(values[2], "3");
}

TEST(ClusterTest, AllProxiesShareTheTree) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  for (uint32_t i = 0; i < cluster.n_proxies(); i++) {
    ASSERT_TRUE(cluster.proxy(i)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  std::string value;
  for (uint32_t i = 0; i < cluster.n_proxies(); i++) {
    const uint32_t reader = (i + 1) % cluster.n_proxies();
    ASSERT_TRUE(
        cluster.proxy(reader).Get(*tree, EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), i);
  }
}

TEST(ClusterTest, SnapshotServiceAndScans) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(1000 + i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(snap->Scan(EncodeUserKey(0), 200, &rows).ok());
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(DecodeValue(rows[42].second), 42u);

  // The same rows through a streaming cursor.
  size_t n = 0;
  for (auto cur = snap->NewCursor(EncodeUserKey(0)); cur->Valid();
       cur->Next()) {
    EXPECT_EQ(cur->key(), rows[n].first);
    EXPECT_EQ(cur->value(), rows[n].second);
    n++;
  }
  EXPECT_EQ(n, rows.size());

  ASSERT_TRUE(p.Scan(*tree, EncodeUserKey(0), 200, &rows).ok());
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(DecodeValue(rows[42].second), 1042u);
}

TEST(ClusterTest, StaleSnapshotPolicyHonoursInjectedClock) {
  ClusterOptions opts = SmallOptions();
  opts.snapshot_min_interval_seconds = 30;
  Cluster cluster(opts);
  double now = 0;
  cluster.set_snapshot_clock([&now] { return now; });
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  ASSERT_TRUE(p.Put(*tree, "k", "old").ok());

  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(p.Scan(*tree, "a", 10, &rows).ok());  // creates snapshot
  ASSERT_TRUE(p.Put(*tree, "k", "new").ok());
  now = 10;  // within k: the scan reuses the stale snapshot
  ASSERT_TRUE(p.Scan(*tree, "a", 10, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second, "old");
  now = 40;  // past k: fresh snapshot
  ASSERT_TRUE(p.Scan(*tree, "a", 10, &rows).ok());
  EXPECT_EQ(rows[0].second, "new");
}

TEST(ClusterTest, MultiTreeTransactionAcrossIndexes) {
  Cluster cluster(SmallOptions());
  auto t1 = cluster.CreateTree();
  auto t2 = cluster.CreateTree();
  ASSERT_TRUE(t1.ok() && t2.ok());
  Proxy& p = cluster.proxy(0);

  Status st = p.Transaction([&](txn::DynamicTxn& txn) -> Status {
    MINUET_RETURN_NOT_OK(p.tree(*t1)->PutInTxn(txn, "user", "alice"));
    return p.tree(*t2)->PutInTxn(txn, "email", "alice@example.com");
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::string value;
  ASSERT_TRUE(cluster.proxy(1).Get(*t1, "user", &value).ok());
  EXPECT_EQ(value, "alice");
  ASSERT_TRUE(cluster.proxy(1).Get(*t2, "email", &value).ok());
  EXPECT_EQ(value, "alice@example.com");
}

TEST(ClusterTest, BranchingTreeEndToEnd) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->branching());
  Proxy& p = cluster.proxy(0);
  auto base = p.Branch(*tree, 0);
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(base->Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto branch_sid = p.CreateBranch(*tree, 0);
  ASSERT_TRUE(branch_sid.ok());
  auto branch = p.Branch(*tree, *branch_sid);
  ASSERT_TRUE(branch.ok());
  EXPECT_TRUE(branch->writable());
  ASSERT_TRUE(branch->Put(EncodeUserKey(0), EncodeValue(777)).ok());

  std::string value;
  auto remote = cluster.proxy(2).Branch(*tree, *branch_sid);
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE(remote->Get(EncodeUserKey(0), &value).ok());
  EXPECT_EQ(DecodeValue(value), 777u);

  auto frozen = p.Branch(*tree, 0);
  ASSERT_TRUE(frozen.ok());
  EXPECT_FALSE(frozen->writable());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(frozen->Scan(EncodeUserKey(0), 100, &rows).ok());
  ASSERT_EQ(rows.size(), 50u);
  EXPECT_EQ(DecodeValue(rows[0].second), 0u);  // frozen parent unchanged
  EXPECT_TRUE(frozen->Put("x", "y").IsReadOnly());
}

TEST(ClusterTest, BranchOpsOnLinearTreeRejected) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree(/*branching=*/false);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(cluster.proxy(0).CreateBranch(*tree, 0).status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, GarbageCollectionThroughFacade) {
  ClusterOptions opts = SmallOptions();
  opts.retain_snapshots = 1;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  for (int i = 0; i < 80; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  for (int epoch = 0; epoch < 5; epoch++) {
    ASSERT_TRUE(p.Snapshot(*tree).ok());
    for (int i = 0; i < 80; i++) {
      ASSERT_TRUE(
          p.Put(*tree, EncodeUserKey(i), EncodeValue(epoch * 100 + i)).ok());
    }
  }
  auto report = cluster.CollectGarbage(*tree);
  ASSERT_TRUE(report.ok());
  // Snapshot creation already freed the copies the horizon passed; the
  // collector's running total counts those and the pass alike.
  EXPECT_GT(cluster.catalog().gc(tree->slot())->total_freed(), 0u);
  std::string value;
  ASSERT_TRUE(p.Get(*tree, EncodeUserKey(40), &value).ok());
  EXPECT_EQ(DecodeValue(value), 440u);
}

TEST(ClusterTest, MemnodeCrashAndRecovery) {
  ClusterOptions opts = SmallOptions();
  opts.replication = true;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  cluster.CrashMemnode(2);
  // Some operations fail while the memnode is down.
  int unavailable = 0;
  std::string value;
  for (int i = 0; i < 200; i++) {
    if (p.Get(*tree, EncodeUserKey(i), &value).IsUnavailable()) unavailable++;
  }
  EXPECT_GT(unavailable, 0);

  cluster.RecoverMemnode(2);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(p.Get(*tree, EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST(ClusterTest, YcsbAdapterRunsWorkloadA) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  ProxyKV kv(&cluster.proxy(0), *tree);

  constexpr uint64_t kRecords = 300;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(kv.Insert(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  ycsb::InsertSequence seq(kRecords);
  ycsb::WorkloadGenerator gen(ycsb::WorkloadSpec::A(kRecords), &seq, 17);
  Rng rng(17);
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(ycsb::ExecuteOp(&kv, gen.Next(), &rng).ok());
  }
}

TEST(ClusterTest, YcsbAdapterRunsScanWorkloadWithSnapshots) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  ProxyKV kv(&cluster.proxy(0), *tree, ProxyKV::ScanMode::kSnapshot);
  constexpr uint64_t kRecords = 200;
  for (uint64_t i = 0; i < kRecords; i++) {
    ASSERT_TRUE(kv.Insert(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  ycsb::InsertSequence seq(kRecords);
  ycsb::WorkloadGenerator gen(ycsb::WorkloadSpec::E(kRecords), &seq, 23);
  Rng rng(23);
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(ycsb::ExecuteOp(&kv, gen.Next(), &rng).ok());
  }
  EXPECT_GT(cluster.snapshot_service(*tree)->snapshots_created(), 0u);
}

TEST(ClusterTest, ConcurrentMixedWorkloadAcrossProxies) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < cluster.n_proxies(); t++) {
    threads.emplace_back([&, t] {
      Proxy& p = cluster.proxy(t);
      Rng rng(t);
      for (int i = 0; i < 150; i++) {
        const std::string key = EncodeUserKey(rng.Uniform(200));
        if (rng.Chance(0.5)) {
          std::string value;
          Status st = p.Get(*tree, key, &value);
          ASSERT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        } else {
          ASSERT_TRUE(p.Put(*tree, key, EncodeValue(rng.Next())).ok());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --- Elastic proxy tier --------------------------------------------------

TEST(ProxyLifecycleTest, AddedProxyServesAllPreexistingTrees) {
  Cluster cluster(SmallOptions());
  auto t1 = cluster.CreateTree();
  auto t2 = cluster.CreateTree();
  ASSERT_TRUE(t1.ok() && t2.ok());
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(
        cluster.proxy(0).Put(*t1, EncodeUserKey(i), EncodeValue(i)).ok());
    ASSERT_TRUE(cluster.proxy(1)
                    .Put(*t2, EncodeUserKey(i), EncodeValue(1000 + i))
                    .ok());
  }

  const uint32_t before = cluster.n_proxies();
  auto id = cluster.AddProxy();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, before);
  EXPECT_EQ(cluster.n_proxies(), before + 1);
  EXPECT_EQ(cluster.n_live_proxies(), before + 1);

  // The new proxy lazily attaches both existing trees: reads, writes and
  // scans work with no explicit registration step.
  Proxy& fresh = cluster.proxy(*id);
  std::string value;
  ASSERT_TRUE(fresh.Get(*t1, EncodeUserKey(42), &value).ok());
  EXPECT_EQ(DecodeValue(value), 42u);
  ASSERT_TRUE(fresh.Put(*t2, EncodeUserKey(500), EncodeValue(7)).ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(fresh.Scan(*t2, EncodeUserKey(0), 1000, &rows).ok());
  EXPECT_EQ(rows.size(), 151u);

  // A multi-tree batch through the added proxy commits atomically.
  WriteBatch batch;
  batch.Put(*t1, "joined", "yes");
  batch.Put(*t2, "joined", "also");
  ASSERT_TRUE(fresh.Apply(batch).ok());
  ASSERT_TRUE(cluster.proxy(0).Get(*t2, "joined", &value).ok());
  EXPECT_EQ(value, "also");

  // A tree created AFTER the join is visible in both directions.
  auto t3 = cluster.CreateTree();
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(fresh.Put(*t3, "late", "tree").ok());
  ASSERT_TRUE(cluster.proxy(0).Get(*t3, "late", &value).ok());
  EXPECT_EQ(value, "tree");
}

TEST(ProxyLifecycleTest, RemoveProxyReleasesLeasesAndUnblocksGc) {
  ClusterOptions opts = SmallOptions();
  opts.retain_snapshots = 1;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& victim = cluster.proxy(1);
  constexpr int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(victim.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto* scs = cluster.snapshot_service(*tree);

  // The victim pins a snapshot, then churn piles up epochs behind it.
  auto pinned = victim.Snapshot(*tree);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(scs->owner_pinned_count(victim.lease_owner()), 1u);
  for (int epoch = 0; epoch < 6; epoch++) {
    ASSERT_TRUE(scs->CreateSnapshot().ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(cluster.proxy(0)
                      .Put(*tree, EncodeUserKey(i), EncodeValue(1000 + i))
                      .ok());
    }
  }
  EXPECT_LE(scs->LowestRetained(), pinned->sid());

  // THE LEASE-RELEASE INVARIANT: removing the proxy bulk-releases every
  // lease it holds, so the horizon advances past the pinned sid and GC
  // reclaims the epochs the departed member was holding hostage.
  ASSERT_TRUE(cluster.RemoveProxy(1).ok());
  EXPECT_EQ(scs->owner_pinned_count(victim.lease_owner()), 0u);
  EXPECT_EQ(scs->pinned_count(), 0u);
  // A straggler's pin landing after the bulk release is refused.
  scs->Pin(pinned->sid(), victim.lease_owner());
  EXPECT_EQ(scs->owner_pinned_count(victim.lease_owner()), 0u);
  EXPECT_EQ(scs->pinned_count(), 0u);
  EXPECT_GT(scs->LowestRetained(), pinned->sid());
  auto report = cluster.CollectGarbage(*tree);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->freed, 0u);

  // The removed proxy's cache is drained and refuses refills; operations
  // fail with a clean InvalidArgument, never a use-after-free.
  EXPECT_TRUE(victim.detached());
  EXPECT_TRUE(victim.cache()->disabled());
  EXPECT_EQ(victim.cache()->size(), 0u);
  std::string value;
  EXPECT_TRUE(victim.Get(*tree, EncodeUserKey(0), &value).IsInvalidArgument());
  EXPECT_TRUE(
      victim.Put(*tree, EncodeUserKey(0), EncodeValue(0)).IsInvalidArgument());

  // The survivors keep serving, and the pinned view's destructor (running
  // after the bulk release) unpins as a harmless no-op.
  ASSERT_TRUE(cluster.proxy(0).Get(*tree, EncodeUserKey(40), &value).ok());
  EXPECT_EQ(DecodeValue(value), 1040u);
}

TEST(ProxyLifecycleTest, ProxyIdsAreNeverReused) {
  Cluster cluster(SmallOptions());  // 4 proxies
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(cluster.RemoveProxy(2).ok());
  EXPECT_EQ(cluster.n_proxies(), 4u);
  EXPECT_EQ(cluster.n_live_proxies(), 3u);

  // The id is a permanent hole, symmetric with retired memnode ids.
  EXPECT_TRUE(cluster.RemoveProxy(2).IsInvalidArgument());
  EXPECT_TRUE(cluster.RemoveProxy(99).IsInvalidArgument());
  EXPECT_TRUE(cluster.FindProxy(99).status().IsInvalidArgument());

  // A later join takes a FRESH id past the hole, and serves immediately.
  auto id = cluster.AddProxy();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 4u);
  ASSERT_TRUE(cluster.proxy(*id).Put(*tree, "k", "v").ok());
  std::string value;
  ASSERT_TRUE(cluster.proxy(0).Get(*tree, "k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST(ProxyLifecycleTest, LastLiveProxyCannotBeRemoved) {
  ClusterOptions opts = SmallOptions();
  opts.proxies = 2;
  Cluster cluster(opts);
  EXPECT_EQ(cluster.n_proxies(), 2u);
  ASSERT_TRUE(cluster.RemoveProxy(0).ok());
  EXPECT_TRUE(cluster.RemoveProxy(1).IsInvalidArgument());
  EXPECT_EQ(cluster.n_live_proxies(), 1u);

  // Growing back out of the corner works.
  ASSERT_TRUE(cluster.AddProxy().ok());
  ASSERT_TRUE(cluster.RemoveProxy(1).ok());
  EXPECT_EQ(cluster.n_live_proxies(), 1u);
}

}  // namespace
}  // namespace minuet
