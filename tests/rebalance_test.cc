// Elastic scale-out and live rebalancing: online memnode addition, slab
// migration correctness (snapshots, crashes, concurrent traffic), and
// convergence of the rebalancer after the cluster doubles.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"
#include "rebalance/rebalancer.h"

namespace minuet {
namespace {

ClusterOptions SmallOpts(uint32_t machines = 4) {
  ClusterOptions o;
  o.machines = machines;
  o.node_size = 1024;  // small nodes: real multi-level trees from few keys
  o.replication = true;
  return o;
}

// Tip-reachable slabs per memnode, from the tree's own placement walk.
std::vector<uint64_t> TipCounts(Cluster& cluster, const TreeHandle& tree) {
  std::vector<btree::BTree::NodePlacement> placement;
  EXPECT_TRUE(cluster.proxy(0)
                  .tree(tree.slot())
                  ->CollectTipPlacement(&placement)
                  .ok());
  std::vector<uint64_t> counts(cluster.n_memnodes(), 0);
  for (const auto& p : placement) {
    EXPECT_LT(p.addr.memnode, counts.size());
    if (p.addr.memnode < counts.size()) counts[p.addr.memnode]++;
  }
  return counts;
}

TEST(RebalanceTest, AddMemnodeServesTrafficAndAttractsNewPlacement) {
  Cluster cluster(SmallOpts(2));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }

  auto id = cluster.AddMemnode();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);
  EXPECT_EQ(cluster.n_memnodes(), 3u);

  // The cluster keeps serving, and the load-aware allocator steers new
  // slabs onto the fresh (empty) memnode without any explicit rebalance.
  for (int i = 300; i < 900; i++) {
    ASSERT_TRUE(cluster.proxy(1)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  EXPECT_GT(cluster.allocator()->ApproxLiveSlabs(2), 0u);
  std::string value;
  for (int i = 0; i < 900; i += 37) {
    ASSERT_TRUE(cluster.proxy(0).Get(*tree, EncodeUserKey(i), &value).ok())
        << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST(RebalanceTest, AddMemnodeRefusedWhileSeedingPeerIsDown) {
  // Growing during an outage would seed the new node (and, worse, the
  // rewired backup image of the last node) from a wiped peer: refused.
  Cluster cluster(SmallOpts(2));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  cluster.CrashMemnode(1);
  auto refused = cluster.AddMemnode();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnavailable());
  EXPECT_EQ(cluster.n_memnodes(), 2u);

  cluster.RecoverMemnode(1);
  ASSERT_TRUE(cluster.AddMemnode().ok());
  std::string value;
  for (int i = 0; i < 100; i += 9) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, EncodeUserKey(i), &value).ok());
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST(RebalanceTest, AddMemnodeRespectsCapacity) {
  ClusterOptions opts = SmallOpts(2);
  opts.max_machines = 3;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.AddMemnode().ok());
  auto overflow = cluster.AddMemnode();
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsNoSpace());
  EXPECT_EQ(cluster.n_memnodes(), 3u);
}

TEST(RebalanceTest, MigrateNodeMovesSlabAndKeepsTreeIntact) {
  Cluster cluster(SmallOpts(2));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  ASSERT_TRUE(cluster.AddMemnode().ok());

  btree::BTree* t = cluster.proxy(0).tree(tree->slot());
  std::vector<btree::BTree::NodePlacement> placement;
  ASSERT_TRUE(t->CollectTipPlacement(&placement).ok());
  ASSERT_GT(placement.size(), 4u);

  // Move every node the walk found (root, internals, leaves alike).
  uint64_t moved = 0;
  for (const auto& p : placement) {
    bool migrated = false;
    ASSERT_TRUE(t->MigrateNode(p, 2, &migrated).ok());
    moved += migrated ? 1 : 0;
  }
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(t->stats().migrations.Value(), moved);

  // The whole population now answers from the new home, through both
  // proxies (one of which has only stale cached pointers).
  std::string value;
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, EncodeUserKey(i), &value).ok())
        << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
  auto counts = TipCounts(cluster, *tree);
  EXPECT_EQ(counts[0] + counts[1], 0u) << "every tip slab should have moved";
  EXPECT_GT(counts[2], 0u);
}

TEST(RebalanceTest, SnapshotOpenedBeforeMigrationReadsEveryKey) {
  ClusterOptions opts = SmallOpts(2);
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  // Overwrite half the keys AFTER the snapshot, so it has real version
  // deltas to protect.
  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i + 9000)).ok());
  }

  ASSERT_TRUE(cluster.AddMemnode().ok());
  btree::BTree* t = p.tree(tree->slot());
  std::vector<btree::BTree::NodePlacement> placement;
  ASSERT_TRUE(t->CollectTipPlacement(&placement).ok());

  std::string value;
  uint64_t moved = 0;
  for (size_t k = 0; k < placement.size(); k++) {
    bool migrated = false;
    ASSERT_TRUE(t->MigrateNode(placement[k], 2, &migrated).ok());
    moved += migrated ? 1 : 0;
    // Interleave snapshot reads DURING the migration sequence.
    const int probe = static_cast<int>((k * 37) % kKeys);
    ASSERT_TRUE(snap->Get(EncodeUserKey(probe), &value).ok()) << probe;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(probe));
  }
  EXPECT_GT(moved, 0u);

  // And after: the snapshot still serves its full frozen image while the
  // tip serves the overwrites.
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_TRUE(snap->Get(EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
    ASSERT_TRUE(p.Get(*tree, EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value),
              static_cast<uint64_t>(i % 2 == 0 ? i + 9000 : i));
  }
}

TEST(RebalanceTest, GcReclaimsMigratedSourcesOnceHorizonPasses) {
  ClusterOptions opts = SmallOpts(2);
  opts.retain_snapshots = 1;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  ASSERT_TRUE(cluster.AddMemnode().ok());

  btree::BTree* t = p.tree(tree->slot());
  std::vector<btree::BTree::NodePlacement> placement;
  ASSERT_TRUE(t->CollectTipPlacement(&placement).ok());
  uint64_t moved = 0;
  for (const auto& entry : placement) {
    bool migrated = false;
    ASSERT_TRUE(t->MigrateNode(entry, 2, &migrated).ok());
    moved += migrated ? 1 : 0;
  }
  ASSERT_GT(moved, 0u);

  // Advance the snapshot horizon past the migration sid (retain_last = 1),
  // then collect: the migrated sources must come back, freed either as the
  // snapshots push the horizon past them or by the passes.
  const mvcc::GarbageCollector* gc = cluster.catalog().gc(tree->slot());
  const uint64_t freed_before = gc->total_freed();
  for (int s = 0; s < 3; s++) {
    auto snap = p.Snapshot(*tree);
    ASSERT_TRUE(snap.ok());
  }
  for (int pass = 0; pass < 3; pass++) {
    auto report = cluster.CollectGarbage(*tree);
    ASSERT_TRUE(report.ok());
  }
  EXPECT_GE(gc->total_freed() - freed_before, moved);

  std::string value;
  for (int i = 0; i < 300; i += 11) {
    ASSERT_TRUE(p.Get(*tree, EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

// The acceptance bar: load 4 memnodes, add 4 more, and the rebalancer
// converges every memnode's tip-slab share to within 2x of ideal while a
// snapshot opened before the rebalance still reads every key.
TEST(RebalanceTest, RebalancerConvergesAfterDoublingTheCluster) {
  ClusterOptions opts = SmallOpts(4);
  opts.retain_snapshots = 4;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 1200;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());

  for (int m = 0; m < 4; m++) {
    ASSERT_TRUE(cluster.AddMemnode().ok());
  }
  ASSERT_EQ(cluster.n_memnodes(), 8u);

  // Fresh nodes start empty: the cluster is maximally skewed now.
  auto before = TipCounts(cluster, *tree);
  EXPECT_EQ(before[4] + before[5] + before[6] + before[7], 0u);

  rebalance::Options ropts;
  ropts.collect_garbage = true;
  rebalance::Rebalancer rebalancer(&cluster, ropts);
  auto migrated = rebalancer.RunUntilBalanced(/*max_rounds=*/32);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  EXPECT_GT(*migrated, 0u);

  auto counts = TipCounts(cluster, *tree);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  const double ideal = static_cast<double>(total) / counts.size();
  for (size_t m = 0; m < counts.size(); m++) {
    EXPECT_LE(static_cast<double>(counts[m]), 2.0 * ideal)
        << "memnode " << m << " holds " << counts[m] << " of " << total;
    EXPECT_GE(static_cast<double>(counts[m]) * 2.0, ideal * 0.99)
        << "memnode " << m << " holds " << counts[m] << " of " << total;
  }

  // The pre-scale-out snapshot still serves its complete image.
  std::string value;
  for (int i = 0; i < kKeys; i += 13) {
    ASSERT_TRUE(snap->Get(EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST(RebalanceTest, ConcurrentTrafficDuringRebalanceStaysLinearizable) {
  Cluster cluster(SmallOpts(4));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(0))
                    .ok());
  }
  for (int m = 0; m < 2; m++) {
    ASSERT_TRUE(cluster.AddMemnode().ok());
  }

  // Writers (single Puts and WriteBatches) race the background rebalancer.
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::map<std::string, uint64_t> committed;
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; w++) {
    writers.emplace_back([&, w] {
      Rng rng(w + 7);
      Proxy& proxy = cluster.proxy(w % cluster.n_proxies());
      while (!stop) {
        if (rng.Uniform(4) == 0) {
          WriteBatch batch;
          std::vector<std::pair<std::string, uint64_t>> pending;
          for (int k = 0; k < 4; k++) {
            const std::string key = EncodeUserKey(rng.Uniform(kKeys));
            const uint64_t v = rng.Next();
            batch.Put(*tree, key, EncodeValue(v));
            pending.emplace_back(key, v);
          }
          if (proxy.Apply(batch).ok()) {
            std::lock_guard<std::mutex> g(mu);
            for (auto& [key, v] : pending) committed[key] = v;
          }
        } else {
          const std::string key = EncodeUserKey(rng.Uniform(kKeys));
          const uint64_t v = rng.Next();
          if (proxy.Put(*tree, key, EncodeValue(v)).ok()) {
            std::lock_guard<std::mutex> g(mu);
            committed[key] = v;
          }
        }
      }
    });
  }

  rebalance::Options ropts;
  ropts.interval = std::chrono::milliseconds(1);
  rebalance::Rebalancer rebalancer(&cluster, ropts);
  rebalancer.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop = true;
  for (auto& t : writers) t.join();
  rebalancer.Stop();
  EXPECT_GT(rebalancer.total_migrated(), 0u);

  // Every key a writer reported committed is durable and readable; the
  // value may be any later committed write of the racing threads, so only
  // presence is asserted — plus a full scan for structural integrity.
  std::string value;
  for (const auto& [key, v] : committed) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, key, &value).ok()) << key;
  }
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(2).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), static_cast<size_t>(kKeys));
}

// --- Elastic scale-IN: drain + retire ---------------------------------------

// The acceptance bar: on a loaded 4-node cluster, RemoveMemnode leaves the
// drained node with zero live slabs, its id rejected by fabric and
// coordinator, and every key readable/writable through every proxy
// (including proxies holding stale cached pointers at the retired node).
TEST(ScaleInTest, RemoveMemnodeDrainsRetiresAndKeepsServing) {
  ClusterOptions opts = SmallOpts(4);
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 1000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  // Warm every proxy's cache so the post-retire reads below exercise the
  // stale-pointer-to-retired-memnode abort path.
  std::string value;
  for (uint32_t px = 0; px < cluster.n_proxies(); px++) {
    for (int i = 0; i < kKeys; i += 97) {
      ASSERT_TRUE(cluster.proxy(px).Get(*tree, EncodeUserKey(i), &value).ok());
    }
  }
  ASSERT_GT(TipCounts(cluster, *tree)[3], 0u) << "node 3 must hold data";

  ASSERT_TRUE(cluster.RemoveMemnode(3).ok());

  // Membership: the id space keeps counting the retired id, liveness not.
  EXPECT_EQ(cluster.n_memnodes(), 4u);
  EXPECT_EQ(cluster.n_live_memnodes(), 3u);
  EXPECT_TRUE(cluster.coordinator()->retired(3));

  // Zero live slabs on the drained node (tip walk AND authoritative meta).
  auto counts = TipCounts(cluster, *tree);
  EXPECT_EQ(counts[3], 0u);
  auto meta = cluster.allocator()->MetaLiveSlabs(3);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(*meta, 0u);

  // The retired id is rejected by the fabric...
  EXPECT_TRUE(cluster.fabric()->IsRetired(3));
  EXPECT_FALSE(cluster.fabric()->IsUp(3));
  Status charge = cluster.fabric()->ChargeMessage(3);
  EXPECT_TRUE(charge.IsUnavailable()) << charge.ToString();
  // ... and by the coordinator (a minitransaction naming it fails), and
  // recovery cannot resurrect it.
  txn::DynamicTxn probe(cluster.coordinator(), nullptr);
  auto read = probe.Read(cluster.layout().SlabRef(
      sinfonia::Addr{3, cluster.layout().slab_base()}));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsUnavailable());
  cluster.RecoverMemnode(3);
  EXPECT_FALSE(cluster.fabric()->IsUp(3));

  // Every key remains readable through EVERY proxy, and the tree is
  // writable; a full scan sees the complete population.
  for (uint32_t px = 0; px < cluster.n_proxies(); px++) {
    for (int i = 0; i < kKeys; i += 7) {
      ASSERT_TRUE(cluster.proxy(px).Get(*tree, EncodeUserKey(i), &value).ok())
          << "proxy " << px << " key " << i;
      EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
    }
  }
  for (int i = 0; i < kKeys; i += 11) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i + 5000)).ok());
  }
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(1).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), static_cast<size_t>(kKeys));

  // Removing it again is an error; growing again hands out a FRESH id.
  EXPECT_TRUE(cluster.RemoveMemnode(3).IsInvalidArgument());
  auto added = cluster.AddMemnode();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 4u);
  EXPECT_EQ(cluster.n_live_memnodes(), 4u);
  ASSERT_TRUE(p.Put(*tree, EncodeUserKey(kKeys), EncodeValue(kKeys)).ok());
  ASSERT_TRUE(p.Get(*tree, EncodeUserKey(kKeys), &value).ok());
}

// Memnode 0 is the default home for replicated-object reads AND for the
// commit-time validation of all-replicated transactions (the GC's horizon
// publish reads/writes only LowestSidRef). Retiring it must leave both
// routing around the hole.
TEST(ScaleInTest, RemovingMemnodeZeroKeepsReplicatedPathsWorking) {
  ClusterOptions opts = SmallOpts(3);
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  ASSERT_TRUE(cluster.RemoveMemnode(0).ok());
  EXPECT_TRUE(cluster.fabric()->IsRetired(0));

  // The horizon publish is a replicated-only commit: it must validate at
  // a live node, not the retired default.
  auto gc = cluster.CollectGarbage(*tree);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  // Snapshot creation (replicated tip update) and reads keep working too.
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  std::string value;
  for (int i = 0; i < kKeys; i += 9) {
    ASSERT_TRUE(snap->Get(EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, EncodeUserKey(i), &value).ok());
  }
  ASSERT_TRUE(p.Put(*tree, EncodeUserKey(0), EncodeValue(42)).ok());
}

TEST(ScaleInTest, DrainUnderConcurrentTrafficStaysLinearizable) {
  ClusterOptions opts = SmallOpts(4);
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(0))
                    .ok());
  }

  // Writers (single Puts and WriteBatches) race the whole drain + retire.
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::map<std::string, uint64_t> committed;
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; w++) {
    writers.emplace_back([&, w] {
      Rng rng(w + 11);
      Proxy& proxy = cluster.proxy(w % cluster.n_proxies());
      while (!stop) {
        if (rng.Uniform(4) == 0) {
          WriteBatch batch;
          std::vector<std::pair<std::string, uint64_t>> pending;
          for (int k = 0; k < 4; k++) {
            const std::string key = EncodeUserKey(rng.Uniform(kKeys));
            const uint64_t v = rng.Next();
            batch.Put(*tree, key, EncodeValue(v));
            pending.emplace_back(key, v);
          }
          if (proxy.Apply(batch).ok()) {
            std::lock_guard<std::mutex> g(mu);
            for (auto& [key, v] : pending) committed[key] = v;
          }
        } else {
          const std::string key = EncodeUserKey(rng.Uniform(kKeys));
          const uint64_t v = rng.Next();
          if (proxy.Put(*tree, key, EncodeValue(v)).ok()) {
            std::lock_guard<std::mutex> g(mu);
            committed[key] = v;
          }
        }
      }
    });
  }

  // Let traffic build up before, and keep flowing after, the removal.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status removed = cluster.RemoveMemnode(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  for (auto& t : writers) t.join();
  ASSERT_TRUE(removed.ok()) << removed.ToString();
  EXPECT_TRUE(cluster.fabric()->IsRetired(3));
  EXPECT_GT(cluster.rebalancer()->total_migrated(), 0u);
  EXPECT_EQ(TipCounts(cluster, *tree)[3], 0u);

  // Every key a writer reported committed is durable and readable; a full
  // scan confirms structural integrity.
  std::string value;
  for (const auto& [key, v] : committed) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, key, &value).ok()) << key;
  }
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(cluster.proxy(2).Scan(*tree, "", kKeys + 1, &all).ok());
  EXPECT_EQ(all.size(), static_cast<size_t>(kKeys));
}

// The GC-horizon rule: a pinned pre-drain snapshot keeps the drained
// node's migrated sources alive — RemoveMemnode drains but reports Busy
// instead of retiring, the snapshot stays fully readable mid-drain, and
// releasing the pin lets a second RemoveMemnode finish the retirement.
TEST(ScaleInTest, PinnedSnapshotBlocksRetireButStaysReadableMidDrain) {
  ClusterOptions opts = SmallOpts(4);
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  {
    auto snap = p.Snapshot(*tree);  // pinned for this scope
    ASSERT_TRUE(snap.ok());
    // Overwrite half AFTER the snapshot so it has version deltas on the
    // node being drained.
    for (int i = 0; i < kKeys; i += 2) {
      ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i + 9000)).ok());
    }

    Cluster::RemoveMemnodeOptions ropts;
    ropts.max_gc_rounds = 6;
    Status st = cluster.RemoveMemnode(3, ropts);
    ASSERT_TRUE(st.IsBusy()) << st.ToString();

    // Drained but NOT retired: the node stays drain-only and keeps serving
    // the pinned snapshot's reads.
    EXPECT_FALSE(cluster.fabric()->IsRetired(3));
    EXPECT_TRUE(cluster.fabric()->IsUp(3));
    EXPECT_EQ(cluster.allocator()->placement_state(3),
              alloc::NodeAllocator::PlacementState::kDraining);
    EXPECT_EQ(TipCounts(cluster, *tree)[3], 0u) << "tip slabs must be gone";

    std::string value;
    for (int i = 0; i < kKeys; i += 3) {
      ASSERT_TRUE(snap->Get(EncodeUserKey(i), &value).ok()) << i;
      EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i))
          << "pre-drain snapshot must serve its frozen image";
    }
  }  // the view's lease releases here — the horizon may advance now

  ASSERT_TRUE(cluster.RemoveMemnode(3).ok());
  EXPECT_TRUE(cluster.fabric()->IsRetired(3));
  auto meta = cluster.allocator()->MetaLiveSlabs(3);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(*meta, 0u);
  std::string value;
  for (int i = 0; i < kKeys; i += 5) {
    ASSERT_TRUE(p.Get(*tree, EncodeUserKey(i), &value).ok()) << i;
    EXPECT_EQ(DecodeValue(value),
              static_cast<uint64_t>(i % 2 == 0 ? i + 9000 : i));
  }
}

// A crash mid-drain fails the drain cleanly (nothing retired, nothing
// lost); after recovery the same node drains again to completion.
TEST(ScaleInTest, CrashMidDrainAbortsCleanlyAndRedrains) {
  ClusterOptions opts = SmallOpts(3);
  opts.retain_snapshots = 2;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(i), EncodeValue(i)).ok());
  }

  // Begin the drain and move PART of the population off node 2.
  ASSERT_TRUE(cluster.allocator()->BeginDrain(2).ok());
  btree::BTree* t = p.tree(tree->slot());
  std::vector<btree::BTree::NodePlacement> placement;
  ASSERT_TRUE(t->CollectTipPlacement(&placement).ok());
  uint64_t moved = 0;
  for (const auto& entry : placement) {
    if (entry.addr.memnode != 2 || moved >= 3) continue;
    bool migrated = false;
    ASSERT_TRUE(t->MigrateNode(entry, 0, &migrated).ok());
    moved += migrated ? 1 : 0;
  }

  // Crash the donor mid-drain: the drain aborts cleanly — no retirement,
  // no membership change — and RemoveMemnode refuses while the node is
  // down (its remaining slabs must be readable to migrate).
  cluster.CrashMemnode(2);
  auto report = cluster.rebalancer()->DrainMemnode(2, /*max_rounds=*/8);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnavailable()) << report.status().ToString();
  EXPECT_FALSE(cluster.fabric()->IsRetired(2));
  EXPECT_TRUE(cluster.RemoveMemnode(2).IsUnavailable());
  EXPECT_EQ(cluster.n_live_memnodes(), 3u);

  // Recover and re-drain: BeginDrain is idempotent, the drain resumes, and
  // the retirement completes with every key intact.
  cluster.RecoverMemnode(2);
  ASSERT_TRUE(cluster.RemoveMemnode(2).ok());
  EXPECT_TRUE(cluster.fabric()->IsRetired(2));
  EXPECT_EQ(cluster.n_live_memnodes(), 2u);
  std::string value;
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_TRUE(cluster.proxy(1).Get(*tree, EncodeUserKey(i), &value).ok())
        << i;
    EXPECT_EQ(DecodeValue(value), static_cast<uint64_t>(i));
  }
}

TEST(RebalanceTest, BackgroundRebalancerViaClusterAccessor) {
  Cluster cluster(SmallOpts(2));
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }
  ASSERT_TRUE(cluster.AddMemnode().ok());
  auto report = cluster.rebalancer()->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->migrated, 0u);
}

}  // namespace
}  // namespace minuet
