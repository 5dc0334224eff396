// Cross-module integration tests over the full stack: mixed concurrent
// workloads, snapshot-isolation checking under churn, strict
// serializability of the borrowing service, GC under load, and the
// interplay of snapshots with branching trees.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/key_codec.h"
#include "common/random.h"
#include "minuet/cluster.h"

namespace minuet {
namespace {

ClusterOptions Opts(uint32_t machines = 4, uint32_t node_size = 1024) {
  ClusterOptions o;
  o.machines = machines;
  o.node_size = node_size;
  return o;
}

TEST(IntegrationTest, MixedWorkloadWithSnapshotsAndGc) {
  ClusterOptions opts = Opts();
  // The GC horizon must not overtake a snapshot a scan is still using
  // (§4.4: queries are only supported down to the lowest retained id), so
  // retain enough history to cover in-flight scans plus the snapshot storm
  // this test creates.
  opts.retain_snapshots = 6;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());

  constexpr uint64_t kKeys = 400;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(i))
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::mutex err_mu;
  std::string first_error;
  auto record = [&](const char* who, const Status& st) {
    errors++;
    std::lock_guard<std::mutex> g(err_mu);
    if (first_error.empty()) {
      first_error = std::string(who) + ": " + st.ToString();
    }
  };

  std::thread writer([&] {
    Rng rng(1);
    while (!stop) {
      Status st = cluster.proxy(1).Put(
          *tree, EncodeUserKey(rng.Uniform(kKeys)), EncodeValue(rng.Next()));
      if (!st.ok()) record("writer", st);
    }
  });
  std::thread snapshotter([&] {
    for (int i = 0; i < 12 && !stop; i++) {
      auto snap = cluster.proxy(2).Snapshot(*tree);
      if (!snap.ok()) record("snapshotter", snap.status());
      // Pace the storm so the GC horizon trails every active scan.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread scanner([&] {
    while (!stop) {
      std::vector<std::pair<std::string, std::string>> rows;
      Status st = cluster.proxy(3).Scan(*tree, EncodeUserKey(0), kKeys,
                                        &rows);
      if (st.IsInvalidArgument()) {
        // The scan outlived its snapshot's retention window (the GC
        // horizon overtook it): a clean, documented failure — the client
        // re-acquires a snapshot and retries.
        continue;
      }
      if (!st.ok()) {
        record("scanner", st);
      } else if (rows.size() != kKeys) {
        record("scanner-count", Status::Corruption("row count"));
      }
    }
  });

  // Interleave two GC passes with the workload.
  for (int pass = 0; pass < 2; pass++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto report = cluster.CollectGarbage(*tree);
    if (!report.ok()) record("gc", report.status());
  }
  snapshotter.join();
  stop = true;
  writer.join();
  scanner.join();
  EXPECT_EQ(errors.load(), 0) << first_error;

  // Every key still present and readable at the tip.
  std::string value;
  for (uint64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster.proxy(0).Get(*tree, EncodeUserKey(i), &value).ok())
        << i;
  }
}

TEST(IntegrationTest, SnapshotScanSumInvariantUnderTransfers) {
  // Writers move value between accounts in atomic transactions, keeping
  // the global sum constant. Any snapshot scan must observe exactly that
  // sum — the classic snapshot-isolation checker.
  Cluster cluster(Opts());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  constexpr uint64_t kAccounts = 64;
  constexpr uint64_t kInitial = 1000;
  for (uint64_t i = 0; i < kAccounts; i++) {
    ASSERT_TRUE(cluster.proxy(0)
                    .Put(*tree, EncodeUserKey(i), EncodeValue(kInitial))
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread transferer([&] {
    Proxy& p = cluster.proxy(1);
    Rng rng(3);
    while (!stop) {
      const std::string from = EncodeUserKey(rng.Uniform(kAccounts));
      const std::string to = EncodeUserKey(rng.Uniform(kAccounts));
      if (from == to) continue;
      Status st = p.Transaction([&](txn::DynamicTxn& txn) -> Status {
        std::string fv, tv;
        MINUET_RETURN_NOT_OK(
            p.tree(*tree)->GetInTxn(txn, btree::Target::Tip(), from, &fv));
        MINUET_RETURN_NOT_OK(
            p.tree(*tree)->GetInTxn(txn, btree::Target::Tip(), to, &tv));
        const uint64_t f = DecodeValue(fv), t = DecodeValue(tv);
        if (f == 0) return Status::OK();
        MINUET_RETURN_NOT_OK(
            p.tree(*tree)->PutInTxn(txn, btree::Target::Tip(), from,
                                    EncodeValue(f - 1)));
        return p.tree(*tree)->PutInTxn(txn, btree::Target::Tip(), to,
                                       EncodeValue(t + 1));
      });
      if (!st.ok()) {
        violations++;
        std::fprintf(stderr, "transfer failed: %s\n", st.ToString().c_str());
      }
    }
  });

  Proxy& auditor = cluster.proxy(2);
  for (int round = 0; round < 15; round++) {
    auto snap = auditor.Snapshot(*tree);
    ASSERT_TRUE(snap.ok());
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(snap->Scan(EncodeUserKey(0), kAccounts, &rows).ok());
    ASSERT_EQ(rows.size(), kAccounts);
    uint64_t sum = 0;
    for (const auto& [k, v] : rows) sum += DecodeValue(v);
    EXPECT_EQ(sum, kAccounts * kInitial) << "round " << round;
  }
  stop = true;
  transferer.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(IntegrationTest, BorrowedSnapshotsAreStrictlySerializable) {
  // A borrowed snapshot must reflect a state no older than the borrower's
  // request start. Writers stamp a monotonically increasing value; each
  // snapshot request records the stamp committed before it started and
  // verifies the snapshot contains at least that stamp.
  Cluster cluster(Opts());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(cluster.proxy(0).Put(*tree, "stamp", EncodeValue(0)).ok());

  std::atomic<uint64_t> committed_stamp{0};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::thread stamper([&] {
    Proxy& p = cluster.proxy(0);
    for (uint64_t s = 1; !stop; s++) {
      if (p.Put(*tree, "stamp", EncodeValue(s)).ok()) {
        committed_stamp.store(s, std::memory_order_release);
      }
    }
  });

  std::vector<std::thread> requesters;
  for (int t = 0; t < 4; t++) {
    requesters.emplace_back([&, t] {
      Proxy& p = cluster.proxy(1 + t % 3);
      for (int i = 0; i < 40; i++) {
        const uint64_t floor = committed_stamp.load(std::memory_order_acquire);
        auto snap = p.Snapshot(*tree);
        if (!snap.ok()) {
          violations++;
          continue;
        }
        std::string value;
        if (!snap->Get("stamp", &value).ok()) {
          violations++;
          continue;
        }
        // Strict serializability: the snapshot happens AFTER the request
        // began, so it must include everything committed before that.
        if (DecodeValue(value) < floor) violations++;
      }
    });
  }
  for (auto& t : requesters) t.join();
  stop = true;
  stamper.join();
  EXPECT_EQ(violations.load(), 0);
  // The run should actually have exercised borrowing.
  EXPECT_GT(cluster.snapshot_service(*tree)->snapshots_created() +
                cluster.snapshot_service(*tree)->snapshots_borrowed(),
            100u);
}

TEST(IntegrationTest, TwoTreesWithIndependentSnapshots) {
  Cluster cluster(Opts());
  auto orders = cluster.CreateTree();
  auto users = cluster.CreateTree();
  ASSERT_TRUE(orders.ok() && users.ok());
  Proxy& p = cluster.proxy(0);

  ASSERT_TRUE(p.Put(*orders, "o1", "pending").ok());
  ASSERT_TRUE(p.Put(*users, "u1", "alice").ok());

  auto orders_snap = p.Snapshot(*orders);
  ASSERT_TRUE(orders_snap.ok());
  ASSERT_TRUE(p.Put(*orders, "o1", "shipped").ok());
  ASSERT_TRUE(p.Put(*users, "u1", "alice2").ok());

  std::string value;
  ASSERT_TRUE(orders_snap->Get("o1", &value).ok());
  EXPECT_EQ(value, "pending");
  // The users tree was never snapshotted; its tip moved freely.
  ASSERT_TRUE(p.Get(*users, "u1", &value).ok());
  EXPECT_EQ(value, "alice2");
  ASSERT_TRUE(p.Get(*orders, "o1", &value).ok());
  EXPECT_EQ(value, "shipped");
}

TEST(IntegrationTest, BranchingTreeUnderConcurrentProxies) {
  Cluster cluster(Opts());
  auto tree = cluster.CreateTree(/*branching=*/true);
  ASSERT_TRUE(tree.ok());
  auto base = cluster.proxy(0).Branch(*tree, 0);
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(base->Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto b1 = cluster.proxy(0).CreateBranch(*tree, 0);
  ASSERT_TRUE(b1.ok());
  auto b2 = cluster.proxy(1).CreateBranch(*tree, 0);
  ASSERT_TRUE(b2.ok());

  std::atomic<int> errors{0};
  std::thread w1([&] {
    auto view = cluster.proxy(0).Branch(*tree, *b1);
    if (!view.ok()) {
      errors += 120;
      return;
    }
    Rng rng(1);
    for (int i = 0; i < 120; i++) {
      if (!view->Put(EncodeUserKey(rng.Uniform(100)), EncodeValue(1000 + i))
               .ok()) {
        errors++;
      }
    }
  });
  std::thread w2([&] {
    auto view = cluster.proxy(1).Branch(*tree, *b2);
    if (!view.ok()) {
      errors += 120;
      return;
    }
    Rng rng(2);
    for (int i = 0; i < 120; i++) {
      if (!view->Put(EncodeUserKey(rng.Uniform(100)), EncodeValue(2000 + i))
               .ok()) {
        errors++;
      }
    }
  });
  w1.join();
  w2.join();
  EXPECT_EQ(errors.load(), 0);

  // Branch values never leak across branches, and the frozen base is
  // untouched.
  auto r1 = cluster.proxy(2).Branch(*tree, *b1);
  auto r2 = cluster.proxy(2).Branch(*tree, *b2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(r1->Get(EncodeUserKey(i), &value).ok());
    EXPECT_TRUE(DecodeValue(value) < 100 ||
                (DecodeValue(value) >= 1000 && DecodeValue(value) < 2000));
    ASSERT_TRUE(r2->Get(EncodeUserKey(i), &value).ok());
    EXPECT_TRUE(DecodeValue(value) < 100 || DecodeValue(value) >= 2000);
  }
  auto frozen = cluster.proxy(3).Branch(*tree, 0);
  ASSERT_TRUE(frozen.ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(frozen->Scan(EncodeUserKey(0), 200, &rows).ok());
  ASSERT_EQ(rows.size(), 100u);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(DecodeValue(rows[i].second), static_cast<uint64_t>(i));
  }
}

TEST(IntegrationTest, TipCursorEqualsSnapshotScanWhenQuiescent) {
  Cluster cluster(Opts());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  Proxy& p = cluster.proxy(0);
  Rng rng(9);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(p.Put(*tree, EncodeUserKey(rng.Uniform(10000)),
                      EncodeValue(i))
                    .ok());
  }
  std::vector<std::pair<std::string, std::string>> tip_rows, snap_rows;
  ASSERT_TRUE(
      p.Tip(*tree).Scan(EncodeUserKey(0), 10000, &tip_rows).ok());
  auto snap = p.Snapshot(*tree);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(snap->Scan(EncodeUserKey(0), 10000, &snap_rows).ok());
  EXPECT_EQ(tip_rows, snap_rows);
}

}  // namespace
}  // namespace minuet
