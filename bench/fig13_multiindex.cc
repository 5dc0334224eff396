// Figure 13: multi-index (dual-key) transaction throughput vs. scale.
// Minuet runs one dynamic transaction across two B-trees (commit validates
// both leaves); CDB runs a global multi-partition transaction engaging
// every server. Expected shape: Minuet near-linear (~250 K dual reads at
// 35); CDB around 10^3 ops/s, flat-to-falling with scale.
#include "bench/harness/setup.h"

namespace minuet::bench {
namespace {

constexpr uint64_t kPreload = 3000;  // per table (paper: 10 M, scaled)
constexpr uint32_t kThreads = 4;
constexpr uint64_t kOps = 300;

struct Row {
  double read2, update2, insert2;
};

Row RunMinuet(uint32_t machines) {
  auto cluster = MakeCluster(machines);
  auto t1 = cluster->CreateTree();
  auto t2 = cluster->CreateTree();
  if (!t1.ok() || !t2.ok()) std::abort();
  Preload(*cluster, *t1, kPreload);
  Preload(*cluster, *t2, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = kThreads;
  ropts.ops_per_thread = kOps;
  ycsb::InsertSequence inserts(kPreload);

  enum class Kind { kRead2, kUpdate2, kInsert2 };
  auto run = [&](Kind kind) {
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(3000 + t);
    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Proxy& proxy = cluster->proxy(ctx.thread % cluster->n_proxies());
      Rng& rng = rngs[ctx.thread];
      std::string ka, kb;
      if (kind == Kind::kInsert2) {
        ka = EncodeUserKey(inserts.Next());
        kb = EncodeUserKey(inserts.Next());
      } else {
        ka = EncodeUserKey(rng.Uniform(kPreload));
        kb = EncodeUserKey(rng.Uniform(kPreload));
      }
      return proxy.Transaction([&](txn::DynamicTxn& txn) -> Status {
        if (kind == Kind::kRead2) {
          std::string va, vb;
          Status st = proxy.tree(*t1)->GetInTxn(txn, btree::Target::Tip(), ka,
                                                &va);
          if (!st.ok() && !st.IsNotFound()) return st;
          st = proxy.tree(*t2)->GetInTxn(txn, btree::Target::Tip(), kb, &vb);
          return st.IsNotFound() ? Status::OK() : st;
        }
        const std::string v = EncodeValue(rng.Next());
        MINUET_RETURN_NOT_OK(
            proxy.tree(*t1)->PutInTxn(txn, btree::Target::Tip(), ka, v));
        return proxy.tree(*t2)->PutInTxn(txn, btree::Target::Tip(), kb, v);
      });
    });
    return out.agg;
  };

  Aggregate r = run(Kind::kRead2);
  Aggregate u = run(Kind::kUpdate2);
  Aggregate i = run(Kind::kInsert2);
  PrintAudit("minuet_read2", r);
  PrintAudit("minuet_update2", u);
  return Row{ModeledPeakThroughput(model, r, machines),
             ModeledPeakThroughput(model, u, machines),
             ModeledPeakThroughput(model, i, machines)};
}

Row RunCdb(uint32_t machines) {
  net::Fabric fabric(machines);
  // Two independently hash-partitioned tables, unreplicated (paper §6.2).
  cdb::CdbCluster cdb(&fabric, {machines, 2, false});
  PreloadCdb(cdb, 0, kPreload);
  PreloadCdb(cdb, 1, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = kThreads;
  ropts.ops_per_thread = kOps;
  ropts.cdb_cost = true;
  ycsb::InsertSequence inserts(kPreload);

  enum class Kind { kRead2, kUpdate2, kInsert2 };
  auto run = [&](Kind kind) {
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(4000 + t);
    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Rng& rng = rngs[ctx.thread];
      std::string ka, kb;
      if (kind == Kind::kInsert2) {
        ka = EncodeUserKey(inserts.Next());
        kb = EncodeUserKey(inserts.Next());
      } else {
        ka = EncodeUserKey(rng.Uniform(kPreload));
        kb = EncodeUserKey(rng.Uniform(kPreload));
      }
      switch (kind) {
        case Kind::kRead2: {
          std::string va, vb;
          Status st = cdb.Read2(0, ka, &va, 1, kb, &vb);
          return st.IsNotFound() ? Status::OK() : st;
        }
        case Kind::kUpdate2:
          return cdb.Update2(0, ka, EncodeValue(rng.Next()), 1, kb,
                             EncodeValue(rng.Next()));
        case Kind::kInsert2:
          return cdb.Insert2(0, ka, EncodeValue(1), 1, kb, EncodeValue(2));
      }
      return Status::OK();
    });
    return out.agg;
  };

  Aggregate r = run(Kind::kRead2);
  Aggregate u = run(Kind::kUpdate2);
  Aggregate i = run(Kind::kInsert2);
  PrintAudit("cdb_read2", r);
  // CDB multi-partition transactions hold EVERY partition's execution lane
  // for their full duration (VoltDB-style global serialization): system
  // throughput is 1 / txn-latency regardless of machine count — which is
  // why the paper's Fig. 13 CDB curve sits near 10^3/s and falls as the
  // commit spans more servers.
  auto serialized = [&](const Aggregate& a) {
    const double cap = 1000.0 / std::max(1e-9, a.mean_latency_ms());
    return std::min(cap, ModeledPeakThroughput(model, a, machines));
  };
  return Row{serialized(r), serialized(u), serialized(i)};
}

}  // namespace
}  // namespace minuet::bench

int main() {
  using namespace minuet::bench;
  PrintHeader("Figure 13: dual-key transaction throughput vs. scale (kops/s)",
              "machines  minuet_read2  minuet_update2  minuet_insert2  "
              "cdb_read2  cdb_update2  cdb_insert2");
  for (uint32_t machines : {5, 15, 25, 35}) {
    Row m = RunMinuet(machines);
    Row c = RunCdb(machines);
    std::printf("%8u  %12.1f  %14.1f  %14.1f  %9.3f  %11.3f  %11.3f\n",
                machines, m.read2 / 1000, m.update2 / 1000, m.insert2 / 1000,
                c.read2 / 1000, c.update2 / 1000, c.insert2 / 1000);
  }
  return 0;
}
