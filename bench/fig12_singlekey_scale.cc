// Figure 12: single-key read / update / insert throughput vs. scale,
// Minuet and CDB. Expected shape: both near-linear; Minuet reads faster
// than its writes (up to ~50%); CDB's read/write gap smaller.
#include "bench/harness/setup.h"
#include "ycsb/workload.h"

namespace minuet::bench {
namespace {

constexpr uint64_t kPreload = 10000;
constexpr uint32_t kThreads = 4;
constexpr uint64_t kOps = 500;

struct Row {
  double read, update, insert;
};

Row RunMinuet(uint32_t machines) {
  auto cluster = MakeCluster(machines);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();
  Preload(*cluster, *tree, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = kThreads;
  ropts.ops_per_thread = kOps;

  ycsb::InsertSequence inserts(kPreload);
  auto run = [&](ycsb::OpType type) {
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(1000 + t);
    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Proxy& proxy = cluster->proxy(ctx.thread % cluster->n_proxies());
      Rng& rng = rngs[ctx.thread];
      switch (type) {
        case ycsb::OpType::kRead: {
          std::string value;
          Status st = proxy.Get(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                                &value);
          return st.IsNotFound() ? Status::OK() : st;
        }
        case ycsb::OpType::kUpdate:
          return proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                           EncodeValue(rng.Next()));
        default: {
          // Strict insert, the same operation CdbCluster::Insert measures.
          const uint64_t id = inserts.Next();
          return proxy.Insert(*tree, EncodeUserKey(id), EncodeValue(id));
        }
      }
    });
    return out.agg;
  };

  Aggregate r = run(ycsb::OpType::kRead);
  Aggregate u = run(ycsb::OpType::kUpdate);
  Aggregate i = run(ycsb::OpType::kInsert);
  PrintAudit("minuet_read", r);
  PrintAudit("minuet_update", u);
  PrintAudit("minuet_insert", i);
  return Row{ModeledPeakThroughput(model, r, machines),
             ModeledPeakThroughput(model, u, machines),
             ModeledPeakThroughput(model, i, machines)};
}

Row RunCdb(uint32_t machines) {
  net::Fabric fabric(machines);
  cdb::CdbCluster cdb(&fabric, {machines, 1, true});
  PreloadCdb(cdb, 0, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = kThreads;
  ropts.ops_per_thread = kOps;
  ropts.cdb_cost = true;

  ycsb::InsertSequence inserts(kPreload);
  auto run = [&](ycsb::OpType type) {
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(2000 + t);
    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Rng& rng = rngs[ctx.thread];
      switch (type) {
        case ycsb::OpType::kRead: {
          std::string value;
          Status st =
              cdb.Read(0, EncodeUserKey(rng.Uniform(kPreload)), &value);
          return st.IsNotFound() ? Status::OK() : st;
        }
        case ycsb::OpType::kUpdate:
          return cdb.Update(0, EncodeUserKey(rng.Uniform(kPreload)),
                            EncodeValue(rng.Next()));
        default: {
          const uint64_t id = inserts.Next();
          return cdb.Insert(0, EncodeUserKey(id), EncodeValue(id));
        }
      }
    });
    return out.agg;
  };
  Aggregate r = run(ycsb::OpType::kRead);
  Aggregate u = run(ycsb::OpType::kUpdate);
  Aggregate i = run(ycsb::OpType::kInsert);
  return Row{ModeledPeakThroughput(model, r, machines),
             ModeledPeakThroughput(model, u, machines),
             ModeledPeakThroughput(model, i, machines)};
}

}  // namespace
}  // namespace minuet::bench

int main() {
  using namespace minuet::bench;
  PrintHeader("Figure 12: single-key throughput vs. scale (kops/s)",
              "machines  minuet_read  minuet_update  minuet_insert  "
              "cdb_read  cdb_update  cdb_insert");
  for (uint32_t machines : {5, 15, 25, 35}) {
    Row m = RunMinuet(machines);
    Row c = RunCdb(machines);
    std::printf("%8u  %11.1f  %13.1f  %13.1f  %8.1f  %10.1f  %10.1f\n",
                machines, m.read / 1000, m.update / 1000, m.insert / 1000,
                c.read / 1000, c.update / 1000, c.insert / 1000);
  }
  return 0;
}
