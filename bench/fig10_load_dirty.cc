// Figure 10: Minuet load throughput vs. scale, dirty traversals ON vs OFF.
//
// YCSB load phase (uniform inserts into an initially empty tree). With
// dirty traversals OFF (the Aguilera et al. baseline) the whole root-to-leaf
// path joins the read set and every split updates the replicated seqnum
// table at ALL memnodes, so the load phase — split-heavy by construction —
// stops scaling. Expected shape: ON scales near-linearly and reaches ~2x
// OFF at the largest scale.
#include "bench/harness/setup.h"
#include "ycsb/workload.h"

namespace minuet::bench {
namespace {

Aggregate RunLoad(uint32_t machines, bool dirty) {
  auto cluster = MakeCluster(machines, dirty);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();

  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 1000;
  ycsb::InsertSequence inserts(0);

  RunOptions ropts;
  ropts.threads = kThreads;
  ropts.ops_per_thread = kOpsPerThread;
  CostModel model;
  auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
    Proxy& proxy = cluster->proxy(ctx.thread % cluster->n_proxies());
    const uint64_t record = inserts.Next();
    return proxy.Put(*tree, EncodeUserKey(record), EncodeValue(record));
  });
  return out.agg;
}

}  // namespace
}  // namespace minuet::bench

int main() {
  using namespace minuet::bench;
  CostModel model;
  PrintHeader("Figure 10: Minuet load throughput vs. scale",
              "machines  kops_s_dirty_on  kops_s_dirty_off");
  for (uint32_t machines : {5, 15, 25, 35}) {
    Aggregate on = RunLoad(machines, /*dirty=*/true);
    Aggregate off = RunLoad(machines, /*dirty=*/false);
    std::printf("%8u  %15.1f  %16.1f\n", machines,
                ModeledPeakThroughput(model, on, machines) / 1000.0,
                ModeledPeakThroughput(model, off, machines) / 1000.0);
    PrintAudit("dirty_on", on);
    PrintAudit("dirty_off", off);
  }
  return 0;
}
