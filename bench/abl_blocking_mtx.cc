// Ablation: blocking vs. aborting minitransactions for the replicated tip
// update (§4.1). Under a snapshot storm, aborting minitransactions livelock
// on the tip-object locks and burn round trips on retries; blocking ones
// queue briefly at the memnode.
//
// GATE: blocking snapshot creates must average fewer busy re-executions
// than aborting ones, or the binary exits non-zero. The retries are the
// coordinator's busy re-executions, counted in each op's trace.
#include "bench/harness/setup.h"
#include "mvcc/snapshot_service.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint32_t kMachines = 15;
  constexpr uint64_t kPreload = 5000;
  CostModel model;

  PrintHeader("Ablation: blocking vs. aborting tip-update minitransactions",
              "mode      snapshots_s  mean_create_ms  retries_per_create");
  double retries_per_create[2] = {0, 0};  // [blocking]
  for (bool blocking : {true, false}) {
    auto cluster = MakeCluster(kMachines);
    auto tree = cluster->CreateTree();
    if (!tree.ok()) std::abort();
    Preload(*cluster, *tree, kPreload);

    mvcc::SnapshotService::Options sopts;
    sopts.blocking_commit = blocking;
    sopts.enable_borrowing = false;  // maximize pressure on the tip object
    mvcc::SnapshotService scs(cluster->proxy(0).tree(*tree), sopts);

    RunOptions ropts;
    ropts.threads = 6;  // 3 snapshotters + 3 updaters
    ropts.ops_per_thread = 1u << 20;
    ropts.virtual_deadline_s = 0.5;
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 61);

    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      if (ctx.thread < 3) return scs.CreateSnapshot().status();
      Proxy& proxy = cluster->proxy(ctx.thread % kMachines);
      Rng& rng = rngs[ctx.thread];
      return proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                       EncodeValue(rng.Next()));
    });
    const Aggregate creates = out.ThreadRange(0, 3);
    retries_per_create[blocking] =
        creates.ops > 0 ? static_cast<double>(creates.retries) / creates.ops
                        : 0;
    std::printf("%-8s  %11.1f  %14.3f  %18.2f\n",
                blocking ? "blocking" : "aborting",
                creates.ops / std::max(1e-9, out.max_virtual_time_s),
                creates.mean_latency_ms(), retries_per_create[blocking]);
    PrintAudit(blocking ? "blocking" : "aborting", creates);
  }

  return Gate(retries_per_create[1] < retries_per_create[0], 2,
              "retries_per_create %.3f blocking, %.3f aborting (need "
              "blocking < aborting)",
              retries_per_create[1], retries_per_create[0]);
}
