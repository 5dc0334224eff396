// Ablation: the proxy-side internal-node cache (§2.3). Without it every
// traversal re-fetches the path from the memnodes, turning the one-round-
// trip warm read into height+1 round trips.
//
// GATE: a cached Get must average 1.00 round trips (the paper's warm read)
// and an uncached one more than 1, or the binary exits non-zero. Both
// figures come from the per-op traces RunOps merges.
#include <cmath>

#include "bench/harness/setup.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint32_t kMachines = 8;
  constexpr uint64_t kPreload = 20000;
  CostModel model;

  PrintHeader("Ablation: proxy cache of internal B-tree nodes",
              "cache  rounds_per_get  msgs_per_get  mean_get_ms  "
              "modeled_kops_s");
  double rounds_per_get[2] = {0, 0};  // [cached]
  for (bool cached : {true, false}) {
    auto cluster = MakeCluster(kMachines);
    auto tree = cluster->CreateTree();
    if (!tree.ok()) std::abort();
    Preload(*cluster, *tree, kPreload);

    // A cache-less tree handle shares the tree but fetches everything.
    static btree::LinearOracle oracle;
    btree::TreeOptions topts;
    auto uncached_tree = std::make_unique<btree::BTree>(
        cluster->coordinator(), cluster->allocator(), /*cache=*/nullptr,
        &oracle, tree->slot(), topts);

    RunOptions ropts;
    ropts.threads = 4;
    ropts.ops_per_thread = 1500;
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 71);

    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Rng& rng = rngs[ctx.thread];
      std::string value;
      Status st;
      if (cached) {
        st = cluster->proxy(ctx.thread % kMachines)
                 .Get(*tree, EncodeUserKey(rng.Uniform(kPreload)), &value);
      } else {
        st = uncached_tree->Get(btree::Target::Tip(),
                                EncodeUserKey(rng.Uniform(kPreload)),
                                &value);
      }
      return st.IsNotFound() ? Status::OK() : st;
    });
    std::printf("%5s  %14.2f  %12.2f  %11.3f  %14.1f\n",
                cached ? "on" : "off", out.agg.mean_rounds(),
                out.agg.mean_msgs(), out.agg.mean_latency_ms(),
                ModeledPeakThroughput(model, out.agg, kMachines) / 1000.0);
    rounds_per_get[cached] = out.agg.mean_rounds();
  }

  return Gate(std::abs(rounds_per_get[1] - 1.0) < 0.005 &&
                  rounds_per_get[0] > 1.0,
              2, "rounds_per_get %.2f cached (need 1.00), %.2f uncached "
              "(need > 1)",
              rounds_per_get[1], rounds_per_get[0]);
}
