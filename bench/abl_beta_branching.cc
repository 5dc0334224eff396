// Ablation: descendant-set bound β for branching versions (§5.2).
// A branch-heavy what-if workload (repeated side branches + writes at every
// tip) with β in {2, 3, 4}: larger β absorbs more copy targets per node
// before a discretionary copy is needed, trading per-node space for fewer
// extra copies — the trade-off §5.2 discusses for side-branch-heavy trees.
//
// GATE: discretionary copies must strictly decrease over beta = 2, 3, 4, or
// the binary exits non-zero.
#include <algorithm>
#include <functional>

#include "bench/harness/setup.h"
#include "version/version_manager.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint64_t kPreload = 4000;
  PrintHeader("Ablation: branching beta vs. discretionary copy-on-write",
              "beta  branches  discretionary_copies  cow_copies  "
              "slabs_allocated  mean_put_ms");

  std::vector<uint64_t> discretionary;  // one per beta
  for (uint32_t beta : {2u, 3u, 4u}) {
    ClusterOptions opts;
    opts.machines = 8;
    opts.node_size = 1024;
    opts.beta = beta;
    Cluster cluster(opts);
    auto tree = cluster.CreateTree(/*branching=*/true);
    if (!tree.ok()) std::abort();
    Proxy& proxy = cluster.proxy(0);
    auto base = proxy.Branch(*tree, 0);
    if (!base.ok()) std::abort();
    for (uint64_t i = 0; i < kPreload; i++) {
      if (!base->Put(EncodeUserKey(i), EncodeValue(i)).ok()) {
        std::abort();
      }
    }
    const uint64_t slabs_before = cluster.allocator()->allocated_count();

    // Build a bushy version tree: a mainline with a side branch per
    // generation (each vertex ends with 2 children <= every beta), then
    // write rounds at every live tip so old nodes accumulate copy targets
    // scattered across the tree.
    Rng rng(5);
    std::vector<uint64_t> tips = {0};
    uint64_t mainline = 0;
    CostModel model;
    Aggregate puts;
    obs::TraceContext trace;
    obs::ScopedTrace scoped(&trace);
    for (int gen = 0; gen < 6; gen++) {
      auto next = proxy.CreateBranch(*tree, mainline);
      CheckOk(next.status(), "branch(next)");
      auto side = proxy.CreateBranch(*tree, mainline);
      CheckOk(side.status(), "branch(side)");
      tips.erase(std::find(tips.begin(), tips.end(), mainline));
      tips.push_back(*next);
      tips.push_back(*side);
      mainline = *next;
      for (uint64_t tip : tips) {
        // Resolve the branch view once, before the per-put traces, so the
        // per-put message counts match the previous direct-call shape.
        auto tip_view = proxy.Branch(*tree, tip);
        CheckOk(tip_view.status(), "branch view");
        for (int i = 0; i < 150; i++) {
          trace.Clear();
          CheckOk(tip_view->Put(EncodeUserKey(rng.Uniform(kPreload)),
                                EncodeValue(rng.Next())),
                  "put at tip");
          puts.Add(trace, model.OpLatencyMs(trace));
        }
      }
    }
    const auto& stats = proxy.tree(*tree)->stats();
    discretionary.push_back(stats.discretionary_copies.Value());
    std::printf("%4u  %8zu  %20llu  %10llu  %15llu  %11.3f\n", beta,
                tips.size(),
                static_cast<unsigned long long>(discretionary.back()),
                static_cast<unsigned long long>(stats.cow_copies.Value()),
                static_cast<unsigned long long>(
                    cluster.allocator()->allocated_count() - slabs_before),
                puts.mean_latency_ms());
  }

  const bool falls = std::adjacent_find(discretionary.begin(),
                                        discretionary.end(),
                                        std::less_equal<>()) ==
                     discretionary.end();
  return Gate(falls, 2,
              "discretionary copies %llu, %llu, %llu over beta 2, 3, 4 "
              "(need strictly decreasing)",
              static_cast<unsigned long long>(discretionary[0]),
              static_cast<unsigned long long>(discretionary[1]),
              static_cast<unsigned long long>(discretionary[2]));
}
