// Figure 17: update throughput with one concurrent scan client, for
// snapshot intervals k in {0, 5, 30, 60} seconds plus a no-scan ceiling.
// Expected shape: k=60 sustains 50–70% of the no-scan throughput; as k
// shrinks, snapshot creation (and the copy-on-write storms each snapshot
// triggers) eats the update throughput; k=0 collapses below 10%.
//
// Virtual-time note: one snapshot per k seconds of PAPER time corresponds
// to one snapshot per k/kTimeScale seconds here, because the scaled-down
// tree re-copies itself ~kTimeScale x faster (see Fig. 14). The k values
// are therefore applied on the compressed clock, preserving the ratio of
// snapshot frequency to copy-on-write recovery time that the figure
// actually probes.
#include "bench/harness/setup.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint64_t kPreload = 20000;
  constexpr uint32_t kThreads = 5;  // 4 update + 1 scan
  constexpr double kTimeScale = 20.0;
  CostModel model;

  PrintHeader(
      "Figure 17: update throughput with concurrent scans (kops/s)",
      "machines  no_scans  k60  k30  k5  k0");
  for (uint32_t machines : {5, 15, 25, 35}) {
    std::vector<double> row;
    // k < 0 encodes the no-scan ceiling.
    for (double paper_k : {-1.0, 60.0, 30.0, 5.0, 0.0}) {
      const double k = paper_k > 0 ? paper_k / kTimeScale : paper_k;
      auto cluster = MakeCluster(machines, true, std::max(k, 0.0));
      SharedVirtualClock vclock(kThreads);
      cluster->set_snapshot_clock(vclock.AsClock());
      auto tree = cluster->CreateTree();
      if (!tree.ok()) std::abort();
      Preload(*cluster, *tree, kPreload);

      RunOptions ropts;
      ropts.threads = kThreads;
      ropts.ops_per_thread = 1u << 20;
      ropts.virtual_deadline_s = 0.8;
      std::vector<Rng> rngs;
      for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(t + 31);

      auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
        Proxy& proxy = cluster->proxy(ctx.thread % machines);
        Rng& rng = rngs[ctx.thread];
        Status st;
        if (ctx.thread == 0 && paper_k >= 0) {
          // The scan client: a k-policy snapshot view scan over 10% of
          // the data set (the paper's 1M-of-100M ratio).
          std::vector<std::pair<std::string, std::string>> rows;
          st = proxy.Scan(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                          kPreload / 10, &rows);
        } else {
          st = proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                         EncodeValue(rng.Next()));
        }
        vclock.Advance(
            model.OpLatencyMs(*obs::TraceContext::Current()) / 1000.0);
        return st;
      });
      const Aggregate updates = out.ThreadRange(1, kThreads);
      row.push_back(ModeledPeakThroughput(model, updates, machines));
      if (paper_k == 0.0) {
        std::printf("#   k=0 @%u machines: snapshots=%llu cow_copies=%llu\n",
                    machines,
                    static_cast<unsigned long long>(
                        cluster->snapshot_service(*tree)
                            ->snapshots_created()),
                    static_cast<unsigned long long>(updates.nodes_copied));
      }
    }
    std::printf("%8u  %8.1f  %5.1f  %5.1f  %5.1f  %5.1f\n", machines,
                row[0] / 1000, row[1] / 1000, row[2] / 1000, row[3] / 1000,
                row[4] / 1000);
  }
  return 0;
}
