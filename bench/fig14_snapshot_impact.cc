// Figure 14: time series of update throughput around a single snapshot
// (25 machines, 100% updates). Expected shape: throughput dips sharply when
// the snapshot triggers a copy-on-write storm (the first write to every
// node must copy its path), then recovers to the pre-snapshot level once
// the hot set has been copied.
//
// Time-axis scaling: the paper's 100 M-key tree takes 20–30 s to re-copy
// under full update load; this reproduction's tree is ~2000x smaller, so
// the same storm plays out in a fraction of a virtual second. The bucket
// width scales accordingly (20 ms here vs. 1 s in the paper); the printed
// `paper_equiv_s` column rescales the axis so the curve can be overlaid on
// the paper's Figure 14 directly.
#include <atomic>

#include "bench/harness/setup.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint32_t kMachines = 25;
  constexpr uint64_t kPreload = 50000;
  constexpr double kSnapshotAt = 1.0;   // virtual seconds
  constexpr double kDuration = 3.0;
  constexpr double kBucket = 0.02;      // 20 ms buckets
  constexpr double kPaperScale = 20.0 / kSnapshotAt;  // paper snapshot at 20 s

  auto cluster = MakeCluster(kMachines, true, 0, 16, /*node_size=*/512);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();
  Preload(*cluster, *tree, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = 6;
  ropts.ops_per_thread = 1u << 22;  // deadline-bounded
  ropts.virtual_deadline_s = kDuration;

  std::atomic<bool> snapped{false};
  std::vector<Rng> rngs;
  for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 7);

  auto out = RunOps(
      model, ropts,
      [&](const OpContext& ctx) -> Status {
        if (ctx.thread == 0 && ctx.virtual_time_s >= kSnapshotAt &&
            !snapped.exchange(true)) {
          auto snap = cluster->snapshot_service(*tree)->CreateSnapshot();
          if (!snap.ok()) return snap.status();
        }
        Rng& rng = rngs[ctx.thread];
        return cluster->proxy(ctx.thread % kMachines)
            .Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                 EncodeValue(rng.Next()));
      },
      /*record_completions=*/true);

  std::vector<uint64_t> buckets(static_cast<size_t>(kDuration / kBucket) + 1,
                                0);
  for (double t : out.completion_times) {
    const size_t b = static_cast<size_t>(t / kBucket);
    if (b < buckets.size()) buckets[b]++;
  }
  // Pre-snapshot steady state → scale to the modeled 25-machine peak
  // (ops per bucket → ops/s, then driver threads → cluster clients).
  double pre = 0;
  int pre_n = 0;
  for (size_t s = 5; s < kSnapshotAt / kBucket - 2; s++) {
    pre += buckets[s];
    pre_n++;
  }
  pre = pre_n > 0 ? pre / pre_n : 1;
  const double peak = ModeledPeakThroughput(model, out.agg, kMachines);
  const double scale = pre > 0 ? peak / pre : 1;  // per-bucket → aggregate

  PrintHeader(
      "Figure 14: update throughput around one snapshot (25 machines)",
      "virtual_s  paper_equiv_s  kops_s");
  std::printf("# snapshot issued at virtual t=%.2fs (paper: t=20s)\n",
              kSnapshotAt);
  for (size_t s = 1; s + 1 < buckets.size(); s++) {
    const double t = s * kBucket;
    std::printf("%9.2f  %13.1f  %8.1f\n", t, t * kPaperScale,
                buckets[s] * scale / 1000.0);
  }
  PrintAudit("updates", out.agg);
  return 0;
}
