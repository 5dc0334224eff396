// Self-test of the benchmark's own arithmetic and checks: percentiles with
// sample counts, counter deltas, ratio bases, skew, space amplification,
// the result checkers, and that a deliberately wrong read against a real
// cluster is counted as failed. Exit 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/key_codec.h"
#include "ledger.h"
#include "stats.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    g_failures++;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

int main() {
  using namespace perfbench;
  using minuet::EncodeUserKey;
  using minuet::EncodeValue;

  // Percentiles: nearest rank, with the sample count kept.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; i--) hundred.push_back(i);
  const LatencySummary s = Summarize(hundred);
  Expect(s.count == 100, "summary keeps its sample count");
  Expect(Near(s.p50, 50) && Near(s.p99, 99), "p50/p99 of 1..100");
  Expect(Near(s.mean, 50.5), "mean of 1..100");
  Expect(Near(Summarize({7}).p99, 7), "one sample is every percentile");
  Expect(Summarize({}).count == 0 && Summarize({}).p50 == 0,
         "no samples reads as zero");
  const LatencySummary sliced =
      SummarizeSliced({{1, 2, 3}, {}, {10, 20, 30}, {100, 200, 300}});
  Expect(sliced.count == 9 && Near(sliced.p50, 20) && Near(sliced.p99, 30),
         "sliced percentiles are medians over non-empty slices");
  Expect(Near(sliced.mean, 666.0 / 9), "sliced mean covers every sample");
  Expect(SummarizeSliced({{}, {}}).count == 0, "no sliced samples reads zero");
  Expect(Near(Median({3, 1, 2}), 2) && Near(Median({4, 1, 3, 2}), 2),
         "median (lower middle on even counts)");

  // Counter deltas and sums.
  const CounterMap before = {{"a", 5}, {"b", 2}};
  const CounterMap after = {{"a", 9}, {"b", 2}, {"c", 3}};
  const CounterMap d = Delta(before, after);
  Expect(Get(d, "a") == 4 && Get(d, "b") == 0 && Get(d, "c") == 3,
         "delta of before/after readings");
  const CounterMap locks = {{"memnode0.locks.total.acquires", 10},
                            {"memnode1.locks.total.acquires", 5},
                            {"memnode1.locks.total.contended", 99},
                            {"proxy0.cache.hits", 7}};
  Expect(SumMatching(locks, "memnode", ".locks.total.acquires") == 15,
         "sum over memnodes matches prefix and suffix only");

  // Ratios keep their base; an empty base reads as zero.
  Expect(Near(Ratio{3, 4}.value(), 0.75) && Ratio{3, 0}.value() == 0,
         "ratio value and empty base");
  Report report;
  report.AddRatio("x.retry_ratio", {3, 12}, "ratio", "retries", "attempts");
  const Metric* m = report.Find("x.retry_ratio");
  Expect(m != nullptr && Near(m->value, 0.25) &&
             m->base == "retries=3 / attempts=12",
         "ratio metric prints its numerator and denominator");
  const std::string json = report.ToJson(true, 5, 0);
  Expect(json.find("\"x.retry_ratio\":{\"value\":0.25,\"unit\":\"ratio\"") !=
             std::string::npos,
         "report JSON carries value and unit");

  // Skew and space amplification.
  Expect(Near(Skew({1, 1, 1, 1}), 1) && Near(Skew({0, 0, 0, 4}), 4) &&
             Skew({}) == 0,
         "skew is max over mean");
  Expect(Near(SpaceAmp(10, 4096, 100, 22), 40960.0 / 2200.0),
         "space_amp = slabs x node_size / (records x record bytes)");
  Expect(SpaceAmp(10, 4096, 0, 22) == 0, "space_amp with no user bytes");

  // Result checkers.
  Expect(CheckPointValue(Status::OK(), 7, EncodeValue(7)), "right value");
  Expect(!CheckPointValue(Status::OK(), 7, EncodeValue(8)), "wrong value");
  Expect(!CheckPointValue(Status::NotFound("x"), 7, EncodeValue(7)),
         "failed status");
  Expect(!CheckMultiGet(Status::OK(), {1, 2}, {EncodeValue(1), std::nullopt}),
         "multiget with a missing key");
  ScanChecker good(5, 3);
  for (uint64_t id = 5; id < 8; id++) {
    good.Add(EncodeUserKey(id), EncodeValue(id));
  }
  Expect(good.Done(Status::OK()), "contiguous scan of the expected length");
  ScanChecker gap(5, 3);
  for (uint64_t id : {5, 6, 8}) gap.Add(EncodeUserKey(id), EncodeValue(id));
  Expect(!gap.Done(Status::OK()), "scan with a gap");
  ScanChecker shorter(5, 3);
  shorter.Add(EncodeUserKey(5), EncodeValue(5));
  Expect(!shorter.Done(Status::OK()), "short scan");

  // A deliberately wrong read against a real cluster counts as failed.
  {
    minuet::ClusterOptions opts;
    opts.machines = 2;
    minuet::Cluster cluster(opts);
    minuet::Result<minuet::TreeHandle> tree = cluster.CreateTree();
    Expect(tree.ok(), "create tree");
    if (tree.ok()) {
      minuet::TipView tip = cluster.proxy(0).Tip(tree.value());
      Expect(tip.Put(EncodeUserKey(7), EncodeValue(8)).ok() &&
                 tip.Put(EncodeUserKey(9), EncodeValue(9)).ok(),
             "puts");
      Tally tally;
      std::string value;
      for (uint64_t id : {7, 9}) {
        tally.Add(CheckPointValue(tip.Get(EncodeUserKey(id), &value), id,
                                  value));
      }
      Expect(tally.attempted == 2 && tally.failed == 1,
             "wrong read counted as failed, right read not");
    }
  }

  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
