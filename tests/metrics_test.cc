// Tests for the PR 9 observability layer: metric primitives under
// concurrency, registry registration semantics, the stable JSON shape of
// Cluster::DumpStatsJson, trace span ordering, the abort taxonomy, and
// registry-backed re-assertions of the two hot-path efficiency claims
// (warm Gets decode nothing; a cold 16-key MultiGet batches into at most
// depth + 2 coordinator rounds).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/key_codec.h"
#include "minuet/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace minuet {
namespace {

ClusterOptions SmallOptions() {
  ClusterOptions opts;
  opts.machines = 4;
  opts.node_size = 1024;
  return opts;
}

// Registry-side read of one sample, the way dashboards consume it.
int64_t SampleValue(const obs::MetricsRegistry& reg, const std::string& sub,
                    const std::string& name) {
  for (const obs::Sample& s : reg.Snapshot()) {
    if (s.subsystem == sub && s.name == name) return s.value;
  }
  ADD_FAILURE() << "no sample " << sub << "." << name;
  return -1;
}

TEST(MetricsTest, CounterConcurrentIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; i++) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(MetricsTest, HistogramConcurrentObserve) {
  obs::HistogramMetric h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; i++) {
        h.Observe(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  Histogram merged = h.Merged();
  EXPECT_EQ(merged.count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(merged.max(), kThreads * kPerThread - 1.0);
}

TEST(MetricsTest, RegistrationIsIdempotentLinksAreLastWins) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.RegisterCounter("sub", "hits");
  obs::Counter* b = reg.RegisterCounter("sub", "hits");
  EXPECT_EQ(a, b);  // owned re-registration returns the existing metric
  EXPECT_EQ(reg.size(), 1u);

  a->Add(3);
  EXPECT_EQ(SampleValue(reg, "sub", "hits"), 3);

  reg.LinkGauge("sub", "depth", [] { return 7; });
  reg.LinkGauge("sub", "depth", [] { return 11; });  // last link wins
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(SampleValue(reg, "sub", "depth"), 11);

  obs::Counter external;
  external.Add(5);
  reg.LinkCounter("sub", "ext", &external);
  EXPECT_EQ(SampleValue(reg, "sub", "ext"), 5);
}

TEST(MetricsTest, SnapshotSortedAndJsonStable) {
  obs::MetricsRegistry reg;
  // Registered deliberately out of order; Snapshot/ToJson must sort.
  reg.RegisterCounter("zeta", "b")->Add(2);
  reg.RegisterCounter("alpha", "y")->Add(1);
  reg.RegisterCounter("zeta", "a")->Add(4);
  reg.RegisterCounter("alpha", "x")->Add(3);
  reg.RegisterHistogram("alpha", "h")->Observe(10.0);

  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (size_t i = 1; i < snap.size(); i++) {
    const bool ordered =
        snap[i - 1].subsystem < snap[i].subsystem ||
        (snap[i - 1].subsystem == snap[i].subsystem &&
         snap[i - 1].name < snap[i].name);
    EXPECT_TRUE(ordered) << snap[i - 1].subsystem << "." << snap[i - 1].name
                         << " !< " << snap[i].subsystem << "." << snap[i].name;
  }

  const std::string json = reg.ToJson();
  // Shape: {"subsystem":{"name":value,...},...}, subsystems sorted.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_LT(json.find("\"x\""), json.find("\"y\""));
  EXPECT_NE(json.find("\"b\":2"), std::string::npos);
  // Histogram summary object with the five documented fields.
  for (const char* field : {"\"count\"", "\"mean\"", "\"p50\"", "\"p99\"",
                            "\"max\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Identical registry state renders to identical bytes.
  EXPECT_EQ(json, reg.ToJson());
}

TEST(MetricsTest, DumpStatsJsonShape) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 32; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }

  const std::string json = cluster.DumpStatsJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // The five documented top-level sections, in order.
  size_t pos = 0;
  for (const char* key : {"\"cluster\"", "\"memnodes\"", "\"proxies\"",
                          "\"trees\"", "\"metrics\""}) {
    size_t next = json.find(key, pos);
    ASSERT_NE(next, std::string::npos) << key;
    pos = next;
  }
  // Registry section carries the coordinator + per-op rollups.
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(json.find("\"executions\""), std::string::npos);
  EXPECT_NE(json.find("\"aborts.validation_conflict\""), std::string::npos);
}

TEST(MetricsTest, TraceSpanOrdering) {
  obs::TraceContext trace;
  trace.RecordRound("1pc", 1, 2, Status::OK(), 100);
  trace.RecordRound("2pc", 3, 17, Status::Busy("lock"), 200);
  trace.RecordAttemptEnd(Status::Busy("lock"));
  trace.RecordRound("2pc", 3, 17, Status::OK(), 300);
  trace.RecordAttemptEnd(Status::OK());

  EXPECT_EQ(trace.rounds(), 3);
  EXPECT_EQ(trace.attempts(), 2);
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 5u);
  // Rounds are stamped with the attempt they ran under, and each attempt
  // span closes after its rounds.
  EXPECT_EQ(spans[0].kind, obs::TraceSpan::Kind::kRound);
  EXPECT_EQ(spans[0].attempt, 0);
  EXPECT_EQ(spans[1].attempt, 0);
  EXPECT_EQ(spans[2].kind, obs::TraceSpan::Kind::kAttempt);
  EXPECT_EQ(spans[2].reason, AbortReason::kLockBusy);
  EXPECT_EQ(spans[3].kind, obs::TraceSpan::Kind::kRound);
  EXPECT_EQ(spans[3].attempt, 1);
  EXPECT_EQ(spans[4].kind, obs::TraceSpan::Kind::kAttempt);
  EXPECT_EQ(spans[4].reason, AbortReason::kNone);

  const std::string timeline = trace.ToString();
  EXPECT_NE(timeline.find("round 0.0 1pc"), std::string::npos);
  // Round indices reset per attempt: the retry's first round is 1.0.
  EXPECT_NE(timeline.find("round 1.0 2pc"), std::string::npos);
  EXPECT_NE(timeline.find("attempt 0 outcome="), std::string::npos);

  EXPECT_EQ(trace.validation_aborts(), 0u);  // a busy attempt is not one

  trace.Clear();
  EXPECT_EQ(trace.rounds(), 0);
  EXPECT_TRUE(trace.spans().empty());
  // Validation aborts are read from the attempt spans.
  trace.RecordAttemptEnd(Status::Aborted(AbortReason::kValidationConflict));
  EXPECT_EQ(trace.validation_aborts(), 1u);
}

TEST(MetricsTest, AbortTaxonomyClassification) {
  EXPECT_EQ(obs::ClassifyAbort(Status::OK()), AbortReason::kNone);
  EXPECT_EQ(obs::ClassifyAbort(Status::Busy("x")), AbortReason::kLockBusy);
  EXPECT_EQ(obs::ClassifyAbort(
                Status::Aborted(AbortReason::kValidationConflict)),
            AbortReason::kValidationConflict);
  EXPECT_EQ(obs::ClassifyAbort(
                Status::Aborted(AbortReason::kStaleCachePointer)),
            AbortReason::kStaleCachePointer);
  EXPECT_EQ(obs::ClassifyAbort(Status::Aborted("untagged")),
            AbortReason::kOther);
  EXPECT_EQ(obs::ClassifyAbort(Status::NotFound("k")), AbortReason::kNone);
}

TEST(MetricsTest, SlowOpLogThreshold) {
  obs::SlowOpLog log;
  EXPECT_FALSE(log.armed());
  obs::TraceContext trace;
  trace.RecordRound("1pc", 1, 1, Status::OK(), 50);
  log.MaybeEmit("get", trace, 1000000);  // disarmed: nothing emitted
  EXPECT_EQ(log.emitted(), 0u);

  log.set_threshold_ns(500);
  EXPECT_TRUE(log.armed());
  log.MaybeEmit("get", trace, 499);  // below threshold
  EXPECT_EQ(log.emitted(), 0u);
  log.MaybeEmit("get", trace, 501);
  EXPECT_EQ(log.emitted(), 1u);
}

// Registry-backed re-assertion of the PR 8 hot-path claim: once the proxy
// cache is warm, Gets touch zero Node::Decode calls (all reads go through
// the zero-copy NodeView path).
TEST(MetricsTest, WarmGetZeroDecodesViaRegistry) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::string value;
  for (uint64_t i = 0; i < 64; i++) {  // warm the cache
    ASSERT_TRUE(tip.Get(EncodeUserKey(i), &value).ok());
  }

  const auto& reg = cluster.metrics_registry();
  const int64_t decodes_before = SampleValue(reg, "btree", "node_decodes");
  const int64_t views_before = SampleValue(reg, "btree", "view_inits");
  for (uint64_t i = 0; i < 64; i++) {
    ASSERT_TRUE(tip.Get(EncodeUserKey(i), &value).ok());
  }
  EXPECT_EQ(SampleValue(reg, "btree", "node_decodes"), decodes_before);
  EXPECT_GT(SampleValue(reg, "btree", "view_inits"), views_before);
}

// Trace-backed re-assertion of the cold-descent batching bound: a cold
// 16-key MultiGet completes in at most depth + 2 coordinator rounds.
TEST(MetricsTest, ColdMultiGetRoundsBoundedByDepth) {
  Cluster cluster(SmallOptions());
  auto tree = cluster.CreateTree();
  ASSERT_TRUE(tree.ok());
  TipView tip = cluster.proxy(0).Tip(*tree);
  for (uint64_t i = 0; i < 512; i++) {
    ASSERT_TRUE(tip.Put(EncodeUserKey(i), EncodeValue(i)).ok());
  }
  auto depth = cluster.service_tree(tree->slot())->Depth();
  ASSERT_TRUE(depth.ok());
  ASSERT_GE(*depth, 2u);  // the bound is only interesting on a real tree

  cluster.DropProxyCaches();
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < 16; i++) keys.push_back(EncodeUserKey(i * 31));
  std::vector<std::optional<std::string>> values;
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(tip.MultiGet(keys, &values).ok());
  }
  ASSERT_EQ(values.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(values[i].has_value()) << i;
  }
  EXPECT_GT(trace.rounds(), 0);
  EXPECT_LE(trace.rounds(), static_cast<int>(*depth) + 2)
      << trace.ToString();
}

}  // namespace
}  // namespace minuet
