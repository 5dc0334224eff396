// Tests for the message fabric: accounting, round-trip batching, failure
// injection, and per-thread traces.
#include <gtest/gtest.h>

#include <thread>

#include "net/fabric.h"
#include "obs/trace.h"

namespace minuet::net {
namespace {

TEST(FabricTest, ChargeCountsPerNode) {
  Fabric f(3);
  EXPECT_TRUE(f.ChargeMessage(0).ok());
  EXPECT_TRUE(f.ChargeMessage(0).ok());
  EXPECT_TRUE(f.ChargeMessage(2).ok());
  EXPECT_EQ(f.NodeMessages(0), 2u);
  EXPECT_EQ(f.NodeMessages(1), 0u);
  EXPECT_EQ(f.NodeMessages(2), 1u);
  EXPECT_EQ(f.TotalMessages(), 3u);
}

TEST(FabricTest, DownNodeIsUnavailable) {
  Fabric f(2);
  f.SetUp(1, false);
  EXPECT_TRUE(f.ChargeMessage(0).ok());
  EXPECT_TRUE(f.ChargeMessage(1).IsUnavailable());
  f.SetUp(1, true);
  EXPECT_TRUE(f.ChargeMessage(1).ok());
}

TEST(FabricTest, OutOfRangeNodeIsUnavailable) {
  Fabric f(2);
  EXPECT_TRUE(f.ChargeMessage(7).IsUnavailable());
}

TEST(FabricTest, TraceRecordsMessagesAndRoundTrips) {
  Fabric f(4);
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(f.ChargeMessage(1).ok());
    ASSERT_TRUE(f.ChargeMessage(2).ok());
  }
  EXPECT_EQ(trace.messages(), 2u);
  EXPECT_EQ(trace.round_trips(), 2u);  // no batch: each message is a round
  ASSERT_EQ(trace.per_node().size(), 3u);  // grows to the highest id charged
  EXPECT_EQ(trace.per_node()[1], 1u);
  EXPECT_EQ(trace.per_node()[2], 1u);
  trace.Clear();
  EXPECT_EQ(trace.messages(), 0u);
  EXPECT_EQ(trace.round_trips(), 0u);
  EXPECT_TRUE(trace.per_node().empty());
}

TEST(FabricTest, RoundTripScopeBatchesMessages) {
  Fabric f(4);
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    RoundTripScope rt;
    for (NodeId n = 0; n < 4; n++) ASSERT_TRUE(f.ChargeMessage(n).ok());
  }
  EXPECT_EQ(trace.messages(), 4u);
  EXPECT_EQ(trace.round_trips(), 1u);
}

TEST(FabricTest, NestedScopesFlatten) {
  Fabric f(4);
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    RoundTripScope outer;
    ASSERT_TRUE(f.ChargeMessage(0).ok());
    {
      RoundTripScope inner;
      ASSERT_TRUE(f.ChargeMessage(1).ok());
    }
    ASSERT_TRUE(f.ChargeMessage(2).ok());
  }
  EXPECT_EQ(trace.round_trips(), 1u);
}

TEST(FabricTest, SequentialScopesChargeSeparately) {
  Fabric f(4);
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    {
      RoundTripScope rt;
      ASSERT_TRUE(f.ChargeMessage(0).ok());
    }
    {
      RoundTripScope rt;
      ASSERT_TRUE(f.ChargeMessage(1).ok());
    }
  }
  EXPECT_EQ(trace.round_trips(), 2u);
}

TEST(FabricTest, TraceIsPerThread) {
  Fabric f(2);
  obs::TraceContext main_trace;
  obs::TraceContext thread_trace;
  {
    obs::ScopedTrace scoped(&main_trace);
    std::thread t([&] {
      obs::ScopedTrace thread_scoped(&thread_trace);
      ASSERT_TRUE(f.ChargeMessage(0).ok());
      ASSERT_TRUE(f.ChargeMessage(0).ok());
    });
    t.join();
    ASSERT_TRUE(f.ChargeMessage(1).ok());
  }
  EXPECT_EQ(thread_trace.messages(), 2u);
  EXPECT_EQ(main_trace.messages(), 1u);
}

TEST(FabricTest, ConcurrentChargesAreCounted) {
  Fabric f(1);
  constexpr int kThreads = 8, kPer = 1000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; i++) {
    ts.emplace_back([&] {
      for (int j = 0; j < kPer; j++) ASSERT_TRUE(f.ChargeMessage(0).ok());
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(f.NodeMessages(0), static_cast<uint64_t>(kThreads) * kPer);
}

}  // namespace
}  // namespace minuet::net
