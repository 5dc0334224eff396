// Tests for the simulated commercial main-memory database baseline:
// single-partition ops, scans broadcasting to all partitions, dual-key
// multi-partition transactions engaging every server, replication.
#include <gtest/gtest.h>

#include <thread>

#include "cdb/cdb.h"
#include "common/key_codec.h"
#include "obs/trace.h"

namespace minuet::cdb {
namespace {

class CdbTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPartitions = 4;

  void SetUp() override {
    fabric_ = std::make_unique<net::Fabric>(kPartitions);
    cdb_ = std::make_unique<CdbCluster>(
        fabric_.get(),
        CdbCluster::Options{kPartitions, /*n_tables=*/2, /*replication=*/true});
  }

  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<CdbCluster> cdb_;
};

TEST_F(CdbTest, InsertReadUpdateRemove) {
  ASSERT_TRUE(cdb_->Insert(0, "k", "v1").ok());
  std::string value;
  ASSERT_TRUE(cdb_->Read(0, "k", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(cdb_->Update(0, "k", "v2").ok());
  ASSERT_TRUE(cdb_->Read(0, "k", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(cdb_->Remove(0, "k").ok());
  EXPECT_TRUE(cdb_->Read(0, "k", &value).IsNotFound());
}

TEST_F(CdbTest, UpdateMissingRowIsNotFound) {
  EXPECT_TRUE(cdb_->Update(0, "ghost", "v").IsNotFound());
}

TEST_F(CdbTest, TablesAreIndependent) {
  ASSERT_TRUE(cdb_->Insert(0, "k", "t0").ok());
  std::string value;
  EXPECT_TRUE(cdb_->Read(1, "k", &value).IsNotFound());
  ASSERT_TRUE(cdb_->Insert(1, "k", "t1").ok());
  ASSERT_TRUE(cdb_->Read(0, "k", &value).ok());
  EXPECT_EQ(value, "t0");
  ASSERT_TRUE(cdb_->Read(1, "k", &value).ok());
  EXPECT_EQ(value, "t1");
}

TEST_F(CdbTest, SingleKeyReadTouchesOnePartition) {
  ASSERT_TRUE(cdb_->Insert(0, "key", "v").ok());
  std::string value;
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(cdb_->Read(0, "key", &value).ok());
  }
  EXPECT_EQ(trace.messages(), 1u);
  EXPECT_EQ(trace.round_trips(), 1u);
}

TEST_F(CdbTest, WriteReplicatesToBackup) {
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(cdb_->Insert(0, "key", "v").ok());
  }
  EXPECT_EQ(trace.messages(), 2u);  // primary + backup
}

TEST_F(CdbTest, ScanBroadcastsToAllPartitions) {
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(cdb_->Insert(0, EncodeUserKey(i), EncodeValue(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(cdb_->Scan(0, EncodeUserKey(50), 20, &out).ok());
  }
  EXPECT_EQ(trace.messages(), kPartitions);  // every server engaged
  EXPECT_EQ(trace.round_trips(), 1u);        // in parallel

  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out[0].first, EncodeUserKey(50));
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].first, out[i].first);  // merged order
  }
}

TEST_F(CdbTest, DualKeyTransactionEngagesAllServers) {
  ASSERT_TRUE(cdb_->Insert(0, "a", "1").ok());
  ASSERT_TRUE(cdb_->Insert(1, "b", "2").ok());
  std::string v1, v2;
  obs::TraceContext trace;
  {
    obs::ScopedTrace scoped(&trace);
    ASSERT_TRUE(cdb_->Read2(0, "a", &v1, 1, "b", &v2).ok());
  }
  EXPECT_EQ(v1, "1");
  EXPECT_EQ(v2, "2");
  // Prepare round + commit round, each touching every partition. (CDB
  // models its own global 2PC directly and keeps the release on the
  // critical path — unlike Minuet's read-only minitransactions.)
  EXPECT_EQ(trace.messages(), 2u * kPartitions);
  EXPECT_EQ(trace.round_trips(), 2u);
}

TEST_F(CdbTest, DualKeyUpdateIsAtomicUnderConcurrency) {
  ASSERT_TRUE(cdb_->Insert(0, "x", EncodeValue(0)).ok());
  ASSERT_TRUE(cdb_->Insert(1, "y", EncodeValue(0)).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= 2000; i++) {
      ASSERT_TRUE(
          cdb_->Update2(0, "x", EncodeValue(i), 1, "y", EncodeValue(i)).ok());
    }
    stop = true;
  });
  std::thread reader([&] {
    std::string x, y;
    while (!stop) {
      if (cdb_->Read2(0, "x", &x, 1, "y", &y).ok() && x != y) violations++;
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST_F(CdbTest, DownPartitionMakesOpsUnavailable) {
  ASSERT_TRUE(cdb_->Insert(0, "k", "v").ok());
  const uint32_t pid = cdb_->PartitionFor("k");
  fabric_->SetUp(pid, false);
  std::string value;
  EXPECT_TRUE(cdb_->Read(0, "k", &value).IsUnavailable());
  fabric_->SetUp(pid, true);
  EXPECT_TRUE(cdb_->Read(0, "k", &value).ok());
}

TEST_F(CdbTest, CommittedCountTracks) {
  ASSERT_TRUE(cdb_->Insert(0, "k", "v").ok());
  std::string value;
  ASSERT_TRUE(cdb_->Read(0, "k", &value).ok());
  EXPECT_EQ(cdb_->committed_txns(), 2u);
}

TEST(CdbSinglePartition, WorksWithOnePartition) {
  net::Fabric fabric(1);
  CdbCluster cdb(&fabric, CdbCluster::Options{1, 2, true});
  ASSERT_TRUE(cdb.Insert(0, "k", "v").ok());
  std::string v1, v2;
  ASSERT_TRUE(cdb.Insert(1, "j", "w").ok());
  ASSERT_TRUE(cdb.Read2(0, "k", &v1, 1, "j", &v2).ok());
  EXPECT_EQ(v1, "v");
  EXPECT_EQ(v2, "w");
}

}  // namespace
}  // namespace minuet::cdb
