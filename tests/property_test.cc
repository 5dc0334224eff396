// Property-based tests: randomized operation sequences checked against
// reference models, across a parameter sweep of cluster shapes (node size,
// memnode count, traversal mode, β, replication). TEST_P keeps each
// property uniform across every configuration.
#include <gtest/gtest.h>

#include <map>

#include "common/key_codec.h"
#include "test_seed.h"
#include "common/random.h"
#include "minuet/cluster.h"

namespace minuet {
namespace {

struct Shape {
  uint32_t machines;
  uint32_t node_size;
  bool dirty;
  bool replication;
  uint32_t beta;
};

std::string ShapeName(const ::testing::TestParamInfo<Shape>& info) {
  const Shape& s = info.param;
  return "m" + std::to_string(s.machines) + "_n" +
         std::to_string(s.node_size) + (s.dirty ? "_dirty" : "_valid") +
         (s.replication ? "_repl" : "_norepl") + "_b" +
         std::to_string(s.beta);
}

class PropertyTest : public ::testing::TestWithParam<Shape> {
 protected:
  std::unique_ptr<Cluster> MakeCluster(bool branching = false,
                                       TreeHandle* tree_out = nullptr) {
    const Shape& s = GetParam();
    ClusterOptions opts;
    opts.machines = s.machines;
    opts.node_size = s.node_size;
    opts.dirty_traversals = s.dirty;
    opts.replication = s.replication;
    opts.beta = s.beta;
    auto cluster = std::make_unique<Cluster>(opts);
    auto tree = cluster->CreateTree(branching);
    EXPECT_TRUE(tree.ok());
    if (tree_out != nullptr) *tree_out = *tree;
    return cluster;
  }
};

TEST_P(PropertyTest, RandomOpsMatchReferenceMap) {
  TreeHandle tree;
  auto cluster = MakeCluster(false, &tree);
  std::map<std::string, std::string> model;
  Rng rng(testing::SuiteSeed("RandomOpsMatchReferenceMap",
                             GetParam().machines * 131 +
                                 GetParam().node_size));

  for (int step = 0; step < 900; step++) {
    Proxy& p = cluster->proxy(rng.Uniform(cluster->n_proxies()));
    const std::string key = EncodeUserKey(rng.Uniform(300));
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(p.Put(tree, key, value).ok());
      model[key] = value;
    } else if (dice < 0.7) {
      Status st = p.Remove(tree, key);
      EXPECT_EQ(st.ok(), model.erase(key) > 0);
    } else {
      std::string value;
      Status st = p.Get(tree, key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(st.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(st.ok()) << key;
        EXPECT_EQ(value, it->second);
      }
    }
  }

  // Final full-scan equivalence, streamed through a tip cursor.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(cluster->proxy(0)
                  .Tip(tree)
                  .Scan(EncodeUserKey(0), 100000, &rows)
                  .ok());
  ASSERT_EQ(rows.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < rows.size(); i++, ++it) {
    EXPECT_EQ(rows[i].first, it->first);
    EXPECT_EQ(rows[i].second, it->second);
  }
}

TEST_P(PropertyTest, SnapshotsPinEveryEpochExactly) {
  TreeHandle tree;
  auto cluster = MakeCluster(false, &tree);
  Proxy& p = cluster->proxy(0);
  Rng rng(testing::SuiteSeed("SnapshotsPinEveryEpochExactly", 7));

  std::map<std::string, std::string> model;
  std::vector<std::pair<SnapshotView,
                        std::map<std::string, std::string>>> epochs;
  for (int epoch = 0; epoch < 5; epoch++) {
    for (int i = 0; i < 120; i++) {
      const std::string key = EncodeUserKey(rng.Uniform(200));
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(p.Put(tree, key, value).ok());
      model[key] = value;
    }
    auto snap = p.Snapshot(tree);
    ASSERT_TRUE(snap.ok());
    epochs.emplace_back(std::move(*snap), model);
  }
  // Every snapshot equals its frozen model, scanned and point-read.
  for (auto& [snap, frozen] : epochs) {
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(snap.Scan(EncodeUserKey(0), 100000, &rows).ok());
    ASSERT_EQ(rows.size(), frozen.size()) << "sid " << snap.sid();
    auto it = frozen.begin();
    for (size_t i = 0; i < rows.size(); i++, ++it) {
      EXPECT_EQ(rows[i].first, it->first);
      EXPECT_EQ(rows[i].second, it->second);
    }
  }
}

TEST_P(PropertyTest, ScanWindowsAreConsistentSlices) {
  TreeHandle tree;
  auto cluster = MakeCluster(false, &tree);
  Proxy& p = cluster->proxy(0);
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(p.Put(tree, EncodeUserKey(i * 3), EncodeValue(i)).ok());
  }
  auto snap = p.Snapshot(tree);
  ASSERT_TRUE(snap.ok());
  Rng rng(testing::SuiteSeed("ScanWindowsAreConsistentSlices", 13));
  for (int trial = 0; trial < 20; trial++) {
    const uint64_t start = rng.Uniform(1200);
    const size_t limit = 1 + rng.Uniform(60);
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(snap->Scan(EncodeUserKey(start), limit, &rows).ok());
    // Sorted, within range, contiguous w.r.t. the key population.
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_GE(rows[i].first, EncodeUserKey(start));
      if (i > 0) {
        EXPECT_LT(rows[i - 1].first, rows[i].first);
      }
      const uint64_t id = DecodeUserKey(rows[i].first);
      EXPECT_EQ(id % 3, 0u);
      EXPECT_EQ(DecodeValue(rows[i].second), id / 3);
    }
    // Count matches the arithmetic expectation.
    const uint64_t first_present = (start + 2) / 3 * 3;
    const uint64_t present_after =
        first_present >= 1200 ? 0 : (1200 - first_present + 2) / 3;
    EXPECT_EQ(rows.size(), std::min<size_t>(limit, present_after));
  }
}

TEST_P(PropertyTest, BranchForestMatchesPerBranchModels) {
  if (GetParam().beta < 2) GTEST_SKIP();
  TreeHandle tree;
  auto cluster = MakeCluster(/*branching=*/true, &tree);
  Proxy& p = cluster->proxy(0);
  Rng rng(testing::SuiteSeed("BranchForestMatchesPerBranchModels",
                             GetParam().beta * 17 + 1));

  std::map<uint64_t, std::map<std::string, std::string>> models;
  std::vector<uint64_t> writable = {0};
  models[0] = {};
  for (int step = 0; step < 500; step++) {
    const uint64_t branch = writable[rng.Uniform(writable.size())];
    if (step % 60 == 59 && writable.size() < 5) {
      auto nb = p.CreateBranch(tree, branch);
      if (nb.ok()) {
        models[*nb] = models[branch];
        writable.erase(std::find(writable.begin(), writable.end(), branch));
        writable.push_back(*nb);
      }
      continue;
    }
    auto view = p.Branch(tree, branch);
    ASSERT_TRUE(view.ok());
    const std::string key = EncodeUserKey(rng.Uniform(80));
    if (rng.Chance(0.2)) {
      Status st = view->Remove(key);
      EXPECT_EQ(st.ok(), models[branch].erase(key) > 0);
    } else {
      const std::string value = EncodeValue(rng.Next());
      ASSERT_TRUE(view->Put(key, value).ok());
      models[branch][key] = value;
    }
  }
  for (uint64_t b : writable) {
    auto view = p.Branch(tree, b);
    ASSERT_TRUE(view.ok());
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(view->Scan(EncodeUserKey(0), 100000, &rows).ok());
    ASSERT_EQ(rows.size(), models[b].size()) << "branch " << b;
    auto it = models[b].begin();
    for (size_t i = 0; i < rows.size(); i++, ++it) {
      EXPECT_EQ(rows[i].first, it->first) << "branch " << b;
      EXPECT_EQ(rows[i].second, it->second) << "branch " << b;
    }
  }
}

TEST_P(PropertyTest, VariableLengthKeysAndValues) {
  TreeHandle tree;
  auto cluster = MakeCluster(false, &tree);
  Proxy& p = cluster->proxy(0);
  Rng rng(testing::SuiteSeed("VariableLengthKeysAndValues", 21));
  std::map<std::string, std::string> model;
  const size_t max_entry = btree::MaxEntryBytes(GetParam().node_size - 8);
  for (int i = 0; i < 300; i++) {
    const size_t klen = 1 + rng.Uniform(std::min<size_t>(40, max_entry / 2));
    std::string key;
    for (size_t j = 0; j < klen; j++) {
      key.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    const size_t vlen = rng.Uniform(max_entry - klen);
    std::string value(vlen, static_cast<char>('0' + i % 10));
    ASSERT_TRUE(p.Put(tree, key, value).ok()) << klen << "+" << vlen;
    model[key] = value;
  }
  for (const auto& [k, v] : model) {
    std::string value;
    ASSERT_TRUE(p.Get(tree, k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PropertyTest,
    ::testing::Values(Shape{1, 512, true, false, 2},
                      Shape{4, 512, true, true, 2},
                      Shape{4, 1024, true, false, 2},
                      Shape{8, 1024, true, true, 3},
                      Shape{4, 1024, false, false, 2},
                      Shape{8, 512, false, true, 2},
                      Shape{2, 4096, true, false, 4},
                      Shape{16, 1024, true, false, 2}),
    ShapeName);

}  // namespace
}  // namespace minuet
