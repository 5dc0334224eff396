// Tests for the incoherent proxy-side object cache.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "txn/object_cache.h"

namespace minuet::txn {
namespace {

using sinfonia::Addr;

TEST(ObjectCacheTest, MissThenHit) {
  ObjectCache cache(4);
  ObjectCache::Entry e;
  EXPECT_FALSE(cache.Lookup(Addr{0, 100}, &e));
  cache.Insert(Addr{0, 100}, 7, "data");
  ASSERT_TRUE(cache.Lookup(Addr{0, 100}, &e));
  EXPECT_EQ(e.seqnum, 7u);
  EXPECT_EQ(*e.payload, "data");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ObjectCacheTest, NewerVersionReplacesOlder) {
  ObjectCache cache(4);
  cache.Insert(Addr{0, 100}, 1, "old");
  cache.Insert(Addr{0, 100}, 2, "new");
  ObjectCache::Entry e;
  ASSERT_TRUE(cache.Lookup(Addr{0, 100}, &e));
  EXPECT_EQ(*e.payload, "new");
}

TEST(ObjectCacheTest, OlderVersionNeverReplacesNewer) {
  ObjectCache cache(4);
  cache.Insert(Addr{0, 100}, 5, "newer");
  cache.Insert(Addr{0, 100}, 3, "stale-race");
  ObjectCache::Entry e;
  ASSERT_TRUE(cache.Lookup(Addr{0, 100}, &e));
  EXPECT_EQ(e.seqnum, 5u);
  EXPECT_EQ(*e.payload, "newer");
}

TEST(ObjectCacheTest, InvalidateRemoves) {
  ObjectCache cache(4);
  cache.Insert(Addr{0, 100}, 1, "x");
  cache.Invalidate(Addr{0, 100});
  ObjectCache::Entry e;
  EXPECT_FALSE(cache.Lookup(Addr{0, 100}, &e));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ObjectCacheTest, InvalidateMissingIsNoop) {
  ObjectCache cache(4);
  cache.Invalidate(Addr{9, 900});
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ObjectCacheTest, CapacityIsEnforced) {
  ObjectCache cache(8);
  for (uint64_t i = 0; i < 64; i++) {
    cache.Insert(Addr{0, i * 64}, 1, "v");
  }
  EXPECT_LE(cache.size(), 8u);
}

TEST(ObjectCacheTest, ClockKeepsHotEntries) {
  ObjectCache cache(4);
  for (uint64_t i = 0; i < 4; i++) cache.Insert(Addr{0, i}, 1, "v");
  // Touch entry 0 repeatedly so its reference bit survives sweeps.
  ObjectCache::Entry e;
  for (int round = 0; round < 16; round++) {
    ASSERT_TRUE(cache.Lookup(Addr{0, 0}, &e));
    cache.Insert(Addr{1, static_cast<uint64_t>(1000 + round)}, 1, "cold");
  }
  EXPECT_TRUE(cache.Lookup(Addr{0, 0}, &e));
}

TEST(ObjectCacheTest, ClearEmpties) {
  ObjectCache cache(4);
  cache.Insert(Addr{0, 1}, 1, "v");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ObjectCacheTest, SmallCachesCollapseToOneShard) {
  // Per-shard capacity must stay meaningful: tiny caches are unsharded, so
  // CLOCK eviction behaves exactly as a single cache of that capacity.
  EXPECT_EQ(ObjectCache(4).shard_count(), 1u);
  EXPECT_EQ(ObjectCache(255).shard_count(), 1u);
  EXPECT_GT(ObjectCache(1 << 16).shard_count(), 1u);
  EXPECT_LE(ObjectCache(1 << 20).shard_count(), ObjectCache::kMaxShards);
}

TEST(ObjectCacheTest, StatsSumShardsAndCountEvictions) {
  ObjectCache cache(1 << 16);  // sharded
  ASSERT_GT(cache.shard_count(), 1u);
  ObjectCache::Entry e;
  for (uint64_t i = 0; i < 100; i++) {
    const sinfonia::Addr a{static_cast<uint32_t>(i % 4), i * 4096};
    EXPECT_FALSE(cache.Lookup(a, &e));  // one miss per address...
    cache.Insert(a, 1, "v");
    EXPECT_TRUE(cache.Lookup(a, &e));  // ...then one hit
  }
  const ObjectCache::Stats stats = cache.TotalStats();
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.misses, 100u);
  EXPECT_EQ(stats.size, 100u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.hits(), stats.hits);
  EXPECT_EQ(cache.misses(), stats.misses);

  // Overflow a single-shard cache: evictions are counted.
  ObjectCache tiny(8);
  for (uint64_t i = 0; i < 64; i++) tiny.Insert(sinfonia::Addr{0, i * 64}, 1, "v");
  EXPECT_LE(tiny.size(), 8u);
  EXPECT_EQ(tiny.evictions(), 64u - tiny.size());
}

TEST(ObjectCacheTest, ShardedCacheKeepsPointSemantics) {
  ObjectCache cache(1 << 16);
  const sinfonia::Addr a{3, 777 * 4096};
  cache.Insert(a, 5, "newer");
  cache.Insert(a, 3, "stale-race");
  ObjectCache::Entry e;
  ASSERT_TRUE(cache.Lookup(a, &e));
  EXPECT_EQ(e.seqnum, 5u);
  EXPECT_EQ(*e.payload, "newer");
  cache.Invalidate(a);
  EXPECT_FALSE(cache.Lookup(a, &e));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ObjectCacheTest, ConcurrentAccessIsSafe) {
  ObjectCache cache(128);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; t++) {
    ts.emplace_back([&, t] {
      ObjectCache::Entry e;
      for (uint64_t i = 0; i < 2000; i++) {
        const Addr a{static_cast<uint32_t>(t), i % 64};
        cache.Insert(a, i, "payload");
        cache.Lookup(a, &e);
        if (i % 7 == 0) cache.Invalidate(a);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_LE(cache.size(), 128u);
}

}  // namespace
}  // namespace minuet::txn
