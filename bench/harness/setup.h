// Shared setup helpers for the figure benchmarks: cluster construction,
// preloading, and gnuplot-friendly table printing.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "bench/harness/runner.h"
#include "common/key_codec.h"
#include "minuet/cluster.h"

namespace minuet::bench {

inline std::unique_ptr<Cluster> MakeCluster(uint32_t machines,
                                            bool dirty = true,
                                            double k_seconds = 0,
                                            uint64_t retain = 16,
                                            uint32_t node_size = 4096) {
  ClusterOptions opts;
  opts.machines = machines;
  opts.node_size = node_size;  // paper default: 4 KB tree nodes
  opts.dirty_traversals = dirty;
  opts.replication = true;
  opts.snapshot_min_interval_seconds = k_seconds;
  opts.retain_snapshots = retain;
  return std::make_unique<Cluster>(opts);
}

// Insert records [0, n) from several threads, spreading across proxies.
inline void Preload(Cluster& cluster, const TreeHandle& tree, uint64_t n,
                    uint32_t threads = 1) {
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      TipView tip = cluster.proxy(t % cluster.n_proxies()).Tip(tree);
      for (uint64_t i = t; i < n; i += threads) {
        Status st = tip.Put(EncodeUserKey(i), EncodeValue(i));
        if (!st.ok()) {
          std::fprintf(stderr, "preload failed: %s\n", st.ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

inline void PreloadCdb(cdb::CdbCluster& cdb, uint32_t table, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    IgnoreStatus(cdb.Insert(table, EncodeUserKey(i), EncodeValue(i)));
  }
}

// Write a benchmark's result JSON to `path`, plus — when `cluster` is
// non-null — the cluster's full observability snapshot
// (Cluster::DumpStatsJson) next to it: the basename's "BENCH_" prefix
// becomes "STATS_" (BENCH_foo.json -> STATS_foo.json; other basenames just
// gain the prefix). CI uploads the pair and round-trips the snapshot
// through tools/statsdump. Returns false with a diagnostic if a write
// fails.
inline bool WriteBenchJson(const std::string& path, const std::string& json,
                           const Cluster* cluster = nullptr) {
  auto write = [](const std::string& p, const std::string& body) {
    std::FILE* f = std::fopen(p.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", p.c_str());
      return false;
    }
    std::fputs(body.c_str(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", p.c_str());
    return true;
  };
  if (!write(path, json)) return false;
  if (cluster == nullptr) return true;
  const size_t slash = path.find_last_of('/');
  const size_t base = slash == std::string::npos ? 0 : slash + 1;
  std::string stats = path.substr(0, base) + "STATS_";
  stats += path.compare(base, 6, "BENCH_") == 0 ? path.substr(base + 6)
                                                : path.substr(base);
  return write(stats, cluster->DumpStatsJson() + "\n");
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("# %s\n", title);
  std::printf(
      "# Real protocol execution; time via the calibrated cost model "
      "(bench/harness/cost_model.h). See docs/ARCHITECTURE.md, "
      "\"The coordinator-round cost model\".\n");
  std::printf("%s\n", columns);
}

// Counters one benchmark run also reports, so modeled numbers are auditable.
inline void PrintAudit(const char* label, const Aggregate& a) {
  std::printf(
      "#   audit[%s]: ops=%llu failed=%llu rounds/op=%.2f msgs/op=%.2f "
      "retries=%llu val_aborts=%llu cow=%llu\n",
      label, static_cast<unsigned long long>(a.ops),
      static_cast<unsigned long long>(a.failed), a.mean_rounds(),
      a.mean_msgs(), static_cast<unsigned long long>(a.retries),
      static_cast<unsigned long long>(a.validation_aborts),
      static_cast<unsigned long long>(a.nodes_copied));
  if (a.sum_wall_ns > 0) {
    std::printf("#   wall[%s]: ns/op=%.0f ops/sec=%.0f\n", label,
                a.mean_wall_ns(), a.wall_ops_per_sec());
  }
}

}  // namespace minuet::bench
