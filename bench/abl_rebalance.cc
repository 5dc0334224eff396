// Ablation: elastic scale-out with live rebalancing, then scale back IN.
//
// A 4-memnode cluster is preloaded and driven with a YCSB-B-style mix
// (95% read / 5% update); its modeled peak throughput is capacity-bound by
// the busiest memnode. Four memnodes are then added ONLINE
// (Cluster::AddMemnode) and the rebalancer live-migrates slabs until every
// memnode's tip-slab share sits within the balance band. The same workload
// re-runs in three configurations:
//   baseline4     — the original 4-node cluster,
//   scaled8_skew  — 8 nodes, nothing migrated (new nodes idle: throughput
//                   should NOT improve, showing placement alone is not
//                   enough),
//   scaled8_bal   — 8 nodes after rebalancing converges (target: >= 1.5x
//                   baseline4; ideal is ~2x as the per-memnode message
//                   demand halves).
// The SCALE-IN scenario then removes one memnode from the balanced 8-node
// cluster (Cluster::RemoveMemnode: drain + GC-horizon wait + retire) while
// the mix keeps running:
//   drain_live    — throughput measured DURING the drain/retire,
//   scaled7_post  — throughput after the node is gone (expected ~7/8 of
//                   scaled8_bal: capacity shrinks, nothing else degrades;
//                   the binary exits non-zero below 0.6x).
// Prints per-phase throughput + per-memnode demand spread, and emits
// machine-readable BENCH jsons (--json PATH for the scale-out rows,
// --json-scalein PATH for the scale-in rows; --smoke shrinks sizes for CI).
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/setup.h"
#include "rebalance/rebalancer.h"

int main(int argc, char** argv) {
  using namespace minuet::bench;
  using namespace minuet;

  bool smoke = false;
  std::string json_path;
  std::string scalein_json_path;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--json-scalein") == 0 && i + 1 < argc) {
      scalein_json_path = argv[++i];
    }
  }

  const uint32_t kBaseMachines = 4;
  const uint32_t kScaledMachines = 8;
  const uint64_t kPreload = smoke ? 4000 : 20000;
  const uint64_t kOps = smoke ? 300 : 2000;
  const uint32_t kThreads = 4;
  CostModel model;

  ClusterOptions opts;
  opts.machines = kBaseMachines;
  opts.max_machines = kScaledMachines;
  opts.node_size = 1024;
  opts.replication = true;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  if (!tree.ok()) std::abort();
  Preload(cluster, *tree, kPreload, /*threads=*/2);

  auto run_mix = [&](const char* label) -> Aggregate {
    RunOptions ropts;
    ropts.threads = kThreads;
    ropts.ops_per_thread = kOps;
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(4242 + t);
    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Proxy& proxy = cluster.proxy(ctx.thread % cluster.n_proxies());
      Rng& rng = rngs[ctx.thread];
      const std::string key = EncodeUserKey(rng.Uniform(kPreload));
      if (rng.Uniform(100) < 95) {
        std::string value;
        Status st = proxy.Get(*tree, key, &value);
        return st.IsNotFound() ? Status::OK() : st;
      }
      return proxy.Put(*tree, key, EncodeValue(rng.Next()));
    });
    PrintAudit(label, out.agg);
    return out.agg;
  };

  PrintHeader("Ablation: elastic scale-out + live rebalancing (YCSB-B mix)",
              "phase          memnodes  throughput_ops_s  hot_node_msgs_op  "
              "mean_op_ms");

  auto spread = [&](const Aggregate& a) {
    std::string s = "#   per-node msgs/op:";
    char buf[32];
    for (size_t m = 0; m < a.per_node_msgs.size(); m++) {
      std::snprintf(buf, sizeof(buf), " %.2f",
                    a.ops ? a.per_node_msgs[m] / a.ops : 0.0);
      s += buf;
    }
    std::printf("%s\n", s.c_str());
  };

  struct Phase {
    const char* name;
    uint32_t machines;
    Aggregate agg;
    double tput = 0;
  };
  std::vector<Phase> phases;

  // --- Phase 1: the 4-node baseline ---------------------------------------
  phases.push_back({"baseline4", kBaseMachines, run_mix("baseline4"), 0});

  // --- Phase 2: scale out WITHOUT rebalancing -----------------------------
  for (uint32_t m = kBaseMachines; m < kScaledMachines; m++) {
    auto id = cluster.AddMemnode();
    if (!id.ok()) std::abort();
  }
  phases.push_back(
      {"scaled8_skew", kScaledMachines, run_mix("scaled8_skew"), 0});

  // --- Phase 3: rebalance to convergence, then re-measure ------------------
  rebalance::Options ropts;
  ropts.max_moves_per_round = 512;
  // Tighter band than the daemon default: the measurement wants the
  // per-memnode demand as flat as migration can make it.
  ropts.imbalance_ratio = 1.1;
  rebalance::Rebalancer rebalancer(&cluster, ropts);
  auto migrated = rebalancer.RunUntilBalanced(/*max_rounds=*/64);
  if (!migrated.ok()) {
    std::fprintf(stderr, "rebalance failed: %s\n",
                 migrated.status().ToString().c_str());
    return 1;
  }
  std::printf("# rebalance: %llu slabs migrated\n",
              static_cast<unsigned long long>(*migrated));
  phases.push_back(
      {"scaled8_bal", kScaledMachines, run_mix("scaled8_bal"), 0});

  std::string json = "{\"bench\":\"rebalance\",\"migrated\":" +
                     std::to_string(*migrated) + ",\"rows\":[";
  for (size_t i = 0; i < phases.size(); i++) {
    Phase& ph = phases[i];
    // Client demand is held at the 4 proxies in every phase, so the
    // comparison isolates memnode capacity — the resource scale-out adds.
    ph.tput = ModeledPeakThroughput(model, ph.agg, kBaseMachines);
    std::printf("%-13s  %8u  %16.0f  %16.3f  %10.3f\n", ph.name, ph.machines,
                ph.tput, ph.agg.max_node_msgs_per_op(),
                ph.agg.mean_latency_ms());
    spread(ph.agg);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"phase\":\"%s\",\"memnodes\":%u,"
                  "\"throughput_ops_s\":%.1f,\"hot_node_msgs_per_op\":%.4f,"
                  "\"mean_op_ms\":%.4f}",
                  i == 0 ? "" : ",", ph.name, ph.machines, ph.tput,
                  ph.agg.max_node_msgs_per_op(), ph.agg.mean_latency_ms());
    json += row;
  }

  const double ratio =
      phases[0].tput > 0 ? phases[2].tput / phases[0].tput : 0;
  std::printf("# speedup after scale-out + rebalance: %.2fx (target >= 1.5x)\n",
              ratio);
  char tail[64];
  std::snprintf(tail, sizeof(tail), "],\"speedup\":%.3f}\n", ratio);
  json += tail;

  if (!json_path.empty() && !WriteBenchJson(json_path, json, &cluster)) {
    return 1;
  }

  // --- Scale-IN: drain + retire one memnode under load ----------------------
  // The balanced 8-node cluster loses its highest id while the same mix
  // keeps running: drain_live measures throughput DURING the removal
  // (migration + GC-horizon wait + retire race the clients), scaled7_post
  // after it. Expected: drain_live stays close to scaled8_bal (the drain is
  // incremental), scaled7_post lands near 7/8 of it (capacity shrinks by
  // one node, nothing else degrades).
  PrintHeader("Scale-in: RemoveMemnode (drain + retire) under the same mix",
              "phase          memnodes  throughput_ops_s  hot_node_msgs_op  "
              "mean_op_ms");
  const uint32_t victim = kScaledMachines - 1;
  Status removed = Status::OK();
  std::thread remover(
      [&cluster, &removed, victim] { removed = cluster.RemoveMemnode(victim); });
  std::vector<Phase> in_phases;
  in_phases.push_back(
      {"drain_live", kScaledMachines, run_mix("drain_live"), 0});
  remover.join();
  if (!removed.ok()) {
    std::fprintf(stderr, "RemoveMemnode failed: %s\n",
                 removed.ToString().c_str());
    return 1;
  }
  // Same discipline as scale-out: a membership change leaves skew behind
  // (the drain picked the lightest receivers, and updates racing the
  // drain's snapshot churn CoW-ed their leaves by the same counters), so
  // rebalance to the band before measuring the steady state.
  auto remigrated = rebalancer.RunUntilBalanced(/*max_rounds=*/64);
  if (!remigrated.ok()) {
    std::fprintf(stderr, "post-removal rebalance failed: %s\n",
                 remigrated.status().ToString().c_str());
    return 1;
  }
  std::printf("# post-removal rebalance: %llu slabs migrated\n",
              static_cast<unsigned long long>(*remigrated));
  in_phases.push_back(
      {"scaled7_post", kScaledMachines - 1, run_mix("scaled7_post"), 0});

  std::string in_json = "{\"bench\":\"scalein\",\"victim\":" +
                        std::to_string(victim) + ",\"rows\":[";
  for (size_t i = 0; i < in_phases.size(); i++) {
    Phase& ph = in_phases[i];
    ph.tput = ModeledPeakThroughput(model, ph.agg, kBaseMachines);
    std::printf("%-13s  %8u  %16.0f  %16.3f  %10.3f\n", ph.name, ph.machines,
                ph.tput, ph.agg.max_node_msgs_per_op(),
                ph.agg.mean_latency_ms());
    spread(ph.agg);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"phase\":\"%s\",\"memnodes\":%u,"
                  "\"throughput_ops_s\":%.1f,\"hot_node_msgs_per_op\":%.4f,"
                  "\"mean_op_ms\":%.4f}",
                  i == 0 ? "" : ",", ph.name, ph.machines, ph.tput,
                  ph.agg.max_node_msgs_per_op(), ph.agg.mean_latency_ms());
    in_json += row;
  }
  const double ratio_during =
      phases[2].tput > 0 ? in_phases[0].tput / phases[2].tput : 0;
  const double ratio_after =
      phases[2].tput > 0 ? in_phases[1].tput / phases[2].tput : 0;
  std::printf(
      "# vs scaled8_bal: during drain %.2fx, after removal %.2fx "
      "(ideal ~%.2fx, gate >= 0.6x)\n",
      ratio_during, ratio_after,
      static_cast<double>(kScaledMachines - 1) / kScaledMachines);
  char in_tail[96];
  std::snprintf(in_tail, sizeof(in_tail),
                "],\"ratio_during\":%.3f,\"ratio_after\":%.3f}\n",
                ratio_during, ratio_after);
  in_json += in_tail;

  if (!scalein_json_path.empty() && !WriteBenchJson(scalein_json_path, in_json, &cluster)) {
    return 1;
  }
  if (ratio < 1.5) return 2;
  return ratio_after >= 0.6 ? 0 : 3;
}
