// Ablation: elastic proxy tier — throughput while proxies join MID-RUN.
//
// A 4-memnode cluster starts with a single proxy and is driven with a
// read-mostly mix (95% read / 5% update). With the paper's closed-loop
// client model attached per PROXY (each proxy fronts a fixed client
// population), one proxy is demand-bound far below the memnodes' message
// capacity — the storage tier is idle headroom the client-facing tier
// cannot reach. Three more proxies then join ONLINE (Cluster::AddProxy,
// staggered across a live run): each arrives with a cold cache, attaches
// its per-tree view stacks lazily through the shared TreeCatalog, and
// starts absorbing clients immediately. Phases:
//   proxy1      — the single-proxy baseline (demand-bound),
//   join_live   — measured WHILE the three proxies join; the audit line
//                 shows the cold-cache round-trip inflation the joiners
//                 pay down as they warm,
//   proxies4    — steady state with 4 warm proxies (target: >= 2x the
//                 proxy1 read throughput; ideal ~4x until the hottest
//                 memnode's capacity binds),
//   shrunk1     — epilogue: RemoveProxy returns the tier to one proxy;
//                 throughput lands back near proxy1 (no gate — the
//                 lifecycle tests own removal correctness; this row
//                 tracks that a shrink is clean under load).
// Prints per-phase throughput + per-memnode demand spread and emits a
// machine-readable BENCH json (--json PATH; --smoke shrinks sizes for CI).
// Exits 2 when proxies4 < 2x proxy1.
#include <array>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness/setup.h"

int main(int argc, char** argv) {
  using namespace minuet::bench;
  using namespace minuet;

  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const uint32_t kMemnodes = 4;
  const uint32_t kProxies = 4;  // 1 at start, 3 join mid-run
  const uint64_t kPreload = smoke ? 4000 : 20000;
  const uint64_t kOps = smoke ? 400 : 2500;
  const uint32_t kThreads = 4;
  CostModel model;
  // Closed-loop clients attach per PROXY in this experiment (the tier
  // under test), scaled so one proxy's demand sits well under the
  // 4-memnode capacity: the speedup below measures the proxy tier, not
  // storage.
  model.clients_per_machine = 8.0;

  ClusterOptions opts;
  opts.machines = kMemnodes;
  opts.proxies = 1;
  opts.node_size = 1024;
  opts.replication = true;
  Cluster cluster(opts);
  auto tree = cluster.CreateTree();
  if (!tree.ok()) std::abort();
  Preload(cluster, *tree, kPreload, /*threads=*/2);

  // The live proxy set the client threads draw from. Fixed-capacity array
  // + release-published count so the joiner can grow it under running
  // clients without a lock in the op path.
  std::array<uint32_t, kProxies> live_ids = {0};
  std::atomic<uint32_t> n_live{1};
  std::atomic<uint64_t> done_ops{0};
  std::atomic<uint64_t> live_weight{0};  // sum of n_live per op (avg proxies)

  auto run_mix = [&](const char* label) -> Aggregate {
    RunOptions ropts;
    ropts.threads = kThreads;
    ropts.ops_per_thread = kOps;
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < kThreads; t++) rngs.emplace_back(7331 + t);
    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      const uint32_t live = n_live.load(std::memory_order_acquire);
      live_weight.fetch_add(live, std::memory_order_relaxed);
      done_ops.fetch_add(1, std::memory_order_relaxed);
      Proxy& proxy =
          cluster.proxy(live_ids[(ctx.thread + ctx.index) % live]);
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

  // Demand is clients-per-proxy bound; capacity is the hottest memnode.
  // Same shape as ModeledPeakThroughput, with a fractional machine count
  // so the join phase can be modeled at its op-weighted proxy average.
  auto tput = [&](const Aggregate& a, double proxies) -> double {
    if (a.ops == 0) return 0;
    const double demand =
        proxies * model.clients_per_machine / (a.mean_latency_ms() / 1000.0);
    const double hot = a.max_node_msgs_per_op();
    return hot > 0 ? std::min(demand, model.MemnodeCapacity() / hot) : demand;
  };

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

  PrintHeader(
      "Ablation: elastic proxy tier, 1 -> 4 proxies joining mid-run "
      "(read-mostly mix)",
      "phase        proxies  throughput_ops_s  hot_node_msgs_op  mean_op_ms");

  struct Phase {
    const char* name;
    double proxies;
    Aggregate agg;
    double tput = 0;
  };
  std::vector<Phase> phases;

  // --- Phase 1: single-proxy baseline --------------------------------------
  phases.push_back({"proxy1", 1.0, run_mix("proxy1"), 0});

  // --- Phase 2: three proxies join while the mix runs ----------------------
  // The joiner adds a proxy each time the clients pass another quarter of
  // the phase, so the run covers 1, 2, 3 and 4 live proxies; each joiner
  // is published to the client threads the moment AddProxy returns.
  done_ops.store(0);
  live_weight.store(0);
  const uint64_t phase_ops = uint64_t{kThreads} * kOps;
  std::thread joiner([&] {
    for (uint32_t j = 1; j < kProxies; j++) {
      const uint64_t threshold = phase_ops * j / kProxies;
      while (done_ops.load(std::memory_order_relaxed) < threshold) {
        std::this_thread::yield();
      }
      auto id = cluster.AddProxy();
      if (!id.ok()) std::abort();
      live_ids[j] = *id;
      n_live.store(j + 1, std::memory_order_release);
    }
  });
  Aggregate join_agg = run_mix("join_live");
  joiner.join();
  const double avg_proxies =
      join_agg.ops ? static_cast<double>(live_weight.load()) / join_agg.ops
                   : 1.0;
  std::printf("# join_live: op-weighted live proxies %.2f (ends at %u)\n",
              avg_proxies, cluster.n_live_proxies());
  phases.push_back({"join_live", avg_proxies, join_agg, 0});

  // --- Phase 3: steady state with 4 warm proxies ---------------------------
  phases.push_back({"proxies4", 4.0, run_mix("proxies4"), 0});

  // --- Phase 4 (epilogue): shrink back to one proxy ------------------------
  for (uint32_t j = kProxies - 1; j >= 1; j--) {
    Status st = cluster.RemoveProxy(live_ids[j]);
    if (!st.ok()) {
      std::fprintf(stderr, "RemoveProxy(%u) failed: %s\n", live_ids[j],
                   st.ToString().c_str());
      return 1;
    }
  }
  n_live.store(1, std::memory_order_release);
  phases.push_back({"shrunk1", 1.0, run_mix("shrunk1"), 0});

  std::string json = "{\"bench\":\"proxyscale\",\"rows\":[";
  for (size_t i = 0; i < phases.size(); i++) {
    Phase& ph = phases[i];
    ph.tput = tput(ph.agg, ph.proxies);
    std::printf("%-11s  %7.2f  %16.0f  %16.3f  %10.3f\n", ph.name, ph.proxies,
                ph.tput, ph.agg.max_node_msgs_per_op(),
                ph.agg.mean_latency_ms());
    spread(ph.agg);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"phase\":\"%s\",\"proxies\":%.2f,"
                  "\"throughput_ops_s\":%.1f,\"hot_node_msgs_per_op\":%.4f,"
                  "\"mean_op_ms\":%.4f}",
                  i == 0 ? "" : ",", ph.name, ph.proxies, ph.tput,
                  ph.agg.max_node_msgs_per_op(), ph.agg.mean_latency_ms());
    json += row;
  }

  const double speedup =
      phases[0].tput > 0 ? phases[2].tput / phases[0].tput : 0;
  std::printf("# proxy-tier speedup at 4 proxies: %.2fx (gate >= 2x)\n",
              speedup);
  char tail[64];
  std::snprintf(tail, sizeof(tail), "],\"speedup\":%.3f}\n", speedup);
  json += tail;

  if (!json_path.empty() && !WriteBenchJson(json_path, json, &cluster)) {
    return 1;
  }
  return speedup >= 2.0 ? 0 : 2;
}
