// Figure 15: borrowed snapshots — strictly serializable scan throughput vs.
// scan length (15 clients: 3 scanning, 12 updating; a fresh snapshot per
// scan, k=0). Expected shape: for short scans snapshot creation — a
// serialized, all-memnode replicated update — is the bottleneck, and
// borrowing improves throughput by an order of magnitude; for long scans
// the scan itself dominates and the curves converge.
//
// Both inputs to the closed-loop model are MEASURED from real execution
// under update contention (retries and blocking-minitransaction rounds
// included in the traces):
//   L_create — snapshot-creation latency (3 creator threads vs 12 updaters)
//   L_scan   — per-scan read latency at a snapshot (3 scanners vs 12
//              updaters)
// Without borrowing, throughput <= 1/L_create (creations serialize at the
// SCS). With borrowing, every requester that overlaps a creation shares its
// result, so short scans become client-bound instead of creation-bound.
#include "bench/harness/setup.h"
#include "mvcc/snapshot_service.h"

int main() {
  using namespace minuet::bench;
  using namespace minuet;

  constexpr uint32_t kMachines = 15;
  constexpr uint64_t kPreload = 30000;
  constexpr uint32_t kScanThreads = 2, kUpdateThreads = 6;
  CostModel model;
  const double clients = 3 * model.clients_per_machine;

  PrintHeader(
      "Figure 15: scan throughput vs. scan length, borrowing on/off",
      "scan_len  scans_s_borrowed  scans_s_unborrowed  speedup  "
      "l_scan_ms  l_create_ms");

  auto cluster = MakeCluster(kMachines);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();
  Preload(*cluster, *tree, kPreload);
  mvcc::SnapshotService scs(cluster->proxy(0).tree(*tree), {});

  RunOptions ropts;
  ropts.threads = kScanThreads + kUpdateThreads;
  ropts.ops_per_thread = 1u << 20;
  ropts.virtual_deadline_s = 0.5;
  std::vector<Rng> rngs;
  for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 11);

  // Measure L_create: snapshot creations racing 12 update clients.
  auto create_out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
    Proxy& proxy = cluster->proxy(ctx.thread % kMachines);
    Rng& rng = rngs[ctx.thread];
    if (ctx.thread < kScanThreads) return scs.CreateSnapshot().status();
    return proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                     EncodeValue(rng.Next()));
  });
  const Aggregate create_agg = create_out.ThreadRange(0, kScanThreads);
  const double l_create_ms = create_agg.mean_latency_ms();
  PrintAudit("create", create_agg);

  for (uint32_t scan_len : {100u, 1000u, 10000u, 30000u}) {
    // Measure L_scan at a fixed snapshot under the same update load.
    const btree::SnapshotRef snap = scs.latest();
    auto scan_out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Proxy& proxy = cluster->proxy(ctx.thread % kMachines);
      Rng& rng = rngs[ctx.thread];
      if (ctx.thread < kScanThreads) {
        std::vector<std::pair<std::string, std::string>> rows;
        const uint64_t start =
            rng.Uniform(kPreload > scan_len ? kPreload - scan_len : 1);
        auto view = proxy.ViewAt(*tree, snap);
        if (!view.ok()) return view.status();
        return view->Scan(EncodeUserKey(start), scan_len, &rows);
      }
      return proxy.Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                       EncodeValue(rng.Next()));
    });
    const Aggregate scan_agg = scan_out.ThreadRange(0, kScanThreads);
    const double l_scan_ms = scan_agg.mean_latency_ms() + l_create_ms;

    const double scan_bound = clients / (l_scan_ms / 1000.0);
    const double create_bound = 1000.0 / l_create_ms;
    const double unborrowed = std::min(scan_bound, create_bound);
    // Borrowing: the requesters overlapping one creation all share it.
    const double sharers =
        std::min(clients, std::max(1.0, clients * l_create_ms / l_scan_ms));
    const double borrowed = std::min(scan_bound, sharers * create_bound);

    std::printf("%8u  %16.1f  %18.1f  %7.2fx  %9.3f  %11.3f\n", scan_len,
                borrowed, unborrowed, borrowed / unborrowed, l_scan_ms,
                l_create_ms);
    PrintAudit("scan", scan_agg);
  }
  return 0;
}
