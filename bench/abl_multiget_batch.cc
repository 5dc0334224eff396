// Ablation: batched MultiGet (one grouped leaf minitransaction per batch,
// §4.1 Sinfonia batching) against per-key read loops. Three modes:
//   pointloop — K independent tip Gets (one transaction and one leaf
//               coordinator round per key),
//   txnloop   — K per-key GetInTxn reads in ONE transaction (shared tip
//               read, but still one leaf fetch round per distinct leaf),
//   batched   — View::MultiGet: shared inner descents + ALL leaves in one
//               minitransaction round.
// Prints rounds/op so the O(K) → O(1) collapse is auditable, and emits a
// machine-readable BENCH json for trend tracking (--json PATH; --smoke
// shrinks sizes for CI).
#include <cstring>
#include <string>

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

  const uint32_t kMachines = 8;
  const uint64_t kPreload = smoke ? 4000 : 20000;
  const uint64_t kOpsPerThread = smoke ? 200 : 1500;
  const uint32_t kThreads = smoke ? 2 : 4;
  constexpr size_t kKeysPerOp = 16;
  CostModel model;

  auto cluster = MakeCluster(kMachines);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();
  Preload(*cluster, *tree, kPreload, /*threads=*/2);

  PrintHeader("Ablation: batched MultiGet vs per-key read loops",
              "mode       keys_per_op  rounds_per_op  msgs_per_op  "
              "mean_op_ms  modeled_kops_s");

  std::string json = "{\"bench\":\"multiget_batch\",\"keys_per_op\":" +
                     std::to_string(kKeysPerOp) + ",\"rows\":[";
  bool first_row = true;

  enum class Mode { kPointLoop, kTxnLoop, kBatched };
  for (Mode mode : {Mode::kPointLoop, Mode::kTxnLoop, Mode::kBatched}) {
    const char* name = mode == Mode::kPointLoop ? "pointloop"
                       : mode == Mode::kTxnLoop ? "txnloop"
                                                : "batched";
    RunOptions ropts;
    ropts.threads = kThreads;
    ropts.ops_per_thread = kOpsPerThread;
    std::vector<Rng> rngs;
    for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 311);

    auto out = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
      Rng& rng = rngs[ctx.thread];
      Proxy& proxy = cluster->proxy(ctx.thread % kMachines);
      std::vector<std::string> keys;
      keys.reserve(kKeysPerOp);
      for (size_t k = 0; k < kKeysPerOp; k++) {
        // ~1/8 misses: the batch must carry absent keys too.
        keys.push_back(EncodeUserKey(rng.Uniform(kPreload + kPreload / 8)));
      }
      switch (mode) {
        case Mode::kPointLoop: {
          TipView tip = proxy.Tip(*tree);
          for (const std::string& key : keys) {
            std::string value;
            Status st = tip.Get(key, &value);
            if (!st.ok() && !st.IsNotFound()) return st;
          }
          return Status::OK();
        }
        case Mode::kTxnLoop:
          // The pre-batching MultiGet: one transaction, per-key leaf
          // fetches.
          return proxy.Transaction([&](txn::DynamicTxn& txn) -> Status {
            btree::BTree* t = proxy.tree(*tree);
            for (const std::string& key : keys) {
              std::string value;
              Status st = t->GetInTxn(txn, btree::Target::Tip(), key, &value);
              if (!st.ok() && !st.IsNotFound()) return st;
            }
            return Status::OK();
          });
        case Mode::kBatched: {
          std::vector<std::optional<std::string>> values;
          return proxy.Tip(*tree).MultiGet(keys, &values);
        }
      }
      return Status::OK();
    });

    const double kops =
        ModeledPeakThroughput(model, out.agg, kMachines) / 1000.0;
    std::printf("%-9s  %11zu  %13.2f  %11.2f  %10.3f  %14.1f\n", name,
                kKeysPerOp, out.agg.mean_rounds(), out.agg.mean_msgs(),
                out.agg.mean_latency_ms(), kops);
    PrintAudit(name, out.agg);

    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s{\"mode\":\"%s\",\"rounds_per_op\":%.3f,"
                  "\"msgs_per_op\":%.3f,\"mean_op_ms\":%.4f,"
                  "\"modeled_kops_s\":%.2f}",
                  first_row ? "" : ",", name, out.agg.mean_rounds(),
                  out.agg.mean_msgs(), out.agg.mean_latency_ms(), kops);
    json += row;
    first_row = false;
  }
  json += "]}\n";

  if (!json_path.empty() && !WriteBenchJson(json_path, json, cluster.get())) {
    return 1;
  }
  return 0;
}
