// Ablation: level-synchronized batched descents vs serial per-key descents
// on COLD and WARM proxy caches.
//
// Minuet's proxy cache makes warm inner descents free, so the expensive
// case is the cold (or freshly invalidated) cache: a serial MultiGet then
// pays ~K × depth coordinator rounds, one minitransaction per node per
// key. The batched descent engine (src/btree/descent.cc) advances all K
// keys one level at a time and fetches each level's nodes in ONE batched
// round, collapsing the cold cost to ~depth + 2 rounds for any K.
//   serial   — K per-key GetInTxn descents in ONE transaction (the
//              pre-engine MultiGet),
//   batched  — View::MultiGet through the frontier engine.
// Cold mode drops every proxy cache before each operation; warm mode
// leaves the caches hot. Prints rounds/op per K ∈ {1,4,16,64} and emits a
// machine-readable BENCH json (--json PATH; --smoke shrinks sizes for CI).
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
  const uint64_t kOps = smoke ? 40 : 300;
  CostModel model;

  // node_size 512 → a deeper tree, so the per-level collapse is visible.
  auto cluster = MakeCluster(kMachines, /*dirty=*/true, /*k_seconds=*/0,
                             /*retain=*/16, /*node_size=*/512);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();
  Preload(*cluster, *tree, kPreload, /*threads=*/2);
  Proxy& proxy = cluster->proxy(0);
  auto depth = proxy.tree(*tree)->Depth();
  if (!depth.ok()) std::abort();

  PrintHeader("Ablation: level-batched vs serial cold-cache descents",
              "mode     cache  keys_per_op  rounds_per_op  msgs_per_op  "
              "mean_op_ms");
  std::printf("# tree depth (levels incl. leaves): %u\n", *depth);

  std::string json = "{\"bench\":\"cold_descent\",\"depth\":" +
                     std::to_string(*depth) + ",\"rows\":[";
  bool first_row = true;

  enum class Mode { kSerial, kBatched };
  for (bool cold : {true, false}) {
    for (Mode mode : {Mode::kSerial, Mode::kBatched}) {
      for (size_t keys_per_op : {1, 4, 16, 64}) {
        const char* name = mode == Mode::kSerial ? "serial" : "batched";
        RunOptions ropts;
        // One thread: concurrent ops would re-warm each other's caches
        // mid-drop and blur the cold measurement.
        ropts.threads = 1;
        ropts.ops_per_thread = kOps;
        Rng rng(1234);

        auto out = RunOps(model, ropts, [&](const OpContext&) -> Status {
          std::vector<std::string> keys;
          keys.reserve(keys_per_op);
          for (size_t k = 0; k < keys_per_op; k++) {
            // ~1/8 misses: absent keys descend (and batch) all the same.
            keys.push_back(
                EncodeUserKey(rng.Uniform(kPreload + kPreload / 8)));
          }
          if (cold) cluster->DropProxyCaches();
          if (mode == Mode::kSerial) {
            return proxy.Transaction([&](txn::DynamicTxn& txn) -> Status {
              btree::BTree* t = proxy.tree(*tree);
              for (const std::string& key : keys) {
                std::string value;
                Status st = t->GetInTxn(txn, btree::Target::Tip(), key, &value);
                if (!st.ok() && !st.IsNotFound()) return st;
              }
              return Status::OK();
            });
          }
          std::vector<std::optional<std::string>> values;
          return proxy.Tip(*tree).MultiGet(keys, &values);
        });

        std::printf("%-7s  %-5s  %11zu  %13.2f  %11.2f  %10.3f\n", name,
                    cold ? "cold" : "warm", keys_per_op,
                    out.agg.mean_rounds(), out.agg.mean_msgs(),
                    out.agg.mean_latency_ms());

        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s{\"mode\":\"%s\",\"cache\":\"%s\",\"k\":%zu,"
                      "\"rounds_per_op\":%.3f,\"msgs_per_op\":%.3f,"
                      "\"mean_op_ms\":%.4f}",
                      first_row ? "" : ",", name, cold ? "cold" : "warm",
                      keys_per_op, out.agg.mean_rounds(), out.agg.mean_msgs(),
                      out.agg.mean_latency_ms());
        json += row;
        first_row = false;
      }
    }
  }
  json += "]}\n";

  if (!json_path.empty() && !WriteBenchJson(json_path, json, cluster.get())) {
    return 1;
  }
  return 0;
}
