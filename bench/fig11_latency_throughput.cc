// Figure 11: latency vs. throughput for Minuet and CDB at 15 hosts.
// Expected shape: Minuet reads below ~0.4 ms up to ~90% of peak; CDB
// latency roughly an order of magnitude higher (note the paper's CDB plot
// uses a 10x y-axis).
#include "bench/harness/setup.h"

namespace minuet::bench {
namespace {

constexpr uint32_t kMachines = 15;
constexpr uint64_t kPreload = 10000;

struct Measured {
  Aggregate read, update;
};

Measured MeasureMinuet() {
  auto cluster = MakeCluster(kMachines);
  auto tree = cluster->CreateTree();
  if (!tree.ok()) std::abort();
  Preload(*cluster, *tree, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = 4;
  ropts.ops_per_thread = 600;
  std::vector<Rng> rngs;
  for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 1);

  Measured m;
  m.read = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
             std::string value;
             Status st = cluster->proxy(ctx.thread % kMachines)
                             .Get(*tree,
                                  EncodeUserKey(rngs[ctx.thread].Uniform(
                                      kPreload)),
                                  &value);
             return st.IsNotFound() ? Status::OK() : st;
           }).agg;
  m.update = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
               Rng& rng = rngs[ctx.thread];
               return cluster->proxy(ctx.thread % kMachines)
                   .Put(*tree, EncodeUserKey(rng.Uniform(kPreload)),
                        EncodeValue(rng.Next()));
             }).agg;
  PrintAudit("minuet_read", m.read);
  PrintAudit("minuet_update", m.update);
  return m;
}

Measured MeasureCdb() {
  net::Fabric fabric(kMachines);
  cdb::CdbCluster cdb(&fabric, {kMachines, 1, true});
  PreloadCdb(cdb, 0, kPreload);

  CostModel model;
  RunOptions ropts;
  ropts.threads = 4;
  ropts.ops_per_thread = 600;
  ropts.cdb_cost = true;
  std::vector<Rng> rngs;
  for (uint32_t t = 0; t < ropts.threads; t++) rngs.emplace_back(t + 50);

  Measured m;
  m.read = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
             std::string value;
             Status st = cdb.Read(
                 0, EncodeUserKey(rngs[ctx.thread].Uniform(kPreload)),
                 &value);
             return st.IsNotFound() ? Status::OK() : st;
           }).agg;
  m.update = RunOps(model, ropts, [&](const OpContext& ctx) -> Status {
               Rng& rng = rngs[ctx.thread];
               return cdb.Update(0, EncodeUserKey(rng.Uniform(kPreload)),
                                 EncodeValue(rng.Next()));
             }).agg;
  return m;
}

void PrintCurves(const char* system, const Measured& m, bool cdb_cost) {
  CostModel model;
  const double peak_read =
      ModeledPeakThroughput(model, m.read, kMachines);
  const double peak_update =
      ModeledPeakThroughput(model, m.update, kMachines);
  std::printf("# %s: modeled peak read %.0f ops/s, peak update %.0f ops/s\n",
              system, peak_read, peak_update);
  std::printf(
      "# system  load_frac  read_kops_s  read_mean_ms  read_p95_ms  "
      "update_kops_s  update_mean_ms  update_p95_ms\n");
  for (double frac : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                      0.95, 0.975}) {
    const double read_tput = frac * peak_read;
    const double update_tput = frac * peak_update;
    std::printf(
        "%8s  %9.3f  %11.1f  %12.3f  %11.3f  %13.1f  %14.3f  %13.3f\n",
        system, frac, read_tput / 1000,
        ModeledLatencyMs(model, m.read, read_tput, cdb_cost, false),
        ModeledLatencyMs(model, m.read, read_tput, cdb_cost, true),
        update_tput / 1000,
        ModeledLatencyMs(model, m.update, update_tput, cdb_cost, false),
        ModeledLatencyMs(model, m.update, update_tput, cdb_cost, true));
  }
}

}  // namespace
}  // namespace minuet::bench

int main() {
  using namespace minuet::bench;
  PrintHeader("Figure 11: latency vs. throughput at 15 hosts", "");
  Measured minuet = MeasureMinuet();
  Measured cdb = MeasureCdb();
  PrintCurves("minuet", minuet, false);
  PrintCurves("cdb", cdb, true);
  return 0;
}
