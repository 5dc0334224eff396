// The benchmark program: runs one workload against a fresh in-process cluster
// and prints every metric it measured, then one JSON line with all of them
// (run.py selects the ones BENCHMARK.json names).
//
//   perfbench --workload point_read|sync_write|scan_update
//                    --seed N --seconds S --trace 0|1 --work DIR --out DIR
//
// --trace 0: set up kSetupsBefore times, run the workload untimed for
// kLeadInS, then one untraced window of S seconds. --trace 1: the same
// set-up and lead-in, then untraced S/4, traced S/2 (the per-layer ledger;
// spans go to DIR/spans-<workload>.csv) and untraced S/4 seconds, then the
// unit-cost and durability probes. sync_write then crashes and recovers the
// whole cluster and re-reads every acked write. Last, kSetupsAfter more
// set-ups; setup_s is the median of all of them. Exit 0 when every result
// was correct, 1 when any was wrong, 2 on a usage or set-up error (no JSON
// line).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <malloc.h>
#include <string>

#include "ledger.h"
#include "probes.h"
#include "workloads.h"

namespace {

// Set-ups before the measured windows (the last one's cluster is measured)
// and after every measurement, so setup_s samples the shared machine at
// both ends of the run rather than in its first seconds only.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
// Size of the durability probe's own cluster (--trace 1).
constexpr uint64_t kDurableRecords = 10000;
constexpr uint64_t kDurablePuts = 1500;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "point_read|sync_write|scan_update --seed N --seconds S "
               "--trace 0|1 --work DIR --out DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name, work_dir, out_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work") {
      work_dir = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  Workload workload;
  if (!ParseWorkload(workload_name, &workload)) {
    return Usage("unknown --workload");
  }
  if (seconds <= 0 || (trace != 0 && trace != 1) || work_dir.empty() ||
      out_dir.empty()) {
    return Usage("missing or bad arguments");
  }
  // Pin glibc's mmap threshold: its default adapts to the first large
  // frees, which made the first set-ups of a process pay page faults the
  // later ones did not. Pinned, every set-up maps its large buffers fresh.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  std::filesystem::create_directories(out_dir, ec);

  Bench bench(workload, seed, work_dir);
  std::vector<double> setup_s;
  auto set_up = [&](int times) {
    for (int i = 0; i < times; i++) {
      minuet::Result<double> s = bench.Setup();
      if (!s.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     s.status().ToString().c_str());
        return false;
      }
      setup_s.push_back(s.value());
    }
    return true;
  };
  if (!set_up(kSetupsBefore)) return 2;

  // An untimed lead-in, so the windows start from the workload's steady
  // state; its results are checked like any other.
  Tally total = bench.RunWindow(kLeadInS, /*traced=*/false).TotalTally();

  // --trace 1 brackets the traced window with two untraced quarters, so
  // the overhead comparison is not skewed by the workload drifting in time.
  WindowResult untraced = bench.RunWindow(trace ? seconds / 4 : seconds,
                                          /*traced=*/false);
  total.Merge(untraced.TotalTally());
  double untraced_ops_per_s = untraced.ops_per_s();
  WindowResult traced;
  UnitCosts unit;
  DurabilityCosts durable;
  if (trace) {
    traced = bench.RunWindow(seconds / 2, /*traced=*/true);
    total.Merge(traced.TotalTally());
    WindowResult after = bench.RunWindow(seconds / 4, /*traced=*/false);
    total.Merge(after.TotalTally());
    untraced_ops_per_s =
        static_cast<double>(untraced.point_ops() + after.point_ops()) /
        (untraced.elapsed_s + after.elapsed_s);
    minuet::Result<UnitCosts> u = MeasureUnitCosts(
        bench.cluster(), bench.tree(), kNodeSize, work_dir + "/wal-probe");
    if (!u.ok()) {
      std::fprintf(stderr, "unit-cost probes failed: %s\n",
                   u.status().ToString().c_str());
      return 2;
    }
    unit = u.value();
    minuet::Result<DurabilityCosts> dc = MeasureDurability(
        kNodeSize, kDurableRecords, kDurablePuts, work_dir + "/durable-probe");
    if (!dc.ok()) {
      std::fprintf(stderr, "durability probe failed: %s\n",
                   dc.status().ToString().c_str());
      return 2;
    }
    durable = dc.value();
    Tally probe;
    probe.attempted = durable.verified;
    probe.failed = durable.wrong;
    total.Merge(probe);
    const std::string spans =
        out_dir + "/spans-" + WorkloadName(workload) + ".csv";
    if (!WriteSpans(spans, traced)) {
      std::fprintf(stderr, "cannot write %s\n", spans.c_str());
      return 2;
    }
  }
  RecoveryResult recovery;
  const bool recovers = workload == Workload::kSyncWrite;
  if (recovers) {
    recovery = bench.CrashRecoverVerify();
    total.Merge(recovery.tally);
  }

  const auto slot = bench.tree().slot();
  if (!set_up(kSetupsAfter)) return 2;

  Report report;
  AddEndToEnd(&report, workload, untraced, setup_s,
              recovers ? &recovery : nullptr, total);
  if (trace) {
    AddLedger(&report, traced, untraced_ops_per_s, unit, durable, slot);
  }
  std::printf("workload %s  seed %llu  trace %d  clients %u  records %llu\n",
              WorkloadName(workload), static_cast<unsigned long long>(seed),
              trace, WindowClients(workload),
              static_cast<unsigned long long>(kRecords));
  report.Print(stdout);
  const bool correct = total.failed == 0;
  std::printf("checked %llu results, %llu failed or wrong\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  std::printf("%s\n",
              report.ToJson(correct, total.attempted, total.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
