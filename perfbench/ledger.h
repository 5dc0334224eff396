// Turns measured windows into named metrics: the end-to-end metrics of an
// untraced window, and the per-layer ledger of a traced one (span self
// times, registry counter deltas, unit-cost probes and the estimates built
// from them). Every ratio keeps its base so the report can print it.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "probes.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // sample count or ratio base, for the report
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "");
  void AddRatio(const std::string& name, const Ratio& r,
                const std::string& unit, const char* num_label,
                const char* den_label);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  // One "name = value unit  [base]" line per metric.
  void Print(std::FILE* out) const;
  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value",
  //  "unit","base"}}}
  std::string ToJson(bool correct, uint64_t attempted,
                     uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// End-to-end metrics of untraced window `w`; `recovery` is null except on
// sync_write.
void AddEndToEnd(Report* report, Workload workload, const WindowResult& w,
                 const std::vector<double>& setup_s,
                 const RecoveryResult* recovery, const Tally& total);

// Per-layer ledger of traced window `traced`; `untraced_ops_per_s` comes
// from the untraced window of the same run (tracing overhead), the wal and
// store lines from the probes.
void AddLedger(Report* report, const WindowResult& traced,
               double untraced_ops_per_s, const UnitCosts& unit,
               const DurabilityCosts& durable, uint32_t tree_slot);

// Every span of `w` as CSV: id,parent,name,start_ns,dur_ns.
bool WriteSpans(const std::string& path, const WindowResult& w);

}  // namespace perfbench
