// The benchmark's own arithmetic: percentiles with their sample counts,
// counter deltas, ratios that keep their base, skew and space
// amplification. Header-only so the self-test checks exactly what the
// benchmark computes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of `sorted` (ascending), q in (0, 1]: the
// smallest sample with at least q of the samples at or below it. 0 when
// there are no samples.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 0.5);
}

struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double mean = 0;
};

inline LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 0.50);
  s.p99 = PercentileSorted(samples, 0.99);
  double total = 0;
  for (double x : samples) total += x;
  s.mean = total / static_cast<double>(samples.size());
  return s;
}

// The percentiles of each slice of a window, reported as their median over
// the slices, so a few seconds in which the machine ran slow move them
// less than they move the window's own percentiles. `count` and `mean`
// cover every sample; empty slices are skipped.
inline LatencySummary SummarizeSliced(
    const std::vector<std::vector<double>>& slices) {
  LatencySummary s;
  std::vector<double> p50, p99;
  double total = 0;
  for (const std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    const LatencySummary one = Summarize(slice);
    p50.push_back(one.p50);
    p99.push_back(one.p99);
    s.count += one.count;
    total += one.mean * static_cast<double>(one.count);
  }
  if (s.count == 0) return s;
  s.p50 = Median(p50);
  s.p99 = Median(p99);
  s.mean = total / static_cast<double>(s.count);
  return s;
}

// A ratio that remembers its numerator and denominator, so every printed
// ratio can show its base. value() is 0 on an empty base.
struct Ratio {
  double num = 0;
  double den = 0;
  double value() const { return den > 0 ? num / den : 0; }
};

// Flat "subsystem.name" -> reading, as taken from the metrics registry.
using CounterMap = std::map<std::string, int64_t>;

// after - before for every key of `after` (a key new in `after` counts
// from zero).
inline CounterMap Delta(const CounterMap& before, const CounterMap& after) {
  CounterMap out;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    out[key] = value - (it == before.end() ? 0 : it->second);
  }
  return out;
}

inline int64_t Get(const CounterMap& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

// Sum of every key that starts with `prefix` and ends with `suffix` (e.g.
// "memnode" + ".locks.total.acquires" sums the lock acquires of every
// memnode).
inline int64_t SumMatching(const CounterMap& m, const std::string& prefix,
                           const std::string& suffix) {
  int64_t total = 0;
  for (const auto& [key, value] : m) {
    if (key.size() >= prefix.size() + suffix.size() &&
        key.compare(0, prefix.size(), prefix) == 0 &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

// Max over mean: 1 when perfectly even, 0 when empty or all zero.
inline double Skew(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double total = 0, max = 0;
  for (double x : v) {
    total += x;
    max = std::max(max, x);
  }
  return total > 0 ? max / (total / static_cast<double>(v.size())) : 0;
}

// Bytes the allocator holds live (slabs x node size) over the user bytes
// they store (records x key+value bytes).
inline double SpaceAmp(uint64_t live_slabs, uint32_t node_size,
                       uint64_t live_records, uint32_t record_bytes) {
  const double user = static_cast<double>(live_records) * record_bytes;
  return user > 0 ? static_cast<double>(live_slabs) * node_size / user : 0;
}

}  // namespace perfbench
