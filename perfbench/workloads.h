// The three closed-loop workloads: cluster set-up, the measured window and
// the post-window correctness phase. Every client waits for its reply
// before issuing the next operation, each on its own proxy; the cluster
// sees only generated keys and values (never the seed or workload name).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "minuet/cluster.h"
#include "obs/trace.h"
#include "stats.h"

namespace perfbench {

using minuet::Status;

enum class Workload { kPointRead, kSyncWrite, kScanUpdate };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);
// Client threads in a measured window: kPointReadClients on point_read,
// kClients on sync_write, and on scan_update the scanner (0), the GC daemon
// (1) and the updaters. Set-up always uses all kClients proxies.
uint32_t WindowClients(Workload w);

// Fixed shape shared by every workload (README.md, "Load shape").
inline constexpr uint32_t kMachines = 4;
inline constexpr uint32_t kClients = 3;
// scan_update's updaters, beside its scanner and GC daemon.
inline constexpr uint32_t kScanUpdaters = 1;
inline constexpr uint32_t kPointReadClients = 2;
inline constexpr uint32_t kNodeSize = 4096;
inline constexpr uint64_t kRecords = 100000;
inline constexpr uint32_t kRecordBytes = 22;  // 14-byte key + 8-byte value
inline constexpr uint32_t kMultiGetKeys = 16;
inline constexpr uint32_t kScanLen = 10000;
inline constexpr uint32_t kPreloadBatch = 64;
inline constexpr uint32_t kWarmStride = 16;  // warm-up reads every 16th id
inline constexpr double kSnapshotIntervalS = 0.05;  // the paper's k
inline constexpr uint64_t kGcIntervalNs = 2500000000;          // 2.5 s
inline constexpr uint64_t kGcPollNs = 10000000;                // 10 ms
inline constexpr uint64_t kCheckpointIntervalNs = 3000000000;  // 3 s
inline constexpr uint64_t kSpaceSampleNs = 100000000;          // 100 ms
// Latency percentiles are taken per slice of the window (stats.h,
// SummarizeSliced). A slice is one GC period, so each scan_update slice
// holds one GC pass.
inline constexpr uint64_t kSliceNs = kGcIntervalNs;
// Untimed lead-in before the measured windows: two GC periods. Without it
// the first two slices of a scan_update window, before its garbage builds
// up, had a put p99 of a third and two thirds of the later slices'.
inline constexpr double kLeadInS = 5.0;

enum OpKind : int { kGet = 0, kMultiGet, kPut, kScan, kNumOpKinds };
const char* OpKindName(int kind);

// Checked operations: every failed or wrong result counts in `failed`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    attempted++;
    if (!ok) failed++;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// --- Correctness checks (shared with the self-test) ------------------------
// point_read and scan_update store each record's id as its value.
bool CheckPointValue(const Status& st, uint64_t id, const std::string& value);
bool CheckMultiGet(const Status& st, const std::vector<uint64_t>& ids,
                   const std::vector<std::optional<std::string>>& values);

// A scan from `start` must yield exactly `expected` rows, strictly
// increasing and contiguous in record id, each carrying its id as value.
class ScanChecker {
 public:
  ScanChecker(uint64_t start, size_t expected)
      : next_(start), expected_(expected) {}
  void Add(const std::string& key, const std::string& value);
  bool Done(const Status& st) const {
    return st.ok() && ok_ && rows_ == expected_;
  }
  size_t rows() const { return rows_; }

 private:
  uint64_t next_;
  size_t expected_;
  size_t rows_ = 0;
  bool ok_ = true;
};

// sync_write values: the record id in the low 40 bits, the writing client's
// write sequence above it, so a stale read-back never matches.
inline uint64_t SyncValue(uint64_t id, uint64_t version) {
  return id | (version << 40);
}

// --- Spans ------------------------------------------------------------------
// One span: the benchmark's own spans carry start and duration; the
// program's round/attempt spans (obs::TraceSpan) carry only a duration, so
// their start_ns is 0.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = a root (client call, GC pass, checkpoint)
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(uint64_t id_base = 0) : next_id_(id_base) {}
  // Record a root span plus every span of `trace` nested under it; returns
  // the root's id.
  uint64_t AddRoot(const char* name, uint64_t start_ns, uint64_t end_ns,
                   const minuet::obs::TraceContext* trace);
  void AddChild(uint64_t parent, const char* name, uint64_t start_ns,
                uint64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

// --- Runs -------------------------------------------------------------------
struct ClientResult {
  std::vector<double> lat_us[kNumOpKinds];
  std::vector<uint32_t> slice[kNumOpKinds];  // slice of each lat_us sample
  uint64_t scan_keys = 0;
  std::vector<double> snapshot_us;  // RecentSnapshot acquisitions
  std::vector<double> gc_ms;        // CollectGarbage passes
  uint64_t gc_freed = 0;
  Tally tally;
  SpanLog spans;
};

struct WindowResult {
  double elapsed_s = 0;
  uint32_t slices = 1;
  std::vector<ClientResult> clients;
  std::vector<double> space_amp;  // sampled every kSpaceSampleNs
  SpanLog main_spans;
  Tally main_tally;  // checkpoints (sync_write)
  CounterMap before, after;  // registry readings around the window
  std::vector<double> live_slabs;  // per memnode, at the window's end

  uint64_t completed(int kind) const;
  // Point operations (Get, MultiGet, Put) completed in the window.
  uint64_t point_ops() const;
  double ops_per_s() const {
    return elapsed_s > 0 ? static_cast<double>(point_ops()) / elapsed_s : 0;
  }
  // Latency samples of `kinds`, one vector per slice of the window.
  std::vector<std::vector<double>> SlicedLatencies(
      std::initializer_list<int> kinds) const;
  std::vector<double> Merged(std::vector<double> ClientResult::*field) const;
  Tally TotalTally() const;
};

struct RecoveryResult {
  double recovery_s = 0;
  uint64_t verified = 0;
  Tally tally;
};

class Bench {
 public:
  Bench(Workload workload, uint64_t seed, std::string work_dir);
  ~Bench();

  minuet::Cluster& cluster() { return *cluster_; }
  const minuet::TreeHandle& tree() const { return tree_; }

  // Build a fresh cluster (dropping any previous one), preload, warm up.
  // Returns the wall seconds that took. Set-up failures are errors.
  minuet::Result<double> Setup();

  // One measured window of `seconds`; `traced` arms span recording.
  WindowResult RunWindow(double seconds, bool traced);

  // sync_write: power-fail the cluster, recover it from checkpoints + WAL,
  // and re-read every acked write through cold caches.
  RecoveryResult CrashRecoverVerify();


 private:
  struct Client;
  uint64_t live_records() const {
    return kRecords + fresh_acked_.load(std::memory_order_relaxed);
  }
  CounterMap ReadRegistry() const;
  void ClientLoop(uint32_t c, Client* state, ClientResult* out);
  double SampleSpaceAmp() const;
  void DropCluster();

  Workload workload_;
  uint64_t seed_;
  std::string work_dir_;
  uint32_t setups_ = 0;
  std::string data_dir_;
  std::unique_ptr<minuet::Cluster> cluster_;
  minuet::TreeHandle tree_;
  minuet::ScrambledZipfianGenerator zipf_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> go_{false};
  std::atomic<bool> tracing_{false};
  // Per-client state that persists across windows (streams, acked writes).
  std::vector<std::unique_ptr<Client>> clients_;
  std::atomic<uint64_t> next_fresh_{kRecords};
  std::atomic<uint64_t> fresh_acked_{0};
  // The GC daemon's next pass is due. The schedule runs on from the
  // lead-in through the back-to-back windows that follow it; a window that
  // finds it overdue (the first after a set-up) restarts it.
  uint64_t next_gc_ns_ = 0;
  uint64_t window_t0_ = 0;   // the current window's start
  uint32_t last_slice_ = 0;  // its last slice; later samples join it
};

}  // namespace perfbench
