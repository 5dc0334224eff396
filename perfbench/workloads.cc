#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/key_codec.h"

namespace perfbench {

using minuet::Cluster;
using minuet::ClusterOptions;
using minuet::Cursor;
using minuet::DecodeUserKey;
using minuet::DecodeValue;
using minuet::EncodeUserKey;
using minuet::EncodeValue;
using minuet::Proxy;
using minuet::Result;
using minuet::TipView;
using minuet::WriteBatch;
namespace obs = minuet::obs;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPointRead, Workload::kSyncWrite,
                     Workload::kScanUpdate}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPointRead:
      return "point_read";
    case Workload::kSyncWrite:
      return "sync_write";
    case Workload::kScanUpdate:
      return "scan_update";
  }
  return "unknown";
}

uint32_t WindowClients(Workload w) {
  switch (w) {
    case Workload::kPointRead:
      return kPointReadClients;
    case Workload::kScanUpdate:
      return 2 + kScanUpdaters;
    case Workload::kSyncWrite:
      break;
  }
  return kClients;
}

const char* OpKindName(int kind) {
  static const char* const kNames[kNumOpKinds] = {"get", "multiget", "put",
                                                  "scan"};
  return kind >= 0 && kind < kNumOpKinds ? kNames[kind] : "unknown";
}

// ---------------------------------------------------------------------------
// Checks

bool CheckPointValue(const Status& st, uint64_t id, const std::string& value) {
  return st.ok() && value.size() == 8 && DecodeValue(value) == id;
}

bool CheckMultiGet(const Status& st, const std::vector<uint64_t>& ids,
                   const std::vector<std::optional<std::string>>& values) {
  if (!st.ok() || values.size() != ids.size()) return false;
  for (size_t i = 0; i < ids.size(); i++) {
    if (!values[i].has_value() ||
        !CheckPointValue(st, ids[i], *values[i])) {
      return false;
    }
  }
  return true;
}

void ScanChecker::Add(const std::string& key, const std::string& value) {
  const uint64_t id = DecodeUserKey(key);
  if (key != EncodeUserKey(next_) || id != next_ || value.size() != 8 ||
      DecodeValue(value) != id) {
    ok_ = false;
  }
  next_ = id + 1;
  rows_++;
}

// ---------------------------------------------------------------------------
// Spans

uint64_t SpanLog::AddRoot(const char* name, uint64_t start_ns,
                          uint64_t end_ns,
                          const obs::TraceContext* trace) {
  const uint64_t root = ++next_id_;
  spans_.push_back({root, 0, name, start_ns, end_ns - start_ns});
  if (trace == nullptr) return root;
  for (const obs::TraceSpan& s : trace->spans()) {
    const bool round = s.kind == obs::TraceSpan::Kind::kRound;
    spans_.push_back({++next_id_, root, round ? s.label : "attempt", 0,
                      round ? s.wall_ns : 0});
  }
  return root;
}

void SpanLog::AddChild(uint64_t parent, const char* name, uint64_t start_ns,
                       uint64_t end_ns) {
  spans_.push_back({++next_id_, parent, name, start_ns, end_ns - start_ns});
}

// ---------------------------------------------------------------------------
// WindowResult

uint64_t WindowResult::completed(int kind) const {
  uint64_t n = 0;
  for (const ClientResult& c : clients) n += c.lat_us[kind].size();
  return n;
}

uint64_t WindowResult::point_ops() const {
  return completed(kGet) + completed(kMultiGet) + completed(kPut);
}

std::vector<std::vector<double>> WindowResult::SlicedLatencies(
    std::initializer_list<int> kinds) const {
  std::vector<std::vector<double>> out(slices);
  for (const ClientResult& c : clients) {
    for (int kind : kinds) {
      for (size_t i = 0; i < c.lat_us[kind].size(); i++) {
        out[c.slice[kind][i]].push_back(c.lat_us[kind][i]);
      }
    }
  }
  return out;
}

std::vector<double> WindowResult::Merged(
    std::vector<double> ClientResult::*field) const {
  std::vector<double> out;
  for (const ClientResult& c : clients) {
    out.insert(out.end(), (c.*field).begin(), (c.*field).end());
  }
  return out;
}

Tally WindowResult::TotalTally() const {
  Tally t = main_tally;
  for (const ClientResult& c : clients) t.Merge(c.tally);
  return t;
}

// ---------------------------------------------------------------------------
// Bench

struct Bench::Client {
  explicit Client(uint64_t seed) : rng(seed) {}
  minuet::Rng rng;
  obs::TraceContext trace;
  uint64_t version = 0;
  // sync_write: the last acked value of every id this client wrote.
  std::unordered_map<uint64_t, uint64_t> acked;
};

Bench::Bench(Workload workload, uint64_t seed, std::string work_dir)
    : workload_(workload),
      seed_(seed),
      work_dir_(std::move(work_dir)),
      zipf_(kRecords) {}

Bench::~Bench() { DropCluster(); }

void Bench::DropCluster() {
  cluster_.reset();
  if (!data_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    data_dir_.clear();
  }
}

CounterMap Bench::ReadRegistry() const {
  CounterMap m;
  for (const minuet::obs::Sample& s : cluster_->metrics_registry().Snapshot()) {
    if (s.kind != minuet::obs::Sample::Kind::kHistogram) {
      m[s.subsystem + "." + s.name] = s.value;
    }
  }
  return m;
}

double Bench::SampleSpaceAmp() const {
  uint64_t live = 0;
  for (uint64_t n : cluster_->allocator()->ApproxLiveSlabsAll()) live += n;
  return SpaceAmp(live, kNodeSize, live_records(), kRecordBytes);
}

namespace {

// Run `body(t)` on `n` threads and join them all.
template <typename Body>
void Parallel(uint32_t n, Body body) {
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < n; t++) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
}

// First error reported by any thread.
class FirstError {
 public:
  void Set(const Status& st) {
    std::lock_guard<std::mutex> g(mu_);
    if (status_.ok()) status_ = st;
  }
  Status Get() {
    std::lock_guard<std::mutex> g(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  Status status_;
};

}  // namespace

Result<double> Bench::Setup() {
  DropCluster();
  const uint64_t t0 = obs::NowNs();

  ClusterOptions opts;
  opts.machines = kMachines;
  opts.node_size = kNodeSize;
  opts.replication = true;
  if (workload_ == Workload::kScanUpdate) {
    opts.snapshot_min_interval_seconds = kSnapshotIntervalS;
  }
  if (workload_ == Workload::kSyncWrite) {
    opts.durability = minuet::wal::DurabilityMode::kSync;
    data_dir_ = work_dir_ + "/data" + std::to_string(setups_);
    std::error_code ec;
    std::filesystem::remove_all(data_dir_, ec);
    opts.data_dir = data_dir_;
  }
  setups_++;
  cluster_ = std::make_unique<Cluster>(opts);
  Result<minuet::TreeHandle> tree = cluster_->CreateTree();
  if (!tree.ok()) return tree.status();
  tree_ = tree.value();

  clients_.clear();
  for (uint32_t c = 0; c < kClients; c++) {
    clients_.push_back(
        std::make_unique<Client>(seed_ * 0x9E3779B97F4A7C15ULL + c + 1));
  }
  next_fresh_ = kRecords;
  fresh_acked_ = 0;

  // Preload: each client's proxy loads one contiguous third of the ids in
  // atomic batches of kPreloadBatch consecutive records.
  FirstError err;
  Parallel(kClients, [&](uint32_t t) {
    const uint64_t lo = kRecords * t / kClients;
    const uint64_t hi = kRecords * (t + 1) / kClients;
    for (uint64_t id = lo; id < hi; id += kPreloadBatch) {
      WriteBatch batch;
      for (uint64_t k = id; k < hi && k < id + kPreloadBatch; k++) {
        batch.Put(tree_, EncodeUserKey(k), EncodeValue(k));
      }
      Status st = cluster_->proxy(t).Apply(batch);
      if (!st.ok()) {
        err.Set(st);
        return;
      }
    }
  });
  MINUET_RETURN_NOT_OK(err.Get());

  // Warm-up: every client proxy attaches and reads every kWarmStride-th id,
  // which walks every root-to-leaf path and fills its internal-node cache.
  Parallel(kClients, [&](uint32_t t) {
    TipView tip = cluster_->proxy(t).Tip(tree_);
    std::string value;
    for (uint64_t id = 0; id < kRecords; id += kWarmStride) {
      Status st = tip.Get(EncodeUserKey(id), &value);
      if (!CheckPointValue(st, id, value)) {
        err.Set(st.ok() ? Status::Corruption("warm-up read a wrong value")
                        : st);
        return;
      }
    }
  });
  MINUET_RETURN_NOT_OK(err.Get());
  if (workload_ == Workload::kSyncWrite) {
    // Start the window from a checkpointed image, not a preload-long WAL.
    MINUET_RETURN_NOT_OK(cluster_->CheckpointAll());
  }
  return static_cast<double>(obs::NowNs() - t0) / 1e9;
}

void Bench::ClientLoop(uint32_t c, Client* state, ClientResult* out) {
  Proxy& proxy = cluster_->proxy(c);
  TipView tip = proxy.Tip(tree_);
  minuet::Rng& rng = state->rng;
  while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  const bool traced = tracing_.load(std::memory_order_relaxed);

  // Time one call, check it, and keep its latency (and spans) when it
  // completed inside the window. Returns whether the result was correct.
  uint64_t root = 0;
  auto run = [&](int kind, auto&& body) -> bool {
    root = 0;
    const uint64_t t0 = obs::NowNs();
    bool ok;
    if (traced) {
      state->trace.Clear();
      obs::ScopedTrace scope(&state->trace);
      ok = body();
    } else {
      ok = body();
    }
    const uint64_t t1 = obs::NowNs();
    out->tally.Add(ok);
    if (stop_.load(std::memory_order_acquire)) return ok;
    out->lat_us[kind].push_back(static_cast<double>(t1 - t0) / 1e3);
    out->slice[kind].push_back(static_cast<uint32_t>(
        std::min<uint64_t>((t1 - window_t0_) / kSliceNs, last_slice_)));
    if (traced) {
      root = out->spans.AddRoot(OpKindName(kind), t0, t1, &state->trace);
    }
    return ok;
  };

  std::string value;
  std::vector<uint64_t> ids(kMultiGetKeys);
  std::vector<std::string> keys(kMultiGetKeys);
  std::vector<std::optional<std::string>> values;
  while (!stop_.load(std::memory_order_acquire)) {
    switch (workload_) {
      case Workload::kPointRead: {
        const uint64_t r = rng.Uniform(100);
        if (r < 90) {
          const uint64_t id = zipf_.Next(rng);
          const std::string key = EncodeUserKey(id);
          run(kGet, [&] {
            return CheckPointValue(tip.Get(key, &value), id, value);
          });
        } else if (r < 95) {
          for (uint32_t i = 0; i < kMultiGetKeys; i++) {
            ids[i] = zipf_.Next(rng);
            keys[i] = EncodeUserKey(ids[i]);
          }
          run(kMultiGet, [&] {
            return CheckMultiGet(tip.MultiGet(keys, &values), ids, values);
          });
        } else {
          const uint64_t id = zipf_.Next(rng);
          const std::string key = EncodeUserKey(id);
          run(kPut, [&] { return tip.Put(key, EncodeValue(id)).ok(); });
        }
        break;
      }
      case Workload::kSyncWrite: {
        // Half overwrite this client's share of the preloaded ids (so no
        // two clients race on one key), half take fresh ids.
        const uint64_t id =
            rng.Chance(0.5) ? rng.Uniform(kRecords / kClients) * kClients + c
                            : next_fresh_.fetch_add(1);
        const uint64_t v = SyncValue(id, ++state->version);
        const std::string key = EncodeUserKey(id);
        if (run(kPut, [&] { return tip.Put(key, EncodeValue(v)).ok(); })) {
          state->acked[id] = v;
          if (id >= kRecords) fresh_acked_.fetch_add(1);
        }
        break;
      }
      case Workload::kScanUpdate: {
        if (c > 1) {
          const uint64_t id = rng.Uniform(kRecords);
          const std::string key = EncodeUserKey(id);
          run(kPut, [&] { return tip.Put(key, EncodeValue(id)).ok(); });
          break;
        }
        if (c == 1) {
          // The GC daemon: a pass whenever one is due, else a short sleep
          // towards it (short, so it sees the window end).
          const uint64_t now = obs::NowNs();
          if (now < next_gc_ns_) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                std::min<uint64_t>(next_gc_ns_ - now, kGcPollNs)));
            break;
          }
          next_gc_ns_ += kGcIntervalNs;
          Result<minuet::mvcc::GarbageCollector::Report> rep =
              Status::Aborted("not run");
          if (traced) {
            state->trace.Clear();
            obs::ScopedTrace scope(&state->trace);
            rep = cluster_->CollectGarbage(tree_);
          } else {
            rep = cluster_->CollectGarbage(tree_);
          }
          const uint64_t t1 = obs::NowNs();
          out->tally.Add(rep.ok());
          if (!stop_.load(std::memory_order_acquire) && rep.ok()) {
            out->gc_ms.push_back(static_cast<double>(t1 - now) / 1e6);
            out->gc_freed += rep.value().freed;
            if (traced) out->spans.AddRoot("gc", now, t1, &state->trace);
          }
          break;
        }
        // The scanner.
        const uint64_t start = rng.Uniform(kRecords - kScanLen + 1);
        const std::string start_key = EncodeUserKey(start);
        uint64_t s0 = 0, s1 = 0;
        size_t rows = 0;
        run(kScan, [&] {
          s0 = obs::NowNs();
          Result<minuet::SnapshotView> snap = proxy.RecentSnapshot(tree_);
          s1 = obs::NowNs();
          if (!snap.ok()) return false;
          Cursor::Options copts;
          copts.limit = kScanLen;
          std::unique_ptr<Cursor> cur =
              snap.value().NewCursor(start_key, copts);
          ScanChecker check(start, kScanLen);
          for (; cur->Valid(); cur->Next()) check.Add(cur->key(), cur->value());
          rows = check.rows();
          return check.Done(cur->status());
        });
        if (!stop_.load(std::memory_order_acquire) && s1 > 0) {
          out->scan_keys += rows;
          out->snapshot_us.push_back(static_cast<double>(s1 - s0) / 1e3);
          if (root != 0) out->spans.AddChild(root, "snapshot", s0, s1);
        }
        break;
      }
    }
  }
}

WindowResult Bench::RunWindow(double seconds, bool traced) {
  WindowResult w;
  const uint32_t n = WindowClients(workload_);
  w.clients.resize(n);
  for (uint32_t c = 0; c < n; c++) {
    w.clients[c].spans = SpanLog(static_cast<uint64_t>(c + 1) << 40);
  }
  w.main_spans = SpanLog(static_cast<uint64_t>(kClients + 1) << 40);
  stop_ = false;
  go_ = false;
  tracing_ = traced;
  w.before = ReadRegistry();

  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < n; c++) {
    threads.emplace_back(
        [this, c, &w] { ClientLoop(c, clients_[c].get(), &w.clients[c]); });
  }
  const uint64_t t0 = obs::NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  if (next_gc_ns_ < t0) next_gc_ns_ = t0 + kGcIntervalNs / 2;
  window_t0_ = t0;
  w.slices = std::max<uint32_t>(
      1, static_cast<uint32_t>(seconds * 1e9 / static_cast<double>(kSliceNs)));
  last_slice_ = w.slices - 1;
  go_.store(true, std::memory_order_release);

  uint64_t next_sample = t0;
  uint64_t next_checkpoint = t0 + kCheckpointIntervalNs;
  obs::TraceContext trace;
  for (uint64_t now = t0; now < deadline; now = obs::NowNs()) {
    if (now >= next_sample) {
      w.space_amp.push_back(SampleSpaceAmp());
      next_sample += kSpaceSampleNs;
    }
    if (workload_ == Workload::kSyncWrite && now >= next_checkpoint) {
      next_checkpoint += kCheckpointIntervalNs;
      Status st;
      if (traced) {
        trace.Clear();
        obs::ScopedTrace scope(&trace);
        st = cluster_->CheckpointAll();
      } else {
        st = cluster_->CheckpointAll();
      }
      const uint64_t t1 = obs::NowNs();
      w.main_tally.Add(st.ok());
      if (traced && t1 < deadline) {
        w.main_spans.AddRoot("checkpoint", now, t1, &trace);
      }
      continue;
    }
    // Sleep to the next due event rather than polling, so the main thread
    // takes no CPU from the clients in between.
    uint64_t wake = std::min(deadline, next_sample);
    if (workload_ == Workload::kSyncWrite) {
      wake = std::min(wake, next_checkpoint);
    }
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
  }
  const uint64_t t_end = obs::NowNs();
  stop_.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  w.elapsed_s = static_cast<double>(t_end - t0) / 1e9;
  w.after = ReadRegistry();
  for (uint64_t n : cluster_->allocator()->ApproxLiveSlabsAll()) {
    w.live_slabs.push_back(static_cast<double>(n));
  }
  return w;
}

RecoveryResult Bench::CrashRecoverVerify() {
  RecoveryResult r;
  cluster_->CrashAllMemnodes();
  const uint64_t t0 = obs::NowNs();
  cluster_->RecoverAllMemnodes();
  r.recovery_s = static_cast<double>(obs::NowNs() - t0) / 1e9;
  cluster_->DropProxyCaches();

  std::vector<Tally> tallies(kClients);
  Parallel(kClients, [&](uint32_t c) {
    TipView tip = cluster_->proxy(c).Tip(tree_);
    std::string value;
    for (const auto& [id, v] : clients_[c]->acked) {
      Status st = tip.Get(EncodeUserKey(id), &value);
      tallies[c].Add(st.ok() && value == EncodeValue(v));
    }
  });
  for (const Tally& t : tallies) {
    r.tally.Merge(t);
    r.verified += t.attempted;
  }
  return r;
}

}  // namespace perfbench
