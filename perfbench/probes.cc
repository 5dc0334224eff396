#include "probes.h"

#include <filesystem>
#include <memory>
#include <vector>

#include "btree/node_view.h"
#include "common/key_codec.h"
#include "obs/trace.h"
#include "sinfonia/lock_table.h"
#include "stats.h"
#include "store/checkpointed_store.h"
#include "store/slab_store.h"
#include "txn/object.h"
#include "txn/object_cache.h"
#include "wal/wal.h"

namespace perfbench {

using minuet::Result;
using minuet::Status;
using minuet::obs::NowNs;

namespace {

constexpr int kBatches = 31;
constexpr uint64_t kSlots = 1024;  // distinct ranges / slabs / entries

// Keeps the probed reads observable so the optimizer cannot drop them.
volatile uint64_t g_sink = 0;

// Median, over kBatches batches, of the mean per-call ns of `calls` calls
// to fn(i) with a running call index i.
template <typename Fn>
double MedianPerCallNs(int calls, Fn fn) {
  std::vector<double> per_call;
  uint64_t i = 0;
  for (int b = 0; b < kBatches; b++) {
    const uint64_t t0 = NowNs();
    for (int k = 0; k < calls; k++) fn(i++);
    per_call.push_back(static_cast<double>(NowNs() - t0) / calls);
  }
  return Median(per_call);
}

Status ProbeLockNode(uint32_t node_size, UnitCosts* u) {
  minuet::sinfonia::LockTable table;
  bool failed = false;
  uint64_t calls = 0;
  u->lock_node_ns = MedianPerCallNs(2000, [&](uint64_t i) {
    const std::vector<minuet::sinfonia::LockTable::Range> ranges = {
        {(i % kSlots) * node_size, node_size}};
    if (!table.Lock(i + 1, ranges).ok()) failed = true;
    table.Unlock(i + 1);
    calls++;
  });
  if (failed) return Status::Busy("uncontended LockTable::Lock failed");
  u->lock_stripes_per_node =
      static_cast<double>(table.TotalStats().acquires) / calls;
  return Status::OK();
}

double ProbeSlabRead(uint32_t node_size) {
  minuet::store::RamSlabStore store;
  store.EnsureExtent(kSlots * node_size);
  const std::string fill(node_size, 's');
  for (uint64_t s = 0; s < kSlots; s++) {
    store.Write(s * node_size, fill.data(), node_size);
  }
  std::string out;
  return MedianPerCallNs(5000, [&](uint64_t i) {
    store.Read((i % kSlots) * node_size, node_size, &out);
    g_sink = g_sink + static_cast<unsigned char>(out[i % node_size]);
  });
}

double ProbeCacheLookup(uint32_t node_size) {
  minuet::txn::ObjectCache cache;
  auto payload = std::make_shared<const std::string>(node_size, 'c');
  for (uint64_t s = 0; s < kSlots; s++) {
    cache.Insert({static_cast<uint32_t>(s % 4), s * node_size}, s + 1,
                 payload);
  }
  minuet::txn::ObjectCache::Entry entry;
  return MedianPerCallNs(20000, [&](uint64_t i) {
    const uint64_t s = i % kSlots;
    if (cache.Lookup({static_cast<uint32_t>(s % 4), s * node_size}, &entry)) {
      g_sink = g_sink + entry.seqnum;
    }
  });
}

Result<double> ProbeViewInit(minuet::Cluster& cluster,
                             const minuet::TreeHandle& tree,
                             uint32_t node_size) {
  minuet::btree::BTree* bt = cluster.service_tree(tree.slot());
  if (bt == nullptr) return Status::InvalidArgument("no service tree");
  std::vector<minuet::btree::BTree::NodePlacement> placement;
  MINUET_RETURN_NOT_OK(bt->CollectTipPlacement(&placement));
  for (const auto& p : placement) {
    if (p.height != 0) continue;
    std::string raw;
    cluster.coordinator()->memnode(p.addr.memnode)->RawRead(p.addr.offset,
                                                            node_size, &raw);
    const minuet::Slice image = minuet::txn::ObjectPayloadSlice(raw);
    minuet::btree::NodeView view;
    MINUET_RETURN_NOT_OK(view.Init(image));
    bool failed = false;
    const double ns = MedianPerCallNs(5000, [&](uint64_t) {
      if (!view.Init(image).ok()) failed = true;
      g_sink = g_sink + view.num_entries();
    });
    if (failed) return Status::Corruption("leaf image stopped validating");
    return ns;
  }
  return Status::NotFound("no leaf in the tip placement");
}

Result<double> ProbeWalSync(const std::string& dir, uint32_t node_size) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Unavailable("cannot create " + dir);
  std::vector<double> us;
  {
    minuet::wal::Wal wal(dir);
    MINUET_RETURN_NOT_OK(wal.Open());
    for (int i = 0; i < kBatches; i++) {
      const std::vector<minuet::wal::WalWrite> writes = {
          {static_cast<uint64_t>(i) * node_size, std::string(node_size, 'w')}};
      const uint64_t t0 = NowNs();
      Result<uint64_t> lsn = wal.Append(writes);
      if (!lsn.ok()) return lsn.status();
      MINUET_RETURN_NOT_OK(wal.Sync(lsn.value()));
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    wal.Close();
  }
  std::filesystem::remove_all(dir, ec);
  return Median(us);
}

struct WalTotals {
  double appends = 0, fsyncs = 0, bytes = 0, replayed = 0;
};

WalTotals ReadWal(minuet::Cluster& cluster) {
  WalTotals t;
  for (uint32_t m = 0; m < cluster.n_memnodes(); m++) {
    minuet::store::CheckpointedStore* ds = cluster.durable_store(m);
    if (ds == nullptr) continue;
    t.appends += static_cast<double>(ds->wal().metrics().appends.Value());
    t.fsyncs += static_cast<double>(ds->wal().metrics().fsyncs.Value());
    t.bytes += static_cast<double>(ds->wal().metrics().append_bytes.Value());
    t.replayed += static_cast<double>(ds->metrics().replayed.Value());
  }
  return t;
}

}  // namespace

Result<DurabilityCosts> MeasureDurability(uint32_t node_size,
                                          uint64_t records, uint64_t puts,
                                          const std::string& data_dir) {
  using minuet::EncodeUserKey;
  using minuet::EncodeValue;
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  DurabilityCosts d;
  {
    minuet::ClusterOptions opts;
    opts.machines = 4;
    opts.node_size = node_size;
    opts.replication = true;
    opts.durability = minuet::wal::DurabilityMode::kSync;
    opts.data_dir = data_dir;
    minuet::Cluster cluster(opts);
    Result<minuet::TreeHandle> tree = cluster.CreateTree();
    if (!tree.ok()) return tree.status();
    minuet::Proxy& proxy = cluster.proxy(0);
    for (uint64_t id = 0; id < records; id += 64) {
      minuet::WriteBatch batch;
      for (uint64_t k = id; k < records && k < id + 64; k++) {
        batch.Put(tree.value(), EncodeUserKey(k), EncodeValue(k));
      }
      MINUET_RETURN_NOT_OK(proxy.Apply(batch));
    }
    auto checkpoint = [&]() -> Status {
      const uint64_t t0 = NowNs();
      MINUET_RETURN_NOT_OK(cluster.CheckpointAll());
      d.checkpoint_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      return Status::OK();
    };
    MINUET_RETURN_NOT_OK(checkpoint());

    // Overwrites in three rounds with a checkpoint after the first two, so
    // recovery replays a WAL tail on top of the last image.
    std::vector<uint64_t> acked(records, 0);
    minuet::TipView tip = proxy.Tip(tree.value());
    const WalTotals before = ReadWal(cluster);
    for (uint64_t i = 0; i < puts; i++) {
      const uint64_t id = (i * 7919) % records;
      const uint64_t v = id | ((i + 1) << 40);
      MINUET_RETURN_NOT_OK(tip.Put(EncodeUserKey(id), EncodeValue(v)));
      acked[id] = v;
      if (i + 1 == puts / 3 || i + 1 == 2 * puts / 3) {
        MINUET_RETURN_NOT_OK(checkpoint());
      }
    }
    const WalTotals after = ReadWal(cluster);
    d.puts = static_cast<double>(puts);
    // Checkpoints append no WAL records, so these are the puts' own.
    d.wal_appends = after.appends - before.appends;
    d.wal_fsyncs = after.fsyncs - before.fsyncs;
    d.wal_bytes = after.bytes - before.bytes;

    cluster.CrashAllMemnodes();
    const uint64_t t0 = NowNs();
    cluster.RecoverAllMemnodes();
    d.recovery_ms = static_cast<double>(NowNs() - t0) / 1e6;
    d.replayed = ReadWal(cluster).replayed - after.replayed;
    cluster.DropProxyCaches();
    minuet::TipView cold = cluster.proxy(1).Tip(tree.value());
    std::string value;
    for (uint64_t id = 0; id < records; id++) {
      const uint64_t expect = acked[id] != 0 ? acked[id] : id;
      Status st = cold.Get(EncodeUserKey(id), &value);
      d.verified++;
      if (!st.ok() || value != EncodeValue(expect)) d.wrong++;
    }
  }
  std::filesystem::remove_all(data_dir, ec);
  return d;
}

Result<UnitCosts> MeasureUnitCosts(minuet::Cluster& cluster,
                                   const minuet::TreeHandle& tree,
                                   uint32_t node_size,
                                   const std::string& wal_dir) {
  UnitCosts u;
  MINUET_RETURN_NOT_OK(ProbeLockNode(node_size, &u));
  u.slab_read_ns = ProbeSlabRead(node_size);
  u.cache_lookup_ns = ProbeCacheLookup(node_size);
  Result<double> view = ProbeViewInit(cluster, tree, node_size);
  if (!view.ok()) return view.status();
  u.view_init_ns = view.value();
  Result<double> wal = ProbeWalSync(wal_dir, node_size);
  if (!wal.ok()) return wal.status();
  u.wal_sync_us = wal.value();
  return u;
}

}  // namespace perfbench
