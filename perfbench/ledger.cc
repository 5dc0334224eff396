#include "ledger.h"

#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Short form for report bases (the metric values keep every digit).
std::string Short(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0);
  return buf;
}

std::string CountBase(uint64_t n) { return "n=" + std::to_string(n); }

std::string SliceBase(uint64_t n, uint32_t slices) {
  return CountBase(n) + ", median of " + std::to_string(slices) + " slices";
}

double Us(double ns) { return ns / 1e3; }

}  // namespace

// ---------------------------------------------------------------------------
// Report

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& base) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0, unit, base});
}

void Report::AddRatio(const std::string& name, const Ratio& r,
                      const std::string& unit, const char* num_label,
                      const char* den_label) {
  Add(name, r.value(), unit,
      std::string(num_label) + "=" + Short(r.num) + " / " + den_label + "=" +
          Short(r.den));
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Print(std::FILE* out) const {
  for (const Metric& m : metrics_) {
    const std::string base = m.base.empty() ? "" : "[" + m.base + "]";
    std::fprintf(out, "  %-40s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), base.c_str());
  }
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); i++) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ',';
    out += JsonString(m.name) + ":{\"value\":" + Num(m.value) +
           ",\"unit\":" + JsonString(m.unit) +
           ",\"base\":" + JsonString(m.base) + "}";
  }
  return out + "}}";
}

// ---------------------------------------------------------------------------
// End-to-end

void AddEndToEnd(Report* report, Workload workload, const WindowResult& w,
                 const std::vector<double>& setup_s,
                 const RecoveryResult* recovery, const Tally& total) {
  report->Add("setup_s", Median(setup_s), "s", CountBase(setup_s.size()));
  report->Add("ops_per_s", w.ops_per_s(), "ops/s",
              "ops=" + std::to_string(w.point_ops()) +
                  " / s=" + Short(w.elapsed_s));

  uint64_t scan_keys = 0;
  for (const ClientResult& c : w.clients) scan_keys += c.scan_keys;
  const uint64_t keys = w.completed(kGet) + w.completed(kPut) +
                        w.completed(kMultiGet) * kMultiGetKeys + scan_keys;
  report->Add("keys_per_s", keys / w.elapsed_s, "keys/s",
              "keys=" + std::to_string(keys) + " / s=" + Short(w.elapsed_s));

  const LatencySummary op =
      SummarizeSliced(w.SlicedLatencies({kGet, kMultiGet, kPut}));
  report->Add("op_p50_us", op.p50, "us", SliceBase(op.count, w.slices));
  report->Add("op_p99_us", op.p99, "us", SliceBase(op.count, w.slices));
  const LatencySummary put = SummarizeSliced(w.SlicedLatencies({kPut}));
  report->Add("put_p50_us", put.p50, "us", SliceBase(put.count, w.slices));
  report->Add("space_amp", Median(w.space_amp), "ratio",
              CountBase(w.space_amp.size()) + " samples");

  // Workload-specific metrics (README.md, "End-to-end metrics").
  if (workload == Workload::kPointRead) {
    const LatencySummary get = SummarizeSliced(w.SlicedLatencies({kGet}));
    report->Add("get_p50_us", get.p50, "us", SliceBase(get.count, w.slices));
    report->Add("get_p99_us", get.p99, "us", SliceBase(get.count, w.slices));
    const LatencySummary mg =
        SummarizeSliced(w.SlicedLatencies({kMultiGet}));
    report->Add("multiget_p50_us", mg.p50, "us",
                SliceBase(mg.count, w.slices));
  } else {
    report->Add("put_p99_us", put.p99, "us", SliceBase(put.count, w.slices));
  }
  if (workload == Workload::kScanUpdate) {
    report->Add("scan_keys_per_s", scan_keys / w.elapsed_s, "keys/s",
                "keys=" + std::to_string(scan_keys) +
                    " / s=" + Short(w.elapsed_s));
    const LatencySummary scan = SummarizeSliced(w.SlicedLatencies({kScan}));
    report->Add("scan_p50_ms", scan.p50 / 1e3, "ms",
                SliceBase(scan.count, w.slices));
    report->Add("scan_p99_ms", scan.p99 / 1e3, "ms",
                SliceBase(scan.count, w.slices));
  }
  if (recovery != nullptr) {
    report->Add("recovery_s", recovery->recovery_s, "s",
                "verified=" + std::to_string(recovery->verified));
  }
  report->AddRatio("op_fail_ratio",
                   {static_cast<double>(total.failed),
                    static_cast<double>(total.attempted)},
                   "ratio", "failed", "attempted");
}

// ---------------------------------------------------------------------------
// Per-layer ledger

namespace {

// Span-derived totals for one client-op kind.
struct KindSpans {
  std::vector<double> self_ns;  // op span minus its round spans
  uint64_t ops = 0;
  uint64_t rounds = 0;
  double round_ns = 0;
};

struct SpanTotals {
  KindSpans kinds[kNumOpKinds];
  std::vector<double> round_1pc_ns, round_2pc_ns;
};

int KindOf(const char* name) {
  for (int k = 0; k < kNumOpKinds; k++) {
    if (std::strcmp(name, OpKindName(k)) == 0) return k;
  }
  return -1;
}

SpanTotals CollectSpans(const WindowResult& w) {
  SpanTotals t;
  for (const ClientResult& c : w.clients) {
    const std::vector<Span>& spans = c.spans.spans();
    for (size_t i = 0; i < spans.size();) {
      const Span& root = spans[i++];
      const int kind = KindOf(root.name);
      double rounds_ns = 0;
      uint64_t rounds = 0;
      // Children directly follow their root; rounds are the program's
      // spans that are neither attempts nor the benchmark's own (timed).
      for (; i < spans.size() && spans[i].parent == root.id; i++) {
        const Span& s = spans[i];
        if (s.start_ns != 0 || std::strcmp(s.name, "attempt") == 0) continue;
        rounds++;
        rounds_ns += static_cast<double>(s.dur_ns);
        if (kind < 0) continue;
        if (std::strcmp(s.name, "1pc") == 0) t.round_1pc_ns.push_back(s.dur_ns);
        if (std::strcmp(s.name, "2pc") == 0) t.round_2pc_ns.push_back(s.dur_ns);
      }
      if (kind < 0) continue;
      KindSpans& k = t.kinds[kind];
      k.ops++;
      k.rounds += rounds;
      k.round_ns += rounds_ns;
      k.self_ns.push_back(static_cast<double>(root.dur_ns) - rounds_ns);
    }
  }
  return t;
}

}  // namespace

void AddLedger(Report* report, const WindowResult& w,
               double untraced_ops_per_s, const UnitCosts& unit,
               const DurabilityCosts& durable, uint32_t tree_slot) {
  const CounterMap d = Delta(w.before, w.after);
  const std::string tree = "tree" + std::to_string(tree_slot);
  const double ops = static_cast<double>(w.point_ops() + w.completed(kScan));
  const double puts = static_cast<double>(w.completed(kPut));
  auto count = [&](const std::string& key) {
    return static_cast<double>(Get(d, key));
  };
  auto sum = [&](const char* prefix, const char* suffix) {
    return static_cast<double>(SumMatching(d, prefix, suffix));
  };
  auto per_op = [&](const std::string& name, double n, const char* label) {
    report->AddRatio(name, {n, ops}, "1/op", label, "ops");
  };
  auto per_put = [&](const std::string& name, double n, const char* label) {
    report->AddRatio(name, {n, puts}, "1/put", label, "puts");
  };

  // minuet: proxy-side self time (op span minus its coordinator rounds).
  const SpanTotals spans = CollectSpans(w);
  for (int k : {kGet, kPut, kMultiGet}) {
    const KindSpans& ks = spans.kinds[k];
    report->Add(std::string("minuet.") + OpKindName(k) + "_self_us_p50",
                Us(Median(ks.self_ns)), "us", CountBase(ks.self_ns.size()));
  }
  const KindSpans& scans = spans.kinds[kScan];
  report->Add("minuet.scan_self_ms_p50", Median(scans.self_ns) / 1e6, "ms",
              CountBase(scans.self_ns.size()));

  // btree
  const double view_inits = count("btree.view_inits");
  per_op("btree.view_inits_per_op", view_inits, "view_inits");
  per_op("btree.node_decodes_per_op", count("btree.node_decodes"),
         "node_decodes");
  report->Add("btree.view_init_ns", unit.view_init_ns, "ns",
              "standalone median");
  per_put("btree.splits_per_put", count(tree + ".splits"), "splits");
  per_put("btree.cow_copies_per_put", count(tree + ".cow_copies"),
          "cow_copies");
  per_op("btree.traversal_aborts_per_op", count(tree + ".traversal_aborts"),
         "traversal_aborts");

  // txn
  const double attempts = count("txn.attempts");
  per_op("txn.attempts_per_op", attempts, "attempts");
  report->AddRatio("txn.retry_ratio", {count("txn.retries"), attempts},
                   "ratio", "retries", "attempts");
  for (const char* reason : {"validation_conflict", "lock_busy",
                             "stale_cache_pointer", "gc_horizon"}) {
    per_op(std::string("txn.aborts.") + reason + "_per_op",
           count(std::string("txn.aborts.") + reason), reason);
  }
  const double hits = sum("proxy", ".cache.hits");
  const double lookups = hits + sum("proxy", ".cache.misses");
  report->AddRatio("txn.cache_hit_ratio", {hits, lookups}, "ratio", "hits",
                   "lookups");
  report->Add("txn.cache_lookup_ns", unit.cache_lookup_ns, "ns",
              "standalone median");

  // sinfonia: rounds per op type from the program's own round spans.
  for (int k = 0; k < kNumOpKinds; k++) {
    const KindSpans& ks = spans.kinds[k];
    const double n = static_cast<double>(ks.ops);
    const std::string op = OpKindName(k);
    report->AddRatio("sinfonia.rounds_per_" + op,
                     {static_cast<double>(ks.rounds), n}, "1/op", "rounds",
                     (op + "s").c_str());
    report->AddRatio("sinfonia.round_us_per_" + op, {Us(ks.round_ns), n},
                     "us", "round_us", (op + "s").c_str());
  }
  report->Add("sinfonia.round_1pc_us_p50", Us(Median(spans.round_1pc_ns)),
              "us", CountBase(spans.round_1pc_ns.size()));
  report->Add("sinfonia.round_2pc_us_p50", Us(Median(spans.round_2pc_ns)),
              "us", CountBase(spans.round_2pc_ns.size()));
  const double two_phase = count("coordinator.two_phase");
  report->AddRatio("sinfonia.two_phase_share",
                   {two_phase, two_phase + count("coordinator.one_phase")},
                   "ratio", "two_phase", "executions");
  const double lock_acquires = sum("memnode", ".locks.total.acquires");
  per_op("sinfonia.lock_acquires_per_op", lock_acquires, "stripe_acquires");
  report->AddRatio("sinfonia.lock_contended_ratio",
                   {sum("memnode", ".locks.total.contended"), lock_acquires},
                   "ratio", "contended", "acquires");
  per_op("sinfonia.busy_retries_per_op", count("coordinator.busy_retries"),
         "busy_retries");
  report->Add("sinfonia.lock_node_ns", unit.lock_node_ns, "ns",
              "standalone median, " + Short(unit.lock_stripes_per_node) +
                  " stripes");

  // net
  per_op("net.msgs_per_op", count("fabric.total_messages"), "messages");
  std::vector<double> per_node;
  for (uint32_t m = 0; m < kMachines; m++) {
    per_node.push_back(count("memnode" + std::to_string(m) + ".messages"));
  }
  report->Add("net.memnode_msg_skew", Skew(per_node), "ratio",
              "max/mean of " + std::to_string(per_node.size()) + " memnodes");

  // store and wal, from the standalone probes and the durability probe.
  report->Add("store.slab_read_ns", unit.slab_read_ns, "ns",
              "standalone median");
  report->Add("store.checkpoint_ms_p50", Median(durable.checkpoint_ms), "ms",
              CountBase(durable.checkpoint_ms.size()) + " probe checkpoints");
  report->Add("store.recovery_ms", durable.recovery_ms, "ms",
              "probe: verified=" + std::to_string(durable.verified));
  report->Add("store.replayed_per_recovery", durable.replayed, "records",
              "probe: 1 recovery");
  report->AddRatio("wal.appends_per_put", {durable.wal_appends, durable.puts},
                   "1/put", "appends", "probe_puts");
  report->AddRatio("wal.bytes_per_user_byte",
                   {durable.wal_bytes, durable.puts * kRecordBytes}, "ratio",
                   "wal_bytes", "user_bytes");
  report->AddRatio("wal.fsyncs_per_put", {durable.wal_fsyncs, durable.puts},
                   "1/put", "fsyncs", "probe_puts");
  report->Add("wal.sync_us", unit.wal_sync_us, "us", "standalone median");

  // mvcc
  const std::vector<double> snapshot_us = w.Merged(&ClientResult::snapshot_us);
  report->Add("mvcc.snapshot_acquire_us_p50", Median(snapshot_us), "us",
              CountBase(snapshot_us.size()));
  report->AddRatio("mvcc.stale_reuse_ratio",
                   {count(tree + ".snapshots.stale_reuses"),
                    static_cast<double>(snapshot_us.size())},
                   "ratio", "stale_reuses", "acquisitions");
  const std::vector<double> gc_ms = w.Merged(&ClientResult::gc_ms);
  uint64_t freed = 0;
  for (const ClientResult& c : w.clients) freed += c.gc_freed;
  report->Add("mvcc.gc_pass_ms_p50", Median(gc_ms), "ms",
              CountBase(gc_ms.size()));
  report->AddRatio("mvcc.gc_slabs_freed_per_pass",
                   {static_cast<double>(freed),
                    static_cast<double>(gc_ms.size())},
                   "slabs", "freed", "passes");
  const int64_t lag = Get(w.after, tree + ".snapshots.horizon_lag");
  report->Add("mvcc.horizon_lag", static_cast<double>(lag), "snapshots",
              "at window end");

  // alloc
  double live = 0;
  for (double n : w.live_slabs) live += n;
  report->Add("alloc.live_slabs", live, "slabs", "at window end");
  report->Add("alloc.live_slab_skew", Skew(w.live_slabs), "ratio",
              "max/mean of " + std::to_string(w.live_slabs.size()) +
                  " memnodes");

  // Tracing overhead: the same workload, untraced then traced.
  const double traced = w.ops_per_s();
  report->Add("trace.untraced_ops_per_s", untraced_ops_per_s, "ops/s");
  report->Add("trace.traced_ops_per_s", traced, "ops/s");
  report->AddRatio("trace.overhead_share",
                   {untraced_ops_per_s - traced, untraced_ops_per_s}, "ratio",
                   "lost_ops_per_s", "untraced_ops_per_s");

  // Estimates: standalone unit cost x measured per-op count, beside the
  // measured proxy-side self time and round time per point op.
  double self_ns = 0, round_ns = 0, point_ops = 0;
  for (int k : {kGet, kMultiGet, kPut}) {
    for (double s : spans.kinds[k].self_ns) self_ns += s;
    round_ns += spans.kinds[k].round_ns;
    point_ops += static_cast<double>(spans.kinds[k].ops);
  }
  report->AddRatio("minuet.self_us_per_point_op", {Us(self_ns), point_ops},
                   "us", "self_us", "point_ops");
  report->AddRatio("sinfonia.round_us_per_point_op", {Us(round_ns), point_ops},
                   "us", "round_us", "point_ops");
  const double ops_den = ops > 0 ? ops : 1;
  report->Add("est.view_init_us_per_op",
              Us(view_inits / ops_den * unit.view_init_ns), "us",
              "estimate: view_inits/op x view_init_ns");
  report->Add("est.cache_lookup_us_per_op",
              Us(lookups / ops_den * unit.cache_lookup_ns), "us",
              "estimate: lookups/op x cache_lookup_ns");
  double rounds = 0;
  for (const KindSpans& ks : spans.kinds) {
    rounds += static_cast<double>(ks.rounds);
  }
  report->Add("est.slab_read_us_per_op",
              Us(rounds / ops_den * unit.slab_read_ns), "us",
              "estimate: one node-size slab read per round x slab_read_ns");
  const double stripes =
      unit.lock_stripes_per_node > 0 ? unit.lock_stripes_per_node : 1;
  report->Add("est.lock_us_per_op",
              Us(lock_acquires / ops_den / stripes * unit.lock_node_ns), "us",
              "estimate: stripe_acquires/op / stripes_per_node x lock_node_ns");
  report->Add("est.wal_sync_us_per_put",
              Ratio{durable.wal_fsyncs, durable.puts}.value() *
                  unit.wal_sync_us,
              "us", "estimate: probe fsyncs/put x wal_sync_us");
}

bool WriteSpans(const std::string& path, const WindowResult& w) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id,parent,name,start_ns,dur_ns\n", f);
  auto dump = [f](const SpanLog& log) {
    for (const Span& s : log.spans()) {
      std::fprintf(f, "%llu,%llu,%s,%llu,%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.dur_ns));
    }
  };
  for (const ClientResult& c : w.clients) dump(c.spans);
  dump(w.main_spans);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
