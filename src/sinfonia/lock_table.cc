#include "sinfonia/lock_table.h"

#include <algorithm>

namespace minuet::sinfonia {

LockTable::LockTable(uint32_t n_stripes, uint32_t granularity,
                     uint32_t n_shards, uint64_t slab_base,
                     uint32_t slab_size)
    : n_stripes_(std::max<uint32_t>(1, n_stripes)),
      granularity_(std::max<uint32_t>(1, granularity)),
      n_shards_(std::clamp<uint32_t>(n_shards, 1,
                                     std::min(kMaxShards, n_stripes_))),
      slab_base_(slab_size > 0 ? slab_base : UINT64_MAX),
      slab_size_(slab_size),
      base_slots_(slab_size > 0
                      ? (slab_base + granularity_ - 1) / granularity_
                      : 0),
      shards_(n_shards_) {
  // Shard s holds global ids {s, s + n_shards, s + 2*n_shards, ...}.
  for (uint32_t s = 0; s < n_shards_; s++) {
    const uint32_t count = (n_stripes_ - s + n_shards_ - 1) / n_shards_;
    shards_[s].stripes = std::vector<Stripe>(count);
  }
}

std::vector<LockTable::Want> LockTable::StripesFor(
    const std::vector<Range>& ranges) const {
  std::vector<Want> out;
  for (const Range& r : ranges) {
    if (r.len == 0) continue;
    // SlotOf is monotonic and dense across slab_base_, so a byte range
    // covers exactly the slots between its end points.
    const uint64_t first = SlotOf(r.offset);
    const uint64_t last = SlotOf(r.offset + r.len - 1);
    for (uint64_t s = first; s <= last; s++) {
      out.push_back(Want{GlobalStripeFor(s), r.shared});
    }
  }
  // Exclusive sorts first within a stripe, so unique() keeps it.
  std::sort(out.begin(), out.end(), [](const Want& a, const Want& b) {
    return a.stripe != b.stripe ? a.stripe < b.stripe : a.shared < b.shared;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Want& a, const Want& b) {
                          return a.stripe == b.stripe;
                        }),
            out.end());
  return out;
}

void LockTable::Release(TxId tx, const Taken& t) {
  Stripe& st = StripeAt(t.stripe);
  std::lock_guard<std::mutex> g(st.mu);
  if (st.owner == tx) {
    st.owner = 0;
    // Rolling back an upgrade restores the shared hold it started from.
    if (t.how == Took::kUpgrade) st.readers.push_back(tx);
  } else {
    auto it = std::find(st.readers.begin(), st.readers.end(), tx);
    if (it == st.readers.end()) return;
    *it = st.readers.back();
    st.readers.pop_back();
  }
  if (st.waiters > 0) st.cv.notify_all();
}

Status LockTable::Lock(TxId tx, const std::vector<Range>& ranges,
                       std::chrono::microseconds max_wait) {
  const std::vector<Want> want = StripesFor(ranges);
  std::vector<Taken> taken;
  taken.reserve(want.size());

  Status failure = Status::OK();
  for (const Want& w : want) {
    Shard& shard = shards_[w.stripe % n_shards_];
    Stripe& st = shard.stripes[w.stripe / n_shards_];
    std::unique_lock<std::mutex> lk(st.mu);
    if (st.owner == tx) continue;  // re-entrant: already exclusive
    const bool reader = std::find(st.readers.begin(), st.readers.end(),
                                  tx) != st.readers.end();
    if (reader && w.shared) continue;  // re-entrant: already shared
    // No other transaction may hold the stripe in a conflicting mode; a
    // new reader also yields to a blocked writer.
    const auto grantable = [&st, &w, reader] {
      if (st.owner != 0) return false;
      if (w.shared) return st.writers_waiting == 0;
      return st.readers.size() == (reader ? 1u : 0u);
    };
    if (!grantable()) {
      shard.contended.Increment();
      if (max_wait.count() == 0) {
        failure = Status::Busy("lock stripe busy");
      } else {
        // Blocking minitransaction: wait, but only up to the threshold so
        // a stuck holder cannot wedge the memnode (paper §4.1).
        st.waiters++;
        if (!w.shared) st.writers_waiting++;
        const bool got = st.cv.wait_for(lk, max_wait, grantable);
        st.waiters--;
        if (!w.shared) st.writers_waiting--;
        if (!got) {
          shard.timeouts.Increment();
          failure = Status::TimedOut("lock wait threshold exceeded");
          // Readers held off by this writer may go now.
          if (!w.shared && st.waiters > 0) st.cv.notify_all();
        }
      }
      if (!failure.ok()) {
        // Roll back everything this call acquired.
        lk.unlock();
        for (const Taken& t : taken) Release(tx, t);
        return failure;
      }
    }
    shard.acquires.Increment();
    if (w.shared) {
      st.readers.push_back(tx);
      taken.push_back(Taken{w.stripe, Took::kShared});
    } else if (reader) {
      // Upgrade: the grant checked that tx is the only reader.
      st.readers.clear();
      st.owner = tx;
      taken.push_back(Taken{w.stripe, Took::kUpgrade});
    } else {
      st.owner = tx;
      taken.push_back(Taken{w.stripe, Took::kExclusive});
    }
  }

  if (!taken.empty()) {
    Shard& home = shards_[tx % n_shards_];
    std::lock_guard<std::mutex> g(home.held_mu);
    std::vector<Taken>& held = home.held[tx];
    if (held.empty()) {
      held = std::move(taken);
    } else {
      // An upgraded stripe is already in the held set.
      for (const Taken& t : taken) {
        if (t.how != Took::kUpgrade) held.push_back(t);
      }
    }
  }
  return Status::OK();
}

void LockTable::Unlock(TxId tx) {
  std::vector<Taken> held;
  {
    Shard& home = shards_[tx % n_shards_];
    std::lock_guard<std::mutex> g(home.held_mu);
    auto it = home.held.find(tx);
    if (it == home.held.end()) return;
    held = std::move(it->second);
    home.held.erase(it);
  }
  // Held sets never list upgrades (the stripe is already there), so each
  // entry releases outright, whatever mode it ended in.
  for (const Taken& t : held) Release(tx, t);
}

bool LockTable::IsLocked(const Range& r) {
  for (const Want& w : StripesFor({r})) {
    Stripe& st = StripeAt(w.stripe);
    std::lock_guard<std::mutex> g(st.mu);
    if (st.owner != 0 || !st.readers.empty()) return true;
  }
  return false;
}

LockTable::ShardStats LockTable::StatsForShard(uint32_t shard) const {
  ShardStats out;
  if (shard >= n_shards_) return out;
  out.acquires = shards_[shard].acquires.Value();
  out.contended = shards_[shard].contended.Value();
  out.timeouts = shards_[shard].timeouts.Value();
  return out;
}

LockTable::ShardStats LockTable::TotalStats() const {
  ShardStats out;
  for (uint32_t s = 0; s < n_shards_; s++) {
    const ShardStats ss = StatsForShard(s);
    out.acquires += ss.acquires;
    out.contended += ss.contended;
    out.timeouts += ss.timeouts;
  }
  return out;
}

void LockTable::BindMetrics(obs::MetricsRegistry* registry,
                            const std::string& subsystem) const {
  for (uint32_t s = 0; s < n_shards_; s++) {
    const std::string prefix = "shard" + std::to_string(s) + ".";
    registry->LinkCounter(subsystem, prefix + "acquires",
                          &shards_[s].acquires);
    registry->LinkCounter(subsystem, prefix + "contended",
                          &shards_[s].contended);
    registry->LinkCounter(subsystem, prefix + "timeouts",
                          &shards_[s].timeouts);
  }
  registry->LinkGauge(subsystem, "total.acquires", [this] {
    return static_cast<int64_t>(TotalStats().acquires);
  });
  registry->LinkGauge(subsystem, "total.contended", [this] {
    return static_cast<int64_t>(TotalStats().contended);
  });
  registry->LinkGauge(subsystem, "total.timeouts", [this] {
    return static_cast<int64_t>(TotalStats().timeouts);
  });
}

}  // namespace minuet::sinfonia
