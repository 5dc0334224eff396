#include "alloc/allocator.h"

namespace minuet::alloc {

namespace {

struct Meta {
  uint64_t bump;
  uint64_t free_head;   // 0 = empty
  uint64_t free_count;  // slabs on the free list (occupancy accounting)
};

Meta ParseMeta(const std::string& payload, const Layout& layout) {
  Meta m;
  if (payload.size() >= 16) {
    m.bump = DecodeFixed64(payload.data());
    m.free_head = DecodeFixed64(payload.data() + 8);
  } else {
    m.bump = 0;
    m.free_head = 0;
  }
  m.free_count = payload.size() >= 24 ? DecodeFixed64(payload.data() + 16) : 0;
  if (m.bump < layout.slab_base()) m.bump = layout.slab_base();
  return m;
}

std::string SerializeMeta(const Meta& m) {
  std::string out;
  PutFixed64(&out, m.bump);
  PutFixed64(&out, m.free_head);
  PutFixed64(&out, m.free_count);
  return out;
}

}  // namespace

NodeAllocator::NodeAllocator(Layout layout, sinfonia::Coordinator* coord,
                             Options options)
    : layout_(layout),
      coord_(coord),
      options_(options),
      n_memnodes_(layout.n_memnodes) {
  const uint32_t capacity = layout_.memnode_capacity();
  reserved_.reserve(capacity);
  live_.reserve(capacity);
  states_.reserve(capacity);
  for (uint32_t i = 0; i < capacity; i++) {
    reserved_.push_back(std::make_unique<Reservation>());
    live_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
    states_.push_back(std::make_unique<std::atomic<uint8_t>>(
        static_cast<uint8_t>(PlacementState::kActive)));
  }
}

Status NodeAllocator::AddMemnode() {
  uint32_t n = n_memnodes_.load(std::memory_order_acquire);
  while (true) {
    if (n >= layout_.memnode_capacity()) {
      return Status::NoSpace("allocator at its layout memnode capacity");
    }
    if (n_memnodes_.compare_exchange_weak(n, n + 1,
                                          std::memory_order_acq_rel)) {
      return Status::OK();
    }
  }
}

MemnodeId NodeAllocator::NextPlacement() {
  const uint32_t n = n_memnodes();
  // Rotation candidate: the next ACTIVE memnode (draining and retired ids
  // are placement holes the rotation steps over).
  MemnodeId rr =
      static_cast<MemnodeId>(rr_.fetch_add(1, std::memory_order_relaxed) % n);
  for (uint32_t i = 0;
       i < n && placement_state(rr) != PlacementState::kActive; i++) {
    rr = static_cast<MemnodeId>((rr + 1) % n);
  }
  // Two-choice refinement: take the least-loaded active memnode only when
  // it is strictly lighter than the rotation candidate.
  MemnodeId lightest = rr;
  uint64_t lightest_live = live_[rr]->load(std::memory_order_relaxed);
  for (MemnodeId m = 0; m < n; m++) {
    if (placement_state(m) != PlacementState::kActive) continue;
    const uint64_t l = live_[m]->load(std::memory_order_relaxed);
    if (l < lightest_live) {
      lightest = m;
      lightest_live = l;
    }
  }
  return lightest;
}

std::vector<uint64_t> NodeAllocator::ApproxLiveSlabsAll() const {
  const uint32_t n = n_memnodes();
  std::vector<uint64_t> out(n);
  for (uint32_t m = 0; m < n; m++) {
    out[m] = live_[m]->load(std::memory_order_relaxed);
  }
  return out;
}

Result<uint64_t> NodeAllocator::MetaLiveSlabs(MemnodeId m) {
  if (m < states_.size() && placement_state(m) == PlacementState::kRetired) {
    // A retired memnode is unreachable (its fabric id is rejected) and by
    // the retire invariant held nothing; report the zero directly so means
    // computed over the id space stay honest.
    return uint64_t{0};
  }
  uint64_t live = 0;
  Status st = txn::RunTransaction(
      coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
        auto raw = t.Read(layout_.MetaRef(m));
        if (!raw.ok()) return raw.status();
        const Meta meta = ParseMeta(*raw, layout_);
        const uint64_t bumped =
            (meta.bump - layout_.slab_base()) / layout_.node_size;
        live = bumped > meta.free_count ? bumped - meta.free_count : 0;
        return Status::OK();
      });
  MINUET_RETURN_NOT_OK(st);
  return live;
}

Status NodeAllocator::ResyncLiveCounters() {
  const uint32_t n = n_memnodes();
  for (uint32_t m = 0; m < n; m++) {
    if (placement_state(m) == PlacementState::kRetired) continue;
    auto live = MetaLiveSlabs(m);
    if (!live.ok()) return live.status();
    live_[m]->store(*live, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status NodeAllocator::BeginDrain(MemnodeId m) {
  if (m >= n_memnodes()) {
    return Status::InvalidArgument("no such memnode");
  }
  if (placement_state(m) == PlacementState::kDraining) {
    // Idempotent (a re-drain after an aborted scale-in) — but re-attempt
    // the flush: a first call that failed AFTER setting the state would
    // otherwise strand its pooled slabs in the occupancy count forever.
    return FlushReservation(m);
  }
  if (placement_state(m) == PlacementState::kRetired) {
    return Status::InvalidArgument("memnode already retired");
  }
  uint32_t active = 0;
  for (uint32_t i = 0; i < n_memnodes(); i++) {
    if (placement_state(i) == PlacementState::kActive) active++;
  }
  if (active <= 1) {
    return Status::InvalidArgument("cannot drain the last active memnode");
  }
  states_[m]->store(static_cast<uint8_t>(PlacementState::kDraining),
                    std::memory_order_release);
  // Reserved-but-unused slabs count against the node's authoritative
  // occupancy; give them back so the drain can reach zero.
  return FlushReservation(m);
}

Status NodeAllocator::CancelDrain(MemnodeId m) {
  if (m >= n_memnodes() ||
      placement_state(m) != PlacementState::kDraining) {
    return Status::InvalidArgument("memnode is not draining");
  }
  states_[m]->store(static_cast<uint8_t>(PlacementState::kActive),
                    std::memory_order_release);
  return Status::OK();
}

Status NodeAllocator::Retire(MemnodeId m) {
  if (m >= n_memnodes() ||
      placement_state(m) != PlacementState::kDraining) {
    return Status::InvalidArgument("retire requires a draining memnode");
  }
  // Verify-and-zero in one transaction: the occupancy check and the wipe of
  // the ghost capacity ({bump, free_head, free_count} of a fully drained
  // node describe only recycled history) commit atomically, so a racing
  // Free cannot slip a live slab past the check.
  bool occupied = false;
  Status st = txn::RunTransaction(
      coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
        occupied = false;
        auto raw = t.Read(layout_.MetaRef(m));
        if (!raw.ok()) return raw.status();
        const Meta meta = ParseMeta(*raw, layout_);
        const uint64_t bumped =
            (meta.bump - layout_.slab_base()) / layout_.node_size;
        if (bumped > meta.free_count) {
          // Commit read-only: the conclusion "still occupied" validates
          // against the meta seqnum like any other answer.
          occupied = true;
          return Status::OK();
        }
        Meta zero;
        zero.bump = layout_.slab_base();
        zero.free_head = 0;
        zero.free_count = 0;
        return t.Write(layout_.MetaRef(m), SerializeMeta(zero));
      });
  MINUET_RETURN_NOT_OK(st);
  if (occupied) {
    return Status::Busy("live slabs remain on the draining memnode");
  }
  states_[m]->store(static_cast<uint8_t>(PlacementState::kRetired),
                    std::memory_order_release);
  live_[m]->store(0, std::memory_order_relaxed);
  return Status::OK();
}

Status NodeAllocator::FlushReservation(MemnodeId m) {
  Reservation& r = *reserved_[m];
  std::lock_guard<std::mutex> g(r.mu);
  if (r.pool.empty()) return Status::OK();
  const std::vector<std::pair<uint64_t, bool>> pool = std::move(r.pool);
  r.pool.clear();
  Status st = txn::RunTransaction(
      coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
        auto meta_raw = t.Read(layout_.MetaRef(m));
        if (!meta_raw.ok()) return meta_raw.status();
        Meta meta = ParseMeta(*meta_raw, layout_);
        for (const auto& [offset, fresh] : pool) {
          // Same linking discipline as Free: the head pointer goes into the
          // slab, whose seqnum advance invalidates any cached copy forever.
          std::string link;
          PutFixed64(&link, meta.free_head);
          link.resize(layout_.slab_payload_len(), '\0');
          const ObjectRef ref = layout_.SlabRef(Addr{m, offset});
          MINUET_RETURN_NOT_OK(fresh ? t.WriteNew(ref, std::move(link))
                                     : t.Write(ref, std::move(link)));
          meta.free_head = offset;
          meta.free_count++;
        }
        return t.Write(layout_.MetaRef(m), SerializeMeta(meta));
      });
  if (!st.ok()) {
    // Nothing committed: put the reservation back so the slabs are not
    // stranded outside both the pool and the free list.
    r.pool = pool;
  }
  return st;
}

Result<std::pair<uint64_t, bool>> NodeAllocator::TakeReserved(
    MemnodeId memnode) {
  Reservation& r = *reserved_[memnode];
  std::lock_guard<std::mutex> g(r.mu);
  if (r.pool.empty()) {
    // Replenish with one standalone transaction: drain the shared free
    // list first (reusing garbage-collected slabs), then advance the bump
    // pointer for the remainder of the batch.
    std::vector<std::pair<uint64_t, bool>> taken;
    Status st = txn::RunTransaction(
        coord_, nullptr, {}, 64, [&](txn::DynamicTxn& t) -> Status {
          taken.clear();
          auto meta_raw = t.Read(layout_.MetaRef(memnode));
          if (!meta_raw.ok()) return meta_raw.status();
          Meta meta = ParseMeta(*meta_raw, layout_);
          uint64_t head = meta.free_head;
          while (head != 0 && taken.size() < options_.batch) {
            auto raw = t.Read(layout_.SlabRef(Addr{memnode, head}));
            if (!raw.ok()) return raw.status();
            taken.emplace_back(head, /*fresh=*/false);
            head = raw->size() >= 8 ? DecodeFixed64(raw->data()) : 0;
          }
          meta.free_head = head;
          meta.free_count -= std::min<uint64_t>(meta.free_count, taken.size());
          while (taken.size() < options_.batch) {
            taken.emplace_back(meta.bump, /*fresh=*/true);
            meta.bump += layout_.node_size;
          }
          return t.Write(layout_.MetaRef(memnode), SerializeMeta(meta));
        });
    MINUET_RETURN_NOT_OK(st);
    r.pool = std::move(taken);
  }
  auto slab = r.pool.back();
  r.pool.pop_back();
  return slab;
}

void NodeAllocator::ReturnReserved(MemnodeId memnode,
                                   std::pair<uint64_t, bool> slab) {
  {
    Reservation& r = *reserved_[memnode];
    std::lock_guard<std::mutex> g(r.mu);
    r.pool.push_back(slab);
  }
  auto& live = *live_[memnode];
  uint64_t cur = live.load(std::memory_order_relaxed);
  while (cur > 0 && !live.compare_exchange_weak(cur, cur - 1,
                                                std::memory_order_relaxed)) {
  }
}

Result<AllocatedSlab> NodeAllocator::Allocate(txn::DynamicTxn& txn,
                                              MemnodeId memnode) {
  if (memnode >= n_memnodes()) {
    return Status::InvalidArgument("allocation on an unregistered memnode");
  }
  if (placement_state(memnode) != PlacementState::kActive) {
    // Drain-only/retired: nothing new may land here, or the drain would
    // chase a moving target (and a retired id is unreachable anyway).
    return Status::InvalidArgument(
        "allocation on a draining or retired memnode");
  }
  allocated_.fetch_add(1, std::memory_order_relaxed);
  live_[memnode]->fetch_add(1, std::memory_order_relaxed);

  if (options_.batch > 0) {
    auto taken = TakeReserved(memnode);
    if (!taken.ok()) {
      live_[memnode]->fetch_sub(1, std::memory_order_relaxed);
      return taken.status();
    }
    // The reservation was paid for outside `txn`: if `txn` aborts, the
    // slab goes back to the pool instead of leaking.
    txn.OnAbort([this, memnode, slab = *taken] {
      ReturnReserved(memnode, slab);
    });
    AllocatedSlab slab;
    slab.ref = layout_.SlabRef(Addr{memnode, taken->first});
    slab.fresh = taken->second;
    return slab;
  }

  // Unbatched path: manipulate {bump, free_head} inside the caller's
  // transaction, preferring the free list.
  auto fail = [&](Status st) {
    live_[memnode]->fetch_sub(1, std::memory_order_relaxed);
    return st;
  };
  auto meta_raw = txn.Read(layout_.MetaRef(memnode));
  if (!meta_raw.ok()) return fail(meta_raw.status());
  Meta meta = ParseMeta(*meta_raw, layout_);

  AllocatedSlab slab;
  if (meta.free_head != 0) {
    const Addr addr{memnode, meta.free_head};
    slab.ref = layout_.SlabRef(addr);
    slab.fresh = false;
    // Read the freed slab to learn the next free pointer (and to pull its
    // current seqnum into the read set so the re-initializing Write
    // validates).
    auto raw = txn.Read(slab.ref);
    if (!raw.ok()) return fail(raw.status());
    meta.free_head = raw->size() >= 8 ? DecodeFixed64(raw->data()) : 0;
    if (meta.free_count > 0) meta.free_count--;
  } else {
    const Addr addr{memnode, meta.bump};
    slab.ref = layout_.SlabRef(addr);
    slab.fresh = true;
    meta.bump += layout_.node_size;
  }
  if (Status st = txn.Write(layout_.MetaRef(memnode), SerializeMeta(meta));
      !st.ok()) {
    return fail(st);
  }
  return slab;
}

Result<AllocatedSlab> NodeAllocator::AllocateAnywhere(txn::DynamicTxn& txn) {
  return Allocate(txn, NextPlacement());
}

Status NodeAllocator::Free(txn::DynamicTxn& txn, Addr slab) {
  const MemnodeId memnode = slab.memnode;
  auto meta_raw = txn.Read(layout_.MetaRef(memnode));
  if (!meta_raw.ok()) return meta_raw.status();
  Meta meta = ParseMeta(*meta_raw, layout_);

  // Link the slab at the head of the free list. The write bumps the slab's
  // seqnum, permanently invalidating any cached copy of the node it held.
  std::string link;
  PutFixed64(&link, meta.free_head);
  link.resize(layout_.slab_payload_len(), '\0');
  MINUET_RETURN_NOT_OK(txn.Write(layout_.SlabRef(slab), std::move(link)));

  meta.free_head = slab.offset;
  meta.free_count++;
  MINUET_RETURN_NOT_OK(
      txn.Write(layout_.MetaRef(memnode), SerializeMeta(meta)));
  if (memnode < n_memnodes()) {
    auto& live = *live_[memnode];
    uint64_t cur = live.load(std::memory_order_relaxed);
    while (cur > 0 && !live.compare_exchange_weak(
                          cur, cur - 1, std::memory_order_relaxed)) {
    }
  }
  return Status::OK();
}

}  // namespace minuet::alloc
