// Copy-on-write garbage waiting for the snapshot horizon.
//
// Every real copy a linear tree records (BTree::RecordCopy: copy-on-write
// and live migration alike) appends (old slab, copy sid). The old slab
// serves only snapshots older than the copy, so it becomes garbage once
// the GC horizon reaches the copy sid. The tree slot's GarbageCollector
// owns the list, every BTree instance serving the slot appends to it, and
// the collector drains the entries the horizon has passed after each new
// snapshot, without waiting for a full pass over the slab region.
//
// Entries are hints, not facts: one recorded by a transaction attempt that
// later aborted, or recorded twice, names a slab that the collector's
// transactional re-check (TryFreeSlab) declines or finds already free.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sinfonia/addr.h"

namespace minuet::btree {

class RetireList {
 public:
  struct Entry {
    sinfonia::Addr old_addr;
    uint64_t copy_sid = 0;
  };

  void Add(sinfonia::Addr old_addr, uint64_t copy_sid) {
    std::lock_guard<std::mutex> g(mu_);
    entries_.push_back(Entry{old_addr, copy_sid});
  }

  // Remove and return every entry with copy_sid <= horizon.
  std::vector<Entry> TakeUpTo(uint64_t horizon) {
    std::vector<Entry> due;
    std::lock_guard<std::mutex> g(mu_);
    size_t keep = 0;
    for (const Entry& e : entries_) {
      if (e.copy_sid <= horizon) {
        due.push_back(e);
      } else {
        entries_[keep++] = e;
      }
    }
    entries_.resize(keep);
    return due;
  }

  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return entries_.size();
  }

 private:
  // Leaf lock: held only to append or split the vector, never across
  // fabric I/O.
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace minuet::btree
