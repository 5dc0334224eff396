#include "mvcc/gc.h"
#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <string>

namespace minuet::mvcc {

using btree::Node;
using sinfonia::Addr;

Result<bool> GarbageCollector::TryFreeSlab(Addr addr, uint64_t lowest_sid,
                                           Report* report) {
  // Small standalone transaction: read the slab (validated through commit),
  // decide, free. A concurrent copy-on-write or allocation of this slab
  // fails our validation and we simply skip it this pass.
  txn::DynamicTxn txn(tree_->coordinator(), /*cache=*/nullptr);
  auto raw = txn.Read(tree_->layout().SlabRef(addr));
  if (!raw.ok()) return raw.status();
  auto node = Node::Decode(*raw);
  if (!node.ok()) {
    // Free-list link or never-initialized slab: not a live node.
    report->skipped_non_node++;
    return false;
  }

  // A node copied at snapshot y serves snapshots in [created, y); it is
  // garbage iff y <= lowest. Discretionary copies (§5.2) are content
  // duplicates — only a real copy retires the node. Branching version
  // trees are not collected by this pass (only nodes whose every real copy
  // is at or below the horizon are freed, which is exact for linear
  // histories and conservative otherwise).
  bool has_real_copy = false;
  bool all_real_at_or_below = true;
  for (const auto& d : node->descendants) {
    if (d.discretionary) continue;
    has_real_copy = true;
    if (d.sid > lowest_sid) all_real_at_or_below = false;
  }
  if (!has_real_copy || !all_real_at_or_below) {
    report->skipped_live++;
    return false;
  }

  if (std::getenv("MINUET_DEBUG") != nullptr) {
    std::string desc;
    for (const auto& d : node->descendants) {
      desc += std::to_string(d.sid) + (d.discretionary ? "d" : "") + ",";
    }
    std::fprintf(stderr,
                 "[gc] free %s created=%llu desc=%s height=%d lowest=%llu\n",
                 addr.ToString().c_str(),
                 static_cast<unsigned long long>(node->created_sid),
                 desc.c_str(), node->height,
                 static_cast<unsigned long long>(lowest_sid));
  }
  MINUET_RETURN_NOT_OK(tree_->allocator()->Free(txn, addr));
  Status st = txn.Commit();
  if (!st.ok()) {
    if (st.IsRetryable()) {
      report->skipped_live++;  // raced with a writer; next pass will see it
      return false;
    }
    return st;
  }
  return true;
}

Status GarbageCollector::PublishHorizon(uint64_t lowest_sid) {
  // Publish the horizon so other proxies / tools can observe it (and
  // snapshot reads below it fail fast instead of chasing freed slabs).
  const txn::ObjectRef ref = tree_->layout().LowestSidRef(tree_->tree_slot());
  return txn::RunTransaction(
      tree_->coordinator(), nullptr, {}, 64,
      [&](txn::DynamicTxn& t) -> Status {
        auto cur = t.Read(ref);
        if (!cur.ok()) return cur.status();
        if (btree::DecodeTipId(*cur) >= lowest_sid) return Status::OK();
        return t.Write(ref, btree::EncodeTipId(lowest_sid));
      });
}

Result<GarbageCollector::Report> GarbageCollector::CollectOnce(
    uint64_t lowest_sid) {
  Report report;
  const auto& layout = tree_->layout();
  sinfonia::Coordinator* coord = tree_->coordinator();
  MINUET_RETURN_NOT_OK(PublishHorizon(lowest_sid));

  for (uint32_t m = 0; m < coord->n_memnodes(); m++) {
    // Retired ids (elastic scale-in) are permanent holes in the id space:
    // nothing lives there and the fabric rejects their messages.
    if (coord->retired(m)) continue;
    const uint64_t extent = coord->memnode(m)->Extent();
    // A slab counts as touched once ANY of its bytes is under the
    // high-water mark: the last node written on a memnode rarely fills its
    // slab, and `off + node_size <= extent` would exempt it from
    // collection forever. Reads past the extent return zeros, so probing
    // the partial tail is safe.
    for (uint64_t off = layout.slab_base(); off < extent;
         off += layout.node_size) {
      report.scanned++;
      auto freed = TryFreeSlab(Addr{m, off}, lowest_sid, &report);
      if (!freed.ok()) {
        if (freed.status().IsRetryable()) {
          report.skipped_live++;
          continue;
        }
        return freed.status();
      }
      if (*freed) {
        report.freed++;
        total_freed_.Increment();
      }
    }
  }
  return report;
}

Result<GarbageCollector::Report> GarbageCollector::CollectOnce(
    uint64_t lowest_sid, uint64_t reclaim_floor) {
  return CollectOnce(std::min(lowest_sid, reclaim_floor));
}

Result<GarbageCollector::Report> GarbageCollector::ReclaimRetired(
    uint64_t horizon) {
  Report report;
  std::vector<btree::RetireList::Entry> due = retired_.TakeUpTo(horizon);
  if (due.empty()) return report;
  // The same slab may be listed more than once (retried attempts); one
  // re-check per slab is enough.
  std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
    return a.old_addr < b.old_addr;
  });
  due.erase(std::unique(due.begin(), due.end(),
                        [](const auto& a, const auto& b) {
                          return a.old_addr == b.old_addr;
                        }),
            due.end());
  MINUET_RETURN_NOT_OK(PublishHorizon(horizon));
  sinfonia::Coordinator* coord = tree_->coordinator();
  for (const btree::RetireList::Entry& e : due) {
    // Retired memnodes (elastic scale-in) hold nothing to free.
    if (coord->retired(e.old_addr.memnode)) continue;
    report.scanned++;
    auto freed = TryFreeSlab(e.old_addr, horizon, &report);
    if (!freed.ok()) {
      report.skipped_live++;  // left to the next full pass
      continue;
    }
    if (*freed) {
      report.freed++;
      total_freed_.Increment();
    }
  }
  return report;
}

}  // namespace minuet::mvcc
