// Per-operation tracing: the one per-op recorder.
//
// A TraceContext records a span per coordinator round (participants, batch
// size, outcome, wall ns) and a span per retry attempt (with its taxonomy
// abort reason), plus the op's wire counts: messages and round trips charged
// by net::Fabric (messages also per destination memnode), busy lock
// re-executions and copy-on-write node copies. The benchmark cost model
// reads those counts. A caller arms tracing for the CURRENT thread with a
// ScopedTrace, and the fabric, coordinator and retry loops record into
// whatever context is installed — zero cost (one thread-local null check)
// when none is. View ops arm it per call via the slow-op log.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace minuet::obs {

// Monotonic wall clock for span timing.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TraceSpan {
  enum class Kind : unsigned char { kRound, kAttempt };
  Kind kind = Kind::kRound;
  // Rounds: "1pc" / "2pc" / "prepare" etc. Attempts: "attempt".
  const char* label = "";
  int attempt = 0;       // retry attempt this span belongs to (0-based)
  int participants = 0;  // memnodes touched (rounds only)
  int items = 0;         // compares+reads+writes carried (rounds only)
  uint64_t wall_ns = 0;
  Status::Code outcome = Status::Code::kOk;
  AbortReason reason = AbortReason::kNone;  // attempts only
};

// Not thread-safe: a context belongs to the single thread that armed it.
class TraceContext {
 public:
  // The context armed on this thread, or nullptr: one thread-local load.
  static TraceContext* Current() { return current_; }

  void RecordRound(const char* label, int participants, int items,
                   const Status& outcome, uint64_t wall_ns);
  // Close the current retry attempt with its outcome; bumps the attempt
  // index subsequent rounds are stamped with.
  void RecordAttemptEnd(const Status& outcome);

  // One message to memnode `node`; `new_round` when it opens a round trip
  // (net::RoundTripScope batches a fan-out into one).
  void CountMessage(uint32_t node, bool new_round) {
    messages_++;
    if (new_round) round_trips_++;
    if (node >= per_node_.size()) per_node_.resize(node + 1, 0);
    per_node_[node]++;
  }
  void CountBusyRetry() { busy_retries_++; }
  void CountNodeCopy() { nodes_copied_++; }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  int rounds() const { return rounds_; }
  int attempts() const { return attempts_; }
  uint64_t messages() const { return messages_; }
  uint64_t round_trips() const { return round_trips_; }
  // Messages per destination memnode, up to the highest id charged.
  const std::vector<uint32_t>& per_node() const { return per_node_; }
  // Coordinator re-executions after a busy lock.
  uint64_t busy_retries() const { return busy_retries_; }
  uint64_t nodes_copied() const { return nodes_copied_; }
  // Retry attempts closed with kValidationConflict (read from the spans).
  uint64_t validation_aborts() const;

  // Span-per-line timeline, e.g.
  //   round 0.0 2pc participants=3 items=17 outcome=OK 41250ns
  //   attempt 0 outcome=Aborted reason=validation_conflict
  std::string ToString() const;

  void Clear();

 private:
  friend class ScopedTrace;

  static inline thread_local TraceContext* current_ = nullptr;

  std::vector<TraceSpan> spans_;
  int rounds_ = 0;
  int attempts_ = 0;
  uint64_t messages_ = 0;
  uint64_t round_trips_ = 0;
  std::vector<uint32_t> per_node_;
  uint64_t busy_retries_ = 0;
  uint64_t nodes_copied_ = 0;
};

// RAII installer: arms `ctx` as TraceContext::Current() for this thread and
// restores the previous context (usually nullptr) on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext* ctx);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceContext* prev_;
};

// Map a retry-loop attempt outcome onto the abort taxonomy: Busy/TimedOut
// are lock contention (kLockBusy); Aborted carries its own tag (kOther when
// untagged); anything else is not an abort (kNone).
AbortReason ClassifyAbort(const Status& st);

// Emits full traces for operations that exceed a wall-time threshold.
// Disarmed (threshold 0) by default; Cluster wires it to
// ClusterOptions::slow_op_threshold_ns.
class SlowOpLog {
 public:
  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  bool armed() const { return threshold_ns() > 0; }

  // Logs `op` with its trace timeline to stderr if wall_ns is above the
  // threshold. Safe from any thread.
  void MaybeEmit(const char* op, const TraceContext& trace, uint64_t wall_ns);

  uint64_t emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> threshold_ns_{0};
  std::atomic<uint64_t> emitted_{0};
  std::mutex emit_mu_;  // keeps multi-line emissions unscrambled
};

}  // namespace minuet::obs
