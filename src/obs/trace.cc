#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace minuet::obs {

void TraceContext::RecordRound(const char* label, int participants, int items,
                               const Status& outcome, uint64_t wall_ns) {
  TraceSpan s;
  s.kind = TraceSpan::Kind::kRound;
  s.label = label;
  s.attempt = attempts_;
  s.participants = participants;
  s.items = items;
  s.wall_ns = wall_ns;
  s.outcome = outcome.code();
  spans_.push_back(s);
  rounds_++;
}

void TraceContext::RecordAttemptEnd(const Status& outcome) {
  TraceSpan s;
  s.kind = TraceSpan::Kind::kAttempt;
  s.label = "attempt";
  s.attempt = attempts_;
  s.outcome = outcome.code();
  s.reason = ClassifyAbort(outcome);
  spans_.push_back(s);
  attempts_++;
}

uint64_t TraceContext::validation_aborts() const {
  uint64_t n = 0;
  for (const TraceSpan& s : spans_) {
    n += s.kind == TraceSpan::Kind::kAttempt &&
         s.reason == AbortReason::kValidationConflict;
  }
  return n;
}

std::string TraceContext::ToString() const {
  std::string out;
  char buf[192];
  int round_in_attempt = 0;
  int last_attempt = -1;
  for (const TraceSpan& s : spans_) {
    if (s.kind == TraceSpan::Kind::kRound) {
      if (s.attempt != last_attempt) {
        last_attempt = s.attempt;
        round_in_attempt = 0;
      }
      std::snprintf(buf, sizeof(buf),
                    "round %d.%d %s participants=%d items=%d outcome=%s "
                    "%" PRIu64 "ns\n",
                    s.attempt, round_in_attempt++, s.label, s.participants,
                    s.items, Status::CodeName(s.outcome), s.wall_ns);
    } else {
      std::snprintf(buf, sizeof(buf), "attempt %d outcome=%s reason=%s\n",
                    s.attempt, Status::CodeName(s.outcome),
                    AbortReasonName(s.reason));
    }
    out += buf;
  }
  return out;
}

void TraceContext::Clear() {
  spans_.clear();
  rounds_ = 0;
  attempts_ = 0;
  messages_ = 0;
  round_trips_ = 0;
  per_node_.clear();
  busy_retries_ = 0;
  nodes_copied_ = 0;
}

ScopedTrace::ScopedTrace(TraceContext* ctx)
    : prev_(TraceContext::current_) {
  TraceContext::current_ = ctx;
}

ScopedTrace::~ScopedTrace() { TraceContext::current_ = prev_; }

AbortReason ClassifyAbort(const Status& st) {
  if (st.IsBusy() || st.IsTimedOut()) return AbortReason::kLockBusy;
  if (st.IsAborted()) {
    AbortReason r = st.abort_reason();
    return r == AbortReason::kNone ? AbortReason::kOther : r;
  }
  return AbortReason::kNone;
}

void SlowOpLog::MaybeEmit(const char* op, const TraceContext& trace,
                          uint64_t wall_ns) {
  const uint64_t threshold = threshold_ns();
  if (threshold == 0 || wall_ns < threshold) return;
  emitted_.fetch_add(1, std::memory_order_relaxed);
  std::string body = trace.ToString();
  std::lock_guard<std::mutex> g(emit_mu_);
  std::fprintf(stderr,
               "[minuet slow-op] %s took %" PRIu64 "ns (threshold %" PRIu64
               "ns), %d rounds over %d attempts:\n%s",
               op, wall_ns, threshold, trace.rounds(), trace.attempts() + 1,
               body.c_str());
}

}  // namespace minuet::obs
