#include "obs/invariant_checker.h"

#include <sstream>

namespace sfq::obs {

InvariantChecker::Options InvariantChecker::for_scheduler(
    const std::string& name) {
  Options o;
  if (name == "SFQ" || name == "SFQ-W") {
    // SFQ-W callers must additionally set order_slack to the scheduler's
    // quantization_window() — the wheel serves start tags only up to that
    // window out of order (docs/PERFORMANCE.md, "Quantization slack").
    o.order = OrderTag::kStartTag;
  } else if (name == "SCFQ" || name == "VC") {
    o.order = OrderTag::kFinishTag;
  } else if (name == "H-SFQ" || name == "HSFQ") {
    // Start tags are stamped at dequeue time (root vtime); per-packet
    // finish tags are not maintained at the root level.
    o.order = OrderTag::kStartTag;
    o.check_tags = false;
  } else if (name == "WFQ" || name == "FQS") {
    // GPS-tagged disciplines serve the minimum tag among *currently queued*
    // packets only: v(t) advances with real time, so a late arrival may tag
    // below a packet already transmitted. No global monotonicity (this is
    // exactly the self-clocking property WFQ/FQS lack — paper §2.5).
    o.order = OrderTag::kNone;
  } else {
    // Round-robin / FIFO / priority disciplines: tags are meaningless.
    o.order = OrderTag::kNone;
    o.check_tags = false;
    o.check_vtime_monotone = false;
  }
  return o;
}

InvariantChecker::InvariantChecker() : InvariantChecker(Options{}) {}

InvariantChecker::InvariantChecker(Options opts) : opts_(opts) {}

void InvariantChecker::flag(std::string what, const TraceEvent* e) {
  ++total_violations_;
  if (violations_.size() >= opts_.max_violations) return;
  std::ostringstream ss;
  ss << what;
  if (e != nullptr)
    ss << " [flow " << e->flow << " seq " << e->seq << " vtime " << e->vtime
       << " t " << e->t << "]";
  if (!context_.empty()) ss << " [" << context_ << "]";
  violations_.push_back(Violation{ss.str(), seen_ == 0 ? 0 : seen_ - 1});
}

void InvariantChecker::on_event(const TraceEvent& e) {
  ++seen_;
  const double eps = opts_.epsilon;
  switch (e.type) {
    case TraceEventType::kEnqueue:
      ++enqueued_;
      last_backlog_ = e.backlog;
      saw_packet_event_ = true;
      break;

    case TraceEventType::kTag: {
      ++tagged_;
      last_backlog_ = e.backlog;
      saw_packet_event_ = true;
      if (opts_.check_tags) {
        if (e.finish_tag < e.start_tag - eps) {
          std::ostringstream ss;
          ss << "finish tag < start tag for flow " << e.flow << " seq " << e.seq
             << " (F=" << e.finish_tag << " S=" << e.start_tag << ")";
          flag(ss.str(), &e);
        }
        if (e.flow != kInvalidFlow) {
          if (e.flow >= flow_last_finish_.size())
            flow_last_finish_.resize(e.flow + 1, 0.0);
          if (e.start_tag < flow_last_finish_[e.flow] - eps) {
            std::ostringstream ss;
            ss << "start tag regressed below previous finish for flow "
               << e.flow << " seq " << e.seq << " (S=" << e.start_tag
               << " F_prev=" << flow_last_finish_[e.flow] << ")";
            flag(ss.str(), &e);
          }
          flow_last_finish_[e.flow] = e.finish_tag;
        }
      }
      break;
    }

    case TraceEventType::kDequeue: {
      ++dequeued_;
      last_backlog_ = e.backlog;
      saw_packet_event_ = true;
      if (opts_.order != OrderTag::kNone) {
        const double tag =
            opts_.order == OrderTag::kStartTag ? e.start_tag : e.finish_tag;
        if (tag < last_order_tag_ - eps - opts_.order_slack) {
          std::ostringstream ss;
          ss << (opts_.order == OrderTag::kStartTag ? "start" : "finish")
             << " tags dequeued out of order: flow " << e.flow << " seq "
             << e.seq << " tag " << tag << " after " << last_order_tag_;
          flag(ss.str(), &e);
        }
        if (tag > last_order_tag_) last_order_tag_ = tag;
      }
      if (opts_.check_vtime_monotone) {
        if (e.vtime < last_vtime_ - eps) {
          std::ostringstream ss;
          ss << "v(t) regressed at dequeue: " << e.vtime << " after "
             << last_vtime_;
          flag(ss.str(), &e);
        }
        if (e.vtime > last_vtime_) last_vtime_ = e.vtime;
      }
      break;
    }

    case TraceEventType::kVtime:
      if (opts_.check_vtime_monotone) {
        if (e.vtime < last_vtime_ - eps) {
          std::ostringstream ss;
          ss << "v(t) regressed: " << e.vtime << " after " << last_vtime_;
          flag(ss.str(), &e);
        }
        if (e.vtime > last_vtime_) last_vtime_ = e.vtime;
      }
      break;

    case TraceEventType::kDrop:
      ++dropped_;
      last_backlog_ = e.backlog;
      if (is_post_enqueue(e.drop_cause)) {
        // The packet was tagged/enqueued, then removed without a dequeue:
        // credit it back so conservation balances across churn and pushout.
        ++removed_;
        // The scheduler re-anchors the flow's tag state at the first removed
        // packet's start tag (which equals the pre-removal finish tag under
        // S = max(v, F_prev) — see SfqScheduler::remove_flow). Mirror that
        // rollback so a rejoining flow's next start tag is not flagged.
        if (opts_.check_tags && e.flow != kInvalidFlow &&
            e.flow < flow_last_finish_.size() &&
            e.start_tag < flow_last_finish_[e.flow])
          flow_last_finish_[e.flow] = e.start_tag;
      }
      break;

    case TraceEventType::kTxStart:
      ++tx_started_;
      last_backlog_ = e.backlog;
      break;

    case TraceEventType::kTxEnd:
      last_backlog_ = e.backlog;
      break;
  }
}

void InvariantChecker::finish() {
  if (!opts_.check_conservation || !saw_packet_event_) return;
  // Pre-enqueue drops never reach the scheduler; post-enqueue removals
  // (pushout, flow_removed) did, and are credited back via removed_. So:
  // tagged = dequeued + still queued + removed. Schedulers without tag hooks
  // (FIFO, round-robin, ...) emit no kTag / kDequeue events; fall back to the
  // server-level ledger there.
  const bool scheduler_view = tagged_ > 0 || dequeued_ > 0;
  const uint64_t in = scheduler_view ? tagged_ : enqueued_;
  const uint64_t out = scheduler_view ? dequeued_ : tx_started_;
  if (in != out + last_backlog_ + removed_) {
    std::ostringstream ss;
    ss << "conservation violated: "
       << (scheduler_view ? "tagged " : "enqueued ") << in
       << " != " << (scheduler_view ? "dequeued " : "tx-started ") << out
       << " + backlog " << last_backlog_ << " + removed " << removed_
       << " (pre-enqueue drops " << dropped_ - removed_
       << " counted separately)";
    flag(ss.str());
  }
}

std::string InvariantChecker::report() const {
  std::ostringstream ss;
  if (ok()) {
    ss << "invariants OK (" << seen_ << " events, " << dequeued_
       << " dequeues, " << dropped_ << " drops)";
    return ss.str();
  }
  ss << total_violations_ << " invariant violation(s) in " << seen_
     << " events:";
  for (const Violation& v : violations_)
    ss << "\n  [event " << v.event_index << "] " << v.what;
  if (total_violations_ > violations_.size())
    ss << "\n  ... (" << total_violations_ - violations_.size()
       << " more suppressed)";
  return ss.str();
}

}  // namespace sfq::obs
