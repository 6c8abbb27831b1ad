#include "util/latency.hpp"

#include "util/json.hpp"

namespace gryphon {

const char* latency_stage_name(LatencyStage s) {
  switch (s) {
    case LatencyStage::kPublishToPersist: return "publish_to_persist";
    case LatencyStage::kPersistToMatch: return "persist_to_match";
    case LatencyStage::kMatchToPfsLog: return "match_to_pfs_log";
    case LatencyStage::kPfsLogToDeliver: return "pfs_log_to_deliver";
    case LatencyStage::kDeliverToAck: return "deliver_to_ack";
    case LatencyStage::kEndToEnd: return "end_to_end";
    case LatencyStage::kCatchupWait: return "catchup_wait";
  }
  return "?";
}

LatencyRecorder::LatencyRecorder() : LatencyRecorder(Options()) {}

LatencyRecorder::LatencyRecorder(Options options) : options_(options) {
  stages_.reserve(kNumLatencyStages);
  for (std::size_t i = 0; i < kNumLatencyStages; ++i) {
    stages_.emplace_back(options_.hist_min_ms, options_.hist_max_ms,
                         options_.buckets_per_decade);
  }
}

template <typename Fn>
void LatencyRecorder::for_range(std::int64_t pubend, Tick from, Tick to,
                                Fn&& fn) {
  auto it = open_.lower_bound({pubend, from});
  const auto end = open_.upper_bound({pubend, to});
  while (it != end) {
    // fn may ask for the key to be retired; advance first so erase is safe.
    auto cur = it++;
    if (fn(cur->second)) open_.erase(cur);
  }
}

void LatencyRecorder::on_trace(std::uint32_t /*node_id*/,
                               const TraceRecord& rec) {
  switch (rec.milestone) {
    case TraceMilestone::kPublish: {
      auto [it, inserted] = open_.try_emplace({rec.pubend, rec.tick});
      if (inserted) {
        if (open_.size() > options_.max_open_keys) {
          // Evict the oldest key (smallest (pubend, tick)) so an ack-less
          // or gap-less workload cannot grow the table without bound.
          open_.erase(open_.begin());
          ++dropped_;
        }
        it->second.publish = rec.at;
      }
      break;
    }
    case TraceMilestone::kPersist: {
      auto it = open_.find({rec.pubend, rec.tick});
      if (it == open_.end()) { ++orphans_; break; }
      if (it->second.persist >= 0) break;  // latch once; recovery re-persists
      it->second.persist = rec.at;
      if (it->second.publish >= 0) {
        add_sample(LatencyStage::kPublishToPersist, it->second.publish, rec.at);
      }
      break;
    }
    case TraceMilestone::kMatch: {
      auto it = open_.find({rec.pubend, rec.tick});
      if (it == open_.end()) { ++orphans_; break; }
      if (it->second.match >= 0) break;  // first SHB to match wins
      it->second.match = rec.at;
      if (it->second.persist >= 0) {
        add_sample(LatencyStage::kPersistToMatch, it->second.persist, rec.at);
      }
      break;
    }
    case TraceMilestone::kPfsLog: {
      for_range(rec.pubend, rec.tick, rec.tick2, [&](OpenKey& k) {
        if (k.pfs_log < 0) {
          k.pfs_log = rec.at;
          if (k.match >= 0) {
            add_sample(LatencyStage::kMatchToPfsLog, k.match, rec.at);
          }
        }
        return false;
      });
      break;
    }
    case TraceMilestone::kDeliverConstream:
    case TraceMilestone::kDeliverCatchup: {
      auto it = open_.find({rec.pubend, rec.tick});
      if (it == open_.end()) { ++orphans_; break; }
      if (it->second.deliver >= 0) break;  // first subscriber delivery wins
      it->second.deliver = rec.at;
      // Under imprecise-PFS batching the log write can land after delivery;
      // a key delivered with no pfs_log yet simply contributes no
      // pfs_log_to_deliver sample (end_to_end still covers it).
      if (it->second.pfs_log >= 0) {
        add_sample(LatencyStage::kPfsLogToDeliver, it->second.pfs_log, rec.at);
      }
      if (it->second.publish >= 0) {
        add_sample(LatencyStage::kEndToEnd, it->second.publish, rec.at);
      }
      break;
    }
    case TraceMilestone::kAck: {
      for_range(rec.pubend, rec.tick, rec.tick2, [&](OpenKey& k) {
        if (!k.acked && k.deliver >= 0) {
          k.acked = true;
          add_sample(LatencyStage::kDeliverToAck, k.deliver, rec.at);
        }
        return false;  // keep open: other subscribers may still deliver
      });
      break;
    }
    case TraceMilestone::kGap: {
      for_range(rec.pubend, rec.tick, rec.tick2, [&](OpenKey& k) {
        // Gap instead of delivery: retire without an end-to-end sample.
        if (k.deliver < 0) ++gap_terminated_;
        return true;
      });
      break;
    }
    case TraceMilestone::kReleaseToL: {
      // Storage released; no further milestones for these ticks are
      // meaningful, so retire whatever is still open in the range.
      for_range(rec.pubend, rec.tick, rec.tick2, [](OpenKey&) { return true; });
      break;
    }
    case TraceMilestone::kCatchupQueued: {
      auto [it, inserted] = waits_.try_emplace({rec.detail, rec.pubend}, rec.at);
      (void)it;
      if (inserted && waits_.size() > options_.max_open_waits) {
        waits_.erase(waits_.begin());
        ++dropped_;
      }
      break;
    }
    case TraceMilestone::kCatchupAdmitted: {
      // Admission without a preceding queue record means the stream never
      // waited — by design that contributes no (zero) wait sample.
      auto it = waits_.find({rec.detail, rec.pubend});
      if (it != waits_.end()) {
        add_sample(LatencyStage::kCatchupWait, it->second, rec.at);
        waits_.erase(it);
      }
      break;
    }
    case TraceMilestone::kCatchupCaughtUp:
      break;  // switchover milestone; no stage boundary
  }
}

void LatencyRecorder::append_json(JsonWriter& w) const {
  w.begin_object();
  w.key("stages").begin_object();
  for (std::size_t i = 0; i < kNumLatencyStages; ++i) {
    const Histogram& h = stages_[i];
    w.key(latency_stage_name(static_cast<LatencyStage>(i)))
        .begin_object(/*inline_items=*/true)
        .field("count", h.count())
        .field("p50", h.percentile(50.0))
        .field("p90", h.percentile(90.0))
        .field("p99", h.percentile(99.0))
        .field("p999", h.percentile(99.9))
        .end_object();
  }
  w.end_object();
  w.field("orphan_transitions", orphans_)
      .field("dropped_keys", dropped_)
      .field("gap_terminated_keys", gap_terminated_)
      .field("open_keys", open_.size());
  w.end_object();
}

void LatencyRecorder::clear() {
  for (auto& h : stages_) h = Histogram(options_.hist_min_ms, options_.hist_max_ms,
                                        options_.buckets_per_decade);
  open_.clear();
  waits_.clear();
  orphans_ = 0;
  dropped_ = 0;
  gap_terminated_ = 0;
}

}  // namespace gryphon
