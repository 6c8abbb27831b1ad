// TraceExporter — Chrome trace-event (Perfetto-loadable) export of the
// tick-milestone stream plus chaos fault windows.
//
// The exporter is a TraceSink: it captures every accepted (post-sampling)
// trace record live, instead of scraping the tracer rings afterwards, so the
// export is complete even when a ring has wrapped. At write time it builds a
// JSON Object Format trace (https://docs.google.com/document/d/1CvAClvFfyA5R-
// PhYUmn5OOQtYMH4h6I0nSsKchNAySU) with:
//
//  * pid 1 "faults": chaos fault windows as complete ("X") / instant ("i")
//    events on a dedicated track — partitions, crashes, disk stalls, frame
//    corruption, power loss all land here so a Perfetto timeline shows the
//    fault schedule above the milestone noise.
//  * pid 2 "ticks": one async span ("b"/"e") per sampled (pubend, tick),
//    opened at kPublish and closed at the first record that proves the tick
//    is finished (ack / gap / release-to-L covering it). This is the causal
//    end-to-end lane; a span still open at export time stays unfinished,
//    which Perfetto renders as running off the right edge.
//  * pid 3+i: one process per broker node (in topology order), each
//    milestone an instant event with args {pubend, tick[, tick2][, sub]}.
//
// Timestamps: trace-event ts is microseconds, exactly SimTime's unit, so
// records pass through untranslated. Events are sorted by (ts, insertion
// order) — same seed => byte-identical file (the repo-wide determinism
// invariant extends to the trace artifact).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/trace.hpp"

namespace gryphon {

class TraceExporter final : public TraceSink {
 public:
  void on_trace(std::uint32_t node_id, const TraceRecord& rec) override {
    records_.push_back({node_id, rec});
  }

  /// Names the per-node track for `node_id` ("phb", "imb0", "shb1", ...).
  void set_node_name(std::uint32_t node_id, std::string name) {
    node_names_[node_id] = std::move(name);
  }

  /// Chaos fault window [from, to] on the faults track (e.g. "partition
  /// shb0", "crash phb"). Zero-length windows degrade to instants.
  void add_fault_span(SimTime from, SimTime to, std::string name);
  /// Instantaneous fault (torn sync, injected frame corruption).
  void add_fault_instant(SimTime at, std::string name);

  [[nodiscard]] std::size_t record_count() const { return records_.size(); }
  [[nodiscard]] std::size_t fault_count() const { return faults_.size(); }

  /// Serializes the whole trace. Deterministic for a deterministic input
  /// stream; one event per line so diffs and line-oriented checks work.
  [[nodiscard]] std::string to_json() const;

  void clear() {
    records_.clear();
    faults_.clear();
  }

 private:
  struct Captured {
    std::uint32_t node_id;
    TraceRecord rec;
  };
  struct Fault {
    SimTime from;
    SimTime to;
    bool instant;
    std::string name;
  };

  std::vector<Captured> records_;
  std::vector<Fault> faults_;
  std::map<std::uint32_t, std::string> node_names_;
};

}  // namespace gryphon
