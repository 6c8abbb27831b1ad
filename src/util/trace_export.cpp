#include "util/trace_export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "util/json.hpp"

namespace gryphon {

void TraceExporter::add_fault_span(SimTime from, SimTime to, std::string name) {
  if (to <= from) {
    add_fault_instant(from, std::move(name));
    return;
  }
  faults_.push_back({from, to, /*instant=*/false, std::move(name)});
}

void TraceExporter::add_fault_instant(SimTime at, std::string name) {
  faults_.push_back({at, at, /*instant=*/true, std::move(name)});
}

namespace {

struct Event {
  SimTime ts;
  std::uint64_t seq;  // insertion order: deterministic tiebreak at equal ts
  std::string line;
};

}  // namespace

std::string TraceExporter::to_json() const {
  constexpr int kFaultsPid = 1;
  constexpr int kTicksPid = 2;
  constexpr int kNodePidBase = 3;

  std::vector<Event> events;
  events.reserve(faults_.size() + 3 * records_.size());
  std::uint64_t seq = 0;
  // Each event is one compact object, finished in its slot before the next
  // event is added, and placed after sorting.
  const auto add_event = [&](SimTime ts, const char* ph, int pid) {
    events.push_back({ts, seq++, {}});
    JsonWriter w(events.back().line, JsonWriter::Style::kCompact);
    w.begin_object().field("ph", ph).field("pid", pid).field("tid", 1).field("ts", ts);
    return w;
  };

  for (const Fault& f : faults_) {
    JsonWriter w = add_event(f.from, f.instant ? "i" : "X", kFaultsPid);
    if (f.instant) {
      w.field("s", "p");
    } else {
      w.field("dur", f.to - f.from);
    }
    w.field("cat", "fault").field("name", f.name).end_object();
  }

  // One async span per sampled (pubend, tick): opened by kPublish, closed by
  // the first ack / gap / release-to-L record covering the tick. Spans with
  // no closing record stay open (Perfetto draws them running off the edge).
  std::map<std::pair<std::int64_t, Tick>, bool> open_spans;
  const auto span_event = [&](const char* ph, SimTime ts, std::int64_t pubend,
                              Tick tick) {
    char id[24];
    std::snprintf(id, sizeof id, "0x%llx",
                  static_cast<unsigned long long>(
                      (static_cast<std::uint64_t>(pubend) << 40) ^
                      static_cast<std::uint64_t>(tick)));
    add_event(ts, ph, kTicksPid).field("cat", "tick").field("id", id)
        .field("name", "pubend " + std::to_string(pubend) + " tick " + std::to_string(tick))
        .end_object();
  };

  for (const Captured& c : records_) {
    const TraceRecord& r = c.rec;

    // Per-node milestone instant.
    JsonWriter w = add_event(r.at, "i", kNodePidBase + static_cast<int>(c.node_id));
    w.field("s", "p").field("cat", "milestone").field("name", trace_milestone_name(r.milestone));
    w.key("args").begin_object().field("pubend", r.pubend).field("tick", r.tick);
    if (r.tick2 != r.tick) w.field("tick2", r.tick2);
    if (r.detail != 0) w.field("sub", r.detail);
    w.end_object().end_object();

    // Causal tick-span lane.
    if (r.milestone == TraceMilestone::kPublish) {
      auto [it, inserted] = open_spans.try_emplace({r.pubend, r.tick}, true);
      (void)it;
      if (inserted) span_event("b", r.at, r.pubend, r.tick);
    } else if (r.milestone == TraceMilestone::kAck ||
               r.milestone == TraceMilestone::kGap ||
               r.milestone == TraceMilestone::kReleaseToL) {
      auto it = open_spans.lower_bound({r.pubend, r.tick});
      const auto end = open_spans.upper_bound({r.pubend, r.tick2});
      while (it != end) {
        span_event("e", r.at, it->first.first, it->first.second);
        it = open_spans.erase(it);
      }
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.seq < b.seq;
                   });

  std::string out;
  JsonWriter w(out, JsonWriter::Style::kCompact);
  w.begin_object().field("displayTimeUnit", "ms").key("traceEvents").begin_array();
  // Metadata first: track names for the fixed lanes and each node.
  const auto process_name = [&](int pid, const std::string& name) {
    w.line_break().begin_object().field("ph", "M").field("pid", pid).field("name", "process_name");
    w.key("args").begin_object().field("name", name).end_object().end_object();
  };
  process_name(kFaultsPid, "faults");
  process_name(kTicksPid, "ticks");
  for (const auto& [node_id, name] : node_names_) {
    process_name(kNodePidBase + static_cast<int>(node_id), name);
  }
  for (const Event& e : events) w.line_break().raw(e.line);
  w.line_break().end_array().end_object();
  out += '\n';
  return out;
}

}  // namespace gryphon
