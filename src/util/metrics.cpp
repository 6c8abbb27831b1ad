#include "util/metrics.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace gryphon {

MetricsRegistry::Probe& MetricsRegistry::Probe::operator=(Probe&& o) noexcept {
  if (this != &o) {
    release();
    registry_ = o.registry_;
    token_ = o.token_;
    o.registry_ = nullptr;
  }
  return *this;
}

void MetricsRegistry::Probe::release() {
  if (registry_ == nullptr) return;
  auto& probes = registry_->probes_;
  probes.erase(std::remove_if(probes.begin(), probes.end(),
                              [this](const ProbeEntry& e) { return e.token == token_; }),
               probes.end());
  registry_ = nullptr;
}

MetricsRegistry::Counter* MetricsRegistry::counter(std::string_view name) {
  if (auto it = counter_index_.find(name); it != counter_index_.end()) {
    return &counters_[it->second];
  }
  counters_.emplace_back();
  counter_index_.emplace(std::string(name), counters_.size() - 1);
  return &counters_.back();
}

MetricsRegistry::Gauge* MetricsRegistry::gauge(std::string_view name) {
  if (auto it = gauge_index_.find(name); it != gauge_index_.end()) {
    return &gauges_[it->second];
  }
  gauges_.emplace_back();
  gauge_index_.emplace(std::string(name), gauges_.size() - 1);
  return &gauges_.back();
}

Histogram* MetricsRegistry::histogram(std::string_view name, double min_value,
                                      double max_value, int buckets_per_decade) {
  if (auto it = histogram_index_.find(name); it != histogram_index_.end()) {
    return &histograms_[it->second];
  }
  histograms_.emplace_back(min_value, max_value, buckets_per_decade);
  histogram_index_.emplace(std::string(name), histograms_.size() - 1);
  return &histograms_.back();
}

MetricsRegistry::Probe MetricsRegistry::probe(std::string_view gauge_name,
                                              std::function<double()> fn) {
  ProbeEntry e;
  e.token = next_token_++;
  e.target = gauge(gauge_name);
  e.fn = std::move(fn);
  probes_.push_back(std::move(e));
  return Probe(this, probes_.back().token);
}

void MetricsRegistry::refresh_probes() {
  for (ProbeEntry& e : probes_) e.target->set(e.fn());
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, std::uint64_t)>& f) const {
  for (const auto& [name, idx] : counter_index_) f(name, counters_[idx].get());
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const std::string&, double)>& f) const {
  for (const auto& [name, idx] : gauge_index_) f(name, gauges_[idx].get());
}

void MetricsRegistry::append_json(JsonWriter& w) {
  refresh_probes();
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, idx] : counter_index_) w.field(name, counters_[idx].get());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, idx] : gauge_index_) w.field(name, gauges_[idx].get());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, idx] : histogram_index_) {
    const Histogram& h = histograms_[idx];
    w.key(name).begin_object(/*inline_items=*/true).field("count", h.count());
    for (const auto& [label, p] :
         {std::pair<const char*, double>{"p50", 50.0}, {"p95", 95.0}, {"p99", 99.0}}) {
      w.field(label, h.count() > 0 ? h.percentile(p) : 0.0);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace gryphon
