#include "harness/system.hpp"

#include "matching/parser.hpp"
#include "wire/codec_transport.hpp"

namespace gryphon::harness {

namespace {
std::vector<PubendId> make_pubend_ids(int n) {
  std::vector<PubendId> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.emplace_back(static_cast<std::uint32_t>(i + 1));
  return out;
}

void configure_tracer(core::NodeResources& node, const SystemConfig& config) {
  node.tracer.set_capacity(config.trace_ring_capacity);
  node.tracer.set_sample_every(config.trace_sample_every);
}
}  // namespace

System::System(SystemConfig config)
    : config_(std::move(config)), net_(sim_), oracle_(sim_) {
  GRYPHON_CHECK(config_.num_pubends >= 1);
  GRYPHON_CHECK(config_.num_intermediates >= 0);
  GRYPHON_CHECK(config_.num_shbs >= 1);
  GRYPHON_CHECK(config_.pfs_shards >= 1);
  // The broker-level knob is what SHB construction (and restart_shb) read;
  // the system-level knob is authoritative.
  config_.broker.pfs_shards = config_.pfs_shards;

  if (config_.wire == WireMode::kCodec) {
    wire::CodecTransport::Options topts;
    topts.verify_every = config_.wire_verify_every;
    transport_ = std::make_unique<wire::CodecTransport>(topts);
    net_.set_transport(transport_.get());
  }

  const auto pubend_ids = make_pubend_ids(config_.num_pubends);

  phb_node_ = std::make_unique<core::NodeResources>(sim_, net_, "phb", config_.broker,
                                                    config_.phb_disk,
                                                    /*db_connections=*/1, config_.storage);
  configure_tracer(*phb_node_, config_);
  phb_ = std::make_unique<core::PublisherHostingBroker>(*phb_node_, config_.broker,
                                                        pubend_ids, config_.policy);

  sim::EndpointId tail = phb_node_->endpoint;
  for (int i = 0; i < config_.num_intermediates; ++i) {
    auto node = std::make_unique<core::NodeResources>(
        sim_, net_, "imb" + std::to_string(i), config_.broker, config_.shb_disk,
        /*db_connections=*/1, config_.storage);
    configure_tracer(*node, config_);
    auto broker = std::make_unique<core::IntermediateBroker>(*node, config_.broker,
                                                             pubend_ids);
    net_.connect(tail, node->endpoint, config_.broker_link);
    broker->set_parent(tail);
    if (tail == phb_node_->endpoint) {
      phb_->add_child(node->endpoint);
    } else {
      intermediates_.back()->add_child(node->endpoint);
    }
    tail = node->endpoint;
    intermediate_nodes_.push_back(std::move(node));
    intermediates_.push_back(std::move(broker));
  }

  for (int i = 0; i < config_.num_shbs; ++i) {
    auto node = std::make_unique<core::NodeResources>(
        sim_, net_, "shb" + std::to_string(i), config_.broker, config_.shb_disk,
        config_.shb_db_connections, config_.storage);
    node->database.set_per_txn_overhead(config_.shb_db_per_txn_overhead);
    configure_tracer(*node, config_);
    auto broker = std::make_unique<core::SubscriberHostingBroker>(*node, config_.broker,
                                                                  pubend_ids);
    net_.connect(tail, node->endpoint, config_.broker_link);
    broker->set_parent(tail);
    if (tail == phb_node_->endpoint) {
      phb_->add_child(node->endpoint);
    } else {
      intermediates_.back()->add_child(node->endpoint);
    }
    shb_nodes_.push_back(std::move(node));
    shbs_.push_back(std::move(broker));
  }
  shb_hooks_.resize(shbs_.size());

  if (config_.shb_gc_period > 0) {
    GRYPHON_CHECK(config_.shb_gc_pause > 0);
    // Recurring JVM GC pause on each SHB machine, independent of broker
    // restarts (the machine keeps collecting garbage either way).
    for (auto& node : shb_nodes_) schedule_gc_tick(&node->sim_cpu());
  }

  // Live trace consumers: the latency recorder always, the trace exporter
  // when asked. One fanout per system, installed on every node tracer
  // before boot so no accepted record is missed. node_id = topology order
  // (the same order nodes() reports).
  trace_fanout_.add(&latency_);
  if (config_.trace_export) {
    trace_export_ = std::make_unique<TraceExporter>();
    trace_fanout_.add(trace_export_.get());
  }
  {
    const auto all = nodes();
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i]->tracer.set_sink(&trace_fanout_, static_cast<std::uint32_t>(i));
      if (trace_export_ != nullptr) {
        trace_export_->set_node_name(static_cast<std::uint32_t>(i), all[i]->name);
      }
    }
  }

  // Boot order: root first so resume handshakes find live parents.
  phb_->start();
  for (auto& imb : intermediates_) imb->start(/*fresh=*/true);
  for (auto& shb : shbs_) shb->start();
}

void System::schedule_gc_tick(sim::Cpu* cpu) {
  sim_.schedule_after(config_.shb_gc_period, [this, cpu] {
    cpu->inject_stall(config_.shb_gc_pause);
    schedule_gc_tick(cpu);
  });
}

core::IntermediateBroker& System::intermediate(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediates_.size()));
  return *intermediates_[static_cast<std::size_t>(i)];
}

core::SubscriberHostingBroker& System::shb(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shbs_.size()));
  auto& ptr = shbs_[static_cast<std::size_t>(i)];
  GRYPHON_CHECK_MSG(ptr != nullptr, "SHB " << i << " is crashed");
  return *ptr;
}

bool System::intermediate_alive(int i) const {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediates_.size()));
  return intermediates_[static_cast<std::size_t>(i)] != nullptr;
}

sim::EndpointId System::intermediate_endpoint(int i) const {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediate_nodes_.size()));
  return intermediate_nodes_[static_cast<std::size_t>(i)]->endpoint;
}

sim::EndpointId System::shb_endpoint(int i) const {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shb_nodes_.size()));
  return shb_nodes_[static_cast<std::size_t>(i)]->endpoint;
}

sim::EndpointId System::shb_uplink_endpoint(int i) const {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shb_nodes_.size()));
  return intermediate_nodes_.empty() ? phb_node_->endpoint
                                     : intermediate_nodes_.back()->endpoint;
}

sim::EndpointId System::intermediate_uplink_endpoint(int i) const {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediate_nodes_.size()));
  return i == 0 ? phb_node_->endpoint
                : intermediate_nodes_[static_cast<std::size_t>(i - 1)]->endpoint;
}

storage::SimDisk& System::intermediate_disk(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediate_nodes_.size()));
  return intermediate_nodes_[static_cast<std::size_t>(i)]->sim_disk();
}

storage::SimDisk& System::shb_disk(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shb_nodes_.size()));
  return shb_nodes_[static_cast<std::size_t>(i)]->sim_disk();
}

std::vector<PubendId> System::pubends() const {
  return make_pubend_ids(config_.num_pubends);
}

sim::Cpu& System::shb_cpu(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shb_nodes_.size()));
  return shb_nodes_[static_cast<std::size_t>(i)]->sim_cpu();
}

core::Publisher& System::add_publisher(PubendId pubend, SimDuration interval,
                                       core::Publisher::EventFactory factory,
                                       SimDuration start_offset) {
  core::Publisher::Options options;
  options.id = PublisherId{static_cast<std::uint32_t>(publishers_.size() + 1)};
  options.pubend = pubend;
  options.interval = interval;
  options.start_offset = start_offset;
  auto pub = std::make_unique<core::Publisher>(sim_, net_, options,
                                               phb_node_->endpoint, std::move(factory),
                                               &oracle_);
  net_.connect(pub->endpoint(), phb_node_->endpoint, config_.client_link);
  publishers_.push_back(std::move(pub));
  return *publishers_.back();
}

core::DurableSubscriber& System::add_subscriber(core::DurableSubscriber::Options options,
                                                int shb_index, int machine) {
  GRYPHON_CHECK(shb_index >= 0 && shb_index < static_cast<int>(shb_nodes_.size()));
  auto predicate = matching::parse_predicate(options.predicate);
  auto sub = std::make_unique<core::DurableSubscriber>(
      sim_, net_, options, shb_nodes_[static_cast<std::size_t>(shb_index)]->endpoint,
      &oracle_);
  net_.connect(sub->endpoint(), shb_nodes_[static_cast<std::size_t>(shb_index)]->endpoint,
               config_.client_link);
  oracle_.register_subscriber(sub.get(), std::move(predicate), machine);
  subscribers_.push_back({std::move(sub), shb_index});
  return *subscribers_.back().client;
}

std::vector<core::DurableSubscriber*> System::subscribers() {
  std::vector<core::DurableSubscriber*> out;
  out.reserve(subscribers_.size());
  for (auto& entry : subscribers_) out.push_back(entry.client.get());
  return out;
}

void System::migrate_subscriber(core::DurableSubscriber& subscriber,
                                int new_shb_index) {
  GRYPHON_CHECK(new_shb_index >= 0 &&
                new_shb_index < static_cast<int>(shb_nodes_.size()));
  auto it = std::find_if(subscribers_.begin(), subscribers_.end(),
                         [&](const SubEntry& e) { return e.client.get() == &subscriber; });
  GRYPHON_CHECK_MSG(it != subscribers_.end(), "unknown subscriber client");
  const auto new_endpoint =
      shb_nodes_[static_cast<std::size_t>(new_shb_index)]->endpoint;
  if (!net_.are_connected(subscriber.endpoint(), new_endpoint)) {
    net_.connect(subscriber.endpoint(), new_endpoint, config_.client_link);
  }
  it->shb_index = new_shb_index;
  subscriber.migrate(new_endpoint);
}

void System::crash_shb(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shbs_.size()));
  auto& ptr = shbs_[static_cast<std::size_t>(i)];
  GRYPHON_CHECK_MSG(ptr != nullptr, "SHB " << i << " already crashed");
  // The monitor snapshots progress *before* the broker dies: recovery may
  // roll back to the last durable commit but must never be ahead of this.
  if (monitor_ != nullptr) monitor_->note_shb_crash(i);
  shb_nodes_[static_cast<std::size_t>(i)]->crash();
  ptr.reset();
  // TCP connections die with the broker: clients observe a reset.
  for (auto& entry : subscribers_) {
    if (entry.shb_index == i) entry.client->notify_connection_reset();
  }
}

void System::restart_shb(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shbs_.size()));
  auto& ptr = shbs_[static_cast<std::size_t>(i)];
  GRYPHON_CHECK_MSG(ptr == nullptr, "SHB " << i << " is not crashed");
  auto& node = *shb_nodes_[static_cast<std::size_t>(i)];
  ptr = std::make_unique<core::SubscriberHostingBroker>(node, config_.broker, pubends());
  ptr->set_parent(intermediates_.empty() ? phb_node_->endpoint
                                         : intermediate_nodes_.back()->endpoint);
  node.restart();
  ptr->recover();
  if (monitor_ != nullptr) monitor_->note_shb_restart(i);
  for (auto& hook : shb_hooks_[static_cast<std::size_t>(i)]) hook(*ptr);
}

void System::crash_phb() {
  phb_node_->crash();
  phb_.reset();
}

void System::restart_phb() {
  GRYPHON_CHECK(phb_ == nullptr);
  phb_ = std::make_unique<core::PublisherHostingBroker>(*phb_node_, config_.broker,
                                                        pubends(), config_.policy);
  for (auto& node : intermediate_nodes_) phb_->add_child(node->endpoint);
  if (intermediates_.empty()) {
    for (auto& node : shb_nodes_) phb_->add_child(node->endpoint);
  }
  phb_node_->restart();
  phb_->recover();
  phb_->start();
}

void System::crash_intermediate(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediates_.size()));
  intermediate_nodes_[static_cast<std::size_t>(i)]->crash();
  intermediates_[static_cast<std::size_t>(i)].reset();
}

void System::restart_intermediate(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediates_.size()));
  auto& ptr = intermediates_[static_cast<std::size_t>(i)];
  GRYPHON_CHECK(ptr == nullptr);
  auto& node = *intermediate_nodes_[static_cast<std::size_t>(i)];
  ptr = std::make_unique<core::IntermediateBroker>(node, config_.broker, pubends());
  const sim::EndpointId parent =
      i == 0 ? phb_node_->endpoint : intermediate_nodes_[static_cast<std::size_t>(i - 1)]->endpoint;
  ptr->set_parent(parent);
  if (i + 1 < static_cast<int>(intermediate_nodes_.size())) {
    ptr->add_child(intermediate_nodes_[static_cast<std::size_t>(i + 1)]->endpoint);
  } else {
    for (auto& node2 : shb_nodes_) ptr->add_child(node2->endpoint);
  }
  node.restart();
  ptr->recover();
  ptr->start(/*fresh=*/false);
}

void System::torn_sync_phb(std::uint64_t entropy) {
  GRYPHON_CHECK_MSG(phb_ != nullptr, "torn sync on crashed PHB");
  phb_node_->torn_sync(entropy);
}

void System::torn_sync_intermediate(int i, std::uint64_t entropy) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediates_.size()));
  GRYPHON_CHECK_MSG(intermediate_alive(i), "torn sync on crashed intermediate " << i);
  intermediate_nodes_[static_cast<std::size_t>(i)]->torn_sync(entropy);
}

void System::torn_sync_shb(int i, std::uint64_t entropy) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shbs_.size()));
  GRYPHON_CHECK_MSG(shb_alive(i), "torn sync on crashed SHB " << i);
  shb_nodes_[static_cast<std::size_t>(i)]->torn_sync(entropy);
}

void System::verify_exactly_once() {
  const auto violations = oracle_.verify_all();
  GRYPHON_CHECK_MSG(violations.empty(),
                    violations.size() << " delivery violations; first: "
                                      << violations.front());
}

void System::verify_quiescent(bool require_connected) {
  verify_exactly_once();
  for (int i = 0; i < num_shbs(); ++i) {
    if (!shb_alive(i)) continue;
    const std::size_t catchups = shb(i).catchup_stream_count();
    GRYPHON_CHECK_MSG(catchups == 0, "SHB " << i << " still has " << catchups
                                            << " catchup streams after quiescence");
  }
  if (require_connected) {
    for (auto& entry : subscribers_) {
      if (!shb_alive(entry.shb_index)) continue;
      GRYPHON_CHECK_MSG(entry.client->connected(),
                        "subscriber " << entry.client->id()
                                      << " not reconnected to live SHB "
                                      << entry.shb_index << " after quiescence");
    }
  }
}

core::NodeResources& System::intermediate_node(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(intermediate_nodes_.size()));
  return *intermediate_nodes_[static_cast<std::size_t>(i)];
}

core::NodeResources& System::shb_node(int i) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shb_nodes_.size()));
  return *shb_nodes_[static_cast<std::size_t>(i)];
}

std::vector<core::NodeResources*> System::nodes() {
  std::vector<core::NodeResources*> out;
  out.reserve(1 + intermediate_nodes_.size() + shb_nodes_.size());
  out.push_back(phb_node_.get());
  for (auto& node : intermediate_nodes_) out.push_back(node.get());
  for (auto& node : shb_nodes_) out.push_back(node.get());
  return out;
}

void System::append_metrics_json(JsonWriter& w) {
  w.begin_object();
  for (core::NodeResources* node : nodes()) {
    w.key(node->name);
    node->metrics.append_json(w);
  }
  w.end_object();
}

bool System::write_trace_json(const std::string& path) {
  if (trace_export_ == nullptr) return false;
  return write_file(path, trace_export_->to_json());
}

void System::note_fault_span(SimTime from, SimTime to, const std::string& name) {
  if (trace_export_ != nullptr) trace_export_->add_fault_span(from, to, name);
}

void System::note_fault_instant(SimTime at, const std::string& name) {
  if (trace_export_ != nullptr) trace_export_->add_fault_instant(at, name);
}

std::string System::metrics_scrape_line() {
  std::string line;
  JsonWriter w(line, JsonWriter::Style::kCompact);
  w.begin_object().field("t", to_seconds(sim_.now())).key("latency");
  latency_.append_json(w);
  w.key("nodes");
  append_metrics_json(w);
  w.end_object();
  line += '\n';
  return line;
}

bool System::write_metrics_json(const std::string& path) {
  std::string doc;
  JsonWriter w(doc);
  append_metrics_json(w);
  doc += '\n';
  return write_file(path, doc);
}

void System::dump_flight_recorder(std::FILE* out, const FlightRecorderFocus* focus) {
  std::vector<const Tracer*> tracers;
  for (core::NodeResources* node : nodes()) tracers.push_back(&node->tracer);
  write_flight_record(out, tracers, focus);
}

InvariantMonitor& System::enable_invariants(InvariantMonitor::Options options) {
  if (monitor_ == nullptr) {
    monitor_ = std::make_unique<InvariantMonitor>(*this, options);
  }
  return *monitor_;
}

void System::on_shb_ready(int i,
                          std::function<void(core::SubscriberHostingBroker&)> hook) {
  GRYPHON_CHECK(i >= 0 && i < static_cast<int>(shbs_.size()));
  hook(shb(i));
  shb_hooks_[static_cast<std::size_t>(i)].push_back(std::move(hook));
}

}  // namespace gryphon::harness
