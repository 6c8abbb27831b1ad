#include "core/jms/jms.hpp"

#include "core/client_observer.hpp"

namespace gryphon::core::jms {

namespace {
/// Producer/subscriber ids in the JMS layer share the client id spaces with
/// native clients; JMS producers take ids from a high block to stay clear of
/// hand-assigned ones.
std::uint32_t next_producer_id = 1'000'000;
}  // namespace

Session::Session(sim::Scheduler& scheduler, sim::LinkNetwork& network,
                 sim::EndpointId phb, sim::EndpointId shb, AcknowledgeMode mode)
    : sim_(scheduler), net_(network), phb_(phb), shb_(shb), mode_(mode) {}

// ----------------------------------------------------------- MessageProducer

MessageProducer::MessageProducer(Session& session, Topic topic)
    : session_(session), topic_(topic) {
  Publisher::Options options;
  options.id = PublisherId{next_producer_id++};
  options.pubend = topic.pubend;
  options.interval = Publisher::Options::kManualOnly;
  publisher_ = std::make_unique<Publisher>(
      session_.scheduler(), session_.network(), options, session_.phb(),
      [](std::uint64_t) -> matching::EventDataPtr {
        GRYPHON_CHECK_MSG(false, "JMS producers publish explicitly");
        return nullptr;
      });
  session_.network().connect(publisher_->endpoint(), session_.phb());
}

void MessageProducer::send(std::map<std::string, matching::Value> properties,
                           std::string text, std::size_t padded_size) {
  publisher_->publish(std::make_shared<matching::EventData>(
      std::move(properties), std::move(text), padded_size));
}

std::uint64_t MessageProducer::sent() const { return publisher_->published(); }

// ----------------------------------------------------------- TopicSubscriber

/// Bridges the native observer callbacks onto the JMS MessageListener.
class TopicSubscriber::ListenerAdapter final : public SubscriberObserver {
 public:
  explicit ListenerAdapter(MessageListener listener) : listener_(std::move(listener)) {}

  void on_event(SubscriberId, PubendId p, Tick t, const matching::EventDataPtr& data,
                bool, SimTime) override {
    if (listener_) listener_(Message(data, p, t));
  }

 private:
  MessageListener listener_;
};

TopicSubscriber::TopicSubscriber(Session& session, SubscriberId id,
                                 std::string selector, AcknowledgeMode mode,
                                 MessageListener listener)
    : adapter_(std::make_unique<ListenerAdapter>(std::move(listener))) {
  DurableSubscriber::Options options;
  options.id = id;
  options.predicate = std::move(selector);
  options.jms_auto_ack = (mode == AcknowledgeMode::kAutoAcknowledge);
  client_ = std::make_unique<DurableSubscriber>(session.scheduler(), session.network(),
                                                options, session.shb(), adapter_.get());
  session.network().connect(client_->endpoint(), session.shb());
}

TopicSubscriber::~TopicSubscriber() = default;

void TopicSubscriber::start() { client_->connect(); }
void TopicSubscriber::stop() { client_->disconnect(); }
void TopicSubscriber::unsubscribe() { client_->unsubscribe(); }

std::unique_ptr<TopicSubscriber> Session::create_durable_subscriber(
    SubscriberId id, const std::string& selector, MessageListener listener) {
  return std::make_unique<TopicSubscriber>(*this, id, selector, mode_,
                                           std::move(listener));
}

}  // namespace gryphon::core::jms
