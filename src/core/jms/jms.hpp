// JMS-flavored facade (paper: "For programmers writing to the Java Message
// Service (JMS) API, we have also implemented JMS durable subscriptions on
// top of our model").
//
// Thin sugar over the native clients, shaped like the JMS 1.x object model:
//
//   ConnectionFactory factory(scheduler, network, phb, shb);
//   auto connection = factory.create_connection();
//   auto session    = connection->create_session(AcknowledgeMode::kAutoAcknowledge);
//   auto producer   = session->create_producer(Topic{PubendId{1}});
//   producer->send(session->create_message({{"symbol", Value("IBM")}}, "payload"));
//   auto subscriber = session->create_durable_subscriber(
//       "trades", "symbol == 'IBM'", [](const Message& m) { ... });
//
// Durable subscribers created here run in auto-acknowledge mode: the SHB
// owns their checkpoint token in its database tables and commits it per
// consumed message (§5.2). kClientCt mode uses the paper's native model
// (client-held CT) behind the same API.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/publisher_client.hpp"
#include "core/subscriber_client.hpp"

namespace gryphon::core::jms {

/// A destination: one of the PHB's publishing endpoints.
struct Topic {
  PubendId pubend;
};

/// A received message, JMS-style: typed properties + text body.
class Message {
 public:
  Message(matching::EventDataPtr data, PubendId pubend, Tick tick)
      : data_(std::move(data)), pubend_(pubend), tick_(tick) {}

  [[nodiscard]] const matching::Value* property(const std::string& name) const {
    return data_->attribute(name);
  }
  [[nodiscard]] std::string_view text() const { return data_->payload(); }
  [[nodiscard]] PubendId destination() const { return pubend_; }
  /// The provider-assigned message id (the pubend timestamp).
  [[nodiscard]] Tick message_id() const { return tick_; }
  [[nodiscard]] const matching::EventDataPtr& raw() const { return data_; }

 private:
  matching::EventDataPtr data_;
  PubendId pubend_;
  Tick tick_;
};

using MessageListener = std::function<void(const Message&)>;

enum class AcknowledgeMode {
  /// Broker-held CT, committed per consumed message (paper §5.2). The most
  /// severe mode: throughput is bounded by database commit throughput.
  kAutoAcknowledge,
  /// The paper's native model: the client holds its checkpoint token and
  /// acknowledges periodically. Faster; survives broker failures without
  /// the redelivery window auto-ack has.
  kClientCt,
};

class Session;

class MessageProducer {
 public:
  MessageProducer(Session& session, Topic topic);

  /// Sends an event; returns once handed to the provider (delivery to the
  /// PHB is at-least-once with provider-side dedup).
  void send(std::map<std::string, matching::Value> properties, std::string text,
            std::size_t padded_size = 0);

  [[nodiscard]] std::uint64_t sent() const;

 private:
  Session& session_;
  Topic topic_;
  std::unique_ptr<Publisher> publisher_;
};

class TopicSubscriber {
 public:
  TopicSubscriber(Session& session, SubscriberId id, std::string selector,
                  AcknowledgeMode mode, MessageListener listener);
  ~TopicSubscriber();  // out of line: ListenerAdapter is incomplete here

  /// JMS connection-level start/stop maps to connect/disconnect — the
  /// subscription stays durable either way.
  void start();
  void stop();
  /// Destroys the durable subscription (JMS unsubscribe()).
  void unsubscribe();

  [[nodiscard]] std::uint64_t received() const { return client_->events_received(); }
  [[nodiscard]] DurableSubscriber& client() { return *client_; }

 private:
  class ListenerAdapter;
  std::unique_ptr<ListenerAdapter> adapter_;
  std::unique_ptr<DurableSubscriber> client_;
};

class Session {
 public:
  Session(sim::Scheduler& scheduler, sim::LinkNetwork& network, sim::EndpointId phb,
          sim::EndpointId shb, AcknowledgeMode mode);

  [[nodiscard]] std::unique_ptr<MessageProducer> create_producer(Topic topic) {
    return std::make_unique<MessageProducer>(*this, topic);
  }

  /// Creates (or re-attaches to) a durable subscription. The numeric id
  /// plays the role of JMS's (client id, subscription name) pair.
  [[nodiscard]] std::unique_ptr<TopicSubscriber> create_durable_subscriber(
      SubscriberId id, const std::string& selector, MessageListener listener);

  [[nodiscard]] sim::Scheduler& scheduler() { return sim_; }
  [[nodiscard]] sim::LinkNetwork& network() { return net_; }
  [[nodiscard]] sim::EndpointId phb() const { return phb_; }
  [[nodiscard]] sim::EndpointId shb() const { return shb_; }
  [[nodiscard]] AcknowledgeMode mode() const { return mode_; }

 private:
  sim::Scheduler& sim_;
  sim::LinkNetwork& net_;
  sim::EndpointId phb_;
  sim::EndpointId shb_;
  AcknowledgeMode mode_;
};

class Connection {
 public:
  Connection(sim::Scheduler& scheduler, sim::LinkNetwork& network, sim::EndpointId phb,
             sim::EndpointId shb)
      : sim_(scheduler), net_(network), phb_(phb), shb_(shb) {}

  [[nodiscard]] std::unique_ptr<Session> create_session(AcknowledgeMode mode) {
    return std::make_unique<Session>(sim_, net_, phb_, shb_, mode);
  }

 private:
  sim::Scheduler& sim_;
  sim::LinkNetwork& net_;
  sim::EndpointId phb_;
  sim::EndpointId shb_;
};

class ConnectionFactory {
 public:
  ConnectionFactory(sim::Scheduler& scheduler, sim::LinkNetwork& network,
                    sim::EndpointId phb, sim::EndpointId shb)
      : sim_(scheduler), net_(network), phb_(phb), shb_(shb) {}

  [[nodiscard]] std::unique_ptr<Connection> create_connection() {
    return std::make_unique<Connection>(sim_, net_, phb_, shb_);
  }

 private:
  sim::Scheduler& sim_;
  sim::LinkNetwork& net_;
  sim::EndpointId phb_;
  sim::EndpointId shb_;
};

}  // namespace gryphon::core::jms
