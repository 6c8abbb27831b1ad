// Durable subscriber client (paper §2).
//
// Owns its Checkpoint Token: advances it as Event/Silence/Gap messages are
// consumed, persists it across its own disconnections (modeled as a member —
// the client process does not crash; deliberate CT loss is available via
// set_checkpoint for experiments), and pushes it to the SHB periodically as
// an acknowledgment. In JMS mode the SHB owns the CT instead: the client
// acks each consumed event (auto-acknowledge) and reconnects with
// use_stored_ct.
//
// The client also enforces the delivery contract as it consumes: timestamps
// per pubend must be strictly increasing — a violation throws, so every test
// and benchmark doubles as an exactly-once check on the wire.
#pragma once

#include <functional>
#include <map>

#include "core/client.hpp"
#include "core/client_observer.hpp"
#include "core/config.hpp"

namespace gryphon::core {

class DurableSubscriber final : public Client {
 public:
  struct Options {
    SubscriberId id;
    std::string predicate;
    bool jms_auto_ack = false;
    SimDuration ack_interval = msec(250);
    /// Connection retries back off exponentially with deterministic jitter;
    /// backoff.base is the first retry delay (previously a fixed period).
    Backoff backoff{msec(500), sec(4)};
    bool auto_reconnect = true;  // reconnect after a connection reset
  };

  DurableSubscriber(sim::Scheduler& scheduler, sim::Network& network, Options options,
                    sim::EndpointId shb, SubscriberObserver* observer = nullptr);

  /// Initiates a (re)connection; retries until the SHB confirms.
  void connect();

  /// Graceful disconnect (the paper's voluntary disconnection).
  void disconnect();

  /// Destroys the durable subscription at the SHB.
  void unsubscribe();

  /// Reconnect-anywhere (paper §1 feature 5): move the durable subscription
  /// to a different SHB. The old broker's durable state is destroyed (the
  /// client-held CT is the source of truth), and the new broker recovers
  /// the missed span by refiltering from the network — correctness is
  /// unaffected, since the PFS is only a performance optimization. Not
  /// available in JMS mode, where the broker owns the CT.
  void migrate(sim::EndpointId new_shb);

  /// The hosting broker's connection died (broker crash). With
  /// auto_reconnect the client retries until the broker is back.
  void notify_connection_reset();

  /// Harness control: while held, auto-reconnect attempts are suppressed
  /// (used by the Fig. 7/8 experiment to separate constream recovery from
  /// subscriber catchup).
  void set_reconnect_hold(bool hold);

  /// Deliberately replace the CT (models a subscriber that lost its state
  /// and resumes from an older token; it may then observe gaps/duplicates
  /// relative to what it had acknowledged — paper §2).
  void set_checkpoint(CheckpointToken ct) { ct_ = std::move(ct); }

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] const CheckpointToken& checkpoint() const { return ct_; }
  [[nodiscard]] SubscriberId id() const { return options_.id; }
  [[nodiscard]] std::uint64_t events_received() const { return events_received_; }
  [[nodiscard]] std::uint64_t gaps_received() const { return gaps_received_; }

 protected:
  void handle(sim::EndpointId from, const Msg& msg) override;

 private:
  void try_connect();

  Options options_;
  sim::EndpointId shb_;
  SubscriberObserver* observer_;

  bool subscribed_ = false;  // the durable subscription exists at the SHB
  bool connected_ = false;
  bool connecting_ = false;
  bool reconnect_hold_ = false;
  sim::EndpointId pending_unsubscribe_ = 0;  // old SHB awaiting migration teardown
  std::uint64_t connect_attempt_ = 0;
  std::uint64_t retry_count_ = 0;  // retries within the current attempt
  CheckpointToken ct_;
  std::uint64_t events_received_ = 0;
  std::uint64_t gaps_received_ = 0;
};

}  // namespace gryphon::core
