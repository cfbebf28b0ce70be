// The pluggable transport seam (docs/SIMULATION.md, "Node topology and
// transport selection").
//
// core::rndv and the scheduler used to be hard-wired to netsim::Endpoint —
// every transfer crossed the simulated HCA, even between ranks that the
// topology places on the same node. Transport abstracts the wire path
// (post_send / post_rdma_write / poll), and TransportRouter
// picks one per peer:
//
//   * FabricTransport — pure delegation to the verbs-shaped RDMA fabric
//     (net/fabric.hpp). Timing, fault injection and delivery receipts are
//     untouched: a router holding only this transport is bit-for-bit the
//     pre-seam behavior.
//   * IpcTransport    — delegation to an intra-node channel (net/ipc.hpp):
//     co-located ranks exchange control messages over shared memory and
//     move payload with direct peer copies, bypassing the HCA's latency
//     and fault model entirely. Its device_direct() capability lets the
//     rendezvous collapse the five-stage pipeline to
//     D2D pack -> peer D2D copy -> D2D unpack (CUDA-IPC analogue).
//
// Completions from every transport funnel into one logical CQ: the router
// polls its transports in registration order (fabric first), so single-
// transport runs drain in exactly the legacy order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"
#include "sim/time.hpp"

namespace mv2gnc::sim {
class Notifier;
}  // namespace mv2gnc::sim

namespace mv2gnc::netsim {
class Endpoint;
class IpcPort;
}  // namespace mv2gnc::netsim

namespace mv2gnc::core {

/// Aggregate traffic counters of one transport (mirrors the Endpoint
/// statistics surface so per-transport rows can share one table).
struct TransportStats {
  std::uint64_t messages_sent = 0;  // two-sided control/eager messages
  std::uint64_t bytes_sent = 0;     // payload bytes handed to the transport
  std::uint64_t rdma_writes = 0;    // one-sided writes (peer copies on IPC)
  sim::SimTime busy_time = 0;       // transmit-pipeline occupancy
};

/// Abstract wire path between this rank and a set of peers. One instance
/// per (rank, transport kind); all methods are driven from the owning
/// rank's progress loop.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Short stable identifier ("fabric", "ipc") for stats tables.
  virtual const char* name() const = 0;

  /// Post a two-sided SEND; returns the work-request id. Work-request ids
  /// are unique across every transport of one rank (each implementation
  /// draws from a disjoint range), so completion dispatch by wr_id never
  /// needs to know which transport produced it.
  virtual std::uint64_t post_send(int dst, netsim::WireMessage msg) = 0;

  /// Post a one-sided write of `bytes` from `local` into `remote`,
  /// optionally delivering `imm` to the destination CQ after the data.
  virtual std::uint64_t post_rdma_write(
      int dst, const void* local, void* remote, std::size_t bytes,
      std::optional<netsim::WireMessage> imm = std::nullopt) = 0;

  /// Drain one completion; false if this transport's CQ is empty.
  virtual bool poll(netsim::Completion& out) = 0;

  /// Install the notifier poked whenever a completion is enqueued.
  virtual void set_wakeup(sim::Notifier* n) = 0;

  /// True when payload posted through this transport may land directly in
  /// peer *device* memory (the CUDA-IPC peer-copy fast path): the receiver
  /// may advertise a device address and the five-stage pipeline collapses.
  virtual bool device_direct() const { return false; }

  virtual TransportStats stats() const = 0;
};

/// Pure-delegation adapter over the RDMA fabric endpoint. Behavior
/// (timing, fault rolls, receipts, wr-id sequence) is identical to calling
/// the Endpoint directly.
class FabricTransport final : public Transport {
 public:
  explicit FabricTransport(netsim::Endpoint& endpoint);

  const char* name() const override { return "fabric"; }
  std::uint64_t post_send(int dst, netsim::WireMessage msg) override;
  std::uint64_t post_rdma_write(
      int dst, const void* local, void* remote, std::size_t bytes,
      std::optional<netsim::WireMessage> imm) override;
  bool poll(netsim::Completion& out) override;
  void set_wakeup(sim::Notifier* n) override;
  TransportStats stats() const override;

 private:
  netsim::Endpoint& endpoint_;
};

/// Delegation adapter over one rank's port on the intra-node IPC channel.
class IpcTransport final : public Transport {
 public:
  explicit IpcTransport(netsim::IpcPort& port);

  const char* name() const override { return "ipc"; }
  std::uint64_t post_send(int dst, netsim::WireMessage msg) override;
  std::uint64_t post_rdma_write(
      int dst, const void* local, void* remote, std::size_t bytes,
      std::optional<netsim::WireMessage> imm) override;
  bool poll(netsim::Completion& out) override;
  void set_wakeup(sim::Notifier* n) override;
  bool device_direct() const override { return true; }
  TransportStats stats() const override;

 private:
  netsim::IpcPort& port_;
};

/// Health record of one routed peer, fed by the reliability layer
/// (note_failure on a permanent transfer failure or force-drain,
/// note_success on a completed transfer). Failure/success counts are
/// *consecutive* streaks — either event resets the other's streak — so
/// demotion and restore both require sustained evidence (hysteresis).
struct PeerHealth {
  std::uint64_t failures = 0;    // consecutive failed transfers
  std::uint64_t successes = 0;   // consecutive completed transfers
  std::uint64_t demotions = 0;   // times the peer was demoted to fallback
  std::uint64_t restores = 0;    // times the routed path was restored
  bool demoted = false;          // currently forced onto the fallback
};

/// Per-rank routing table: which Transport carries traffic to each peer.
/// Unrouted peers use the fallback (the fabric). The router exposes the
/// same posting surface as a Transport so protocol code holds exactly one
/// handle to the wire.
///
/// With set_failover armed, the router also acts as a health tracker: a
/// peer whose routed (non-fallback) path keeps failing is demoted to the
/// fallback after `demote_after` consecutive failures, and optimistically
/// restored after `restore_after` consecutive successes — the successes
/// ride the fallback, so a restore is a re-probe of the routed path, not
/// proof it healed. Disabled by default: route() is untouched and the
/// note_* calls are no-ops, keeping pre-failover runs bit-exact.
class TransportRouter {
 public:
  /// `fallback` carries every peer without an explicit route. It is also
  /// the first transport polled.
  explicit TransportRouter(Transport& fallback);

  /// Route all traffic for `peer` over `t` (registers `t` for polling on
  /// first use). Call during setup, before any traffic flows.
  void add_route(int peer, Transport& t);

  /// Arm failover: demote a routed peer to the fallback after
  /// `demote_after` consecutive transfer failures, restore it after
  /// `restore_after` consecutive successes. `demote_after == 0` disables
  /// failover entirely (the default).
  void set_failover(std::uint64_t demote_after, std::uint64_t restore_after);

  /// Reliability-layer verdict on one transfer involving `peer`.
  void note_failure(int peer);
  void note_success(int peer);

  /// Health table for stats printing (peers that ever saw a verdict).
  const std::unordered_map<int, PeerHealth>& peer_health() const {
    return health_;
  }

  Transport& route(int peer) const;
  /// The peer's transport supports direct device-memory landings.
  bool device_direct(int peer) const { return route(peer).device_direct(); }

  // -- posting (forwarded to the peer's transport) -----------------------
  std::uint64_t post_send(int dst, netsim::WireMessage msg) {
    return route(dst).post_send(dst, std::move(msg));
  }
  std::uint64_t post_rdma_write(
      int dst, const void* local, void* remote, std::size_t bytes,
      std::optional<netsim::WireMessage> imm = std::nullopt) {
    return route(dst).post_rdma_write(dst, local, remote, bytes,
                                      std::move(imm));
  }

  /// Drain one completion from the first transport (in registration
  /// order: fallback first) whose CQ is non-empty.
  bool poll(netsim::Completion& out);

  /// Forward the progress-loop notifier to every registered transport.
  void set_wakeup(sim::Notifier* n);

  /// Registered transports, fallback first (for per-transport stats).
  const std::vector<Transport*>& transports() const { return transports_; }

 private:
  Transport& fallback_;
  std::vector<Transport*> transports_;
  std::unordered_map<int, Transport*> routes_;
  // Failover state (inert while demote_after_ == 0).
  std::uint64_t demote_after_ = 0;
  std::uint64_t restore_after_ = 3;
  std::unordered_map<int, PeerHealth> health_;
};

}  // namespace mv2gnc::core
