// netsim: intra-node IPC channel.
//
// Ranks that the cluster topology co-locates on one node do not cross the
// HCA: control messages travel over a shared-memory queue pair and payload
// moves as a direct copy between the two processes' address spaces — a
// host-side shared-memory copy, a PCIe staging copy when one end is device
// memory, or a peer D2D copy (the CUDA-IPC path) when both ends are device
// memory. The channel carries the same FaultModel as the fabric (benign by
// default): in-node delivery is lossless until a rule is installed, after
// which seeded drops (including delivery receipts), synthetic copy/map
// errors (CqType::kError) and per-pair delivery jitter apply exactly as
// they do at the HCA — so the reliability layer's retransmit/backoff/abort
// guarantees can be exercised over IPC too (see docs/RELIABILITY.md).
// Rules resolve on (src rank, dst rank, message kind).
//
// The channel mirrors the verbs-shaped surface of net/fabric.hpp (same
// WireMessage/Completion types, same post/poll verbs) so the transport
// seam in core can drive either interchangeably. Work-request ids are
// drawn from a range disjoint from the fabric's (offset by kIpcWrBase), so
// one rank's completion dispatch can mix both transports safely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "gpu/cost_model.hpp"
#include "gpu/memory_registry.hpp"
#include "net/fault.hpp"
#include "net/wire.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace mv2gnc::netsim {

/// Timing constants of the in-node channel. Control latency models a
/// shared-memory queue poll (no NIC, no switch); copy bandwidths are
/// selected per transfer from the memory kinds of the two endpoints.
struct IpcCostModel {
  sim::SimTime latency_ns = 300;         // queue-pair delivery
  sim::SimTime per_msg_overhead_ns = 150;  // descriptor/doorbell processing
  sim::SimTime post_overhead_ns = 100;   // CPU cost of posting
  double host_bw = 10.0;                 // control/eager queue-pair GB/s
  double pcie_bw = 5.5;                  // one end device: PCIe copy
  double peer_d2d_bw = 6.0;              // device<->device peer copy (P2P)

  // Host<->host *payload* copies (one-sided writes/reads between the two
  // processes' address spaces): double-buffered shm below the threshold,
  // single-copy cross-memory attach (CMA) at or above it. Calibrated in
  // gpu::GpuCostModel (see shm_host_bw there); the flat host_bw above only
  // prices the control queue pair and eager payloads riding it.
  double shm_host_bw = 4.8;
  double cma_host_bw = 11.0;
  std::size_t shm_cma_threshold = 64 * 1024;

  sim::SimTime copy_time(std::size_t bytes, double bw) const {
    return static_cast<sim::SimTime>(static_cast<double>(bytes) / bw);
  }

  /// Derive the copy bandwidths from the node's GPU model (peer copies run
  /// over the same PCIe fabric the staged pipeline uses; the host leg
  /// inherits the model's calibrated shm/CMA pair).
  static IpcCostModel from_gpu(const gpu::GpuCostModel& g) {
    IpcCostModel c;
    c.pcie_bw = (g.d2h_bw < g.h2d_bw) ? g.d2h_bw : g.h2d_bw;
    c.peer_d2d_bw = g.peer_d2d_bw;
    c.shm_host_bw = g.shm_host_bw;
    c.cma_host_bw = g.cma_host_bw;
    c.shm_cma_threshold = g.shm_cma_threshold;
    return c;
  }
};

/// First work-request id an IpcPort hands out. The fabric Endpoint counts
/// up from 1; keeping the IPC range disjoint means a rank driving both
/// transports never sees a wr_id collision.
inline constexpr std::uint64_t kIpcWrBase = 1ull << 48;

class IpcChannel;

/// One rank's attachment to the node's IPC channel: a transmit pipeline
/// (FIFO) plus a completion queue, shaped like a NIC endpoint — including
/// the channel's fault model, rolled at transmit-drain time.
class IpcPort {
 public:
  IpcPort(sim::Engine& engine, IpcChannel& channel, int rank);
  IpcPort(const IpcPort&) = delete;
  IpcPort& operator=(const IpcPort&) = delete;

  /// Post a two-sided SEND to co-located rank `dst`.
  std::uint64_t post_send(int dst, WireMessage msg);

  /// Post a one-sided copy of `bytes` from `local` into `remote` (an
  /// address owned by co-located rank `dst`); the copy lands when the
  /// transmit drains, and `imm` (if any) arrives one channel latency
  /// later, preserving the RDMA ordering guarantee.
  std::uint64_t post_rdma_write(int dst, const void* local, void* remote,
                                std::size_t bytes,
                                std::optional<WireMessage> imm = std::nullopt);

  /// Drain one completion; false if the CQ is empty.
  bool poll(Completion& out);

  void set_wakeup(sim::Notifier* n) { wakeup_ = n; }

  int rank() const { return rank_; }

  // -- statistics ------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t rdma_writes() const { return rdma_writes_; }
  sim::SimTime tx_busy_time() const { return tx_.total_busy_time(); }
  /// Faults this port's transmit pipeline injected (same accounting side
  /// as Endpoint::fault_counters: the sender decides).
  const FaultCounters& fault_counters() const { return fault_counters_; }

 private:
  friend class IpcChannel;
  void deliver(Completion c);  // push to CQ + wake
  void deliver_remote(IpcPort* dst, std::unique_ptr<WireMessage> msg,
                      sim::SimTime extra_delay = 0);
  // Channel-level half of a delivery receipt (see Fabric::DeliveryReceipt):
  // fired at delivery time, from scheduler context.
  void send_receipt(int receipt_kind, std::size_t echo_header,
                    const WireMessage& m);
  sim::SimTime draw_jitter(const FaultSpec& spec);

  sim::Engine& engine_;
  IpcChannel& channel_;
  int rank_;
  sim::FifoResource tx_;
  std::deque<Completion> cq_;
  sim::Notifier* wakeup_ = nullptr;
  std::uint64_t next_wr_ = kIpcWrBase + 1;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t rdma_writes_ = 0;
  FaultCounters fault_counters_;
};

/// One node's in-node interconnect: a port per co-located rank. Ports are
/// created up front (add_rank) so the address map is fixed before traffic
/// flows. The channel consults the MemoryRegistry to classify each copy's
/// endpoints (host / device) and picks the matching bandwidth.
class IpcChannel {
 public:
  IpcChannel(sim::Engine& engine, const gpu::MemoryRegistry& registry,
             IpcCostModel cost);

  /// Attach rank `rank` to this node's channel.
  IpcPort& add_rank(int rank);
  IpcPort& port(int rank);
  bool has_rank(int rank) const { return ports_.count(rank) != 0; }

  const IpcCostModel& cost() const { return cost_; }
  sim::Engine& engine() { return engine_; }

  /// Live fault model of the channel (benign by default — perfect in-node
  /// delivery). Rules resolve on (src rank, dst rank, kind), mirroring
  /// Fabric::faults().
  FaultModel& faults() { return faults_; }
  const FaultModel& faults() const { return faults_; }

  /// Bandwidth for a copy of `bytes` between `src` and `dst` based on where
  /// the two buffers live: device<->device takes the peer D2D path, one
  /// device end stages over PCIe, and host<->host picks double-buffered shm
  /// vs single-copy CMA by size (shm_cma_threshold).
  double copy_bw(const void* src, const void* dst, std::size_t bytes) const;

  /// Arm a delivery receipt for one message kind (same contract as
  /// Fabric::enable_delivery_receipt): whenever a `kind` message is
  /// delivered, the channel immediately sends `receipt_kind` back to the
  /// origin with header[0] echoing the original's header[echo_header].
  /// Even on a fault-free channel the receipt matters — it tells a sender
  /// whose receiver has not posted the matching recv yet that the
  /// handshake is alive, exactly like the fabric's NIC-level ack. Under a
  /// fault model, receipts roll the same drop/jitter dice as any send.
  void enable_delivery_receipt(int kind, int receipt_kind,
                               std::size_t echo_header) {
    if (kind < 0 || echo_header >= 6 ||
        receipt_for(receipt_kind) != nullptr) {
      throw std::invalid_argument("enable_delivery_receipt: bad config");
    }
    if (receipt_index_.size() <= static_cast<std::size_t>(kind)) {
      receipt_index_.resize(static_cast<std::size_t>(kind) + 1, -1);
    }
    receipt_index_[static_cast<std::size_t>(kind)] =
        static_cast<std::int16_t>(receipts_.size());
    receipts_.push_back(Receipt{kind, receipt_kind, echo_header});
  }

 private:
  friend class IpcPort;
  struct Receipt {
    int kind = 0;
    int receipt_kind = 0;
    std::size_t echo_header = 0;
  };
  // O(1) kind-indexed lookup, mirroring Fabric::receipt_for — it runs on
  // every channel delivery.
  const Receipt* receipt_for(int kind) const {
    if (static_cast<unsigned>(kind) >= receipt_index_.size()) return nullptr;
    const std::int16_t i = receipt_index_[static_cast<std::size_t>(kind)];
    return i >= 0 ? &receipts_[static_cast<std::size_t>(i)] : nullptr;
  }

  sim::Engine& engine_;
  const gpu::MemoryRegistry& registry_;
  IpcCostModel cost_;
  FaultModel faults_;
  std::vector<Receipt> receipts_;
  std::vector<std::int16_t> receipt_index_;  // kind -> receipts_ index, -1
  std::unordered_map<int, std::unique_ptr<IpcPort>> ports_;
};

}  // namespace mv2gnc::netsim
