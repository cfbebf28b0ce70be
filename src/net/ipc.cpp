#include "net/ipc.hpp"

#include <cstring>
#include <string>
#include <utility>

namespace mv2gnc::netsim {

IpcPort::IpcPort(sim::Engine& engine, IpcChannel& channel, int rank)
    : engine_(engine),
      channel_(channel),
      rank_(rank),
      tx_(engine, "ipc" + std::to_string(rank) + ".tx") {}

void IpcPort::deliver(Completion c) {
  cq_.push_back(std::move(c));
  if (wakeup_ != nullptr) wakeup_->notify();
}

sim::SimTime IpcPort::draw_jitter(const FaultSpec& spec) {
  if (spec.jitter_ns <= 0) return 0;
  const sim::SimTime j = static_cast<sim::SimTime>(
      engine_.rand_below(static_cast<std::uint64_t>(spec.jitter_ns) + 1));
  if (j > 0) ++fault_counters_.deliveries_jittered;
  return j;
}

void IpcPort::deliver_remote(IpcPort* dst, std::unique_ptr<WireMessage> msg,
                             sim::SimTime extra_delay) {
  // Move-captured by the delivery event: one allocation per message, no
  // shared_ptr control-block churn (same shape as Endpoint::deliver_remote).
  engine_.schedule_after(channel_.cost().latency_ns + extra_delay,
                         [dst, msg = std::move(msg)]() mutable {
                           const IpcChannel::Receipt* r =
                               dst->channel_.receipt_for(msg->kind);
                           if (r != nullptr) {
                             dst->send_receipt(r->receipt_kind,
                                               r->echo_header, *msg);
                           }
                           dst->deliver(
                               Completion{CqType::kRecv, 0, std::move(*msg)});
                         });
}

void IpcPort::send_receipt(int receipt_kind, std::size_t echo_header,
                           const WireMessage& m) {
  const int dst = m.src_node;
  if (!channel_.has_rank(dst)) return;
  WireMessage ack;
  ack.src_node = rank_;
  ack.kind = receipt_kind;
  ack.header[0] = m.header[echo_header];
  const IpcCostModel& c = channel_.cost();
  IpcPort* dst_port = &channel_.port(dst);
  auto owned = std::make_unique<WireMessage>(std::move(ack));
  ++messages_sent_;
  // Channel-generated, like the HCA's transport ack: no post overhead, no
  // kSendComplete, just transmit occupancy — plus the usual fault rolls on
  // the (this -> dst, receipt_kind) edge. A receipt kind never has a
  // receipt of its own, so this cannot recurse.
  tx_.submit(c.per_msg_overhead_ns + c.copy_time(64, c.host_bw),
             [this, dst, dst_port, msg = std::move(owned)]() mutable {
               sim::SimTime extra = 0;
               if (channel_.faults().enabled()) {
                 const FaultSpec& spec =
                     channel_.faults().resolve(rank_, dst, msg->kind);
                 if (spec.drop_send > 0.0 &&
                     engine_.rand_uniform() < spec.drop_send) {
                   ++fault_counters_.sends_dropped;
                   return;
                 }
                 extra = draw_jitter(spec);
               }
               deliver_remote(dst_port, std::move(msg), extra);
             });
}

bool IpcPort::poll(Completion& out) {
  if (cq_.empty()) return false;
  out = std::move(cq_.front());
  cq_.pop_front();
  return true;
}

std::uint64_t IpcPort::post_send(int dst, WireMessage msg) {
  if (!channel_.has_rank(dst)) {
    throw std::out_of_range("IpcPort::post_send: rank " + std::to_string(dst) +
                            " is not on this node");
  }
  const IpcCostModel& c = channel_.cost();
  engine_.delay(c.post_overhead_ns);  // CPU cost of posting
  const std::uint64_t wr = next_wr_++;
  msg.src_node = rank_;
  ++messages_sent_;
  bytes_sent_ += msg.payload.size();
  const sim::SimTime duration =
      c.per_msg_overhead_ns + c.copy_time(msg.payload.size() + 64, c.host_bw);
  IpcPort* dst_port = &channel_.port(dst);
  auto owned_msg = std::make_unique<WireMessage>(std::move(msg));
  tx_.submit(duration, [this, wr, dst, dst_port,
                        m = std::move(owned_msg)]() mutable {
    // The queue pair drained the descriptor either way; whether the
    // message then reaches the peer is decided here, at drain time, so
    // the fault sequence depends only on the deterministic event order
    // (same placement as the fabric's Endpoint).
    deliver(Completion{CqType::kSendComplete, wr, {}});
    sim::SimTime extra = 0;
    if (channel_.faults().enabled()) {
      const FaultSpec& spec = channel_.faults().resolve(rank_, dst, m->kind);
      if (spec.drop_send > 0.0 && engine_.rand_uniform() < spec.drop_send) {
        ++fault_counters_.sends_dropped;
        return;
      }
      extra = draw_jitter(spec);
    }
    deliver_remote(dst_port, std::move(m), extra);
  });
  return wr;
}

std::uint64_t IpcPort::post_rdma_write(int dst, const void* local,
                                       void* remote, std::size_t bytes,
                                       std::optional<WireMessage> imm) {
  if (!channel_.has_rank(dst)) {
    throw std::out_of_range("IpcPort::post_rdma_write: rank " +
                            std::to_string(dst) + " is not on this node");
  }
  if ((local == nullptr || remote == nullptr) && bytes > 0) {
    throw std::invalid_argument("IpcPort::post_rdma_write: null buffer");
  }
  const IpcCostModel& c = channel_.cost();
  engine_.delay(c.post_overhead_ns);
  const std::uint64_t wr = next_wr_++;
  ++rdma_writes_;
  bytes_sent_ += bytes;
  const sim::SimTime duration =
      c.per_msg_overhead_ns +
      c.copy_time(bytes, channel_.copy_bw(local, remote, bytes));
  IpcPort* dst_port = &channel_.port(dst);
  std::unique_ptr<WireMessage> owned_imm;
  if (imm) {
    imm->src_node = rank_;
    owned_imm = std::make_unique<WireMessage>(std::move(*imm));
  }
  tx_.submit(duration, [this, wr, dst, dst_port, local, remote, bytes,
                        imm_msg = std::move(owned_imm)]() mutable {
    const FaultSpec* spec = nullptr;
    if (channel_.faults().enabled()) {
      const int kind = imm_msg ? imm_msg->kind : FaultModel::kNoKind;
      spec = &channel_.faults().resolve(rank_, dst, kind);
      if (spec->fail_write > 0.0 &&
          engine_.rand_uniform() < spec->fail_write) {
        // Copy/map error (a failed CUDA-IPC mapping, a faulted CMA copy):
        // nothing lands, no notification goes out, and the poster learns
        // via a synthetic error completion — the same CqType::kError the
        // fabric surfaces, so the reliability layer retransmits out of
        // its staging slot regardless of transport.
        ++fault_counters_.writes_failed;
        deliver(Completion{CqType::kError, wr, {}});
        return;
      }
    }
    // Data lands when the copy engine drains; the notification follows one
    // channel latency later (same ordering guarantee as the fabric).
    if (bytes > 0) std::memcpy(remote, local, bytes);
    deliver(Completion{CqType::kRdmaComplete, wr, {}});
    if (imm_msg) {
      sim::SimTime extra = 0;
      if (spec != nullptr) {
        if (spec->drop_imm > 0.0 &&
            engine_.rand_uniform() < spec->drop_imm) {
          ++fault_counters_.imms_dropped;
          return;
        }
        extra = draw_jitter(*spec);
      }
      deliver_remote(dst_port, std::move(imm_msg), extra);
    }
  });
  return wr;
}

IpcChannel::IpcChannel(sim::Engine& engine,
                       const gpu::MemoryRegistry& registry, IpcCostModel cost)
    : engine_(engine), registry_(registry), cost_(cost) {}

IpcPort& IpcChannel::add_rank(int rank) {
  auto [it, inserted] =
      ports_.emplace(rank, std::unique_ptr<IpcPort>{});
  if (inserted) it->second = std::make_unique<IpcPort>(engine_, *this, rank);
  return *it->second;
}

IpcPort& IpcChannel::port(int rank) {
  const auto it = ports_.find(rank);
  if (it == ports_.end()) {
    throw std::out_of_range("IpcChannel::port: rank " + std::to_string(rank) +
                            " is not on this node");
  }
  return *it->second;
}

double IpcChannel::copy_bw(const void* src, const void* dst,
                           std::size_t bytes) const {
  const bool src_dev = registry_.is_device_pointer(src);
  const bool dst_dev = registry_.is_device_pointer(dst);
  if (src_dev && dst_dev) return cost_.peer_d2d_bw;
  if (src_dev || dst_dev) return cost_.pcie_bw;
  return bytes >= cost_.shm_cma_threshold ? cost_.cma_host_bw
                                          : cost_.shm_host_bw;
}

}  // namespace mv2gnc::netsim
