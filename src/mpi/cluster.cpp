#include "mpi/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>

#include "mpi/coll.hpp"
#include "mpi/rank_comm.hpp"

namespace mv2gnc::mpisim {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  if (config_.ranks <= 0) {
    throw std::invalid_argument("Cluster: ranks must be positive");
  }
  config_.tunables.validate();
  trace_.set_enabled(config_.trace_enabled);
  engine_.seed_rng(config_.rng_seed);
  // The routing tunable rides on the topology description. Only a
  // non-default value is copied over, so a route set directly on
  // config_.topology stays authoritative (and the byte-identical default
  // path never rewrites anything).
  if (config_.tunables.route_select != core::RouteSelect::kDmodK) {
    config_.topology.route =
        config_.tunables.route_select == core::RouteSelect::kHash
            ? netsim::RouteSelect::kHash
            : netsim::RouteSelect::kAdaptive;
  }
  fabric_ = std::make_unique<netsim::Fabric>(engine_, config_.ranks,
                                             config_.net_cost,
                                             config_.topology);
  fabric_->faults() = config_.faults;
  fabric_->set_ecn_threshold(config_.tunables.ecn_backlog_ns);
  // RC-transport acknowledgement of the RTS: the receiving NIC confirms
  // delivery even while the receiving process is busy computing, so the
  // sender can tell "RTS lost, retransmit" from "receive not yet posted,
  // keep waiting" (echoes the sender request id from RTS header[2]).
  fabric_->enable_delivery_receipt(
      {core::kRts, core::kRtsAck, /*echo_header=*/2});
  for (int r = 0; r < config_.ranks; ++r) {
    devices_.push_back(std::make_unique<gpu::Device>(
        engine_, registry_, r, config_.gpu_cost,
        config_.device_memory_bytes));
    cuda_.push_back(std::make_unique<cusim::CudaContext>(*devices_.back()));
  }
  // Transport bindings: every rank reaches remote peers through its fabric
  // endpoint; the router in front of it decides per peer. Co-located ranks
  // (ranks_per_node > 1, blocked placement) additionally share a node-local
  // IPC channel and route each other — and themselves — over it.
  for (int r = 0; r < config_.ranks; ++r) {
    fabric_transports_.push_back(
        std::make_unique<core::FabricTransport>(fabric_->endpoint(r)));
    routers_.push_back(
        std::make_unique<core::TransportRouter>(*fabric_transports_.back()));
    routers_.back()->set_failover(
        config_.tunables.transport_failover_threshold,
        config_.tunables.transport_restore_threshold);
  }
  const int rpn = static_cast<int>(config_.tunables.ranks_per_node);
  if (rpn > 1 &&
      config_.tunables.transport_select == core::TransportSelect::kAuto) {
    for (int first = 0; first < config_.ranks; first += rpn) {
      const int last = std::min(config_.ranks, first + rpn);
      if (last - first < 2) continue;  // a lone rank needs no channel
      auto channel = std::make_unique<netsim::IpcChannel>(
          engine_, registry_,
          netsim::IpcCostModel::from_gpu(config_.gpu_cost));
      // Same RTS delivery receipt the fabric arms: even on a fault-free
      // channel, a sender whose receiver has not posted yet still needs
      // the "handshake alive" signal to keep its retry budget fresh — and
      // with ipc_faults armed the channel is no longer lossless at all.
      channel->enable_delivery_receipt(core::kRts, core::kRtsAck,
                                       /*echo_header=*/2);
      channel->faults() = config_.ipc_faults;
      for (int r = first; r < last; ++r) channel->add_rank(r);
      for (int r = first; r < last; ++r) {
        ipc_transports_.push_back(
            std::make_unique<core::IpcTransport>(channel->port(r)));
        for (int peer = first; peer < last; ++peer) {
          routers_[static_cast<std::size_t>(r)]->add_route(
              peer, *ipc_transports_.back());
        }
      }
      ipc_channels_.push_back(std::move(channel));
    }
  }
  // RankComms after devices: they create CUDA streams on construction.
  for (int r = 0; r < config_.ranks; ++r) {
    comms_.push_back(std::make_unique<detail::RankComm>(
        r, config_.ranks, engine_, *cuda_[static_cast<std::size_t>(r)],
        *routers_[static_cast<std::size_t>(r)], registry_, config_.tunables,
        &trace_));
  }
  for (const auto& [rank, when] : config_.crash_at) {
    if (rank < 0 || rank >= config_.ranks) {
      throw std::invalid_argument("Cluster: crash_at names a bad rank");
    }
    if (when < 0) {
      throw std::invalid_argument("Cluster: crash_at time must be >= 0");
    }
    comms_[static_cast<std::size_t>(rank)]->set_crash_time(when);
  }
  // Feed each rank's collectives engine the cost facts coll_select = auto
  // weighs: the fabric's wire parameters against the node-local channel's
  // (mirroring how the pack scheme is picked from the GPU cost model).
  {
    const netsim::IpcCostModel ipc =
        netsim::IpcCostModel::from_gpu(config_.gpu_cost);
    detail::CollCostHints hints;
    hints.fabric_bw = config_.net_cost.bw;
    hints.fabric_latency_ns = config_.net_cost.latency_ns;
    hints.ipc_shm_bw = ipc.shm_host_bw;
    hints.ipc_cma_bw = ipc.cma_host_bw;
    hints.ipc_cma_threshold = ipc.shm_cma_threshold;
    hints.ipc_latency_ns = ipc.latency_ns;
    hints.d2h_bw = config_.gpu_cost.d2h_bw;
    hints.h2d_bw = config_.gpu_cost.h2d_bw;
    hints.reduce_bw = config_.gpu_cost.reduce_bw;
    hints.ipc_peer_bw = config_.gpu_cost.peer_d2d_bw;
    hints.copy_launch_ns = config_.gpu_cost.copy_launch_ns;
    hints.kernel_launch_ns = config_.gpu_cost.kernel_launch_ns;
    for (auto& comm : comms_) comm->coll().set_cost_hints(hints);
  }
}

netsim::FaultModel& Cluster::faults() { return fabric_->faults(); }

std::vector<netsim::LinkStats> Cluster::link_stats() const {
  return fabric_->link_stats();
}

netsim::IpcChannel* Cluster::ipc_channel(int rank) {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("ipc_channel: bad rank");
  }
  for (auto& ch : ipc_channels_) {
    if (ch->has_rank(rank)) return ch.get();
  }
  return nullptr;
}

Cluster::FaultStats Cluster::fault_stats(int rank) {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("fault_stats: bad rank");
  }
  FaultStats f;
  f.fabric = fabric_->endpoint(rank).fault_counters();
  if (netsim::IpcChannel* ch = ipc_channel(rank)) {
    f.ipc = ch->port(rank).fault_counters();
  }
  return f;
}

const core::RetryStats& Cluster::retry_stats(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("retry_stats: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->retry_stats();
}

std::size_t Cluster::tracked_rendezvous(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("tracked_rendezvous: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->tracked_rendezvous();
}

const core::TriggerStats& Cluster::trigger_stats(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("trigger_stats: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->trigger_stats();
}

const core::SchedStats& Cluster::sched_stats(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("sched_stats: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->sched_stats();
}

const detail::CollStats& Cluster::coll_stats(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("coll_stats: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->coll().stats();
}

const detail::CollCostHints& Cluster::coll_cost_hints(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("coll_cost_hints: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->coll().cost_hints();
}

std::string Cluster::vbuf_audit(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("vbuf_audit: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->vbufs().audit();
}

std::size_t Cluster::vbufs_in_use(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("vbufs_in_use: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->vbufs().in_use();
}

std::size_t Cluster::graveyard_slots(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("graveyard_slots: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->graveyard_slots();
}

const core::VbufPool& Cluster::vbufs(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("vbufs: bad rank");
  }
  return comms_[static_cast<std::size_t>(rank)]->vbufs();
}

Cluster::~Cluster() = default;

gpu::Device& Cluster::device(int rank) {
  return *devices_.at(static_cast<std::size_t>(rank));
}

netsim::Endpoint& Cluster::endpoint(int rank) {
  return fabric_->endpoint(rank);
}

int Cluster::node_of(int rank) const {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("node_of: bad rank");
  }
  return rank / static_cast<int>(config_.tunables.ranks_per_node);
}

core::TransportRouter& Cluster::router(int rank) {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("router: bad rank");
  }
  return *routers_[static_cast<std::size_t>(rank)];
}

RankStats Cluster::rank_stats(int rank) {
  if (rank < 0 || rank >= config_.ranks) {
    throw std::out_of_range("rank_stats: bad rank");
  }
  RankStats s;
  const netsim::Endpoint& ep = fabric_->endpoint(rank);
  s.messages_sent = ep.messages_sent();
  s.rdma_writes = ep.rdma_writes();
  s.bytes_sent = ep.bytes_sent();
  s.nic_busy = ep.tx_busy_time();
  s.vbuf_high_water =
      comms_[static_cast<std::size_t>(rank)]->vbufs().high_water();
  gpu::Device& dev = *devices_[static_cast<std::size_t>(rank)];
  s.d2h_busy = dev.d2h_engine().total_busy_time();
  s.h2d_busy = dev.h2d_engine().total_busy_time();
  s.d2d_busy = dev.d2d_engine().total_busy_time();
  s.kernel_busy = dev.kernel_engine().total_busy_time();
  const core::RetryStats& retries =
      comms_[static_cast<std::size_t>(rank)]->retry_stats();
  s.retransmits = retries.total_retransmits();
  s.timeouts = retries.timeouts;
  s.stall_fallbacks = retries.stall_fallbacks;
  s.transfer_failures = retries.transfer_failures;
  s.faults_injected = ep.fault_counters().total();
  s.ipc_faults_injected = fault_stats(rank).ipc.total();
  // Everything past the router's first transport (the fabric) is an
  // in-node channel; fold its counters into the IPC aggregate.
  const auto& transports = routers_[static_cast<std::size_t>(rank)]->transports();
  for (std::size_t i = 1; i < transports.size(); ++i) {
    const core::TransportStats ts = transports[i]->stats();
    s.ipc_messages_sent += ts.messages_sent;
    s.ipc_copies += ts.rdma_writes;
    s.ipc_bytes_sent += ts.bytes_sent;
    s.ipc_busy += ts.busy_time;
  }
  s.sched = comms_[static_cast<std::size_t>(rank)]->sched_stats();
  return s;
}

void Cluster::print_stats(std::ostream& os) {
  os << "\n== cluster utilisation (elapsed " << sim::format_time(elapsed())
     << ") ==\n"
     << "rank   msgs    rdma   MB-sent  nic-busy    d2h-busy    h2d-busy    "
        "d2d-busy    kern-busy  vbuf-hw\n";
  for (int r = 0; r < config_.ranks; ++r) {
    const RankStats s = rank_stats(r);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%4d %6llu %7llu %9.2f %9.2fms %10.2fms %10.2fms %10.2fms "
                  "%11.2fms %8zu\n",
                  r, static_cast<unsigned long long>(s.messages_sent),
                  static_cast<unsigned long long>(s.rdma_writes),
                  static_cast<double>(s.bytes_sent) / 1e6,
                  sim::to_ms(s.nic_busy), sim::to_ms(s.d2h_busy),
                  sim::to_ms(s.h2d_busy), sim::to_ms(s.d2d_busy),
                  sim::to_ms(s.kernel_busy), s.vbuf_high_water);
    os << line;
  }
  // Inter-switch link occupancy. Only the fat-tree topology has shared
  // links, so every crossbar run (the default) prints exactly as before.
  const std::vector<netsim::LinkStats> links = fabric_->link_stats();
  if (!links.empty()) {
    const netsim::FabricTopology& topo = fabric_->topology();
    const bool dragonfly =
        topo.kind == netsim::FabricTopology::Kind::kDragonfly;
    const char* route_name =
        topo.route == netsim::RouteSelect::kHash       ? "hash"
        : topo.route == netsim::RouteSelect::kAdaptive ? "adaptive"
                                                       : "dmodk";
    // New congestion columns only render when their feature is on, so the
    // default fat-tree output (pinned by the bench baselines) is unchanged.
    const bool show_route =
        dragonfly || topo.route != netsim::RouteSelect::kDmodK;
    const bool show_ecn = fabric_->ecn_threshold() > 0;
    char head[160];
    if (dragonfly) {
      std::snprintf(head, sizeof(head),
                    "fabric links (dragonfly: %d ranks/group, route %s)\n",
                    topo.leaf_ports, route_name);
    } else if (show_route) {
      std::snprintf(head, sizeof(head),
                    "fabric links (fat-tree: %d ports/leaf, %d uplinks/leaf, "
                    "oversubscription %.1f:1, route %s)\n",
                    topo.leaf_ports, topo.uplinks(), topo.oversubscription,
                    route_name);
    } else {
      std::snprintf(head, sizeof(head),
                    "fabric links (fat-tree: %d ports/leaf, %d uplinks/leaf, "
                    "oversubscription %.1f:1)\n",
                    topo.leaf_ports, topo.uplinks(), topo.oversubscription);
    }
    os << head;
    std::vector<const netsim::LinkStats*> active;
    for (const netsim::LinkStats& l : links) {
      if (l.ops > 0) active.push_back(&l);
    }
    std::sort(active.begin(), active.end(),
              [](const netsim::LinkStats* a, const netsim::LinkStats* b) {
                if (a->busy_total != b->busy_total) {
                  return a->busy_total > b->busy_total;
                }
                if (a->up != b->up) return a->up;
                if (a->leaf != b->leaf) return a->leaf < b->leaf;
                return a->index < b->index;
              });
    os << "link              ops  contended   MB-crossed      busy  "
          "wait-total  peak-backlog";
    if (show_ecn) os << "  ecn-marks";
    os << "\n";
    constexpr std::size_t kMaxLinkRows = 16;  // busiest first; rest summed
    netsim::LinkStats tot;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const netsim::LinkStats& l = *active[i];
      tot.ops += l.ops;
      tot.contended_ops += l.contended_ops;
      tot.bytes += l.bytes;
      tot.busy_total += l.busy_total;
      tot.wait_total += l.wait_total;
      tot.ecn_marks += l.ecn_marks;
      if (l.peak_backlog > tot.peak_backlog) tot.peak_backlog = l.peak_backlog;
      if (i >= kMaxLinkRows) continue;
      char label[24];
      if (dragonfly) {
        std::snprintf(label, sizeof(label), "grp%03d->grp%03d", l.leaf,
                      l.index);
      } else {
        std::snprintf(label, sizeof(label), "leaf%03d.%s%-3d", l.leaf,
                      l.up ? "up" : "dn", l.index);
      }
      char line[200];
      std::snprintf(line, sizeof(line),
                    "%s %8llu %10llu %12.2f %7.2fms %8.2fms "
                    "%11.2fms",
                    label, static_cast<unsigned long long>(l.ops),
                    static_cast<unsigned long long>(l.contended_ops),
                    static_cast<double>(l.bytes) / 1e6,
                    sim::to_ms(l.busy_total), sim::to_ms(l.wait_total),
                    sim::to_ms(l.peak_backlog));
      os << line;
      if (show_ecn) {
        char e[32];
        std::snprintf(e, sizeof(e), " %9llu",
                      static_cast<unsigned long long>(l.ecn_marks));
        os << e;
      }
      os << "\n";
    }
    char totline[200];
    std::snprintf(totline, sizeof(totline),
                  "all %zu links     %8llu %10llu %12.2f %7.2fms %8.2fms "
                  "%11.2fms",
                  active.size(), static_cast<unsigned long long>(tot.ops),
                  static_cast<unsigned long long>(tot.contended_ops),
                  static_cast<double>(tot.bytes) / 1e6,
                  sim::to_ms(tot.busy_total), sim::to_ms(tot.wait_total),
                  sim::to_ms(tot.peak_backlog));
    os << totline;
    if (show_ecn) {
      char e[32];
      std::snprintf(e, sizeof(e), " %9llu",
                    static_cast<unsigned long long>(tot.ecn_marks));
      os << e;
    }
    os << "\n";
  }
  // Per-transport traffic split, shown only when some rank actually has
  // more than one wire path (so the default topology's output is unchanged).
  bool any_ipc = false;
  for (int r = 0; r < config_.ranks; ++r) {
    if (routers_[static_cast<std::size_t>(r)]->transports().size() > 1) {
      any_ipc = true;
      break;
    }
  }
  if (any_ipc) {
    os << "rank  transport    msgs   copies   MB-moved      busy\n";
    for (int r = 0; r < config_.ranks; ++r) {
      for (const core::Transport* t :
           routers_[static_cast<std::size_t>(r)]->transports()) {
        const core::TransportStats ts = t->stats();
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%4d  %-9s %7llu %8llu %10.2f %7.2fms\n", r, t->name(),
                      static_cast<unsigned long long>(ts.messages_sent),
                      static_cast<unsigned long long>(ts.rdma_writes),
                      static_cast<double>(ts.bytes_sent) / 1e6,
                      sim::to_ms(ts.busy_time));
        os << line;
      }
    }
  }
  // Collective-operation census, aggregated over ranks: shown next to the
  // per-transport split (same gate), since it explains where the IPC-side
  // traffic above comes from.
  if (any_ipc) {
    detail::CollStats agg;
    auto add = [](detail::CollOpStats& a, const detail::CollOpStats& b) {
      a.calls += b.calls;
      a.hier_calls += b.hier_calls;
      a.bytes_sent += b.bytes_sent;
      a.intra_phases += b.intra_phases;
      a.leader_phases += b.leader_phases;
    };
    for (int r = 0; r < config_.ranks; ++r) {
      const detail::CollStats& cs = coll_stats(r);
      add(agg.barrier, cs.barrier);
      add(agg.bcast, cs.bcast);
      add(agg.allreduce, cs.allreduce);
      add(agg.allgather, cs.allgather);
      add(agg.alltoall, cs.alltoall);
      add(agg.gather, cs.gather);
      add(agg.scatter, cs.scatter);
    }
    if (agg.total_calls() > 0) {
      os << "collective   calls    hier   MB-sent  intra-ph  leader-ph\n";
      const std::pair<const char*, const detail::CollOpStats*> rows[] = {
          {"barrier", &agg.barrier},     {"bcast", &agg.bcast},
          {"allreduce", &agg.allreduce}, {"allgather", &agg.allgather},
          {"alltoall", &agg.alltoall},   {"gather", &agg.gather},
          {"scatter", &agg.scatter},
      };
      for (const auto& [name, op] : rows) {
        if (op->calls == 0) continue;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-10s %7llu %7llu %9.2f %9llu %10llu\n", name,
                      static_cast<unsigned long long>(op->calls),
                      static_cast<unsigned long long>(op->hier_calls),
                      static_cast<double>(op->bytes_sent) / 1e6,
                      static_cast<unsigned long long>(op->intra_phases),
                      static_cast<unsigned long long>(op->leader_phases));
        os << line;
      }
    }
  }
  // Device-collective table: the device-buffer paths (coll_device tunable,
  // docs/COLLECTIVES.md) only differ from the host engine when the knob is
  // moved off its staged default, so the gate keeps default-mode output
  // byte-identical.
  if (config_.tunables.coll_device != core::CollDevice::kStaged) {
    detail::CollStats agg;
    auto add_dev = [](detail::CollOpStats& a, const detail::CollOpStats& b) {
      a.device_calls += b.device_calls;
      a.device_pipelined += b.device_pipelined;
      a.device_slices += b.device_slices;
      a.bytes_staged += b.bytes_staged;
      a.bytes_peer += b.bytes_peer;
      a.reduce_kernels += b.reduce_kernels;
      a.device_stage_ns += b.device_stage_ns;
      a.device_elapsed_ns += b.device_elapsed_ns;
    };
    for (int r = 0; r < config_.ranks; ++r) {
      const detail::CollStats& cs = coll_stats(r);
      add_dev(agg.bcast, cs.bcast);
      add_dev(agg.allreduce, cs.allreduce);
      add_dev(agg.allgather, cs.allgather);
      add_dev(agg.alltoall, cs.alltoall);
    }
    const detail::CollOpStats* devs[] = {&agg.bcast, &agg.allreduce,
                                         &agg.allgather, &agg.alltoall};
    bool any_device = false;
    for (const detail::CollOpStats* op : devs) {
      if (op->device_calls > 0) any_device = true;
    }
    if (any_device) {
      os << "device-coll  calls  pipelined  slices  MB-staged  MB-peer  "
            "reduce-k  overlap\n";
      const std::pair<const char*, const detail::CollOpStats*> rows[] = {
          {"bcast", &agg.bcast},
          {"allreduce", &agg.allreduce},
          {"allgather", &agg.allgather},
          {"alltoall", &agg.alltoall},
      };
      for (const auto& [name, op] : rows) {
        if (op->device_calls == 0) continue;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-10s %7llu %8llu %9llu %10.2f %8.2f %9llu %8.2f\n",
                      name,
                      static_cast<unsigned long long>(op->device_calls),
                      static_cast<unsigned long long>(op->device_pipelined),
                      static_cast<unsigned long long>(op->device_slices),
                      static_cast<double>(op->bytes_staged) / 1e6,
                      static_cast<double>(op->bytes_peer) / 1e6,
                      static_cast<unsigned long long>(op->reduce_kernels),
                      op->overlap_ratio());
        os << line;
      }
    }
  }
  bool any_faults = false;
  for (int r = 0; r < config_.ranks; ++r) {
    const RankStats s = rank_stats(r);
    if (s.faults_injected + s.retransmits + s.timeouts + s.stall_fallbacks +
            s.transfer_failures >
        0) {
      any_faults = true;
      break;
    }
  }
  if (any_faults) {
    os << "rank  faults    retx  timeouts  stalls  failures\n";
    for (int r = 0; r < config_.ranks; ++r) {
      const RankStats s = rank_stats(r);
      char line[160];
      std::snprintf(line, sizeof(line), "%4d %7llu %7llu %9llu %7llu %9llu\n",
                    r, static_cast<unsigned long long>(s.faults_injected),
                    static_cast<unsigned long long>(s.retransmits),
                    static_cast<unsigned long long>(s.timeouts),
                    static_cast<unsigned long long>(s.stall_fallbacks),
                    static_cast<unsigned long long>(s.transfer_failures));
      os << line;
    }
  }
  // IPC fault + transport failover table: shown only when the in-node
  // channel actually injected faults or the router's health tracker acted,
  // so every fault-free (and failover-disabled) run prints exactly as
  // before.
  bool any_ipc_faults = false;
  for (int r = 0; r < config_.ranks; ++r) {
    const auto& health = routers_[static_cast<std::size_t>(r)]->peer_health();
    std::uint64_t actions = 0;
    for (const auto& [peer, h] : health) {
      actions += h.demotions + h.restores + (h.demoted ? 1 : 0);
    }
    if (fault_stats(r).ipc.total() + actions > 0) {
      any_ipc_faults = true;
      break;
    }
  }
  if (any_ipc_faults) {
    os << "rank  ipc-faults  demotions  restores  demoted-now\n";
    for (int r = 0; r < config_.ranks; ++r) {
      std::uint64_t demotions = 0;
      std::uint64_t restores = 0;
      std::uint64_t demoted_now = 0;
      const auto& health =
          routers_[static_cast<std::size_t>(r)]->peer_health();
      for (const auto& [peer, h] : health) {
        demotions += h.demotions;
        restores += h.restores;
        if (h.demoted) ++demoted_now;
      }
      char line[160];
      std::snprintf(line, sizeof(line), "%4d %11llu %10llu %9llu %12llu\n",
                    r,
                    static_cast<unsigned long long>(fault_stats(r).ipc.total()),
                    static_cast<unsigned long long>(demotions),
                    static_cast<unsigned long long>(restores),
                    static_cast<unsigned long long>(demoted_now));
      os << line;
    }
  }
  bool any_sched = false;
  for (int r = 0; r < config_.ranks; ++r) {
    const core::SchedStats& ss = sched_stats(r);
    if (ss.grants_reserve + ss.grants_overflow + ss.denials +
            ss.acks_individual + ss.acks_coalesced + ss.ecn_marks >
        0) {
      any_sched = true;
      break;
    }
  }
  if (any_sched) {
    // ECN columns render only when marking is armed, keeping every
    // ECN-off run (all the pinned baselines) byte-identical.
    const bool show_ecn = config_.tunables.ecn_backlog_ns > 0;
    os << "rank  act-hw  grants(res/ovf)  denials  q-waits  avg-qwait  "
          "depth(-/+)  ack-ind  ack-coal  batches  piggyb  coal%";
    if (show_ecn) os << "  ecn-marks  ecn-depth(-/+)";
    os << "\n";
    for (int r = 0; r < config_.ranks; ++r) {
      const core::SchedStats& ss = sched_stats(r);
      char line[256];
      std::snprintf(
          line, sizeof(line),
          "%4d %7zu %8llu/%-8llu %7llu %8llu %8.1fus %5llu/%-5llu %8llu "
          "%9llu %8llu %7llu %5.1f",
          r, ss.active_high_water,
          static_cast<unsigned long long>(ss.grants_reserve),
          static_cast<unsigned long long>(ss.grants_overflow),
          static_cast<unsigned long long>(ss.denials),
          static_cast<unsigned long long>(ss.queue_waits),
          static_cast<double>(ss.avg_queue_wait_ns()) / 1e3,
          static_cast<unsigned long long>(ss.depth_shrinks),
          static_cast<unsigned long long>(ss.depth_grows),
          static_cast<unsigned long long>(ss.acks_individual),
          static_cast<unsigned long long>(ss.acks_coalesced),
          static_cast<unsigned long long>(ss.ack_batches),
          static_cast<unsigned long long>(ss.ack_piggybacks),
          100.0 * ss.coalesce_ratio());
      os << line;
      if (show_ecn) {
        char e[48];
        std::snprintf(e, sizeof(e), " %9llu %9llu/%-5llu",
                      static_cast<unsigned long long>(ss.ecn_marks),
                      static_cast<unsigned long long>(ss.depth_shrinks_ecn),
                      static_cast<unsigned long long>(ss.depth_grows_ecn));
        os << e;
      }
      os << "\n";
    }
    // Outgoing control-message census by wire kind.
    os << "rank   rts    cts    fin    ack   ackb  sdone  other  "
          "ctrl-total\n";
    for (int r = 0; r < config_.ranks; ++r) {
      const core::SchedStats& ss = sched_stats(r);
      const std::uint64_t named =
          ss.ctrl_by_kind[core::kRts] + ss.ctrl_by_kind[core::kCts] +
          ss.ctrl_by_kind[core::kChunkFin] + ss.ctrl_by_kind[core::kChunkAck] +
          ss.ctrl_by_kind[core::kChunkAckBatch] +
          ss.ctrl_by_kind[core::kSendDone];
      char line[224];
      std::snprintf(
          line, sizeof(line),
          "%4d %5llu %6llu %6llu %6llu %6llu %6llu %6llu %11llu\n", r,
          static_cast<unsigned long long>(ss.ctrl_by_kind[core::kRts]),
          static_cast<unsigned long long>(ss.ctrl_by_kind[core::kCts]),
          static_cast<unsigned long long>(ss.ctrl_by_kind[core::kChunkFin]),
          static_cast<unsigned long long>(ss.ctrl_by_kind[core::kChunkAck]),
          static_cast<unsigned long long>(
              ss.ctrl_by_kind[core::kChunkAckBatch]),
          static_cast<unsigned long long>(ss.ctrl_by_kind[core::kSendDone]),
          static_cast<unsigned long long>(ss.ctrl_total() - named),
          static_cast<unsigned long long>(ss.ctrl_total()));
      os << line;
    }
  }
  const core::PlanCacheStats pc = plan_cache_stats();
  if (pc.lookups() > 0) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "pack-plan cache (process-wide): %llu lookups, %.1f%% hits "
                  "(%llu built, %llu deduped, %llu evicted)\n",
                  static_cast<unsigned long long>(pc.lookups()),
                  100.0 * pc.hit_rate(),
                  static_cast<unsigned long long>(pc.misses),
                  static_cast<unsigned long long>(pc.signature_dedups),
                  static_cast<unsigned long long>(pc.evictions));
    os << line;
  }
}

core::PlanCacheStats Cluster::plan_cache_stats() {
  return core::PlanCache::instance().stats();
}

void Cluster::run(std::function<void(Context&)> body) {
  if (ran_) {
    throw std::logic_error(
        "Cluster::run is one-shot; construct a fresh Cluster per run");
  }
  ran_ = true;
  auto contexts = std::make_shared<std::vector<Context>>();
  contexts->resize(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    Context& ctx = (*contexts)[static_cast<std::size_t>(r)];
    ctx.rank = r;
    ctx.size = config_.ranks;
    ctx.comm = Communicator(comms_[static_cast<std::size_t>(r)].get());
    ctx.cuda = cuda_[static_cast<std::size_t>(r)].get();
    ctx.engine = &engine_;
    ctx.trace = &trace_;
    ctx.tunables = &config_.tunables;
    detail::RankComm* comm = comms_[static_cast<std::size_t>(r)].get();
    engine_.spawn("rank" + std::to_string(r),
                  [this, &ctx, body, contexts, comm] {
      // Seeded startup skew: each rank enters the body at an independent
      // random offset in [0, rank_skew_ns], modelling the launch jitter of
      // a real job. Off (0) by default so fault-free runs are unchanged.
      const sim::SimTime skew = config_.tunables.rank_skew_ns;
      if (skew > 0) {
        engine_.delay(static_cast<sim::SimTime>(
            engine_.rand_below(static_cast<std::uint64_t>(skew) + 1)));
      }
      try {
        body(ctx);
        // MPI_Finalize analogue: the rank may still owe protocol work (a
        // draining receiver waiting on SEND_DONE, retransmissions,
        // coalesced acks). Keep servicing progress until it quiesces —
        // once this process exits, nobody pumps the recovery timers any
        // more.
        comm->drain_pending();
      } catch (const detail::RankCrashed&) {
        // Crash-stop injection (ClusterConfig::crash_at): the rank
        // vanishes silently — no drain, no error. Its peers resolve the
        // loss through retry budgets, force-drain watchdogs and the
        // collective abort protocol.
      }
    });
  }
  engine_.run();
}

}  // namespace mv2gnc::mpisim
