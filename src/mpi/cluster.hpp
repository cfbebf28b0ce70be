// Cluster: the simulated testbed — N nodes, each with one CPU process,
// one GPU and one HCA, mirroring the paper's "one process per node, one
// GPU per process" experimental setup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "core/rndv.hpp"
#include "core/sched.hpp"
#include "core/transport.hpp"
#include "core/tunables.hpp"
#include "cuda/runtime.hpp"
#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/memory_registry.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "net/ipc.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace mv2gnc::mpisim {

namespace detail {
struct CollCostHints;
struct CollStats;
}  // namespace detail

struct ClusterConfig {
  int ranks = 2;
  gpu::GpuCostModel gpu_cost = gpu::GpuCostModel::tesla_c2050();
  netsim::NetCostModel net_cost = netsim::NetCostModel::qdr_ib();
  /// Switch topology of the fabric. The default crossbar has no shared
  /// links and is byte-identical with builds that predate the topology
  /// model; fat_tree() adds leaf/spine link contention (bench_scaleout).
  netsim::FabricTopology topology;
  core::Tunables tunables;
  /// Device DRAM per GPU (the paper's C2050 has 3 GB).
  std::size_t device_memory_bytes = 3ull << 30;
  bool trace_enabled = false;
  /// Fault-injection model copied into the fabric (benign by default).
  netsim::FaultModel faults;
  /// Fault-injection model copied into every node-local IPC channel
  /// (benign by default). Lets a chaos run make the in-node path lossy
  /// independently of — or together with — the fabric.
  netsim::FaultModel ipc_faults;
  /// Crash-stop injection: each (rank, time) entry makes that rank vanish
  /// at the given virtual time — it stops making progress mid-transfer,
  /// sends nothing further (not even an abort), and is not drained at
  /// finalize. Surviving ranks must resolve via their own retry budgets
  /// and the collective abort protocol (docs/RELIABILITY.md).
  std::vector<std::pair<int, sim::SimTime>> crash_at;
  /// Seed of the engine's deterministic RNG (fault rolls, jitter draws).
  /// Same seed + same workload = same schedule, faults included.
  std::uint64_t rng_seed = 1;
};

/// Per-rank view handed to the application body.
struct Context {
  int rank = -1;
  int size = 0;
  Communicator comm;
  cusim::CudaContext* cuda = nullptr;
  sim::Engine* engine = nullptr;
  sim::TraceRecorder* trace = nullptr;
  const core::Tunables* tunables = nullptr;

  /// Virtual seconds since simulation start.
  double wtime() const { return sim::to_sec(engine->now()); }
  /// Virtual time now (nanoseconds).
  sim::SimTime now() const { return engine->now(); }
};

/// Aggregate per-rank utilisation counters (observability; see
/// Cluster::print_stats).
struct RankStats {
  std::uint64_t messages_sent = 0;   // two-sided control/eager messages
  std::uint64_t rdma_writes = 0;
  std::uint64_t bytes_sent = 0;      // payload bytes leaving the NIC
  sim::SimTime nic_busy = 0;         // transmit-pipeline busy time
  std::size_t vbuf_high_water = 0;   // peak staging buffers in use
  sim::SimTime d2h_busy = 0;         // per-engine busy time
  sim::SimTime h2d_busy = 0;
  sim::SimTime d2d_busy = 0;
  sim::SimTime kernel_busy = 0;

  // -- reliability (all zero on a fault-free fabric) ---------------------
  std::uint64_t retransmits = 0;       // control/chunk resends, all kinds
  std::uint64_t timeouts = 0;          // retransmission deadline expiries
  std::uint64_t stall_fallbacks = 0;   // vbuf-starvation watchdog firings
  std::uint64_t transfer_failures = 0; // transfers failed after max retries
  std::uint64_t faults_injected = 0;   // drops/jitters/write-fails at the NIC

  // -- intra-node IPC transport (all zero unless the topology co-locates
  //    this rank with a peer and transport_select is kAuto) ---------------
  std::uint64_t ipc_messages_sent = 0;  // control messages over the channel
  std::uint64_t ipc_copies = 0;         // one-sided peer copies (writes)
  std::uint64_t ipc_bytes_sent = 0;     // bytes moved without touching the HCA
  sim::SimTime ipc_busy = 0;            // channel transmit-pipeline busy time
  std::uint64_t ipc_faults_injected = 0;  // drops/jitters/fails at the channel

  // -- concurrency scheduler (see core::SchedStats for field docs) -------
  core::SchedStats sched;
};

/// Owns the engine, devices, fabric and per-rank MPI state; runs an SPMD
/// body across all ranks on the virtual clock.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Run `body` once per rank (like mpirun). Blocks until every rank
  /// returns; rethrows the first exception a rank throws. One-shot.
  void run(std::function<void(Context&)> body);

  sim::Engine& engine() { return engine_; }
  sim::TraceRecorder& trace() { return trace_; }
  const ClusterConfig& config() const { return config_; }
  gpu::Device& device(int rank);
  netsim::Endpoint& endpoint(int rank);
  /// Node a rank lives on (blocked placement: rank / ranks_per_node).
  int node_of(int rank) const;
  /// The rank's per-peer wire-path router (fabric + optional IPC).
  core::TransportRouter& router(int rank);
  /// Live fault model of the fabric (mutable between runs of one Cluster).
  netsim::FaultModel& faults();
  /// Per-shared-link counters of the fabric (empty on the crossbar): the
  /// same snapshot print_stats renders as the busiest-links table, exposed
  /// raw so tests and benches can assert on routing spread and ECN marks.
  std::vector<netsim::LinkStats> link_stats() const;
  /// The node-local IPC channel serving a rank, or nullptr when the
  /// topology gives it none. Exposes the channel's live FaultModel and
  /// per-port FaultCounters to chaos harnesses.
  netsim::IpcChannel* ipc_channel(int rank);
  /// Injected-fault counters of one rank, split by wire path.
  struct FaultStats {
    netsim::FaultCounters fabric;  // this rank's HCA (Endpoint)
    netsim::FaultCounters ipc;     // this rank's IPC port (if any)
  };
  FaultStats fault_stats(int rank);
  /// Detailed per-rank reliability counters (valid after run()).
  const core::RetryStats& retry_stats(int rank) const;
  /// Rendezvous receivers a rank still tracks (valid after run()). Zero
  /// once every transfer has been garbage-collected down to its
  /// finished-transfer record.
  std::size_t tracked_rendezvous(int rank) const;
  /// Concurrency-scheduler counters of one rank (valid after run()).
  const core::SchedStats& sched_stats(int rank) const;
  /// Trigger-graph counters of one rank (valid after run();
  /// docs/STREAMS.md).
  const core::TriggerStats& trigger_stats(int rank) const;
  /// Per-collective counters of one rank (calls, two-level calls, bytes,
  /// intra/leader phases; valid after run()).
  const detail::CollStats& coll_stats(int rank) const;
  /// Cost facts the rank's coll_select = auto consults (derived from the
  /// fabric and IPC cost models at construction).
  const detail::CollCostHints& coll_cost_hints(int rank) const;
  /// VbufPool::audit() of one rank: "" when the pool accounting is
  /// consistent, else a description of the first violation.
  std::string vbuf_audit(int rank) const;
  /// Staging buffers currently checked out of one rank's pool.
  std::size_t vbufs_in_use(int rank) const;
  /// Pool slots parked by failed/finished transfers, freed only at
  /// teardown; they account exactly for any non-zero vbufs_in_use after a
  /// quiesce (pinned one-off parks are excluded).
  std::size_t graveyard_slots(int rank) const;
  /// One rank's staging pool: vbufs, idle oversized spares and their
  /// allocation/reuse counters.
  const core::VbufPool& vbufs(int rank) const;

  /// Virtual time at which the last run() finished.
  sim::SimTime elapsed() const { return engine_.now(); }

  /// Utilisation counters for one rank (valid after run()).
  RankStats rank_stats(int rank);
  /// Counters of the process-wide datatype pack-plan cache.
  static core::PlanCacheStats plan_cache_stats();
  /// Render a per-rank utilisation table.
  void print_stats(std::ostream& os);

 private:
  ClusterConfig config_;
  sim::Engine engine_;
  sim::TraceRecorder trace_;
  gpu::MemoryRegistry registry_;
  std::unique_ptr<netsim::Fabric> fabric_;
  // One IPC channel per node that hosts >= 2 ranks (empty in the default
  // one-process-per-node topology), plus each rank's transport bindings.
  std::vector<std::unique_ptr<netsim::IpcChannel>> ipc_channels_;
  std::vector<std::unique_ptr<core::FabricTransport>> fabric_transports_;
  std::vector<std::unique_ptr<core::IpcTransport>> ipc_transports_;
  std::vector<std::unique_ptr<core::TransportRouter>> routers_;
  std::vector<std::unique_ptr<gpu::Device>> devices_;
  std::vector<std::unique_ptr<cusim::CudaContext>> cuda_;
  std::vector<std::unique_ptr<detail::RankComm>> comms_;
  bool ran_ = false;
};

}  // namespace mv2gnc::mpisim
