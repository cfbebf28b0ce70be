// Collectives engine: flat (single-level) and MVAPICH2-style two-level
// hierarchical algorithms over the transport seam.
//
// Flat algorithms treat the communicator as one ring/tree/butterfly:
// dissemination barrier, binomial bcast, recursive-doubling allreduce,
// ring allgather and pairwise-exchange alltoall. When the cluster topology
// co-locates ranks (ranks_per_node > 1, blocked placement), the two-level
// variants split every collective into intra-node phases — which the
// TransportRouter carries over the node's IPC channel — and an inter-node
// phase that is the only traffic crossing the fabric. On rectangular
// topologies the inter-node phase is striped: allreduce reduce-scatters in
// the node, butterflies each slice among counterpart members (all n HCAs
// in parallel, 1/n of the bytes each) and reassembles with an intra
// allgather; allgather runs n parallel member rings, each carrying its
// stripe of every node's superblock. Ragged groups fall back to
// leader-based variants. Selection is per call via the coll_select
// tunable; kAuto consults the topology and the cost hints the Cluster
// derives from its fabric and IPC models. See docs/COLLECTIVES.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cuda/runtime.hpp"
#include "mpi/rank_comm.hpp"
#include "sim/time.hpp"

namespace mv2gnc::mpisim::detail {

/// Counters of one collective operation, summed over every call this rank
/// took part in (surfaced by Cluster::print_stats).
struct CollOpStats {
  std::uint64_t calls = 0;          // invocations on this rank
  std::uint64_t hier_calls = 0;     // of which took the two-level path
  std::uint64_t bytes_sent = 0;     // payload bytes this rank isend()ed
  std::uint64_t intra_phases = 0;   // node-local phases this rank executed
  std::uint64_t leader_phases = 0;  // cluster-wide / leader phases executed

  // -- device-buffer path (coll_device, docs/COLLECTIVES.md) -------------
  std::uint64_t device_calls = 0;      // calls with device-resident buffers
  std::uint64_t device_pipelined = 0;  // of which took the sliced pipeline
  std::uint64_t device_slices = 0;     // pipeline slices this rank processed
  std::uint64_t bytes_staged = 0;      // device bytes staged across PCIe
  std::uint64_t bytes_peer = 0;        // device bytes over device-direct IPC
  std::uint64_t reduce_kernels = 0;    // device fold launches
  sim::SimTime device_stage_ns = 0;    // summed per-stage durations
  sim::SimTime device_elapsed_ns = 0;  // virtual time inside device calls

  /// 1 - elapsed/stages: the fraction of serialized stage time the sliced
  /// schedule hid behind other stages (0 for the synchronous staged path).
  double overlap_ratio() const {
    if (device_stage_ns <= 0 || device_elapsed_ns <= 0) return 0.0;
    const double r = 1.0 - static_cast<double>(device_elapsed_ns) /
                               static_cast<double>(device_stage_ns);
    return r > 0.0 ? r : 0.0;
  }
};

struct CollStats {
  CollOpStats barrier, bcast, allreduce, allgather, alltoall, gather, scatter;
  /// Host scratch arenas allocated (growth, or fresh after an abort) and
  /// parked by aborts (CollEngine::scratch); steady state allocates none.
  std::uint64_t scratch_allocs = 0, scratch_parked = 0;

  std::uint64_t total_calls() const {
    return barrier.calls + bcast.calls + allreduce.calls + allgather.calls +
           alltoall.calls + gather.calls + scatter.calls;
  }
};

/// Cost facts CollSelect::kAuto consults, derived by the Cluster from its
/// fabric and IPC cost models (mirroring how the pack scheme is picked
/// from the GPU cost model). Defaults match the stock QDR-IB + C2050
/// testbed so a bare RankComm still selects sensibly in unit tests.
struct CollCostHints {
  double fabric_bw = 3.2;                // GB/s across the HCA
  sim::SimTime fabric_latency_ns = 1500;
  double ipc_shm_bw = 4.8;               // in-node copy rate below threshold
  double ipc_cma_bw = 11.0;              // in-node CMA large-copy rate
  std::size_t ipc_cma_threshold = 64 * 1024;
  sim::SimTime ipc_latency_ns = 300;

  /// Host-copy rate of one in-node transfer, mirroring
  /// netsim::IpcChannel::copy_bw's shm-vs-CMA size split.
  double ipc_host_bw(std::size_t bytes) const {
    return bytes >= ipc_cma_threshold ? ipc_cma_bw : ipc_shm_bw;
  }

  // -- device-buffer extension (coll_device; defaults = Tesla C2050) -----
  double d2h_bw = 5.5;          // GB/s device-to-host across PCIe
  double h2d_bw = 5.7;          // GB/s host-to-device across PCIe
  double reduce_bw = 26.0;      // GB/s of the elementwise fold kernel
  double ipc_peer_bw = 6.0;     // GB/s of a device-direct IPC peer copy
  sim::SimTime copy_launch_ns = 4000;
  sim::SimTime kernel_launch_ns = 7000;

  /// The PCIe rate a staged leg is bound by (slices cross both ways).
  double pcie_bw() const { return d2h_bw < h2d_bw ? d2h_bw : h2d_bw; }
  /// Mirror of gpu::GpuCostModel::reduce_time for the selection sketches.
  sim::SimTime reduce_time(std::size_t bytes) const {
    return kernel_launch_ns +
           static_cast<sim::SimTime>(static_cast<double>(bytes) / reduce_bw);
  }
};

/// One rank's collective-algorithm engine; owned by its RankComm. All
/// communication goes through the owner's isend/irecv/wait, so eager vs
/// rendezvous protocol choice, reliability and transport routing apply to
/// collective traffic exactly as to point-to-point traffic.
///
/// Hang-free guarantee (docs/RELIABILITY.md, "Collective abort"): every
/// blocking wait inside a collective runs through coll_wait with a
/// liveness watchdog, and any failure — a p2p transfer exhausting its
/// retry budget, an incoming COLL_ABORT wave, or watchdog expiry — aborts
/// the whole operation: the rank broadcasts the wave to the group, parks
/// its scratch buffers (stale messages of the abandoned operation may
/// still deliver into them), poisons the communicator context (per-step
/// tags are reused across calls, so no later collective on it is safe)
/// and surfaces a clean RequestError. No surviving rank blocks forever.
class CollEngine {
 public:
  explicit CollEngine(RankComm& comm) : comm_(comm) {}
  CollEngine(const CollEngine&) = delete;
  CollEngine& operator=(const CollEngine&) = delete;

  void set_cost_hints(const CollCostHints& h) { hints_ = h; }
  const CollCostHints& cost_hints() const { return hints_; }
  const CollStats& stats() const { return stats_; }

  void barrier(const CommGroup& g);
  void bcast(void* buf, int count, const Datatype& dtype, int root,
             const CommGroup& g);
  void allreduce_doubles(const double* sendbuf, double* recvbuf, int count,
                         bool take_max, const CommGroup& g);
  void allgather(const void* sendbuf, int count, const Datatype& dtype,
                 void* recvbuf, const CommGroup& g);
  void alltoall(const void* sendbuf, void* recvbuf, int count,
                const Datatype& dtype, const CommGroup& g);
  void gather(const void* sendbuf, int count, const Datatype& dtype,
              void* recvbuf, int root, const CommGroup& g);
  void scatter(const void* sendbuf, void* recvbuf, int count,
               const Datatype& dtype, int root, const CommGroup& g);

 private:
  /// Node map of one communicator: nodes appear in order of first
  /// appearance by comm rank, members in ascending comm rank, the leader
  /// is the lowest comm rank on the node. Every member computes the same
  /// map, so phase schedules agree without negotiation.
  struct Topology {
    std::vector<int> node_of;               // comm rank -> dense node index
    std::vector<std::vector<int>> members;  // node index -> comm ranks
    std::vector<int> leaders;               // node index -> leading comm rank
    int my_node = 0;
    bool multi_rank_node = false;  // some node hosts >= 2 comm ranks

    int num_nodes() const { return static_cast<int>(members.size()); }
  };
  Topology map_nodes(const CommGroup& g) const;
  /// Rank-invariant flat-vs-two-level selection sketch. With `device` the
  /// sketch gains the PCIe staging and device-fold terms of the
  /// device-buffer path (intra legs priced at the peer-copy rate).
  bool use_hier(const Topology& t, std::size_t bytes,
                bool device = false) const;

  // Un-guarded algorithm bodies (one per public op).
  void barrier_impl(const CommGroup& g);
  void bcast_impl(void* buf, int count, const Datatype& dtype, int root,
                  const CommGroup& g);
  void allreduce_impl(const double* sendbuf, double* recvbuf, int count,
                      bool take_max, const CommGroup& g);
  void allgather_impl(const void* sendbuf, int count, const Datatype& dtype,
                      void* recvbuf, const CommGroup& g);
  void alltoall_impl(const void* sendbuf, void* recvbuf, int count,
                     const Datatype& dtype, const CommGroup& g);
  void gather_impl(const void* sendbuf, int count, const Datatype& dtype,
                   void* recvbuf, int root, const CommGroup& g);
  void scatter_impl(const void* sendbuf, void* recvbuf, int count,
                    const Datatype& dtype, int root, const CommGroup& g);

  // Wire bodies: the flat/two-level exchange of one collective operating on
  // buffers in place, shared by the host path (unchanged schedule) and the
  // device-buffer staged/pipelined paths.
  void allreduce_wire(CollOpStats& op, double* data, int count, bool take_max,
                      const CommGroup& g);
  void bcast_wire(CollOpStats& op, void* buf, int count, const Datatype& dtype,
                  int root, const CommGroup& g);
  void allgather_wire(CollOpStats& op, const void* sendbuf, int count,
                      const Datatype& dtype, void* recvbuf, const CommGroup& g);

  // -- device-buffer collectives (src/mpi/coll_device.cpp) ----------------
  /// True when `p` lies inside a registered device allocation.
  bool device_buffer(const void* p) const;
  /// Pure selection sketch behind coll_device = auto: does the sliced
  /// pipeline beat one synchronous full-size stage for `bytes` over `p`
  /// ranks? Rank-invariant (bytes, hints and tunables only).
  bool device_pipeline_wins(std::size_t bytes, int p) const;
  /// Slice size of the pipeline: the coll_slice_bytes knob, or the model
  /// pick minimizing (slices + 2) * max-stage-time; capped so the per-slice
  /// tag offsets stay inside one tag span.
  std::size_t pick_slice_bytes(std::size_t total, int p) const;
  /// Lazily create the collective-owned d2h / h2d / reduce streams.
  void ensure_coll_streams();
  /// Stream-ordered elementwise fold acc = acc (op) in over n doubles,
  /// charged as a device reduction kernel; blocks until the fold landed.
  void device_fold(CollOpStats& op, double* acc, const double* in, int n,
                   bool take_max);
  /// Abort-safe staging slot: pool-backed when it fits (pinned one-off
  /// otherwise), parked with the scratch list on abort.
  core::detail::StagingSlot* slot_scratch(std::size_t bytes);
  /// Abort-safe device scratch allocation of n doubles.
  double* device_scratch(std::size_t n);

  void device_allreduce(CollOpStats& op, const double* sendbuf,
                        double* recvbuf, int count, bool take_max,
                        const CommGroup& g);
  /// Sliced D2H / wire / fold / H2D pipeline over `ranks` for the device
  /// range [dev, dev+count); the heart of the pipelined allreduce (flat
  /// call: all ranks, full vector; two-level call: stripe group, own
  /// stripe).
  void device_sliced_allreduce(CollOpStats& op, const CommGroup& g,
                               const std::vector<int>& ranks, int me,
                               double* dev, int count, bool take_max);
  /// Wire leg of one host-resident slice, with per-slice tags and
  /// device-kernel folds. Recursive-halving reduce-scatter plus
  /// recursive-doubling allgather (the large-message shape: 2(1-1/p)
  /// wire bytes and (1-1/p) folded bytes per slice instead of recursive
  /// doubling's log2(p) of each); tiny slices fall back to the
  /// full-vector butterfly.
  void device_slice_wire(CollOpStats& op, const CommGroup& g,
                         const std::vector<int>& ranks, int me, double* data,
                         int count, bool take_max, int slice);
  void device_bcast(CollOpStats& op, void* buf, int count,
                    const Datatype& dtype, int root, const CommGroup& g);
  void device_allgather(CollOpStats& op, const void* sendbuf, int count,
                        const Datatype& dtype, void* recvbuf,
                        const CommGroup& g);

  /// Run one collective body under the abort protocol: registers the call
  /// with coll_begin (throws if the context is poisoned), converts any
  /// failure inside into an abort wave + clean RequestError, and releases
  /// (or parks) the scratch buffers.
  template <typename Fn>
  void run_guarded(const CommGroup& g, Fn&& body);
  /// Watchdogged wait used by every algorithm step (see coll_wait).
  void cwait(Request& r);
  /// Worst-case p2p retry budget (sender plus receiver watchdog backoff
  /// series) times coll_watchdog_factor: the deadline of one cwait.
  sim::SimTime watchdog_budget() const;
  void abort_collective(const CommGroup& g, std::uint64_t seq, int origin);

  /// Collective host scratch that survives an abort, bump-allocated from
  /// this rank's arena (a one-off buffer in scratch_ when it does not fit).
  /// See settle_scratch for its fate. Not zero-filled: callers write it
  /// before reading it. Stack temporaries must never back a posted receive
  /// in a collective.
  template <typename T>
  T* scratch(std::size_t n) {
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    const std::size_t bytes = (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
    scratch_need_ += bytes;
    if (arena_used_ + bytes <= arena_bytes_) {
      auto* p = static_cast<std::byte*>(arena_.get()) + arena_used_;
      arena_used_ += bytes;
      return reinterpret_cast<T*>(p);
    }
    std::shared_ptr<std::byte[]> one_off(new std::byte[bytes]);
    auto* p = reinterpret_cast<T*>(one_off.get());
    scratch_.push_back(std::move(one_off));
    return p;
  }
  /// End of a collective. Normal completion frees the one-offs and keeps
  /// the arena, grown once to the op's total need if it fell short; an
  /// abort parks both in the owning RankComm (stale messages may still
  /// deliver into them), so the next collective starts a fresh arena.
  void settle_scratch(bool aborted);

  // Primitives shared between the flat path and the leader/intra legs.
  // They run over an ordered subgroup of comm ranks; `me` is this rank's
  // index within `ranks`.
  void dissemination(CollOpStats& op, const CommGroup& g,
                     const std::vector<int>& ranks, int me, int tag_base);
  void binomial_bcast(CollOpStats& op, const CommGroup& g,
                      const std::vector<int>& ranks, int me, int root_idx,
                      void* buf, int count, const Datatype& dtype, int tag);
  void rd_allreduce(CollOpStats& op, const CommGroup& g,
                    const std::vector<int>& ranks, int me, double* recvbuf,
                    int count, bool take_max);

  Request isend_counted(CollOpStats& op, const void* buf, int count,
                        const Datatype& dtype, int dst_world, int tag,
                        int context);
  /// irecv that registers the request in inflight_ (as isend_counted does
  /// for sends) so abort_collective can cancel it. Every receive a
  /// collective body posts must go through this wrapper.
  Request irecv_track(void* buf, int count, const Datatype& dtype, int src,
                      int tag, int context);

  RankComm& comm_;
  CollCostHints hints_;
  CollStats stats_;

  // Abort-protocol state of the collective currently on this rank's stack
  // (collectives never nest, so one slot suffices).
  int cur_context_ = 0;
  std::uint64_t cur_seq_ = 0;
  sim::SimTime wait_budget_ = 0;
  std::vector<std::shared_ptr<void>> scratch_;
  std::shared_ptr<void> arena_;    // host scratch arena (see scratch())
  std::size_t arena_bytes_ = 0;    // its capacity
  std::size_t arena_used_ = 0;     // bump offset of the running collective
  std::size_t scratch_need_ = 0;   // host scratch the running op asked for
  /// Staging slots of the in-flight device collective (slot_scratch).
  /// Released back to the pool on normal completion; an abort parks them
  /// in the owning RankComm's slot graveyard instead — a still-queued
  /// stream copy may reference them, and the survivor audit invariant
  /// (vbufs_in_use == graveyard_slots) must keep counting them.
  std::vector<std::unique_ptr<core::detail::StagingSlot>> coll_slots_;
  void settle_coll_slots(bool aborted);
  // Every request the running collective posted (shared handles; cheap).
  // Cleared on normal completion; on abort each one is canceled — an
  // abandoned isend whose matching receive will never be posted (the peer
  // aborted too) would otherwise retransmit its RTS forever, because the
  // peer's unmatched-RTS ack keeps resetting the sender's retry budget,
  // and finalize's drain_pending would never return.
  std::vector<Request> inflight_;

  // Collective-owned streams of the device-buffer path (lazily created on
  // the first device-resident call; distinct from the rendezvous staging
  // streams so collective slices never queue behind p2p traffic).
  bool coll_streams_ready_ = false;
  cusim::Stream coll_d2h_;
  cusim::Stream coll_h2d_;
  cusim::Stream coll_red_;
};

}  // namespace mv2gnc::mpisim::detail
