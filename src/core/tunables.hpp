// Runtime tunables of the MV2-GPU-NC communication layer.
//
// The paper stresses that the pipeline block size is a *configurable
// parameter* detected once per cluster with micro-benchmarks and stored in
// a configuration file (§IV-B); 64 KB was optimal on their testbed. This
// struct carries that knob plus the thresholds and pool sizes of the
// protocol, and can be loaded from exactly such a config file.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "sim/time.hpp"

namespace mv2gnc::core {

/// How the pipeline chunk size is chosen per message.
enum class ChunkSelect {
  kModel,  // minimize the §IV-B latency model (n+2)·T_stage(N/n)
  kFixed,  // always use chunk_bytes (the paper's configured 64 KB)
};

/// How the wire path to each peer is chosen (see docs/SIMULATION.md,
/// "Node topology and transport selection").
enum class TransportSelect {
  kAuto,    // co-located ranks use the intra-node IPC channel, others fabric
  kFabric,  // force every peer over the HCA (ablation / debugging)
};

/// How collective algorithms are chosen per call (see docs/COLLECTIVES.md).
enum class CollSelect {
  kAuto,  // two-level when the topology co-locates ranks and the cost model
          // favors the intra-node leg (mirrors the model-picked pack scheme)
  kFlat,  // force single-level algorithms (the one-process-per-node paper era)
  kHier,  // force the two-level path wherever a comm spans >1 rank on a node
};

/// How concurrent transfers of one rank share the vbuf pool and the wire
/// (see docs/CONCURRENCY.md).
enum class SchedPolicy {
  kFifo,  // first-grabber-wins vbuf acquisition (legacy behavior)
  kFair,  // round-robin turns + per-transfer vbuf reservations
};

/// How messages pick among the parallel shared links of a multi-path
/// fabric (mirrors netsim::RouteSelect; see docs/SIMULATION.md, "Switch
/// topology, routing and link contention"). A no-op on the crossbar,
/// which has no shared links to choose between.
enum class RouteSelect {
  kDmodK,     // static dst-indexed spine choice (byte-identical default)
  kHash,      // deterministic (src, dst, transfer) hash across paths
  kAdaptive,  // least-backlogged path at injection time, index-order ties
};

/// How collectives handle device-resident buffers (see docs/COLLECTIVES.md,
/// "Device-buffer collectives").
enum class CollDevice {
  kStaged,     // synchronous full-size D2H, host collective, full-size H2D
               // (the legacy CUDA-aware-MPI behavior; byte-identical default)
  kPipelined,  // sliced D2H / wire / reduce / H2D pipeline through the
               // staging pools; intra-node legs stay device-resident over
               // the IPC peer-copy path
  kAuto,       // cost sketch picks staged vs pipelined per call
};

/// Timeout multiplier applied after each rendezvous retry (exponential
/// backoff); the collective watchdog budgets the same schedule.
inline constexpr double kRndvBackoffFactor = 2.0;

struct Tunables {
  /// Messages at or below this size use the eager protocol.
  std::size_t eager_threshold = 8 * 1024;

  /// Pipeline block size (the paper's 64 KB optimum).
  std::size_t chunk_bytes = 64 * 1024;

  /// Chunked pipelining activates for messages larger than this
  /// ("the proposed pipelining schemes get activated beyond 64 KB", §V-B3).
  std::size_t pipeline_threshold = 64 * 1024;

  /// Host staging (vbuf) pool: buffers per rank, each chunk_bytes large.
  std::size_t vbuf_count = 32;

  /// Receive-side chunk window: how many landing vbufs a CTS advertises
  /// before credits take over.
  std::size_t recv_window = 8;

  /// Ablation lever: offload datatype pack/unpack to the GPU (D2D2H
  /// nc2c2c). When false, strided data crosses PCIe with cudaMemcpy2D
  /// directly (D2H nc2c), the paper's non-offloaded alternative. When
  /// true, the GPU cost model picks the scheme per message.
  bool gpu_offload = true;

  /// Per-message pipeline chunk-size policy. kModel picks the chunk that
  /// minimizes (n+2)·T_stage(N/n) from the GPU cost model; kFixed forces
  /// chunk_bytes. The detected-per-cluster config file of §IV-B maps to
  /// kFixed with a measured chunk_bytes.
  ChunkSelect chunk_select = ChunkSelect::kModel;

  /// Ablation lever: overlap the transfer stages. When false the message
  /// moves as a single block (n = 1 in the paper's (n+2) model).
  bool pipelining = true;

  // -- concurrency scaling (docs/CONCURRENCY.md) -------------------------
  /// How concurrent transfers share the vbuf pool. kFifo reproduces the
  /// single-transfer-era behavior exactly (the ablation baseline); kFair
  /// adds per-transfer reservations, round-robin overflow turns and
  /// adaptive pipeline depth.
  SchedPolicy sched_policy = SchedPolicy::kFifo;

  /// Fair policies: pooled vbufs held back for each active transfer so one
  /// large transfer cannot starve the pool (shrinks automatically when
  /// active transfers outnumber capacity / reserve).
  std::size_t vbuf_reserve_per_transfer = 2;

  /// CHUNK_ACK/credit coalescing window: acks accumulated for this many
  /// virtual nanoseconds are batched into one control message (and flushed
  /// early by any outgoing control message to the same peer). 0 sends
  /// every ack individually (legacy).
  sim::SimTime ack_coalesce_window_ns = 0;

  // -- node topology / transport selection -------------------------------
  /// Processes per simulated node. Ranks r with the same r / ranks_per_node
  /// share one node (blocked placement, like mpirun -ppn). The default of 1
  /// reproduces the paper's one-process-per-node testbed exactly: no IPC
  /// channel exists and every byte crosses the HCA.
  std::size_t ranks_per_node = 1;

  /// Wire-path policy for co-located ranks. kAuto routes them over the
  /// in-node IPC channel (peer D2D copies, no HCA); kFabric forces the
  /// inter-node path everywhere, which isolates the transport's effect.
  TransportSelect transport_select = TransportSelect::kAuto;

  /// Collective-algorithm policy: flat single-level algorithms vs MVAPICH2
  /// style two-level (intra-node leg over the IPC transport, leader leg
  /// over the fabric). kAuto consults the topology and the cost hints the
  /// cluster derives from its GPU/IPC models (docs/COLLECTIVES.md).
  CollSelect coll_select = CollSelect::kAuto;

  /// Device-resident collective buffers: legacy synchronous staging vs the
  /// sliced D2H/wire/reduce/H2D pipeline (docs/COLLECTIVES.md). kStaged is
  /// the byte-identical default; kAuto consults the cost sketch per call.
  CollDevice coll_device = CollDevice::kStaged;

  /// Pipeline slice size of a device-buffer collective, in bytes. 0 picks
  /// the slice per call by minimizing the (S+2)-stage pipeline model over
  /// power-of-two candidates (mirroring chunk_select = model). Nonzero
  /// values must be multiples of 8 (the reduction element size).
  std::size_t coll_slice_bytes = 0;

  // -- congestion-adaptive routing + ECN feedback (docs/SIMULATION.md,
  //    docs/CONCURRENCY.md) ----------------------------------------------
  /// Link-selection policy on a multi-path fabric (fat tree: which spine;
  /// dragonfly: minimal vs Valiant/UGAL global route). kDmodK reproduces
  /// the static-routing behavior bit-for-bit; on a crossbar every value is
  /// an accepted no-op.
  RouteSelect route_select = RouteSelect::kDmodK;

  /// ECN-style congestion feedback: a chunk whose fabric traversal queued
  /// behind more than this much backlog on one shared link carries a
  /// congestion mark; the receiver echoes the mark on the chunk ack and
  /// the sender's scheduler halves its in-flight depth (like pool
  /// contention). 0 disables marking entirely — the byte-identical
  /// default.
  sim::SimTime ecn_backlog_ns = 0;

  /// Hysteresis on the recovery side of ECN feedback: this many
  /// consecutive unmarked chunk acks before the depth grows back one step.
  std::size_t ecn_restore_chunks = 16;

  // -- reliability -------------------------------------------------------
  /// Base retransmission timeout for rendezvous control messages: if a
  /// transfer makes no progress for this long, its oldest unacknowledged
  /// message is resent. Must exceed any injected delivery jitter.
  sim::SimTime rndv_timeout_ns = 5'000'000;

  /// Retransmission attempts per transfer before it is failed with a
  /// request error (0 disables retransmission entirely).
  std::size_t rndv_max_retries = 6;

  // -- fault injection / failover (docs/RELIABILITY.md) ------------------
  /// Startup skew: each rank delays a seeded uniform [0, rank_skew_ns]
  /// before entering its body — models non-synchronized process launch.
  sim::SimTime rank_skew_ns = 0;

  /// Per-progress-iteration stall probability: with this probability a
  /// rank pauses for a seeded uniform [0, rank_stall_ns] inside its
  /// progress loop — models OS noise / a late CPU. 0 disables (and skips
  /// all RNG draws, keeping fault-free runs bit-exact).
  double rank_stall_prob = 0.0;

  /// Upper bound of one injected stall window.
  sim::SimTime rank_stall_ns = 0;

  /// Transport failover: demote a routed (IPC) peer to the fabric after
  /// this many consecutive transfer failures. 0 disables failover (the
  /// default — route tables never change at runtime).
  std::size_t transport_failover_threshold = 0;

  /// Consecutive successful transfers (over any path) before a demoted
  /// peer's routed path is optimistically restored.
  std::size_t transport_restore_threshold = 3;

  /// Collective liveness watchdog: each blocking wait inside a collective
  /// gets a deadline of this factor times the p2p layer's worst-case
  /// retry budget. Expiry aborts the collective instead of hanging.
  double coll_watchdog_factor = 4.0;

  // -- host datatype-processing cost model -------------------------------
  /// Effective bandwidth of a strided host-side pack/unpack (GB/s).
  double host_pack_bw = 3.0;
  /// Fixed cost per contiguous run during host pack/unpack.
  double host_seg_overhead_ns = 15.0;

  /// Modeled CPU time to pack/unpack `bytes` spread over `segments` runs.
  sim::SimTime host_pack_time(std::size_t bytes, std::size_t segments) const;

  /// Throws std::invalid_argument when a setting is out of range.
  void validate() const;

  /// Parse "key = value" lines ('#' comments, blank lines allowed);
  /// unknown keys are an error. Returns defaults overlaid with the file.
  static Tunables from_stream(std::istream& in);
  static Tunables from_file(const std::string& path);

  /// Render in the same config format from_stream accepts.
  std::string to_config_string() const;
};

}  // namespace mv2gnc::core
