#include "mpi/coll.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace mv2gnc::mpisim::detail {

namespace {

// Internal (negative) tags used by collectives; wildcard receives never
// match them. The first block keeps its historical values so the flat
// barrier/bcast/gather/scatter paths stay byte-identical to the
// pre-engine implementations. Families that offset by a per-step or
// per-block index get 2^16-wide ranges so offsets can never run into the
// next base.
constexpr int kTagBarrier = -100;   // flat dissemination: - round
constexpr int kTagBcast = -200;     // flat binomial bcast
constexpr int kTagReduce = -300;    // hier intra-node reduce leg
constexpr int kTagGather = -400;
constexpr int kTagScatter = -500;
constexpr int kTagAlltoall = -600;  // self-delivery of the diagonal block

constexpr int kTagSpan = 1 << 16;
constexpr int kTagAlltoallStep = -1 * kTagSpan;   // - pairwise step
constexpr int kTagAllreduceRd = -2 * kTagSpan;    // - butterfly round
constexpr int kTagAllreducePair = -3 * kTagSpan;  // -0 fold-in, -1 fold-out
constexpr int kTagAgBlock = -4 * kTagSpan;        // - block owner comm rank
constexpr int kTagBarrierFan = -5 * kTagSpan;     // -0 fan-in, -1 fan-out
constexpr int kTagBarrierLeader = -6 * kTagSpan;  // - round
constexpr int kTagReduceBcast = -7 * kTagSpan;    // hier result bcast
constexpr int kTagBcastLeader = -8 * kTagSpan;    // hier leader binomial
constexpr int kTagBcastIntra = -9 * kTagSpan;     // hier intra binomial
constexpr int kTagAllreduceRs = -10 * kTagSpan;   // intra reduce-scatter: -step
constexpr int kTagAllreduceAg = -11 * kTagSpan;   // intra slice allgather: -step
// Tag spans -12 .. -18 belong to the device-buffer sliced pipelines; see
// src/mpi/coll_device.cpp.

Datatype committed_byte() {
  Datatype t = Datatype::byte();
  t.commit();
  return t;
}

Datatype committed_double() {
  Datatype t = Datatype::float64();
  t.commit();
  return t;
}

int index_of(const std::vector<int>& v, int value) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == value) return static_cast<int>(i);
  }
  return -1;
}

std::vector<int> identity_ranks(int p) {
  std::vector<int> r(static_cast<std::size_t>(p));
  std::iota(r.begin(), r.end(), 0);
  return r;
}

// Common member count when every node hosts the same number of the
// group's ranks, else 0. The striped two-level schemes pair member j of
// each node with its counterparts, so they need a rectangular topology;
// ragged groups (e.g. after an uneven split) take the leader-based path.
int uniform_node_size(const std::vector<std::vector<int>>& members) {
  const std::size_t n = members.front().size();
  for (const std::vector<int>& m : members) {
    if (m.size() != n) return 0;
  }
  return static_cast<int>(n);
}

void reduce_into(double* acc, const double* in, int count, bool take_max) {
  for (int i = 0; i < count; ++i) {
    acc[i] = take_max ? std::max(acc[i], in[i]) : acc[i] + in[i];
  }
}

}  // namespace

Request CollEngine::isend_counted(CollOpStats& op, const void* buf, int count,
                                  const Datatype& dtype, int dst_world,
                                  int tag, int context) {
  op.bytes_sent += dtype.size() * static_cast<std::size_t>(count);
  Request r = comm_.isend(buf, count, dtype, dst_world, tag, context);
  inflight_.push_back(r);
  return r;
}

Request CollEngine::irecv_track(void* buf, int count, const Datatype& dtype,
                                int src, int tag, int context) {
  Request r = comm_.irecv(buf, count, dtype, src, tag, context);
  inflight_.push_back(r);
  return r;
}

// ---------------------------------------------------------------------------
// Abort protocol (docs/RELIABILITY.md, "Collective abort")
// ---------------------------------------------------------------------------

sim::SimTime CollEngine::watchdog_budget() const {
  const core::Tunables& tun = comm_.tunables();
  // The p2p layer's worst case: a receiver watchdog spends twice the
  // sender's budget (see RndvRecv::handle_timeout), i.e. the backoff
  // series up to 2 * rndv_max_retries. Scale by coll_watchdog_factor so a
  // struggling-but-recovering transfer never trips the collective
  // watchdog before the p2p layer has resolved it one way or the other.
  // Saturate like backoff_deadline in rndv.cpp: generous retry configs
  // (large rndv_max_retries with exponential backoff) would overflow
  // SimTime; a ~11-virtual-day deadline is "never" for any simulation.
  constexpr double kCapNs = 1e15;
  double budget = 0.0;
  double step = static_cast<double>(tun.rndv_timeout_ns);
  for (std::size_t i = 0; i <= 2 * tun.rndv_max_retries; ++i) {
    budget += step;
    step *= core::kRndvBackoffFactor;
    if (!(budget < kCapNs)) break;
  }
  budget *= tun.coll_watchdog_factor;
  if (!(budget < kCapNs)) budget = kCapNs;
  return static_cast<sim::SimTime>(budget);
}

void CollEngine::cwait(Request& r) {
  comm_.coll_wait(r, nullptr, cur_context_, cur_seq_,
                  comm_.engine().now() + wait_budget_);
}

void CollEngine::abort_collective(const CommGroup& g, std::uint64_t seq,
                                  int origin) {
  // Order matters: park the scratch before the wave goes out, so even if
  // posting the wave itself threw, no freed buffer could back a still-
  // posted receive of the abandoned operation.
  settle_scratch(/*aborted=*/true);
  settle_coll_slots(/*aborted=*/true);
  comm_.coll_send_abort_wave(g, seq, origin);
  // Withdraw every still-open request of the abandoned operation. Receives
  // are local; sends retract their RTS from the peer (RndvSend::cancel).
  // Without this, an isend whose matching receive will never be posted —
  // its peer aborted the same collective — stays alive indefinitely and
  // strands finalize's drain_pending.
  for (Request& r : inflight_) comm_.cancel_request(r);
  inflight_.clear();
}

void CollEngine::settle_scratch(bool aborted) {
  if (aborted) {
    if (arena_ != nullptr) {
      scratch_.push_back(std::move(arena_));
      arena_bytes_ = 0;
      ++stats_.scratch_parked;
    }
    comm_.park_scratch(std::move(scratch_));
  } else if (scratch_need_ > arena_bytes_) {
    arena_.reset();
    arena_ = std::shared_ptr<std::byte[]>(new std::byte[scratch_need_]);
    arena_bytes_ = scratch_need_;
    ++stats_.scratch_allocs;
  }
  scratch_.clear();
  arena_used_ = 0;
  scratch_need_ = 0;
}

template <typename Fn>
void CollEngine::run_guarded(const CommGroup& g, Fn&& body) {
  // Throws RequestError immediately when the context is already poisoned
  // by an earlier abort — before any message goes out.
  const std::uint64_t seq = comm_.coll_begin(g.context);
  cur_context_ = g.context;
  cur_seq_ = seq;
  wait_budget_ = watchdog_budget();
  try {
    body();
    settle_scratch(/*aborted=*/false);  // nothing can deliver into it now
    settle_coll_slots(/*aborted=*/false);
    inflight_.clear();
  } catch (const RequestError& e) {
    // A p2p leg of this collective failed permanently: this rank is the
    // abort origin.
    abort_collective(g, seq, comm_.rank());
    throw RequestError("collective #" + std::to_string(seq) +
                       " on context " + std::to_string(g.context) +
                       " aborted (origin rank " + std::to_string(comm_.rank()) +
                       "): " + e.what());
  } catch (const CollAbortObserved& a) {
    // Another rank aborted (possibly an earlier collective whose wave
    // raced ahead); forward the wave — redundant receipts are idempotent,
    // and forwarding covers members whose copy was dropped.
    abort_collective(g, a.seq, a.origin);
    throw RequestError("collective #" + std::to_string(seq) +
                       " on context " + std::to_string(g.context) +
                       " aborted by COLL_ABORT wave from rank " +
                       std::to_string(a.origin));
  } catch (const CollWatchdogExpired&) {
    abort_collective(g, seq, comm_.rank());
    throw RequestError("collective #" + std::to_string(seq) +
                       " on context " + std::to_string(g.context) +
                       " aborted: liveness watchdog expired (origin rank " +
                       std::to_string(comm_.rank()) + ")");
  }
  // RankCrashed deliberately passes through untouched: a crashed rank
  // sends no wave — its peers detect the silence themselves.
}

void CollEngine::barrier(const CommGroup& g) {
  run_guarded(g, [&] { barrier_impl(g); });
}

void CollEngine::bcast(void* buf, int count, const Datatype& dtype, int root,
                       const CommGroup& g) {
  run_guarded(g, [&] { bcast_impl(buf, count, dtype, root, g); });
}

void CollEngine::allreduce_doubles(const double* sendbuf, double* recvbuf,
                                   int count, bool take_max,
                                   const CommGroup& g) {
  run_guarded(g,
              [&] { allreduce_impl(sendbuf, recvbuf, count, take_max, g); });
}

void CollEngine::allgather(const void* sendbuf, int count,
                           const Datatype& dtype, void* recvbuf,
                           const CommGroup& g) {
  run_guarded(g,
              [&] { allgather_impl(sendbuf, count, dtype, recvbuf, g); });
}

void CollEngine::alltoall(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dtype, const CommGroup& g) {
  run_guarded(g,
              [&] { alltoall_impl(sendbuf, recvbuf, count, dtype, g); });
}

void CollEngine::gather(const void* sendbuf, int count, const Datatype& dtype,
                        void* recvbuf, int root, const CommGroup& g) {
  run_guarded(
      g, [&] { gather_impl(sendbuf, count, dtype, recvbuf, root, g); });
}

void CollEngine::scatter(const void* sendbuf, void* recvbuf, int count,
                         const Datatype& dtype, int root, const CommGroup& g) {
  run_guarded(
      g, [&] { scatter_impl(sendbuf, recvbuf, count, dtype, root, g); });
}

CollEngine::Topology CollEngine::map_nodes(const CommGroup& g) const {
  Topology t;
  // Tunables::validate() rejects ranks_per_node == 0, but a RankComm can be
  // handed tunables that never went through it (mutated in place by a test
  // or bench); clamp rather than divide by zero.
  const int rpn =
      std::max(1, static_cast<int>(comm_.tunables().ranks_per_node));
  const int p = g.size();
  t.node_of.resize(static_cast<std::size_t>(p));
  std::vector<int> phys;  // dense index -> physical node id
  for (int i = 0; i < p; ++i) {
    const int node = g.world[static_cast<std::size_t>(i)] / rpn;
    int dense = index_of(phys, node);
    if (dense < 0) {
      dense = static_cast<int>(phys.size());
      phys.push_back(node);
      t.members.emplace_back();
      t.leaders.push_back(i);
    }
    t.node_of[static_cast<std::size_t>(i)] = dense;
    t.members[static_cast<std::size_t>(dense)].push_back(i);
    if (t.members[static_cast<std::size_t>(dense)].size() > 1) {
      t.multi_rank_node = true;
    }
    if (i == g.my_rank) t.my_node = dense;
  }
  return t;
}

bool CollEngine::use_hier(const Topology& t, std::size_t bytes,
                          bool device) const {
  const core::Tunables& tun = comm_.tunables();
  if (!t.multi_rank_node) return false;  // flat topology: nothing to split
  switch (tun.coll_select) {
    case core::CollSelect::kFlat: return false;
    case core::CollSelect::kHier: return true;
    case core::CollSelect::kAuto: break;
  }
  // Without the IPC channel the "intra-node" leg rides the fabric too, so
  // the split only adds phases.
  if (tun.transport_select != core::TransportSelect::kAuto) return false;
  // Every rank must reach the same verdict or the group mixes algorithms
  // (mismatched tags, deadlock), so the sketch below may only consume
  // rank-invariant inputs: t.members is identical on every member (the map
  // is a pure function of the group), t.my_node is NOT. On ragged
  // topologies there is no single per-node member count and the striped
  // schemes don't apply; stay flat rather than guess.
  const int uniform = uniform_node_size(t.members);
  if (uniform < 2) return false;
  // Butterfly-shaped cost sketch from the hints. The flat algorithms
  // already route co-located hops over IPC, so the flat estimate charges
  // fabric rounds only for the across-node part of the butterfly. The
  // two-level estimate pays two extra intra phases (reduce-scatter +
  // allgather) but stripes the inter-node leg across every member's HCA,
  // so each fabric round carries 1/n of the bytes. Host-copy rates follow
  // the IPC channel's shm-vs-CMA size split: flat intra rounds move the
  // whole payload, the striped intra phases move 1/n slices.
  const double bytes_d = static_cast<double>(bytes);
  const double n = static_cast<double>(uniform);
  const double nodes = static_cast<double>(t.num_nodes());
  auto rounds = [](double x) {
    return std::ceil(std::log2(std::max(x, 1.0)));
  };
  const double fab = static_cast<double>(hints_.fabric_latency_ns);
  const double ipc = static_cast<double>(hints_.ipc_latency_ns);
  const double flat_ipc_bw = hints_.ipc_host_bw(bytes);
  const double hier_ipc_bw =
      hints_.ipc_host_bw(bytes / static_cast<std::size_t>(uniform));
  const double flat = rounds(nodes) * (fab + bytes_d / hints_.fabric_bw) +
                      rounds(n) * (ipc + bytes_d / flat_ipc_bw);
  const double hier =
      2.0 * (ipc + (bytes_d * (n - 1.0) / n) / hier_ipc_bw) +
      rounds(nodes) * (fab + (bytes_d / n) / hints_.fabric_bw);
  if (!device) return hier < flat;
  // Device-resident buffers change both sides of the ledger. Flat stages
  // the full vector across PCIe once each way around the host butterfly.
  // Two-level keeps the intra reduce-scatter/allgather rings on the
  // device-direct IPC peer-copy path (no host bounce), pays the ring folds
  // as reduction kernels, and only the owned 1/n stripe crosses PCIe for
  // the inter-node butterfly. Still rank-invariant: bytes, n, nodes and
  // hints only.
  const double pcie = hints_.pcie_bw();
  const double launch = static_cast<double>(hints_.copy_launch_ns);
  const double dev_flat = flat + 2.0 * (launch + bytes_d / pcie);
  const double dev_hier =
      2.0 * (ipc + (bytes_d * (n - 1.0) / n) / hints_.ipc_peer_bw) +
      (n - 1.0) * static_cast<double>(hints_.reduce_time(
                      bytes / static_cast<std::size_t>(uniform))) +
      rounds(nodes) * (fab + (bytes_d / n) / hints_.fabric_bw) +
      2.0 * (launch + (bytes_d / n) / pcie);
  return dev_hier < dev_flat;
}

// ---------------------------------------------------------------------------
// Shared primitives
// ---------------------------------------------------------------------------

void CollEngine::dissemination(CollOpStats& op, const CommGroup& g,
                               const std::vector<int>& ranks, int me,
                               int tag_base) {
  static const Datatype byte_t = committed_byte();
  const int p = static_cast<int>(ranks.size());
  char* token = scratch<char>(1);
  *token = 0;  // sent before anything is received into it
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    const int dst =
        g.world[static_cast<std::size_t>(ranks[static_cast<std::size_t>(
            (me + mask) % p)])];
    const int src =
        g.world[static_cast<std::size_t>(ranks[static_cast<std::size_t>(
            (me - mask + p) % p)])];
    Request sreq =
        isend_counted(op, token, 1, byte_t, dst, tag_base - round, g.context);
    Request rreq = irecv_track(token, 1, byte_t, src, tag_base - round,
                               g.context);
    cwait(sreq);
    cwait(rreq);
  }
}

void CollEngine::binomial_bcast(CollOpStats& op, const CommGroup& g,
                                const std::vector<int>& ranks, int me,
                                int root_idx, void* buf, int count,
                                const Datatype& dtype, int tag) {
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  const int relative = (me - root_idx + p) % p;
  auto world_of = [&](int rel) {
    return g.world[static_cast<std::size_t>(
        ranks[static_cast<std::size_t>((rel + root_idx) % p)])];
  };
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      Request r = irecv_track(buf, count, dtype, world_of(relative - mask),
                              tag, g.context);
      cwait(r);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      Request sr = isend_counted(op, buf, count, dtype,
                                 world_of(relative + mask), tag, g.context);
      cwait(sr);
    }
    mask >>= 1;
  }
}

void CollEngine::rd_allreduce(CollOpStats& op, const CommGroup& g,
                              const std::vector<int>& ranks, int me,
                              double* recvbuf, int count, bool take_max) {
  static const Datatype double_t = committed_double();
  const int p = static_cast<int>(ranks.size());
  if (p <= 1) return;
  auto world_of = [&](int idx) {
    return g.world[static_cast<std::size_t>(
        ranks[static_cast<std::size_t>(idx)])];
  };
  double* tmp = scratch<double>(static_cast<std::size_t>(count));
  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;
  // Non-power-of-two: the first 2*rem ranks pair up; the even member of
  // each pair folds its vector into the odd one and sits the butterfly
  // out (MPICH's classic pre/post step).
  int newrank;
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      Request s = isend_counted(op, recvbuf, count, double_t, world_of(me + 1),
                                kTagAllreducePair - 0, g.context);
      cwait(s);
      newrank = -1;
    } else {
      Request r = irecv_track(tmp, count, double_t, world_of(me - 1),
                              kTagAllreducePair - 0, g.context);
      cwait(r);
      reduce_into(recvbuf, tmp, count, take_max);
      newrank = me / 2;
    }
  } else {
    newrank = me - rem;
  }
  if (newrank >= 0) {
    int round = 0;
    for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
      const int newdst = newrank ^ mask;
      const int dst_idx = newdst < rem ? newdst * 2 + 1 : newdst + rem;
      const int dst = world_of(dst_idx);
      Request rr = irecv_track(tmp, count, double_t, dst,
                               kTagAllreduceRd - round, g.context);
      Request sr = isend_counted(op, recvbuf, count, double_t, dst,
                                 kTagAllreduceRd - round, g.context);
      cwait(sr);
      cwait(rr);
      reduce_into(recvbuf, tmp, count, take_max);
    }
  }
  if (me < 2 * rem) {
    if (me % 2 == 0) {
      Request r = irecv_track(recvbuf, count, double_t, world_of(me + 1),
                              kTagAllreducePair - 1, g.context);
      cwait(r);
    } else {
      Request s = isend_counted(op, recvbuf, count, double_t, world_of(me - 1),
                                kTagAllreducePair - 1, g.context);
      cwait(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void CollEngine::barrier_impl(const CommGroup& g) {
  CollOpStats& op = stats_.barrier;
  ++op.calls;
  const Topology t = map_nodes(g);
  if (!use_hier(t, 1)) {
    ++op.leader_phases;
    dissemination(op, g, identity_ranks(g.size()), g.my_rank, kTagBarrier);
    return;
  }
  ++op.hier_calls;
  static const Datatype byte_t = committed_byte();
  char* token = scratch<char>(1);
  *token = 0;  // sent before anything is received into it
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int leader = t.leaders[static_cast<std::size_t>(t.my_node)];
  // Intra fan-in: every member reports to its node leader.
  if (mem.size() > 1) {
    ++op.intra_phases;
    if (g.my_rank == leader) {
      std::vector<Request> rs;
      for (int m : mem) {
        if (m == leader) continue;
        rs.push_back(irecv_track(token, 1, byte_t,
                                 g.world[static_cast<std::size_t>(m)],
                                 kTagBarrierFan - 0, g.context));
      }
      for (Request& r : rs) cwait(r);
    } else {
      Request s = isend_counted(op, token, 1, byte_t,
                                g.world[static_cast<std::size_t>(leader)],
                                kTagBarrierFan - 0, g.context);
      cwait(s);
    }
  }
  // Leader dissemination across nodes (the only fabric traffic).
  if (g.my_rank == leader && t.num_nodes() > 1) {
    ++op.leader_phases;
    dissemination(op, g, t.leaders, t.my_node, kTagBarrierLeader);
  }
  // Intra fan-out: the leader releases its members.
  if (mem.size() > 1) {
    ++op.intra_phases;
    if (g.my_rank == leader) {
      std::vector<Request> ss;
      for (int m : mem) {
        if (m == leader) continue;
        ss.push_back(isend_counted(op, token, 1, byte_t,
                                   g.world[static_cast<std::size_t>(m)],
                                   kTagBarrierFan - 1, g.context));
      }
      for (Request& s : ss) cwait(s);
    } else {
      Request r = irecv_track(token, 1, byte_t,
                              g.world[static_cast<std::size_t>(leader)],
                              kTagBarrierFan - 1, g.context);
      cwait(r);
    }
  }
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void CollEngine::bcast_impl(void* buf, int count, const Datatype& dtype, int root,
                       const CommGroup& g) {
  CollOpStats& op = stats_.bcast;
  ++op.calls;
  // Device-resident contiguous payloads take the staged/pipelined device
  // path; non-contiguous device types keep the legacy pass-through (the
  // rendezvous layer packs them per message).
  if (dtype.is_contiguous() && device_buffer(buf)) {
    device_bcast(op, buf, count, dtype, root, g);
    return;
  }
  bcast_wire(op, buf, count, dtype, root, g);
}

void CollEngine::bcast_wire(CollOpStats& op, void* buf, int count,
                            const Datatype& dtype, int root,
                            const CommGroup& g) {
  const int p = g.size();
  if (p == 1) return;
  Topology t = map_nodes(g);
  const std::size_t bytes = dtype.size() * static_cast<std::size_t>(count);
  if (!use_hier(t, bytes)) {
    ++op.leader_phases;
    binomial_bcast(op, g, identity_ranks(p), g.my_rank, root, buf, count,
                   dtype, kTagBcast);
    return;
  }
  ++op.hier_calls;
  // The root leads its own node, so the payload enters both legs from it.
  const int root_node = t.node_of[static_cast<std::size_t>(root)];
  t.leaders[static_cast<std::size_t>(root_node)] = root;
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int leader = t.leaders[static_cast<std::size_t>(t.my_node)];
  if (g.my_rank == leader && t.num_nodes() > 1) {
    ++op.leader_phases;
    binomial_bcast(op, g, t.leaders, t.my_node, root_node, buf, count, dtype,
                   kTagBcastLeader);
  }
  if (mem.size() > 1) {
    ++op.intra_phases;
    binomial_bcast(op, g, mem, index_of(mem, g.my_rank),
                   index_of(mem, leader), buf, count, dtype, kTagBcastIntra);
  }
}

// ---------------------------------------------------------------------------
// Allreduce (doubles, sum/max)
// ---------------------------------------------------------------------------

void CollEngine::allreduce_impl(const double* sendbuf, double* recvbuf,
                                   int count, bool take_max,
                                   const CommGroup& g) {
  CollOpStats& op = stats_.allreduce;
  ++op.calls;
  if (device_buffer(sendbuf) || device_buffer(recvbuf)) {
    device_allreduce(op, sendbuf, recvbuf, count, take_max, g);
    return;
  }
  std::copy(sendbuf, sendbuf + count, recvbuf);
  if (g.size() == 1) return;
  allreduce_wire(op, recvbuf, count, take_max, g);
}

void CollEngine::allreduce_wire(CollOpStats& op, double* recvbuf, int count,
                                bool take_max, const CommGroup& g) {
  static const Datatype double_t = committed_double();
  const Topology t = map_nodes(g);
  const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(count);
  if (!use_hier(t, bytes)) {
    ++op.leader_phases;
    rd_allreduce(op, g, identity_ranks(g.size()), g.my_rank, recvbuf, count,
                 take_max);
    return;
  }
  ++op.hier_calls;
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int leader = t.leaders[static_cast<std::size_t>(t.my_node)];
  const int uniform = uniform_node_size(t.members);
  if (uniform > 1 && count >= uniform) {
    // Striped two-level allreduce: an intra-node ring reduce-scatter
    // leaves member j owning the node-reduced slice j; member j then runs
    // the recursive-doubling butterfly with its counterparts on the other
    // nodes (all n HCAs active in parallel, each on 1/n of the vector);
    // an intra-node ring allgather reassembles the full result. Versus
    // the flat butterfly this trades two cheap IPC phases for an n-fold
    // cut in per-round fabric bytes.
    const int n = uniform;
    const int me_local = index_of(mem, g.my_rank);
    const int q = count / n;
    const int r = count % n;
    auto slice_start = [&](int j) { return j * q + std::min(j, r); };
    auto slice_len = [&](int j) { return q + (j < r ? 1 : 0); };
    const int right = g.world[static_cast<std::size_t>(
        mem[static_cast<std::size_t>((me_local + 1) % n)])];
    const int left = g.world[static_cast<std::size_t>(
        mem[static_cast<std::size_t>((me_local - 1 + n) % n)])];
    double* tmp = scratch<double>(static_cast<std::size_t>(q + (r ? 1 : 0)));
    // Phase A: ring reduce-scatter. At step s member i forwards the
    // partial slice (i - s - 1) mod n and folds the arriving slice
    // (i - s - 2) mod n, so slice j circles the ring accumulating in a
    // fixed member order and lands fully reduced on member j.
    ++op.intra_phases;
    for (int s = 0; s < n - 1; ++s) {
      const int sj = ((me_local - s - 1) % n + n) % n;
      const int rj = ((me_local - s - 2) % n + n) % n;
      Request rr = irecv_track(tmp, slice_len(rj), double_t, left,
                               kTagAllreduceRs - s, g.context);
      Request sr = isend_counted(op, recvbuf + slice_start(sj), slice_len(sj),
                                 double_t, right, kTagAllreduceRs - s,
                                 g.context);
      cwait(sr);
      cwait(rr);
      reduce_into(recvbuf + slice_start(rj), tmp, slice_len(rj),
                  take_max);
    }
    // Phase B: per-stripe butterfly over the fabric. Counterpart members
    // (local index j on every node) allreduce slice j among themselves.
    if (t.num_nodes() > 1) {
      ++op.leader_phases;
      std::vector<int> stripe_group;
      stripe_group.reserve(t.members.size());
      for (const std::vector<int>& node_mem : t.members) {
        stripe_group.push_back(node_mem[static_cast<std::size_t>(me_local)]);
      }
      rd_allreduce(op, g, stripe_group, t.my_node,
                   recvbuf + slice_start(me_local), slice_len(me_local),
                   take_max);
    }
    // Phase C: ring allgather of the reduced slices.
    ++op.intra_phases;
    for (int s = 0; s < n - 1; ++s) {
      const int sj = ((me_local - s) % n + n) % n;
      const int rj = ((me_local - s - 1) % n + n) % n;
      Request rr = irecv_track(recvbuf + slice_start(rj), slice_len(rj),
                               double_t, left, kTagAllreduceAg - s, g.context);
      Request sr = isend_counted(op, recvbuf + slice_start(sj), slice_len(sj),
                                 double_t, right, kTagAllreduceAg - s,
                                 g.context);
      cwait(sr);
      cwait(rr);
    }
    return;
  }
  // Ragged topology (or fewer elements than members): fold into the node
  // leader, butterfly across leaders, broadcast back.
  if (mem.size() > 1) {
    ++op.intra_phases;
    if (g.my_rank == leader) {
      double* tmp = scratch<double>(static_cast<std::size_t>(count));
      for (int m : mem) {
        if (m == leader) continue;
        Request r = irecv_track(tmp, count, double_t,
                                g.world[static_cast<std::size_t>(m)],
                                kTagReduce, g.context);
        cwait(r);
        reduce_into(recvbuf, tmp, count, take_max);
      }
    } else {
      Request s = isend_counted(op, recvbuf, count, double_t,
                                g.world[static_cast<std::size_t>(leader)],
                                kTagReduce, g.context);
      cwait(s);
    }
  }
  // Leader butterfly over the fabric.
  if (g.my_rank == leader && t.num_nodes() > 1) {
    ++op.leader_phases;
    rd_allreduce(op, g, t.leaders, t.my_node, recvbuf, count, take_max);
  }
  // Intra bcast of the reduced vector.
  if (mem.size() > 1) {
    ++op.intra_phases;
    binomial_bcast(op, g, mem, index_of(mem, g.my_rank),
                   index_of(mem, leader), recvbuf, count, double_t,
                   kTagReduceBcast);
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void CollEngine::allgather_impl(const void* sendbuf, int count,
                           const Datatype& dtype, void* recvbuf,
                           const CommGroup& g) {
  CollOpStats& op = stats_.allgather;
  ++op.calls;
  if (dtype.is_contiguous() &&
      (device_buffer(sendbuf) || device_buffer(recvbuf))) {
    device_allgather(op, sendbuf, count, dtype, recvbuf, g);
    return;
  }
  allgather_wire(op, sendbuf, count, dtype, recvbuf, g);
}

void CollEngine::allgather_wire(CollOpStats& op, const void* sendbuf,
                                int count, const Datatype& dtype,
                                void* recvbuf, const CommGroup& g) {
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int p = g.size();
  const int my = g.my_rank;
  auto* out = static_cast<std::byte*>(recvbuf);
  // Own contribution through the p2p self path, so device buffers work
  // uniformly. Every transmission of rank r's block — in any phase — uses
  // tag kTagAgBlock - r; a given ordered pair carries a block at most once
  // per call, so the envelope (src, tag, context) stays unambiguous.
  {
    Request rr = irecv_track(out + static_cast<std::size_t>(my) * block,
                             count, dtype, g.world[static_cast<std::size_t>(my)],
                             kTagAgBlock - my, g.context);
    Request sr = isend_counted(op, sendbuf, count, dtype,
                               g.world[static_cast<std::size_t>(my)],
                               kTagAgBlock - my, g.context);
    cwait(sr);
    cwait(rr);
  }
  if (p == 1) return;
  const Topology t = map_nodes(g);
  if (!use_hier(t, block)) {
    // Flat ring: direct block exchange, no root round-trip. Step s moves
    // block (my - s) right and receives block (my - s - 1) from the left.
    ++op.leader_phases;
    const int right = g.world[static_cast<std::size_t>((my + 1) % p)];
    const int left = g.world[static_cast<std::size_t>((my - 1 + p) % p)];
    for (int s = 0; s < p - 1; ++s) {
      const int sendb = (my - s + p) % p;
      const int recvb = (my - s - 1 + p) % p;
      Request rr = irecv_track(out + static_cast<std::size_t>(recvb) * block,
                               count, dtype, left, kTagAgBlock - recvb,
                               g.context);
      Request sr = isend_counted(op,
                                 out + static_cast<std::size_t>(sendb) * block,
                                 count, dtype, right, kTagAgBlock - sendb,
                                 g.context);
      cwait(sr);
      cwait(rr);
    }
    return;
  }
  ++op.hier_calls;
  const std::vector<int>& mem = t.members[static_cast<std::size_t>(t.my_node)];
  const int n = static_cast<int>(mem.size());
  const int me_local = index_of(mem, my);
  const int L = t.num_nodes();
  // Phase A: ring allgather among the node's members (IPC traffic), after
  // which everyone holds every co-located block.
  if (n > 1) {
    ++op.intra_phases;
    const int right = g.world[static_cast<std::size_t>(mem[
        static_cast<std::size_t>((me_local + 1) % n)])];
    const int left = g.world[static_cast<std::size_t>(mem[
        static_cast<std::size_t>((me_local - 1 + n) % n)])];
    for (int s = 0; s < n - 1; ++s) {
      const int sendb = mem[static_cast<std::size_t>((me_local - s + n) % n)];
      const int recvb =
          mem[static_cast<std::size_t>((me_local - s - 1 + n) % n)];
      Request rr = irecv_track(out + static_cast<std::size_t>(recvb) * block,
                               count, dtype, left, kTagAgBlock - recvb,
                               g.context);
      Request sr = isend_counted(op,
                                 out + static_cast<std::size_t>(sendb) * block,
                                 count, dtype, right, kTagAgBlock - sendb,
                                 g.context);
      cwait(sr);
      cwait(rr);
    }
  }
  if (L == 1) return;
  ++op.leader_phases;
  const int uniform = uniform_node_size(t.members);
  if (uniform > 1) {
    // Phase B, striped: member j of every node forms its own inter-node
    // ring carrying the j-th block of each node's superblock, so all n
    // HCAs move 1/n of the off-node volume in parallel (L-1 fabric steps
    // of one block each, versus L-1 steps of n blocks through a single
    // leader). Each arriving block is forwarded to the n-1 co-members
    // with non-blocking sends, so the in-node fan-out of step s overlaps
    // the fabric transfer of step s+1.
    const int d = t.my_node;
    const int rightc = g.world[static_cast<std::size_t>(
        t.members[static_cast<std::size_t>((d + 1) % L)]
                 [static_cast<std::size_t>(me_local)])];
    const int leftc = g.world[static_cast<std::size_t>(
        t.members[static_cast<std::size_t>((d - 1 + L) % L)]
                 [static_cast<std::size_t>(me_local)])];
    std::vector<Request> stripe;   // my ring's fabric receives, step order
    std::vector<Request> others;   // co-members' forwarded blocks
    for (int s = 0; s < L - 1; ++s) {
      const std::vector<int>& rnode =
          t.members[static_cast<std::size_t>((d - s - 1 + L) % L)];
      const int mb = rnode[static_cast<std::size_t>(me_local)];
      stripe.push_back(irecv_track(out + static_cast<std::size_t>(mb) * block,
                                   count, dtype, leftc, kTagAgBlock - mb,
                                   g.context));
      for (int v = 0; v < n; ++v) {
        if (v == me_local) continue;
        const int b = rnode[static_cast<std::size_t>(v)];
        others.push_back(irecv_track(
            out + static_cast<std::size_t>(b) * block, count, dtype,
            g.world[static_cast<std::size_t>(mem[static_cast<std::size_t>(v)])],
            kTagAgBlock - b, g.context));
      }
    }
    std::vector<Request> sends;
    for (int s = 0; s < L - 1; ++s) {
      const int sb = t.members[static_cast<std::size_t>((d - s + L) % L)]
                              [static_cast<std::size_t>(me_local)];
      sends.push_back(isend_counted(op,
                                    out + static_cast<std::size_t>(sb) * block,
                                    count, dtype, rightc, kTagAgBlock - sb,
                                    g.context));
      cwait(stripe[static_cast<std::size_t>(s)]);
      const int rb = t.members[static_cast<std::size_t>((d - s - 1 + L) % L)]
                              [static_cast<std::size_t>(me_local)];
      for (int v = 0; v < n; ++v) {
        if (v == me_local) continue;
        sends.push_back(isend_counted(
            op, out + static_cast<std::size_t>(rb) * block, count, dtype,
            g.world[static_cast<std::size_t>(mem[static_cast<std::size_t>(v)])],
            kTagAgBlock - rb, g.context));
      }
    }
    for (Request& qr : sends) cwait(qr);
    for (Request& qr : others) cwait(qr);
    return;
  }
  // Phase B, ragged fallback: leaders ring node superblocks over the
  // fabric and forward each arriving block to their members immediately
  // (non-blocking), so the in-node distribution overlaps the remaining
  // fabric steps instead of waiting for the full buffer.
  if (my == t.leaders[static_cast<std::size_t>(t.my_node)]) {
    const int right = g.world[static_cast<std::size_t>(t.leaders[
        static_cast<std::size_t>((t.my_node + 1) % L)])];
    const int left = g.world[static_cast<std::size_t>(t.leaders[
        static_cast<std::size_t>((t.my_node - 1 + L) % L)])];
    std::vector<Request> forwards;
    for (int s = 0; s < L - 1; ++s) {
      const int send_node = (t.my_node - s + L) % L;
      const int recv_node = (t.my_node - s - 1 + L) % L;
      std::vector<Request> step;
      for (int b : t.members[static_cast<std::size_t>(recv_node)]) {
        step.push_back(irecv_track(out + static_cast<std::size_t>(b) * block,
                                   count, dtype, left, kTagAgBlock - b,
                                   g.context));
      }
      for (int b : t.members[static_cast<std::size_t>(send_node)]) {
        step.push_back(isend_counted(
            op, out + static_cast<std::size_t>(b) * block, count, dtype,
            right, kTagAgBlock - b, g.context));
      }
      for (Request& q : step) cwait(q);
      for (int m : mem) {
        if (m == my) continue;
        for (int b : t.members[static_cast<std::size_t>(recv_node)]) {
          forwards.push_back(isend_counted(
              op, out + static_cast<std::size_t>(b) * block, count, dtype,
              g.world[static_cast<std::size_t>(m)], kTagAgBlock - b,
              g.context));
        }
      }
    }
    for (Request& q : forwards) cwait(q);
  } else {
    // Members: every off-node block arrives from the node leader.
    const int leader_world = g.world[static_cast<std::size_t>(
        t.leaders[static_cast<std::size_t>(t.my_node)])];
    std::vector<Request> rs;
    for (int node = 0; node < L; ++node) {
      if (node == t.my_node) continue;
      for (int b : t.members[static_cast<std::size_t>(node)]) {
        rs.push_back(irecv_track(out + static_cast<std::size_t>(b) * block,
                                 count, dtype, leader_world, kTagAgBlock - b,
                                 g.context));
      }
    }
    for (Request& q : rs) cwait(q);
  }
}

// ---------------------------------------------------------------------------
// Alltoall
// ---------------------------------------------------------------------------

void CollEngine::alltoall_impl(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dtype, const CommGroup& g) {
  CollOpStats& op = stats_.alltoall;
  ++op.calls;
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int p = g.size();
  const int my = g.my_rank;
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  // Diagonal block through the p2p self path.
  {
    Request rr = irecv_track(out + static_cast<std::size_t>(my) * block,
                             count, dtype, g.world[static_cast<std::size_t>(my)],
                             kTagAlltoall, g.context);
    Request sr = isend_counted(op, in + static_cast<std::size_t>(my) * block,
                               count, dtype,
                               g.world[static_cast<std::size_t>(my)],
                               kTagAlltoall, g.context);
    cwait(sr);
    cwait(rr);
  }
  if (p == 1) return;
  const Topology t = map_nodes(g);
  // Pairwise exchange: step s pairs every rank r with r+s (send) and r-s
  // (recv). All ranks run the steps in one global order, which keeps the
  // lockstep exchange deadlock-free; the hierarchical variant reorders
  // that global schedule so the steps with the most co-located pairs run
  // first (IPC) and the fabric steps spread across distinct peer nodes.
  std::vector<int> steps(static_cast<std::size_t>(p - 1));
  std::iota(steps.begin(), steps.end(), 1);
  if (use_hier(t, block)) {
    ++op.hier_calls;
    std::vector<int> colocated(static_cast<std::size_t>(p), 0);
    for (int s = 1; s < p; ++s) {
      int c = 0;
      for (int r = 0; r < p; ++r) {
        if (t.node_of[static_cast<std::size_t>(r)] ==
            t.node_of[static_cast<std::size_t>((r + s) % p)]) {
          ++c;
        }
      }
      colocated[static_cast<std::size_t>(s)] = c;
    }
    std::stable_sort(steps.begin(), steps.end(), [&](int a, int b) {
      return colocated[static_cast<std::size_t>(a)] >
             colocated[static_cast<std::size_t>(b)];
    });
  }
  for (int s : steps) {
    const int dst = (my + s) % p;
    const int src = (my - s + p) % p;
    if (t.node_of[static_cast<std::size_t>(dst)] == t.my_node) {
      ++op.intra_phases;
    } else {
      ++op.leader_phases;
    }
    Request rr = irecv_track(out + static_cast<std::size_t>(src) * block,
                             count, dtype, g.world[static_cast<std::size_t>(src)],
                             kTagAlltoallStep - s, g.context);
    Request sr = isend_counted(op, in + static_cast<std::size_t>(dst) * block,
                               count, dtype,
                               g.world[static_cast<std::size_t>(dst)],
                               kTagAlltoallStep - s, g.context);
    cwait(sr);
    cwait(rr);
  }
}

// ---------------------------------------------------------------------------
// Gather / scatter (linear, root-rooted; no hierarchical variant)
// ---------------------------------------------------------------------------

void CollEngine::gather_impl(const void* sendbuf, int count, const Datatype& dtype,
                        void* recvbuf, int root, const CommGroup& g) {
  CollOpStats& op = stats_.gather;
  ++op.calls;
  ++op.leader_phases;
  // Linear gather; self-delivery goes through the normal p2p path so
  // device buffers work uniformly.
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int root_world = g.world[static_cast<std::size_t>(root)];
  Request sreq = isend_counted(op, sendbuf, count, dtype, root_world,
                               kTagGather, g.context);
  if (g.my_rank == root) {
    std::vector<Request> rreqs;
    rreqs.reserve(static_cast<std::size_t>(g.size()));
    for (int i = 0; i < g.size(); ++i) {
      rreqs.push_back(irecv_track(static_cast<std::byte*>(recvbuf) +
                                      static_cast<std::size_t>(i) * block,
                                  count, dtype,
                                  g.world[static_cast<std::size_t>(i)],
                                  kTagGather, g.context));
    }
    for (Request& r : rreqs) cwait(r);
  }
  cwait(sreq);
}

void CollEngine::scatter_impl(const void* sendbuf, void* recvbuf, int count,
                         const Datatype& dtype, int root, const CommGroup& g) {
  CollOpStats& op = stats_.scatter;
  ++op.calls;
  ++op.leader_phases;
  const std::size_t block = static_cast<std::size_t>(dtype.extent()) *
                            static_cast<std::size_t>(count);
  const int root_world = g.world[static_cast<std::size_t>(root)];
  Request rreq = irecv_track(recvbuf, count, dtype, root_world, kTagScatter,
                             g.context);
  if (g.my_rank == root) {
    std::vector<Request> sreqs;
    sreqs.reserve(static_cast<std::size_t>(g.size()));
    for (int i = 0; i < g.size(); ++i) {
      sreqs.push_back(isend_counted(op,
                                    static_cast<const std::byte*>(sendbuf) +
                                        static_cast<std::size_t>(i) * block,
                                    count, dtype,
                                    g.world[static_cast<std::size_t>(i)],
                                    kTagScatter, g.context));
    }
    for (Request& sr : sreqs) cwait(sr);
  }
  cwait(rreq);
}

}  // namespace mv2gnc::mpisim::detail
