// Concurrency scaling: the per-rank transfer progress scheduler (vbuf QoS
// reservations, round-robin overflow turns, adaptive pipeline depth) and
// CHUNK_ACK/credit coalescing, exercised with N simultaneous rendezvous
// transfers — on clean fabrics and under seeded drops + delivery jitter.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "mpi/cluster.hpp"
#include "core/sched.hpp"
#include "net/fabric.hpp"

namespace mpisim = mv2gnc::mpisim;
namespace netsim = mv2gnc::netsim;
namespace core = mv2gnc::core;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

void expect_pools_quiesced(Cluster& cluster) {
  for (int r = 0; r < cluster.config().ranks; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}

std::byte pattern(std::size_t i, int transfer) {
  return static_cast<std::byte>(
      (i * 131 + static_cast<std::size_t>(transfer) * 29 + 7) & 0xFF);
}

struct ConcResult {
  std::size_t mismatches = 0;
  sim::SimTime elapsed = 0;
  /// Receiver-side completion spread: wait-return time of the first and
  /// last transfer. Fifo drains transfers one after another (big spread);
  /// fair interleaves them (they finish together).
  sim::SimTime first_done = 0;
  sim::SimTime last_done = 0;
  core::SchedStats sender;
  core::SchedStats receiver;
  core::RetryStats sender_retries;
  core::RetryStats receiver_retries;
  std::uint64_t faults_injected = 0;
};

// `transfers` simultaneous device-to-device rendezvous transfers from
// rank 0 to rank 1, all posted before any wait, each carrying 4 * rows
// payload bytes. Strided (vector of `rows` 4-byte columns — the pack
// pipeline) or contiguous (plain chunked staging; its stage frontier is
// pool-limited, not pack-kernel-limited, so it is the shape that actually
// contends for vbufs). Per-transfer byte patterns keyed by the tag,
// verified on arrival.
ConcResult run_concurrent(const ClusterConfig& cfg, int transfers, int rows,
                          bool strided = true) {
  Cluster cluster(cfg);
  ConcResult res;
  cluster.run([&](Context& ctx) {
    auto col = strided
                   ? committed(Datatype::vector(rows, 1, 2,
                                                Datatype::float32()))
                   : committed(Datatype::byte());
    const int count = strided ? 1 : rows * 4;
    const std::size_t span = strided
                                 ? static_cast<std::size_t>(rows) * 8 + 16
                                 : static_cast<std::size_t>(rows) * 4;
    std::vector<std::byte*> dev(static_cast<std::size_t>(transfers));
    for (auto& d : dev) d = static_cast<std::byte*>(ctx.cuda->malloc(span));
    std::vector<mpisim::Request> reqs;
    reqs.reserve(static_cast<std::size_t>(transfers));
    if (ctx.rank == 0) {
      std::vector<std::byte> host(span);
      for (int t = 0; t < transfers; ++t) {
        for (std::size_t i = 0; i < span; ++i) host[i] = pattern(i, t);
        ctx.cuda->memcpy(dev[static_cast<std::size_t>(t)], host.data(), span);
        reqs.push_back(ctx.comm.isend(dev[static_cast<std::size_t>(t)],
                                      count, col, 1, /*tag=*/t));
      }
      for (auto& r : reqs) ctx.comm.wait(r);
    } else {
      for (int t = 0; t < transfers; ++t) {
        ctx.cuda->memset(dev[static_cast<std::size_t>(t)], 0, span);
        reqs.push_back(ctx.comm.irecv(dev[static_cast<std::size_t>(t)],
                                      count, col, 0, /*tag=*/t));
      }
      for (int t = 0; t < transfers; ++t) {
        ctx.comm.wait(reqs[static_cast<std::size_t>(t)]);
        if (t == 0) res.first_done = ctx.engine->now();
        res.last_done = ctx.engine->now();
      }
      std::vector<std::byte> out(span);
      for (int t = 0; t < transfers; ++t) {
        ctx.cuda->memcpy(out.data(), dev[static_cast<std::size_t>(t)], span);
        if (strided) {
          for (int r = 0; r < rows; ++r) {
            const std::size_t off = static_cast<std::size_t>(r) * 8;
            for (std::size_t b = 0; b < 4; ++b) {
              if (out[off + b] != pattern(off + b, t)) ++res.mismatches;
            }
          }
        } else {
          for (std::size_t i = 0; i < span; i += 2099) {
            if (out[i] != pattern(i, t)) ++res.mismatches;
          }
        }
      }
    }
    ctx.comm.barrier();
    for (auto* d : dev) ctx.cuda->free(d);
  });
  expect_pools_quiesced(cluster);
  res.elapsed = cluster.elapsed();
  res.sender = cluster.sched_stats(0);
  res.receiver = cluster.sched_stats(1);
  res.sender_retries = cluster.retry_stats(0);
  res.receiver_retries = cluster.retry_stats(1);
  res.faults_injected = cluster.rank_stats(0).faults_injected +
                        cluster.rank_stats(1).faults_injected;
  return res;
}

ClusterConfig fair_config() {
  ClusterConfig cfg;
  cfg.tunables.sched_policy = core::SchedPolicy::kFair;
  cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
  return cfg;
}

// Drops + delivery jitter on every rendezvous control kind, including the
// coalesced-ack batches; write faults on the data path. Eager traffic
// (barriers) stays clean.
void fault_rendezvous_control(netsim::FaultModel& fm, double drop_send,
                              double drop_imm, double fail_write,
                              sim::SimTime jitter_ns) {
  netsim::FaultSpec ctrl;
  ctrl.drop_send = drop_send;
  ctrl.jitter_ns = jitter_ns;
  for (int kind : {core::kRts, core::kCts, core::kChunkAck,
                   core::kChunkAckBatch, core::kSendDone,
                   core::kRtsAck, core::kSendDoneAck, core::kSendAbort}) {
    fm.set_kind(kind, ctrl);
  }
  netsim::FaultSpec data;
  data.drop_imm = drop_imm;
  data.fail_write = fail_write;
  data.jitter_ns = jitter_ns;
  fm.set_kind(core::kChunkFin, data);
}

}  // namespace

TEST(Sched, ConcurrentFairTransfersSurviveFaultsByteExact) {
  // ISSUE acceptance: 8 simultaneous strided device transfers, fair QoS +
  // ack coalescing, on a fabric dropping 3% of control messages (batches
  // included), failing 0.5% of writes and jittering deliveries. Everything
  // completes byte-exact and the pool books balance afterwards.
  ClusterConfig cfg = fair_config();
  cfg.rng_seed = 42;
  cfg.tunables.ack_coalesce_window_ns = 30'000;
  cfg.tunables.vbuf_count = 16;
  cfg.tunables.rndv_timeout_ns = 400'000;
  cfg.tunables.rndv_max_retries = 40;
  fault_rendezvous_control(cfg.faults, /*drop_send=*/0.03, /*drop_imm=*/0.03,
                           /*fail_write=*/0.005, /*jitter_ns=*/5'000);
  const ConcResult res = run_concurrent(cfg, /*transfers=*/8, 1 << 16);
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_GT(res.faults_injected, 0u);
  EXPECT_EQ(res.sender_retries.transfer_failures, 0u);
  EXPECT_EQ(res.receiver_retries.transfer_failures, 0u);
  // All eight were in flight at once on both sides, and the fair gate saw
  // real traffic.
  EXPECT_EQ(res.sender.active_high_water, 8u);
  EXPECT_EQ(res.receiver.active_high_water, 8u);
  EXPECT_GT(res.sender.grants_reserve + res.sender.grants_overflow, 0u);
}

TEST(Sched, ConcurrentRunsAreDeterministicForFixedSeed) {
  ClusterConfig cfg = fair_config();
  cfg.rng_seed = 9;
  cfg.tunables.ack_coalesce_window_ns = 30'000;
  cfg.tunables.rndv_timeout_ns = 400'000;
  cfg.tunables.rndv_max_retries = 40;
  fault_rendezvous_control(cfg.faults, 0.03, 0.03, 0.005, 5'000);
  const ConcResult a = run_concurrent(cfg, 6, 1 << 15);
  const ConcResult b = run_concurrent(cfg, 6, 1 << 15);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.sender.denials, b.sender.denials);
  EXPECT_EQ(a.receiver.ack_batches, b.receiver.ack_batches);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(b.mismatches, 0u);
}

TEST(Sched, DefaultTunablesKeepEveryGateIdle) {
  // fifo + window 0 is the ablation baseline: the scheduler observes (the
  // control census still counts) but never gates, queues or batches.
  ClusterConfig cfg;  // defaults: kFifo, ack_coalesce_window_ns = 0
  const ConcResult res = run_concurrent(cfg, 4, 1 << 16);
  EXPECT_EQ(res.mismatches, 0u);
  for (const core::SchedStats* s : {&res.sender, &res.receiver}) {
    EXPECT_EQ(s->denials, 0u);
    EXPECT_EQ(s->queue_waits, 0u);
    EXPECT_EQ(s->grants_reserve + s->grants_overflow, 0u);
    EXPECT_EQ(s->ack_batches, 0u);
    EXPECT_EQ(s->acks_coalesced, 0u);
    EXPECT_EQ(s->depth_shrinks + s->depth_grows, 0u);
  }
  // ... while the observability census still sees the protocol.
  EXPECT_EQ(res.sender.ctrl_by_kind[core::kRts], 4u);
  EXPECT_GT(res.receiver.ctrl_by_kind[core::kChunkAck], 0u);
  EXPECT_GT(res.receiver.ctrl_by_kind[core::kCts], 0u);
}

TEST(Sched, CoalescingCutsAckMessagesOnTheWire) {
  // ISSUE acceptance: with ack_coalesce_window_ns > 0 the control-message
  // count per transfer drops measurably — acks ride in batches instead of
  // one message each — at identical payload correctness.
  ClusterConfig base;
  base.tunables.chunk_select = core::ChunkSelect::kFixed;
  ClusterConfig coalesced = base;
  coalesced.tunables.ack_coalesce_window_ns = 200'000;
  const ConcResult individual = run_concurrent(base, 4, 1 << 16);
  const ConcResult batched = run_concurrent(coalesced, 4, 1 << 16);
  EXPECT_EQ(individual.mismatches, 0u);
  EXPECT_EQ(batched.mismatches, 0u);
  // Baseline: every chunk ack is its own wire message.
  EXPECT_GT(individual.receiver.acks_individual, 0u);
  EXPECT_EQ(individual.receiver.ack_batches, 0u);
  // Coalesced: batches exist, and the number of ack-bearing wire messages
  // (singles + batches) shrank.
  EXPECT_GT(batched.receiver.ack_batches, 0u);
  EXPECT_GT(batched.receiver.coalesce_ratio(), 0.0);
  EXPECT_LT(batched.receiver.acks_individual + batched.receiver.ack_batches,
            individual.receiver.acks_individual);
  EXPECT_LT(batched.receiver.ctrl_total(), individual.receiver.ctrl_total());
}

TEST(Sched, CoalescedAckLossRecovers) {
  // Dropping 40% of both ack forms forces chunk retransmission; duplicate
  // fins are answered with stored-ack replays (which bypass the coalescing
  // window — recovery traffic must not idle in a batch).
  ClusterConfig cfg = fair_config();
  cfg.rng_seed = 23;
  cfg.tunables.ack_coalesce_window_ns = 100'000;
  cfg.tunables.rndv_timeout_ns = 300'000;
  cfg.tunables.rndv_max_retries = 60;
  netsim::FaultSpec ack_loss;
  ack_loss.drop_send = 0.4;
  cfg.faults.set_kind(core::kChunkAck, ack_loss);
  cfg.faults.set_kind(core::kChunkAckBatch, ack_loss);
  const ConcResult res = run_concurrent(cfg, 4, 1 << 16);
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_GT(res.sender_retries.chunk_retransmits, 0u);
  EXPECT_EQ(res.sender_retries.transfer_failures, 0u);
  EXPECT_EQ(res.receiver_retries.transfer_failures, 0u);
}

TEST(Sched, FairShrinksCompletionSpreadUnderPoolContention) {
  // Four 512 KB transfers over an 8-slot pool. Under fifo the early
  // transfers hoover the pool and the rest drain one after another; fair
  // reserves slots per transfer, so completions bunch together and no
  // transfer waits longer than the stall watchdog would tolerate.
  ClusterConfig fifo;
  fifo.tunables.chunk_select = core::ChunkSelect::kFixed;
  fifo.tunables.vbuf_count = 8;
  fifo.tunables.recv_window = 4;
  fifo.tunables.rndv_timeout_ns = 300'000;
  fifo.tunables.rndv_max_retries = 100;
  ClusterConfig fair = fifo;
  fair.tunables.sched_policy = core::SchedPolicy::kFair;
  const ConcResult f = run_concurrent(fifo, 4, 1 << 17, /*strided=*/false);
  const ConcResult q = run_concurrent(fair, 4, 1 << 17, /*strided=*/false);
  EXPECT_EQ(f.mismatches, 0u);
  EXPECT_EQ(q.mismatches, 0u);
  // The fair gate actually arbitrated (denials resolved into queue waits
  // with measurable latency) ...
  EXPECT_GT(q.sender.denials, 0u);
  EXPECT_GT(q.sender.queue_waits, 0u);
  EXPECT_GT(q.sender.avg_queue_wait_ns(), 0);
  // ... and sharing beats hogging on both fairness axes: completions bunch
  // and starvation-driven pinned-slot fallbacks do not increase.
  EXPECT_LE(q.last_done - q.first_done, f.last_done - f.first_done);
  EXPECT_LE(q.sender_retries.stall_fallbacks + q.receiver_retries.stall_fallbacks,
            f.sender_retries.stall_fallbacks + f.receiver_retries.stall_fallbacks);
}

TEST(Sched, AdaptiveDepthShrinksUnderContentionAndGrowsBackWhenCalm) {
  // Phase 1: four contiguous 512 KB transfers fight over an 8-slot pool —
  // pool-contended denials halve the sender's pipeline depth. Phase 2
  // (same run, after a barrier): a lone 1 MB transfer sails through the
  // now-idle pool, and runs of calm grants climb the depth back up.
  ClusterConfig cfg = fair_config();
  cfg.tunables.vbuf_count = 8;
  cfg.tunables.recv_window = 4;
  cfg.tunables.rndv_timeout_ns = 300'000;
  cfg.tunables.rndv_max_retries = 100;
  Cluster cluster(cfg);
  const int transfers = 4;
  cluster.run([&](Context& ctx) {
    auto byte_t = committed(Datatype::byte());
    const int n = 1 << 19;  // 512 KB, 8 chunks
    std::vector<std::byte*> dev(static_cast<std::size_t>(transfers));
    for (auto& d : dev) {
      d = static_cast<std::byte*>(
          ctx.cuda->malloc(static_cast<std::size_t>(n)));
    }
    std::vector<mpisim::Request> reqs;
    for (int t = 0; t < transfers; ++t) {
      if (ctx.rank == 0) {
        reqs.push_back(
            ctx.comm.isend(dev[static_cast<std::size_t>(t)], n, byte_t, 1, t));
      } else {
        reqs.push_back(
            ctx.comm.irecv(dev[static_cast<std::size_t>(t)], n, byte_t, 0, t));
      }
    }
    for (auto& r : reqs) ctx.comm.wait(r);
    ctx.comm.barrier();
    // Phase 2: calm — one transfer, 16 chunks, pool to itself.
    const int big_n = 1 << 20;
    auto* big = static_cast<std::byte*>(
        ctx.cuda->malloc(static_cast<std::size_t>(big_n)));
    if (ctx.rank == 0) {
      ctx.comm.send(big, big_n, byte_t, 1, 99);
    } else {
      ctx.comm.recv(big, big_n, byte_t, 0, 99);
    }
    ctx.comm.barrier();
    ctx.cuda->free(big);
    for (auto* d : dev) ctx.cuda->free(d);
  });
  expect_pools_quiesced(cluster);
  const core::SchedStats& snd = cluster.sched_stats(0);
  EXPECT_GT(snd.denials, 0u);
  EXPECT_GT(snd.depth_shrinks, 0u);
  EXPECT_GT(snd.depth_grows, 0u);
}

TEST(Sched, EcnMarkHalvesDepthAndCleanStreakGrowsItBack) {
  // Unit-level: drive the scheduler's ECN control loop directly. Under
  // kFifo with marking armed the depth opens at the ceiling, one marked
  // ack halves it, marks within the same episode are absorbed, and
  // ecn_restore_chunks clean acks earn one step back.
  sim::Engine eng;
  netsim::Fabric fab(eng, 2, netsim::NetCostModel::qdr_ib());
  core::FabricTransport ft(fab.endpoint(0));
  core::TransportRouter router(ft);
  core::VbufPool pool(32, 64 * 1024);
  core::Tunables tun;
  tun.ecn_backlog_ns = 1000;
  tun.ecn_restore_chunks = 4;
  core::TransferScheduler sched(eng, pool, tun, router);
  ASSERT_TRUE(sched.ecn_enabled());
  sched.register_transfer(7);
  const std::size_t open = sched.inflight_cap();
  EXPECT_GT(open, 1u);
  sched.note_chunk_ack(7, /*congested=*/true);
  EXPECT_EQ(sched.inflight_cap(), open / 2);
  EXPECT_EQ(sched.stats().ecn_marks, 1u);
  EXPECT_EQ(sched.stats().depth_shrinks_ecn, 1u);
  EXPECT_EQ(sched.transfer_ecn_marks(7), 1u);
  // A second mark right behind the first describes the same congestion
  // episode (rate limit: one halving per depth's worth of acks).
  sched.note_chunk_ack(7, /*congested=*/true);
  EXPECT_EQ(sched.inflight_cap(), open / 2);
  EXPECT_EQ(sched.stats().ecn_marks, 2u);
  EXPECT_EQ(sched.stats().depth_shrinks_ecn, 1u);
  // Hysteresis growth: exactly ecn_restore_chunks clean acks per step.
  for (int i = 0; i < 3; ++i) sched.note_chunk_ack(7, false);
  EXPECT_EQ(sched.inflight_cap(), open / 2);
  sched.note_chunk_ack(7, false);
  EXPECT_EQ(sched.inflight_cap(), open / 2 + 1);
  EXPECT_EQ(sched.stats().depth_grows_ecn, 1u);
}

TEST(Sched, EcnDisabledIgnoresMarkedAcks) {
  sim::Engine eng;
  netsim::Fabric fab(eng, 2, netsim::NetCostModel::qdr_ib());
  core::FabricTransport ft(fab.endpoint(0));
  core::TransportRouter router(ft);
  core::VbufPool pool(32, 64 * 1024);
  core::Tunables tun;  // ecn_backlog_ns = 0: feedback off
  core::TransferScheduler sched(eng, pool, tun, router);
  ASSERT_FALSE(sched.ecn_enabled());
  sched.register_transfer(3);
  const std::size_t cap = sched.inflight_cap();
  sched.note_chunk_ack(3, /*congested=*/true);
  EXPECT_EQ(sched.inflight_cap(), cap);
  EXPECT_EQ(sched.stats().ecn_marks, 0u);
  EXPECT_EQ(sched.stats().depth_shrinks_ecn, 0u);
}

TEST(Sched, EcnFeedbackThrottlesFunneledIncastEndToEnd) {
  // Two senders on the far leaf of a one-uplink fat tree both push 1 MB at
  // rank 0: every chunk fin funnels through one shared uplink, queues past
  // the threshold, gets marked, and the echoed marks shrink the senders'
  // pipeline depth. Data must still land byte-exact.
  ClusterConfig cfg;
  cfg.ranks = 4;
  cfg.topology = netsim::FabricTopology::fat_tree(2, 2.0);  // 1 uplink/leaf
  cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
  cfg.tunables.ecn_backlog_ns = 10'000;
  cfg.tunables.ecn_restore_chunks = 4;
  Cluster cluster(cfg);
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    auto byte_t = committed(Datatype::byte());
    const int n = 1 << 20;  // 16 chunks at the fixed 64 KB
    if (ctx.rank == 2 || ctx.rank == 3) {
      std::vector<std::byte> host(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < host.size(); ++i) {
        host[i] = pattern(i, ctx.rank);
      }
      auto* dev = static_cast<std::byte*>(
          ctx.cuda->malloc(static_cast<std::size_t>(n)));
      ctx.cuda->memcpy(dev, host.data(), host.size());
      ctx.comm.send(dev, n, byte_t, 0, ctx.rank);
      ctx.cuda->free(dev);
    } else if (ctx.rank == 0) {
      // Both receives posted up front so the two senders stream their
      // chunk pipelines concurrently — sequential receives would let each
      // transfer run alone and the shared links would never queue.
      std::byte* dev[2];
      std::vector<mpisim::Request> reqs;
      for (int i = 0; i < 2; ++i) {
        dev[i] = static_cast<std::byte*>(
            ctx.cuda->malloc(static_cast<std::size_t>(n)));
        ctx.cuda->memset(dev[i], 0, static_cast<std::size_t>(n));
        reqs.push_back(ctx.comm.irecv(dev[i], n, byte_t, 2 + i, 2 + i));
      }
      ctx.comm.waitall(reqs);
      for (int i = 0; i < 2; ++i) {
        std::vector<std::byte> out(static_cast<std::size_t>(n));
        ctx.cuda->memcpy(out.data(), dev[i], out.size());
        for (std::size_t j = 0; j < out.size(); j += 4099) {
          if (out[j] != pattern(j, 2 + i)) ++mismatches;
        }
        ctx.cuda->free(dev[i]);
      }
    }
    ctx.comm.barrier();
  });
  EXPECT_EQ(mismatches, 0u);
  expect_pools_quiesced(cluster);
  std::uint64_t marks = 0;
  std::uint64_t shrinks = 0;
  for (int r = 0; r < cfg.ranks; ++r) {
    marks += cluster.sched_stats(r).ecn_marks;
    shrinks += cluster.sched_stats(r).depth_shrinks_ecn;
  }
  EXPECT_GT(marks, 0u);
  EXPECT_GT(shrinks, 0u);
  // The fabric counted the same congestion the senders reacted to.
  std::uint64_t link_marks = 0;
  for (const netsim::LinkStats& l : cluster.link_stats()) {
    link_marks += l.ecn_marks;
  }
  EXPECT_GT(link_marks, 0u);
}
