// Reliable rendezvous under an adversarial fabric: retransmission after
// control-message loss and RDMA write errors, idempotent duplicate receipt,
// bounded failure, stall-watchdog fallback, and seeded determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"

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

// Pool-accounting invariant, asserted after every run in this suite: the
// vbuf arena's books must balance (audit() == "") and every slot still
// checked out must be parked in the graveyard — slots that failed/finished
// transfers could not release safely and that are freed only at teardown.
// Catches double-releases, leaks and free-list corruption under faults.
void expect_pools_quiesced(Cluster& cluster) {
  for (int r = 0; r < cluster.config().ranks; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}

// Attach a fault spec to every rendezvous control kind (RTS/CTS/ack/dones)
// and a write-fault spec to the chunk-fin immediates. Eager traffic (used
// by barriers) stays clean: the reliability layer covers rendezvous only.
void fault_rendezvous_control(netsim::FaultModel& fm, double drop_send,
                              double drop_imm, double fail_write) {
  netsim::FaultSpec ctrl;
  ctrl.drop_send = drop_send;
  for (int kind : {core::kRts, core::kCts, core::kChunkAck,
                   core::kSendDone, core::kRtsAck, core::kSendDoneAck,
                   core::kSendAbort}) {
    fm.set_kind(kind, ctrl);
  }
  netsim::FaultSpec data;
  data.drop_imm = drop_imm;
  data.fail_write = fail_write;
  fm.set_kind(core::kChunkFin, data);
}

struct SoakResult {
  sim::SimTime elapsed = 0;
  core::RetryStats sender;
  core::RetryStats receiver;
  std::uint64_t faults_injected = 0;
  std::size_t mismatches = 0;
};

// Pipelined strided device-to-device transfer of `rows` 4-byte rows
// (packed size = 4 * rows) from rank 0 to rank 1 on a faulty fabric,
// ending in a barrier. Returns counters and the number of byte mismatches.
SoakResult run_soak(const ClusterConfig& cfg, int rows) {
  Cluster cluster(cfg);
  SoakResult res;
  cluster.run([&](Context& ctx) {
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    const std::size_t span = static_cast<std::size_t>(rows) * 8 + 16;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    if (ctx.rank == 0) {
      std::vector<std::byte> host(span);
      for (std::size_t i = 0; i < span; ++i) {
        host[i] = static_cast<std::byte>((i * 131 + 7) & 0xFF);
      }
      ctx.cuda->memcpy(dev, host.data(), span);
      ctx.comm.send(dev, 1, col, 1, 0);
    } else {
      ctx.cuda->memset(dev, 0, span);
      ctx.comm.recv(dev, 1, col, 0, 0);
      std::vector<std::byte> out(span);
      ctx.cuda->memcpy(out.data(), dev, span);
      for (int r = 0; r < rows; ++r) {
        const std::size_t off = static_cast<std::size_t>(r) * 8;
        for (std::size_t b = 0; b < 4; ++b) {
          if (out[off + b] !=
              static_cast<std::byte>(((off + b) * 131 + 7) & 0xFF)) {
            ++res.mismatches;
          }
        }
      }
    }
    ctx.comm.barrier();
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  res.elapsed = cluster.elapsed();
  res.sender = cluster.retry_stats(0);
  res.receiver = cluster.retry_stats(1);
  res.faults_injected = cluster.rank_stats(0).faults_injected +
                        cluster.rank_stats(1).faults_injected;
  return res;
}

ClusterConfig lossy_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.rng_seed = seed;
  cfg.tunables.rndv_timeout_ns = 200'000;  // fast recovery in sim time
  cfg.tunables.rndv_max_retries = 25;
  fault_rendezvous_control(cfg.faults, /*drop_send=*/0.05,
                           /*drop_imm=*/0.05, /*fail_write=*/0.01);
  return cfg;
}

}  // namespace

TEST(Reliability, LossySoakDeliversByteIdentical) {
  // ISSUE acceptance: >= 4 MB pipelined strided device transfer across a
  // fabric dropping 5% of control messages and failing 1% of RDMA writes
  // arrives byte-identical, with nonzero retransmission counters.
  const SoakResult res = run_soak(lossy_config(2024), 1 << 20);  // 4 MB
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_GT(res.faults_injected, 0u);
  EXPECT_GT(res.sender.total_retransmits() + res.receiver.total_retransmits(),
            0u);
  EXPECT_EQ(res.sender.transfer_failures, 0u);
  EXPECT_EQ(res.receiver.transfer_failures, 0u);
}

TEST(Reliability, LossySoakIsDeterministicForFixedSeed) {
  const SoakResult a = run_soak(lossy_config(7), 1 << 19);
  const SoakResult b = run_soak(lossy_config(7), 1 << 19);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.sender.total_retransmits(), b.sender.total_retransmits());
  EXPECT_EQ(a.sender.timeouts, b.sender.timeouts);
  EXPECT_EQ(a.receiver.acks_resent, b.receiver.acks_resent);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(b.mismatches, 0u);
}

TEST(Reliability, FaultFreeRunsInjectNothingAndRetransmitNothing) {
  ClusterConfig cfg;  // benign FaultModel
  const SoakResult res = run_soak(cfg, 1 << 19);
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_EQ(res.faults_injected, 0u);
  EXPECT_EQ(res.sender.total_retransmits(), 0u);
  EXPECT_EQ(res.sender.timeouts, 0u);
  EXPECT_EQ(res.receiver.duplicates_dropped, 0u);
}

TEST(Reliability, AckLossReplaysStoredAcks) {
  // Dropping half the CHUNK_ACKs forces the sender to retransmit chunks it
  // already delivered; the receiver answers the duplicate fins by replaying
  // the stored ack instead of re-landing the data.
  ClusterConfig cfg;
  cfg.rng_seed = 11;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 40;
  netsim::FaultSpec ack_loss;
  ack_loss.drop_send = 0.5;
  cfg.faults.set_kind(core::kChunkAck, ack_loss);
  const SoakResult res = run_soak(cfg, 1 << 19);  // 2 MB
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_GT(res.sender.chunk_retransmits, 0u);
  EXPECT_GT(res.receiver.acks_resent, 0u);
  EXPECT_EQ(res.sender.transfer_failures, 0u);
}

TEST(Reliability, CtsLossRecoversViaRtsRetransmit) {
  ClusterConfig cfg;
  cfg.rng_seed = 5;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 40;
  netsim::FaultSpec cts_loss;
  cts_loss.drop_send = 0.7;
  cfg.faults.set_kind(core::kCts, cts_loss);
  const SoakResult res = run_soak(cfg, 1 << 18);  // 1 MB
  EXPECT_EQ(res.mismatches, 0u);
  // The receiver replayed its stored CTS at least once for a dup RTS, or
  // a retransmitted CTS got through; either way RTS retransmits happened.
  EXPECT_GT(res.sender.rts_retransmits, 0u);
  EXPECT_EQ(res.sender.transfer_failures, 0u);
}

TEST(Reliability, ExhaustedRetriesFailTheRequestInBoundedSimTime) {
  // A black-hole path (every RTS lost) must surface RequestError at the
  // sender within the retry budget's total backoff window — not hang.
  ClusterConfig cfg;
  cfg.rng_seed = 3;
  cfg.tunables.rndv_timeout_ns = 1'000'000;  // 1 ms
  cfg.tunables.rndv_max_retries = 3;
  netsim::FaultSpec black_hole;
  black_hole.drop_send = 1.0;
  cfg.faults.set_pair(0, 1, black_hole);
  Cluster cluster(cfg);
  bool threw = false;
  std::string what;
  sim::SimTime failed_at = 0;
  cluster.run([&](Context& ctx) {
    if (ctx.rank != 0) return;  // rank 1 never posts; the RTS is lost anyway
    std::vector<std::byte> buf(1 << 20, std::byte{1});
    auto byte_t = committed(Datatype::byte());
    auto req = ctx.comm.isend(buf.data(), 1 << 20, byte_t, 1, 0);
    try {
      ctx.comm.wait(req);
    } catch (const mpisim::RequestError& e) {
      threw = true;
      what = e.what();
      failed_at = ctx.engine->now();
    }
  });
  expect_pools_quiesced(cluster);
  EXPECT_TRUE(threw);
  EXPECT_NE(what.find("timed out"), std::string::npos);
  // Deadlines: 1ms grace + 1+2+4+8 ms of backed-off retries, plus slack.
  EXPECT_LE(failed_at, sim::SimTime{20'000'000});
  EXPECT_GE(failed_at, sim::SimTime{4'000'000});
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 1u);
  EXPECT_EQ(cluster.retry_stats(0).timeouts, 4u);  // max_retries + 1
}

TEST(Reliability, StallWatchdogDegradesToPinnedSlots) {
  // Two pooled vbufs, sixteen chunks, and a timeout far below the transmit
  // drain time: the stage frontier starves while both slots sit under
  // unacknowledged in-flight writes. The watchdog must grant a one-off
  // pinned slot rather than let the transfer idle until the acks return.
  ClusterConfig cfg;
  cfg.rng_seed = 1;
  cfg.tunables.vbuf_count = 2;
  cfg.tunables.recv_window = 2;
  // Pool-sized 64 KB chunks: this test exercises vbuf-pool stall recovery,
  // which model-selected (larger, pinned one-off) chunks would bypass.
  cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
  cfg.tunables.rndv_timeout_ns = 3'000;  // 3 us, well under chunk tx time
  cfg.tunables.rndv_max_retries = 200;   // never fail, only stall-recover
  Cluster cluster(cfg);
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;  // 1 MB contiguous device buffer, 16 chunks
    auto byte_t = committed(Datatype::byte());
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    if (ctx.rank == 0) {
      std::vector<std::byte> host(n);
      for (int i = 0; i < n; ++i) {
        host[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((i * 31) & 0xFF);
      }
      ctx.cuda->memcpy(dev, host.data(), static_cast<std::size_t>(n));
      ctx.comm.send(dev, n, byte_t, 1, 0);
    } else {
      ctx.cuda->memset(dev, 0, static_cast<std::size_t>(n));
      ctx.comm.recv(dev, n, byte_t, 0, 0);
      std::vector<std::byte> out(static_cast<std::size_t>(n));
      ctx.cuda->memcpy(out.data(), dev, static_cast<std::size_t>(n));
      for (int i = 0; i < n; i += 4097) {
        if (out[static_cast<std::size_t>(i)] !=
            static_cast<std::byte>((i * 31) & 0xFF)) {
          ++mismatches;
        }
      }
    }
    ctx.comm.barrier();
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(cluster.retry_stats(0).stall_fallbacks, 0u);
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 0u);
}

TEST(Reliability, LateReceiverOutlastsRetryBudget) {
  // A fault-free fabric, a sender whose whole retry budget spans ~1.4 ms,
  // and a receiver that posts the matching recv only after 50 ms. The
  // receiver's RTS_ACK must keep refreshing the sender's budget: a late
  // receiver is legal MPI, not message loss, so the transfer succeeds.
  ClusterConfig cfg;
  cfg.tunables.rndv_timeout_ns = 200'000;  // 200 us
  cfg.tunables.rndv_max_retries = 3;       // budget alone: ~1.4 ms << 50 ms
  Cluster cluster(cfg);
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    std::vector<std::byte> buf(static_cast<std::size_t>(n));
    if (ctx.rank == 0) {
      for (int i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((i * 7 + 1) & 0xFF);
      }
      ctx.comm.send(buf.data(), n, byte_t, 1, 0);
    } else {
      ctx.engine->delay(sim::milliseconds(50));  // RTS sits unexpected
      ctx.comm.recv(buf.data(), n, byte_t, 0, 0);
      for (int i = 0; i < n; i += 769) {
        if (buf[static_cast<std::size_t>(i)] !=
            static_cast<std::byte>((i * 7 + 1) & 0xFF)) {
          ++mismatches;
        }
      }
    }
    ctx.comm.barrier();
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(mismatches, 0u);
  const core::RetryStats& snd = cluster.retry_stats(0);
  // The sender probed (far) past its nominal budget without giving up.
  EXPECT_GT(snd.rts_retransmits, cfg.tunables.rndv_max_retries);
  EXPECT_EQ(snd.transfer_failures, 0u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 0u);
}

TEST(Reliability, SenderFailurePropagatesAbortToMatchedReceiver) {
  // Every chunk write's fin immediate is swallowed, so the sender exhausts
  // its budget with the rendezvous established. The SEND_ABORT must fail
  // the matched receive as a bounded per-request RequestError on rank 1 —
  // not leave it blocked until the engine's deadlock detector kills the
  // whole simulation.
  ClusterConfig cfg;
  cfg.rng_seed = 13;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  netsim::FaultSpec swallow;
  swallow.drop_imm = 1.0;
  cfg.faults.set_kind(core::kChunkFin, swallow);
  Cluster cluster(cfg);
  bool sender_threw = false;
  bool receiver_threw = false;
  std::string receiver_what;
  sim::SimTime receiver_failed_at = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    try {
      if (ctx.rank == 0) {
        ctx.comm.send(dev, n, byte_t, 1, 0);
      } else {
        ctx.comm.recv(dev, n, byte_t, 0, 0);
      }
    } catch (const mpisim::RequestError& e) {
      if (ctx.rank == 0) {
        sender_threw = true;
      } else {
        receiver_threw = true;
        receiver_what = e.what();
        receiver_failed_at = ctx.engine->now();
      }
    }
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  EXPECT_TRUE(sender_threw);
  EXPECT_TRUE(receiver_threw);
  EXPECT_NE(receiver_what.find("abort"), std::string::npos);
  // The abort arrives moments after the sender gives up (~3 ms of backed-off
  // retries) — far inside the receiver's own ~25 ms watchdog budget (twice
  // the sender's retry count).
  EXPECT_LE(receiver_failed_at, sim::SimTime{10'000'000});
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 1u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 1u);
}

TEST(Reliability, ReceiverWatchdogBoundsWaitWhenAbortIsLost) {
  // Same dead data path, but the best-effort SEND_ABORT is swallowed too.
  // The receiver's own liveness watchdog must fail the receive once the
  // sender has been silent for the whole backoff budget.
  ClusterConfig cfg;
  cfg.rng_seed = 17;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  netsim::FaultSpec swallow;
  swallow.drop_imm = 1.0;
  cfg.faults.set_kind(core::kChunkFin, swallow);
  netsim::FaultSpec black_hole;
  black_hole.drop_send = 1.0;
  cfg.faults.set_kind(core::kSendAbort, black_hole);
  Cluster cluster(cfg);
  bool receiver_threw = false;
  std::string receiver_what;
  sim::SimTime receiver_failed_at = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    try {
      if (ctx.rank == 0) {
        ctx.comm.send(dev, n, byte_t, 1, 0);
      } else {
        ctx.comm.recv(dev, n, byte_t, 0, 0);
      }
    } catch (const mpisim::RequestError& e) {
      if (ctx.rank == 1) {
        receiver_threw = true;
        receiver_what = e.what();
        receiver_failed_at = ctx.engine->now();
      }
    }
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  EXPECT_TRUE(receiver_threw);
  EXPECT_NE(receiver_what.find("silent"), std::string::npos);
  // The receiver's watchdog budget is twice the sender's retry count:
  // ~25 ms of backed-off silence before it fails the receive. Bounded —
  // never the deadlock detector.
  EXPECT_LE(receiver_failed_at, sim::SimTime{40'000'000});
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 1u);
}

TEST(Reliability, DirectModeCompletionSurvivesSendDoneLoss) {
  // Host-contiguous landings go straight into the user buffer, so the
  // receive may only complete once the sender's SEND_DONE proves no
  // duplicate write can still drain into it. With 95% of SEND_DONEs lost
  // the sender must keep retransmitting (the receiver acks it) until the
  // handshake closes; the request still completes with intact data.
  ClusterConfig cfg;
  cfg.rng_seed = 29;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 25;
  netsim::FaultSpec done_loss;
  done_loss.drop_send = 0.95;
  cfg.faults.set_kind(core::kSendDone, done_loss);
  Cluster cluster(cfg);
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;  // host-contiguous 1 MB: direct (kDirect) landing
    auto byte_t = committed(Datatype::byte());
    std::vector<std::byte> buf(static_cast<std::size_t>(n));
    if (ctx.rank == 0) {
      for (int i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((i * 13 + 5) & 0xFF);
      }
      ctx.comm.send(buf.data(), n, byte_t, 1, 0);
    } else {
      ctx.comm.recv(buf.data(), n, byte_t, 0, 0);
      for (int i = 0; i < n; i += 641) {
        if (buf[static_cast<std::size_t>(i)] !=
            static_cast<std::byte>((i * 13 + 5) & 0xFF)) {
          ++mismatches;
        }
      }
    }
    ctx.comm.barrier();
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(mismatches, 0u);
  const core::RetryStats& snd = cluster.retry_stats(0);
  EXPECT_GT(snd.send_done_retransmits, 0u);
  EXPECT_EQ(snd.transfer_failures, 0u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 0u);
}

TEST(Reliability, ForceDrainCompletesDirectReceiverWhenSenderGoesSilent) {
  // Every SEND_DONE is swallowed: the direct-mode sender eventually stops
  // retransmitting (budget out, data fully acked — not a failure), and the
  // receiver's watchdog force-drains, completing the request with the
  // payload it verifiably holds. Afterwards nothing is tracked: the
  // transfer shrank to its finished-transfer record.
  ClusterConfig cfg;
  cfg.rng_seed = 31;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 4;
  netsim::FaultSpec black_hole;
  black_hole.drop_send = 1.0;
  cfg.faults.set_kind(core::kSendDone, black_hole);
  Cluster cluster(cfg);
  std::size_t mismatches = 0;
  cluster.run([&](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    std::vector<std::byte> buf(static_cast<std::size_t>(n));
    if (ctx.rank == 0) {
      for (int i = 0; i < n; ++i) {
        buf[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((i * 11 + 2) & 0xFF);
      }
      ctx.comm.send(buf.data(), n, byte_t, 1, 0);
    } else {
      ctx.comm.recv(buf.data(), n, byte_t, 0, 0);
      for (int i = 0; i < n; i += 523) {
        if (buf[static_cast<std::size_t>(i)] !=
            static_cast<std::byte>((i * 11 + 2) & 0xFF)) {
          ++mismatches;
        }
      }
    }
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(cluster.retry_stats(1).force_drains, 0u);
  EXPECT_EQ(cluster.retry_stats(0).transfer_failures, 0u);
  EXPECT_EQ(cluster.retry_stats(1).transfer_failures, 0u);
  EXPECT_EQ(cluster.tracked_rendezvous(1), 0u);
}

TEST(Reliability, DrainedReceiversAreGarbageCollected) {
  // Issue: rts_index_ used to retain every rendezvous receiver (CTS/ack
  // payloads included) for the rank's lifetime. After a batch of finished
  // transfers the rank must track nothing — each shrinks to a few-word
  // finished-transfer record.
  ClusterConfig cfg;  // fault-free
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    auto byte_t = committed(Datatype::byte());
    const int n = 1 << 18;  // 256 KB: rendezvous, staged device landings
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    std::vector<std::byte> host(static_cast<std::size_t>(n), std::byte{5});
    for (int iter = 0; iter < 8; ++iter) {
      if (ctx.rank == 0) {
        ctx.comm.send(dev, n, byte_t, 1, iter);       // staged path
        ctx.comm.send(host.data(), n, byte_t, 1, iter);  // direct path
      } else {
        ctx.comm.recv(dev, n, byte_t, 0, iter);
        ctx.comm.recv(host.data(), n, byte_t, 0, iter);
      }
    }
    ctx.comm.barrier();
    ctx.cuda->free(dev);
  });
  expect_pools_quiesced(cluster);
  EXPECT_EQ(cluster.tracked_rendezvous(0), 0u);
  EXPECT_EQ(cluster.tracked_rendezvous(1), 0u);
}

TEST(Reliability, FaultEventsAppearInTrace) {
  ClusterConfig cfg = lossy_config(2024);
  cfg.trace_enabled = true;
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const int n = 1 << 21;  // 2 MB host-contiguous
    auto byte_t = committed(Datatype::byte());
    std::vector<std::byte> buf(static_cast<std::size_t>(n), std::byte{9});
    if (ctx.rank == 0) {
      ctx.comm.send(buf.data(), n, byte_t, 1, 0);
    } else {
      ctx.comm.recv(buf.data(), n, byte_t, 0, 0);
    }
    ctx.comm.barrier();
  });
  expect_pools_quiesced(cluster);
  const core::RetryStats& snd = cluster.retry_stats(0);
  ASSERT_GT(snd.timeouts + snd.total_retransmits(), 0u);
  std::uint64_t traced = 0;
  for (const char* cat :
       {"fault_timeout", "fault_rts_retransmit", "fault_chunk_retransmit",
        "fault_error_retransmit", "fault_ack_resent", "fault_cts_resent",
        "fault_stall_fallback"}) {
    traced += cluster.trace().count(cat);
  }
  EXPECT_GT(traced, 0u);
}
