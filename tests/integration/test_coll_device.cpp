// Device-buffer collectives (docs/COLLECTIVES.md, "Device-resident
// buffers"): the staged and sliced-pipeline schedules must be byte-exact
// with the host path across the placement / algorithm matrix,
// survive the lossy fault matrix, return every staging slot, and stay
// hang-free when a rank crash-stops mid-pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"

namespace core = mv2gnc::core;
namespace netsim = mv2gnc::netsim;
namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

// A count with a remainder against every node size and slice cut in the
// matrix, so the ragged-edge paths run too.
constexpr int kCount = 24'001;

ClusterConfig matrix_config(int ranks, int rpn, core::CollSelect sel,
                            core::CollDevice dev) {
  ClusterConfig cfg;
  cfg.ranks = ranks;
  cfg.tunables.ranks_per_node = static_cast<std::size_t>(rpn);
  cfg.tunables.coll_select = sel;
  cfg.tunables.coll_device = dev;
  // Force several slices per call so the per-slice tag machinery, the
  // prefetch window and the write-back stream all see real traffic.
  cfg.tunables.coll_slice_bytes = 32'768;
  return cfg;
}

std::vector<double> seed_vector(int rank, int count) {
  std::vector<double> v(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<double>(rank + 1) * static_cast<double>(i % 29 - 14);
  }
  return v;
}

void expect_pools_quiesced(Cluster& cluster) {
  for (int r = 0; r < cluster.config().ranks; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}

// One allreduce_sum over the given config; device = true stages the
// operands through registered device memory. Returns every rank's result.
std::vector<std::vector<double>> run_allreduce(const ClusterConfig& cfg,
                                               bool device,
                                               bool audit_pools = true) {
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(cfg.ranks),
      std::vector<double>(static_cast<std::size_t>(kCount)));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    std::vector<double>& res = out[static_cast<std::size_t>(ctx.rank)];
    const std::size_t bytes = sizeof(double) * kCount;
    if (device) {
      auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
      auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
      ctx.cuda->memcpy(din, in.data(), bytes);
      ctx.comm.allreduce_sum(din, dout, kCount);
      ctx.cuda->memcpy(res.data(), dout, bytes);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
    } else {
      ctx.comm.allreduce_sum(in.data(), res.data(), kCount);
    }
  });
  if (audit_pools) expect_pools_quiesced(cluster);
  return out;
}

std::vector<std::vector<std::int32_t>> run_bcast(const ClusterConfig& cfg,
                                                 bool device, int root) {
  constexpr int kN = 30'011;
  std::vector<std::vector<std::int32_t>> out(
      static_cast<std::size_t>(cfg.ranks),
      std::vector<std::int32_t>(static_cast<std::size_t>(kN)));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    std::vector<std::int32_t>& buf = out[static_cast<std::size_t>(ctx.rank)];
    if (ctx.rank == root) {
      for (int i = 0; i < kN; ++i) {
        buf[static_cast<std::size_t>(i)] = i * 7 - 3;
      }
    }
    auto dt = Datatype::int32();
    dt.commit();
    const std::size_t bytes = sizeof(std::int32_t) * kN;
    if (device) {
      auto* dbuf = static_cast<std::int32_t*>(ctx.cuda->malloc(bytes));
      ctx.cuda->memcpy(dbuf, buf.data(), bytes);
      ctx.comm.bcast(dbuf, kN, dt, root);
      ctx.cuda->memcpy(buf.data(), dbuf, bytes);
      ctx.cuda->free(dbuf);
    } else {
      ctx.comm.bcast(buf.data(), kN, dt, root);
    }
  });
  expect_pools_quiesced(cluster);
  return out;
}

std::vector<std::vector<std::byte>> run_allgather(const ClusterConfig& cfg,
                                                  bool device) {
  constexpr int kBlock = 20'483;
  const std::size_t total =
      static_cast<std::size_t>(kBlock) * static_cast<std::size_t>(cfg.ranks);
  std::vector<std::vector<std::byte>> out(
      static_cast<std::size_t>(cfg.ranks), std::vector<std::byte>(total));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    std::vector<std::byte> in(static_cast<std::size_t>(kBlock));
    for (int i = 0; i < kBlock; ++i) {
      in[static_cast<std::size_t>(i)] =
          static_cast<std::byte>((ctx.rank * 37 + i) & 0xff);
    }
    auto dt = Datatype::byte();
    dt.commit();
    std::vector<std::byte>& res = out[static_cast<std::size_t>(ctx.rank)];
    if (device) {
      auto* din = static_cast<std::byte*>(ctx.cuda->malloc(in.size()));
      auto* dout = static_cast<std::byte*>(ctx.cuda->malloc(total));
      ctx.cuda->memcpy(din, in.data(), in.size());
      ctx.comm.allgather(din, kBlock, dt, dout);
      ctx.cuda->memcpy(res.data(), dout, total);
      ctx.cuda->free(din);
      ctx.cuda->free(dout);
    } else {
      ctx.comm.allgather(in.data(), kBlock, dt, res.data());
    }
  });
  expect_pools_quiesced(cluster);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Byte-compare matrix: host == device-staged == device-pipelined across
// rpn x coll_select.
// ---------------------------------------------------------------------------

struct MatrixCase {
  int rpn;
  core::CollSelect sel;
  // Name suffix only (`_stream` / `_polled`): it keeps each case's test ID
  // stable from when the matrix also varied the since-removed
  // stream-triggered posting mode. Every case runs the one host-driven
  // schedule.
  bool stream_suffix;
};

class CollDeviceMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(CollDeviceMatrix, AllreduceBitExactAcrossSchedules) {
  const MatrixCase& mc = GetParam();
  const auto host = run_allreduce(
      matrix_config(8, mc.rpn, mc.sel, core::CollDevice::kStaged),
      /*device=*/false);
  const auto staged = run_allreduce(
      matrix_config(8, mc.rpn, mc.sel, core::CollDevice::kStaged),
      /*device=*/true);
  const auto piped = run_allreduce(
      matrix_config(8, mc.rpn, mc.sel, core::CollDevice::kPipelined),
      /*device=*/true);
  const auto autod = run_allreduce(
      matrix_config(8, mc.rpn, mc.sel, core::CollDevice::kAuto),
      /*device=*/true);
  for (int r = 0; r < 8; ++r) {
    const auto& h = host[static_cast<std::size_t>(r)];
    EXPECT_EQ(0, std::memcmp(h.data(),
                             staged[static_cast<std::size_t>(r)].data(),
                             h.size() * sizeof(double)))
        << "staged diverges at rank " << r;
    EXPECT_EQ(0, std::memcmp(h.data(),
                             piped[static_cast<std::size_t>(r)].data(),
                             h.size() * sizeof(double)))
        << "pipelined diverges at rank " << r;
    EXPECT_EQ(0, std::memcmp(h.data(),
                             autod[static_cast<std::size_t>(r)].data(),
                             h.size() * sizeof(double)))
        << "auto diverges at rank " << r;
  }
}

TEST_P(CollDeviceMatrix, BcastAndAllgatherBitExactAcrossSchedules) {
  const MatrixCase& mc = GetParam();
  const auto mk = [&](core::CollDevice dev) {
    return matrix_config(8, mc.rpn, mc.sel, dev);
  };
  const auto bhost = run_bcast(mk(core::CollDevice::kStaged), false, 2);
  const auto bstaged = run_bcast(mk(core::CollDevice::kStaged), true, 2);
  const auto bpiped = run_bcast(mk(core::CollDevice::kPipelined), true, 2);
  const auto ghost = run_allgather(mk(core::CollDevice::kStaged), false);
  const auto gstaged = run_allgather(mk(core::CollDevice::kStaged), true);
  const auto gpiped = run_allgather(mk(core::CollDevice::kPipelined), true);
  for (int r = 0; r < 8; ++r) {
    const std::size_t ri = static_cast<std::size_t>(r);
    EXPECT_EQ(bhost[ri], bstaged[ri]) << "staged bcast, rank " << r;
    EXPECT_EQ(bhost[ri], bpiped[ri]) << "pipelined bcast, rank " << r;
    EXPECT_EQ(0, std::memcmp(ghost[ri].data(), gstaged[ri].data(),
                             ghost[ri].size()))
        << "staged allgather, rank " << r;
    EXPECT_EQ(0, std::memcmp(ghost[ri].data(), gpiped[ri].data(),
                             ghost[ri].size()))
        << "pipelined allgather, rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, CollDeviceMatrix,
    ::testing::Values(
        MatrixCase{1, core::CollSelect::kFlat, false},
        MatrixCase{1, core::CollSelect::kAuto, true},
        MatrixCase{2, core::CollSelect::kFlat, false},
        MatrixCase{2, core::CollSelect::kHier, false},
        MatrixCase{2, core::CollSelect::kAuto, false},
        MatrixCase{4, core::CollSelect::kFlat, true},
        MatrixCase{4, core::CollSelect::kHier, false},
        MatrixCase{4, core::CollSelect::kAuto, true}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      const MatrixCase& mc = info.param;
      std::string name = "rpn" + std::to_string(mc.rpn);
      name += mc.sel == core::CollSelect::kFlat    ? "_flat"
              : mc.sel == core::CollSelect::kHier ? "_hier"
                                                  : "_auto";
      name += mc.stream_suffix ? "_stream" : "_polled";
      return name;
    });

// A non-power-of-two group exercises the pre/post pairing of the sliced
// wire leg on every schedule.
TEST(CollDevice, NonPowerOfTwoGroupBitExact) {
  const auto host = run_allreduce(
      matrix_config(6, 2, core::CollSelect::kAuto, core::CollDevice::kStaged),
      false);
  const auto piped = run_allreduce(
      matrix_config(6, 2, core::CollSelect::kAuto,
                    core::CollDevice::kPipelined),
      true);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(0, std::memcmp(host[static_cast<std::size_t>(r)].data(),
                             piped[static_cast<std::size_t>(r)].data(),
                             sizeof(double) * kCount))
        << "rank " << r;
  }
}

// Mixed residency (device send buffer, host recv buffer) must still agree
// with the host result — it rides the staged schedule's wire leg.
TEST(CollDevice, MixedResidencyFallsBackToStaged) {
  ClusterConfig cfg = matrix_config(4, 2, core::CollSelect::kAuto,
                                    core::CollDevice::kPipelined);
  std::vector<std::vector<double>> out(
      4, std::vector<double>(static_cast<std::size_t>(kCount)));
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    const std::size_t bytes = sizeof(double) * kCount;
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    ctx.comm.allreduce_sum(din, out[static_cast<std::size_t>(ctx.rank)].data(),
                           kCount);
    ctx.cuda->free(din);
  });
  const auto host = run_allreduce(
      matrix_config(4, 2, core::CollSelect::kAuto, core::CollDevice::kStaged),
      false);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(0, std::memcmp(host[static_cast<std::size_t>(r)].data(),
                             out[static_cast<std::size_t>(r)].data(),
                             sizeof(double) * kCount))
        << "rank " << r;
  }
  // Pipelined never engaged: the recv side lives on the host.
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.coll_stats(r).allreduce.device_pipelined, 0u)
        << "rank " << r;
    EXPECT_GT(cluster.coll_stats(r).allreduce.device_calls, 0u)
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(CollDevice, PipelinedCountersAndPeerBytes) {
  ClusterConfig cfg = matrix_config(8, 2, core::CollSelect::kHier,
                                    core::CollDevice::kPipelined);
  const auto piped = run_allreduce(cfg, true);
  (void)piped;
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    const std::size_t bytes = sizeof(double) * kCount;
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    ctx.comm.allreduce_sum(din, dout, kCount);
    ctx.cuda->free(din);
    ctx.cuda->free(dout);
  });
  for (int r = 0; r < 8; ++r) {
    const auto& ar = cluster.coll_stats(r).allreduce;
    EXPECT_EQ(ar.device_calls, 1u) << "rank " << r;
    EXPECT_EQ(ar.device_pipelined, 1u) << "rank " << r;
    EXPECT_GT(ar.device_slices, 1u) << "rank " << r;
    EXPECT_GT(ar.reduce_kernels, 0u) << "rank " << r;
    // Hier at rpn 2: the intra rings exchanged device pointers over the
    // device-direct IPC peer path; the fabric stripe staged across PCIe.
    EXPECT_GT(ar.bytes_peer, 0u) << "rank " << r;
    EXPECT_GT(ar.bytes_staged, 0u) << "rank " << r;
    EXPECT_GT(ar.device_elapsed_ns, 0) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Fault matrix: lossy fabric + lossy IPC under both schedules.
// ---------------------------------------------------------------------------

TEST(CollDevice, LossyFabricAndIpcStillBitExact) {
  for (core::CollDevice dev :
       {core::CollDevice::kStaged, core::CollDevice::kPipelined}) {
    ClusterConfig cfg = matrix_config(8, 2, core::CollSelect::kAuto, dev);
    cfg.rng_seed = 23;
    netsim::FaultSpec drop;
    drop.drop_send = 0.02;
    cfg.faults.set_default(drop);
    cfg.ipc_faults.set_default(drop);
    const auto lossy = run_allreduce(cfg, true);
    ClusterConfig clean = matrix_config(8, 2, core::CollSelect::kAuto,
                                        core::CollDevice::kStaged);
    const auto host = run_allreduce(clean, false);
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(0, std::memcmp(host[static_cast<std::size_t>(r)].data(),
                               lossy[static_cast<std::size_t>(r)].data(),
                               sizeof(double) * kCount))
          << "schedule " << static_cast<int>(dev) << ", rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-stop mid device collective: survivors abort cleanly, nobody hangs,
// survivor pools quiesce, and the aborted op's scratch arena is parked
// rather than recycled.
// ---------------------------------------------------------------------------

TEST(CollDevice, CrashMidPipelinedAllreduceDoesNotHang) {
  ClusterConfig cfg = matrix_config(4, 2, core::CollSelect::kHier,
                                    core::CollDevice::kPipelined);
  cfg.rng_seed = 11;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  cfg.crash_at = {{3, sim::SimTime{1'500'000}}};
  Cluster cluster(cfg);
  struct Outcome {
    bool finished = false;
    std::string error;
    std::uint64_t allocs_at_abort = 0;
    std::uint64_t allocs_after_next = 0;
  };
  std::vector<Outcome> outcome(4);
  cluster.run([&](Context& ctx) {
    auto& me = outcome[static_cast<std::size_t>(ctx.rank)];
    // Built before the crash; the abort poisons only the world context.
    mpisim::Communicator survivors =
        ctx.comm.split(ctx.rank == 3 ? mpisim::Communicator::kUndefinedColor
                                     : 0);
    const std::vector<double> in = seed_vector(ctx.rank, kCount);
    const std::size_t bytes = sizeof(double) * kCount;
    // Deliberately never freed before teardown: an aborted pipeline's
    // already-enqueued write-back may still land in the destination
    // buffer after the fiber unwound (same liveness rule as any buffer
    // handed to a collective).
    auto* din = static_cast<double*>(ctx.cuda->malloc(bytes));
    auto* dout = static_cast<double*>(ctx.cuda->malloc(bytes));
    ctx.cuda->memcpy(din, in.data(), bytes);
    try {
      for (int it = 0; it < 50; ++it) {
        ctx.comm.allreduce_sum(din, dout, kCount);
      }
    } catch (const mpisim::RequestError& e) {
      me.error = e.what();
    }
    // The next collective (a barrier: one token of scratch on every rank,
    // far less than the parked arena) must start a fresh arena — the
    // parked one may still take stale deliveries.
    me.allocs_at_abort = cluster.coll_stats(ctx.rank).scratch_allocs;
    survivors.barrier();
    me.allocs_after_next = cluster.coll_stats(ctx.rank).scratch_allocs;
    me.finished = true;
  });
  for (int r = 0; r < 3; ++r) {
    const auto& o = outcome[static_cast<std::size_t>(r)];
    EXPECT_TRUE(o.finished) << "rank " << r << " hung";
    EXPECT_NE(o.error.find("aborted"), std::string::npos)
        << "rank " << r << ": " << o.error;
    EXPECT_EQ(cluster.coll_stats(r).scratch_parked, 1u) << "rank " << r;
    EXPECT_EQ(o.allocs_after_next, o.allocs_at_abort + 1) << "rank " << r;
  }
  EXPECT_FALSE(outcome[3].finished);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.vbuf_audit(r), "") << "rank " << r;
    EXPECT_EQ(cluster.vbufs_in_use(r), cluster.graveyard_slots(r))
        << "rank " << r;
  }
}
