// Rendezvous-pipeline behaviour under non-default tunables: tiny vbuf
// pools (back-pressure), pipelining/offload ablations, odd chunk sizes,
// and the paper's (n+2)-stage latency model.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/pack_plan.hpp"
#include "core/protocol.hpp"
#include "core/rndv.hpp"
#include "core/vbuf_pool.hpp"
#include "mpi/cluster.hpp"

namespace mpisim = mv2gnc::mpisim;
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

// One-way device-to-device strided transfer of `rows` 4-byte rows under
// the given tunables; returns virtual elapsed time at the receiver and
// verifies payload integrity.
sim::SimTime timed_transfer(const core::Tunables& tun, int rows) {
  ClusterConfig cfg;
  cfg.tunables = tun;
  Cluster cluster(cfg);
  sim::SimTime elapsed = 0;
  cluster.run([&](Context& ctx) {
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    const std::size_t span = static_cast<std::size_t>(rows) * 8 + 16;
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    if (ctx.rank == 0) {
      std::vector<std::byte> host(span);
      for (std::size_t i = 0; i < span; ++i) {
        host[i] = static_cast<std::byte>(i * 13 & 0xFF);
      }
      ctx.cuda->memcpy(dev, host.data(), span);
      ctx.comm.barrier();
      ctx.comm.send(dev, 1, col, 1, 0);
    } else {
      ctx.cuda->memset(dev, 0, span);
      ctx.comm.barrier();
      const sim::SimTime t0 = ctx.engine->now();
      ctx.comm.recv(dev, 1, col, 0, 0);
      elapsed = ctx.engine->now() - t0;
      std::vector<std::byte> out(span);
      ctx.cuda->memcpy(out.data(), dev, span);
      for (int r = 0; r < rows; r += 97) {
        const std::size_t off = static_cast<std::size_t>(r) * 8;
        EXPECT_EQ(out[off], static_cast<std::byte>((off * 13) & 0xFF));
      }
    }
    ctx.cuda->free(dev);
  });
  return elapsed;
}

// Strided device column of `rows` 4-byte elements every 8 bytes, filled
// with a pattern keyed on `salt` (sender) or zeroed (receiver).
std::byte* column_buffer(Context& ctx, int rows, bool fill, int salt) {
  const std::size_t span = static_cast<std::size_t>(rows) * 8;
  auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
  std::vector<std::byte> host(span);
  for (std::size_t i = 0; i < span; ++i) {
    host[i] = fill ? static_cast<std::byte>((i * 29 + salt) & 0xFF)
                   : std::byte{0};
  }
  ctx.cuda->memcpy(dev, host.data(), span);
  return dev;
}

// Column elements of `dev` that differ from column_buffer's pattern.
std::size_t column_mismatches(Context& ctx, const std::byte* dev, int rows,
                              int salt) {
  const std::size_t span = static_cast<std::size_t>(rows) * 8;
  std::vector<std::byte> out(span);
  ctx.cuda->memcpy(out.data(), dev, span);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < span; i += 8) {
    for (std::size_t b = i; b < i + 4; ++b) {
      if (out[b] != static_cast<std::byte>((b * 29 + salt) & 0xFF)) ++bad;
    }
  }
  return bad;
}

std::size_t allocations_made(Context& ctx) {
  return ctx.cuda->device().allocations_made();
}

// One-way device transfer of a dense 1 MB message, `type` x `count`,
// starting at byte `disp` of a buffer with 64 more guard bytes after it.
// Returns the receiver's virtual elapsed time; checks the payload byte for
// byte and that every byte outside it is untouched.
sim::SimTime timed_dense_transfer(const Datatype& type, int count,
                                  std::size_t disp) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  const std::size_t span = disp + kBytes + 64;
  const auto sent = [](std::size_t i) {
    return static_cast<std::byte>((i * 31 + 7) & 0xFF);
  };
  constexpr std::byte kGuard{0x5A};
  sim::SimTime elapsed = 0;
  Cluster cluster(ClusterConfig{});
  cluster.run([&](Context& ctx) {
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(span));
    std::vector<std::byte> host(span, kGuard);
    if (ctx.rank == 0) {
      for (std::size_t i = 0; i < span; ++i) host[i] = sent(i);
    }
    ctx.cuda->memcpy(dev, host.data(), span);
    ctx.comm.barrier();
    if (ctx.rank == 0) {
      ctx.comm.send(dev, count, type, 1, 0);
    } else {
      const sim::SimTime t0 = ctx.engine->now();
      ctx.comm.recv(dev, count, type, 0, 0);
      elapsed = ctx.engine->now() - t0;
      ctx.cuda->memcpy(host.data(), dev, span);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < span; ++i) {
        const bool payload = i >= disp && i < disp + kBytes;
        bad += host[i] != (payload ? sent(i) : kGuard);
      }
      EXPECT_EQ(bad, 0u) << type.describe();
    }
    ctx.cuda->free(dev);
  });
  return elapsed;
}

}  // namespace

TEST(RndvPipeline, DenseBytesMoveAsContiguousHoweverSpelled) {
  // 1 MB of dense device bytes at displacement 16, spelled as one block,
  // 256 blocks of 4 KB and 256K blocks of 4 bytes: each plan is one dense
  // run at byte 16, and each transfer takes exactly as long as a plain
  // contiguous 1 MB buffer.
  const sim::SimTime plain =
      timed_dense_transfer(committed(Datatype::byte()), 1 << 20, 0);
  EXPECT_GT(plain, 0);
  const std::array<std::int64_t, 1> at16{16};
  const std::array<std::pair<int, int>, 3> spellings{
      {{1 << 20, 1}, {4096, 256}, {4, 1 << 18}}};
  for (const auto& [block, count] : spellings) {
    const std::array<int, 1> len{block};
    const Datatype t =
        committed(Datatype::hindexed(len, at16, Datatype::byte()));
    const auto plan = core::PackPlan::build(t, count);
    EXPECT_EQ(plan->layout(), core::LayoutClass::kContiguous) << block;
    EXPECT_EQ(plan->dense_offset(), 16) << block;
    EXPECT_EQ(timed_dense_transfer(t, count, 16), plain) << block;
  }
}

TEST(RndvPipeline, TinyVbufPoolStillCompletes) {
  // Two buffers total: maximal back-pressure, must still drain correctly.
  core::Tunables tun;
  tun.vbuf_count = 2;
  tun.recv_window = 2;
  const sim::SimTime t = timed_transfer(tun, 1 << 18);  // 1 MB
  EXPECT_GT(t, 0);
}

TEST(RndvPipeline, LargerWindowIsNotSlower) {
  core::Tunables small;
  small.vbuf_count = 2;
  small.recv_window = 1;
  core::Tunables big;
  big.vbuf_count = 32;
  big.recv_window = 8;
  const sim::SimTime constrained = timed_transfer(small, 1 << 18);
  const sim::SimTime roomy = timed_transfer(big, 1 << 18);
  EXPECT_LE(roomy, constrained);
}

TEST(RndvPipeline, PipeliningBeatsSingleBlock) {
  // The (n+2) model: chunked overlap must beat the monolithic transfer
  // for large messages.
  core::Tunables on;
  core::Tunables off;
  off.pipelining = false;
  const sim::SimTime piped = timed_transfer(on, 1 << 19);    // 2 MB
  const sim::SimTime mono = timed_transfer(off, 1 << 19);
  EXPECT_LT(piped, mono);
}

TEST(RndvPipeline, OffloadBeatsPciePackForLargeStrided) {
  core::Tunables on;
  core::Tunables off;
  off.gpu_offload = false;
  const sim::SimTime offload = timed_transfer(on, 1 << 19);
  const sim::SimTime pcie = timed_transfer(off, 1 << 19);
  EXPECT_LT(offload, pcie);
}

TEST(RndvPipeline, BothMechanismsCompose) {
  core::Tunables full;
  core::Tunables neither;
  neither.gpu_offload = false;
  neither.pipelining = false;
  const sim::SimTime best = timed_transfer(full, 1 << 19);
  const sim::SimTime worst = timed_transfer(neither, 1 << 19);
  // The paper's headline: the combination is multiple times faster.
  EXPECT_LT(static_cast<double>(best) * 2.5, static_cast<double>(worst));
}

TEST(RndvPipeline, OddChunkSizesDeliverCorrectly) {
  for (std::size_t chunk : {12u * 1024u, 40u * 1024u, 100u * 1024u}) {
    core::Tunables tun;
    tun.chunk_select = core::ChunkSelect::kFixed;
    tun.chunk_bytes = chunk;
    const sim::SimTime t = timed_transfer(tun, (1 << 18) + 123);
    EXPECT_GT(t, 0) << "chunk " << chunk;
  }
}

TEST(RndvPipeline, ChunkLargerThanMessage) {
  core::Tunables tun;
  tun.chunk_select = core::ChunkSelect::kFixed;
  tun.chunk_bytes = 16u << 20;  // bigger than the message
  tun.pipeline_threshold = 1024;
  const sim::SimTime t = timed_transfer(tun, 1 << 16);
  EXPECT_GT(t, 0);
}

TEST(RndvPipeline, SixtyFourKIsNearOptimalChunk) {
  // Regenerate the paper's §IV-B tuning claim in miniature: 64 KB must be
  // within 25% of the best chunk size in the sweep.
  std::vector<std::size_t> chunks = {4u << 10, 16u << 10, 64u << 10,
                                     256u << 10, 1u << 20};
  sim::SimTime best = sim::kNever;
  sim::SimTime at64k = 0;
  for (auto c : chunks) {
    core::Tunables tun;
    tun.chunk_select = core::ChunkSelect::kFixed;
    tun.chunk_bytes = c;
    const sim::SimTime t = timed_transfer(tun, (4u << 20) / 4);
    best = std::min(best, t);
    if (c == 64u << 10) at64k = t;
  }
  EXPECT_LT(static_cast<double>(at64k),
            1.25 * static_cast<double>(best));
}

TEST(RndvPipeline, ConcurrentAllToAllDoesNotStarveThePool) {
  // Regression: 4 ranks each running 4 concurrent large receives used to
  // consume the entire vbuf pool as landing windows, leaving every sender
  // unable to stage — a circular wait across ranks. The fix caps window
  // pool usage at half capacity and gives slot-less senders a pinned
  // fallback.
  core::Tunables tun;
  tun.vbuf_count = 8;  // tight pool: 4 rx windows would previously eat it
  tun.recv_window = 8;
  ClusterConfig cfg;
  cfg.ranks = 4;
  cfg.tunables = tun;
  Cluster cluster(cfg);
  cluster.run([](Context& ctx) {
    auto bytes = committed(Datatype::byte());
    const std::size_t n = 512u << 10;  // 8 chunks each
    std::vector<std::byte*> bufs;
    std::vector<mpisim::Request> reqs;
    for (int peer = 0; peer < ctx.size; ++peer) {
      auto* in = static_cast<std::byte*>(ctx.cuda->malloc(n));
      bufs.push_back(in);
      reqs.push_back(
          ctx.comm.irecv(in, static_cast<int>(n), bytes, peer, peer));
    }
    for (int peer = 0; peer < ctx.size; ++peer) {
      auto* out = static_cast<std::byte*>(ctx.cuda->malloc(n));
      bufs.push_back(out);
      reqs.push_back(
          ctx.comm.isend(out, static_cast<int>(n), bytes, peer, ctx.rank));
    }
    ctx.comm.waitall(reqs);
    for (auto* b : bufs) ctx.cuda->free(b);
  });
}

TEST(RndvPipeline, DeviceOomOnTbufSurfaces) {
  // The offload path needs a device tbuf of packed-message size; when the
  // modeled device DRAM cannot hold it, the failure must surface as a
  // DeviceError rather than corrupt the transfer.
  ClusterConfig cfg;
  cfg.device_memory_bytes = 5u << 20;  // 5 MB device
  Cluster cluster(cfg);
  EXPECT_THROW(
      cluster.run([](Context& ctx) {
        const int rows = 1 << 19;  // span 4 MB, packed 2 MB -> tbuf OOM
        auto col =
            committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
        auto* dev = static_cast<std::byte*>(
            ctx.cuda->malloc(static_cast<std::size_t>(rows) * 8));
        if (ctx.rank == 0) {
          ctx.comm.send(dev, 1, col, 1, 0);
        } else {
          ctx.comm.recv(dev, 1, col, 0, 0);
        }
      }),
      mv2gnc::gpu::DeviceError);
}

TEST(RndvPipeline, EqualSendsReuseOneStagingBuffer) {
  // Twenty back-to-back 1 MB strided device sends: the sender's tbuf and
  // the receiver's rtbuf are the rank's staging buffer, allocated once.
  Cluster cluster(ClusterConfig{});
  cluster.run([](Context& ctx) {
    const int rows = 1 << 18;  // 1 MB packed
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    std::byte* dev = column_buffer(ctx, rows, ctx.rank == 0, 3);
    const std::size_t before = allocations_made(ctx);
    for (int i = 0; i < 20; ++i) {
      if (ctx.rank == 0) {
        ctx.comm.send(dev, 1, col, 1, i);
      } else {
        ctx.comm.recv(dev, 1, col, 0, i);
      }
    }
    ctx.comm.barrier();
    EXPECT_EQ(allocations_made(ctx) - before, 1u) << "rank " << ctx.rank;
    if (ctx.rank == 1) {
      EXPECT_EQ(column_mismatches(ctx, dev, rows, 3), 0u);
    }
    ctx.cuda->free(dev);
  });
}

TEST(RndvPipeline, StagingBufferGrowsOnlyOnDemand) {
  // Ascending then descending packed sizes: only the three growth steps
  // allocate; smaller messages fit in the buffer the larger one left.
  Cluster cluster(ClusterConfig{});
  cluster.run([](Context& ctx) {
    const int max_rows = 1 << 18;
    std::byte* dev = column_buffer(ctx, max_rows, ctx.rank == 0, 5);
    const std::size_t before = allocations_made(ctx);
    int tag = 0;
    for (const int rows : {1 << 16, 1 << 17, 1 << 18, 1 << 17, 1 << 16}) {
      auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
      if (ctx.rank == 0) {
        ctx.comm.send(dev, 1, col, 1, tag++);
      } else {
        ctx.comm.recv(dev, 1, col, 0, tag++);
        EXPECT_EQ(column_mismatches(ctx, dev, rows, 5), 0u) << rows;
      }
    }
    ctx.comm.barrier();
    EXPECT_EQ(allocations_made(ctx) - before, 3u) << "rank " << ctx.rank;
    ctx.cuda->free(dev);
  });
}

TEST(RndvPipeline, ConcurrentSendTakesOneOffStaging) {
  // Two pipelined sends in flight from one rank: the first holds the
  // staging buffer, the second packs into a one-off that is freed again.
  // Both arrive byte-exact, and only the idle staging buffer outlives them.
  Cluster cluster(ClusterConfig{});
  cluster.run([](Context& ctx) {
    const int rows = 1 << 18;
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    std::byte* a = column_buffer(ctx, rows, ctx.rank == 0, 7);
    std::byte* b = column_buffer(ctx, rows, ctx.rank == 0, 11);
    const std::size_t live = ctx.cuda->device().live_allocations();
    const std::size_t before = allocations_made(ctx);
    std::vector<mpisim::Request> reqs;
    if (ctx.rank == 0) {
      reqs.push_back(ctx.comm.isend(a, 1, col, 1, 0));
      reqs.push_back(ctx.comm.isend(b, 1, col, 1, 1));
    } else {
      reqs.push_back(ctx.comm.irecv(a, 1, col, 0, 0));
      reqs.push_back(ctx.comm.irecv(b, 1, col, 0, 1));
    }
    ctx.comm.waitall(reqs);
    ctx.comm.barrier();
    if (ctx.rank == 1) {
      EXPECT_EQ(column_mismatches(ctx, a, rows, 7), 0u);
      EXPECT_EQ(column_mismatches(ctx, b, rows, 11), 0u);
    }
    EXPECT_EQ(allocations_made(ctx) - before, 2u) << "rank " << ctx.rank;
    EXPECT_EQ(ctx.cuda->device().live_allocations(), live + 1)
        << "rank " << ctx.rank;
    ctx.cuda->free(a);
    ctx.cuda->free(b);
  });
}

TEST(RndvPipeline, DeviceSelfSendSharesStagingWithItsReceive) {
  // A strided device self-send: the send and the matching receive are
  // concurrent transfers of one rank, one on the staging buffer and one on
  // a one-off.
  Cluster cluster(ClusterConfig{});
  cluster.run([](Context& ctx) {
    if (ctx.rank != 0) return;
    const int rows = 1 << 18;
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    std::byte* src = column_buffer(ctx, rows, true, 13);
    std::byte* dst = column_buffer(ctx, rows, false, 0);
    const std::size_t live = ctx.cuda->device().live_allocations();
    const std::size_t before = allocations_made(ctx);
    auto r = ctx.comm.irecv(dst, 1, col, 0, 4);
    auto s = ctx.comm.isend(src, 1, col, 0, 4);
    ctx.comm.wait(r);
    ctx.comm.wait(s);
    EXPECT_EQ(column_mismatches(ctx, dst, rows, 13), 0u);
    EXPECT_EQ(allocations_made(ctx) - before, 2u);
    EXPECT_EQ(ctx.cuda->device().live_allocations(), live + 1);
    ctx.cuda->free(src);
    ctx.cuda->free(dst);
  });
}

TEST(RndvPipeline, SelfSendEagerAndRendezvous) {
  Cluster cluster(ClusterConfig{});
  cluster.run([](Context& ctx) {
    if (ctx.rank != 0) return;
    auto ints = committed(Datatype::int32());
    // Eager self-send.
    int small_out = 41, small_in = 0;
    auto r1 = ctx.comm.irecv(&small_in, 1, ints, 0, 1);
    ctx.comm.send(&small_out, 1, ints, 0, 1);
    ctx.comm.wait(r1);
    EXPECT_EQ(small_in, 41);
    // Rendezvous self-send.
    std::vector<int> big_out(1 << 17);
    std::iota(big_out.begin(), big_out.end(), 0);
    std::vector<int> big_in(1 << 17, -1);
    auto r2 = ctx.comm.irecv(big_in.data(), 1 << 17, ints, 0, 2);
    auto s2 = ctx.comm.isend(big_out.data(), 1 << 17, ints, 0, 2);
    ctx.comm.wait(r2);
    ctx.comm.wait(s2);
    EXPECT_EQ(big_in, big_out);
  });
}

TEST(RndvPipeline, ManyConcurrentTransfersShareThePool) {
  // Four large sends each way between two ranks, all in flight at once.
  Cluster cluster(ClusterConfig{});
  cluster.run([](Context& ctx) {
    auto bytes = committed(Datatype::byte());
    const std::size_t n = 512u << 10;
    const int peer = 1 - ctx.rank;
    std::vector<std::byte*> bufs;
    std::vector<mpisim::Request> reqs;
    for (int k = 0; k < 4; ++k) {
      auto* out = static_cast<std::byte*>(ctx.cuda->malloc(n));
      auto* in = static_cast<std::byte*>(ctx.cuda->malloc(n));
      bufs.push_back(out);
      bufs.push_back(in);
      reqs.push_back(ctx.comm.irecv(in, static_cast<int>(n), bytes, peer, k));
      reqs.push_back(
          ctx.comm.isend(out, static_cast<int>(n), bytes, peer, k));
    }
    ctx.comm.waitall(reqs);
    for (auto* b : bufs) ctx.cuda->free(b);
  });
}

TEST(RndvPipeline, OversizedSlotsRecycleThroughTheSpareList) {
  // Chunks larger than a vbuf stage through pinned buffers of their own.
  // Released, they wait on the pool's spare list for the next chunk that
  // fits; the list is bounded, and teardown frees every buffer on it.
  sim::Engine eng;
  mv2gnc::gpu::MemoryRegistry reg;
  mv2gnc::gpu::Device dev(eng, reg, 0,
                          mv2gnc::gpu::GpuCostModel::tesla_c2050(), 1u << 20);
  mv2gnc::cusim::CudaContext cuda(dev);
  core::VbufPool pool(4, 64u << 10);
  constexpr std::size_t kChunk = 128u << 10;

  auto s = core::detail::acquire_slot(pool, cuda, kChunk);
  std::byte* const first = s.ptr;
  EXPECT_FALSE(s.from_pool);
  EXPECT_TRUE(reg.is_pinned_host(first));
  core::detail::release_slot(pool, s);
  EXPECT_EQ(pool.idle_spares(), 1u);
  EXPECT_EQ(cuda.live_host_allocations(), 1u);

  s = core::detail::acquire_slot(pool, cuda, kChunk);
  EXPECT_EQ(s.ptr, first);
  EXPECT_EQ(pool.oversized_allocs(), 1u);
  EXPECT_EQ(pool.oversized_reuses(), 1u);
  core::detail::release_slot(pool, s);

  // A chunk larger than every spare gets a fresh buffer.
  s = core::detail::acquire_slot(pool, cuda, 2 * kChunk);
  EXPECT_NE(s.ptr, first);
  EXPECT_EQ(pool.oversized_allocs(), 2u);
  core::detail::release_slot(pool, s);
  EXPECT_EQ(pool.idle_spares(), 2u);

  // A pool-sized pinned fallback stays a one-off.
  s = core::detail::pinned_slot(cuda, 64u << 10);
  core::detail::release_slot(pool, s);
  EXPECT_EQ(pool.idle_spares(), 2u);
  EXPECT_EQ(cuda.live_host_allocations(), 2u);

  // More oversized slots released at once than the bound keeps.
  std::vector<core::detail::StagingSlot> many;
  for (std::size_t i = 0; i < core::VbufPool::kMaxSpares + 3; ++i) {
    many.push_back(core::detail::acquire_slot(pool, cuda, kChunk));
  }
  std::vector<std::byte*> ptrs;
  for (auto& m : many) {
    ptrs.push_back(m.ptr);
    core::detail::release_slot(pool, m);
    EXPECT_LE(pool.idle_spares(), core::VbufPool::kMaxSpares);
  }
  EXPECT_EQ(pool.idle_spares(), core::VbufPool::kMaxSpares);
  EXPECT_EQ(cuda.live_host_allocations(), core::VbufPool::kMaxSpares);

  core::detail::drop_spares(pool, cuda);
  EXPECT_EQ(pool.idle_spares(), 0u);
  EXPECT_EQ(cuda.live_host_allocations(), 0u);
  for (std::byte* p : ptrs) EXPECT_FALSE(reg.is_pinned_host(p));
  EXPECT_FALSE(reg.is_pinned_host(first));
}

TEST(RndvPipeline, BackToBackLargeSendsReuseOversizedSlots) {
  // A 1 MB strided device message pipelines in chunks larger than a vbuf.
  // The second send finds the first one's staging and landing buffers idle
  // on the spare lists and allocates no pinned host memory.
  Cluster cluster(ClusterConfig{});
  cluster.run([&](Context& ctx) {
    const int rows = 1 << 18;  // 1 MB packed
    auto col = committed(Datatype::vector(rows, 1, 2, Datatype::float32()));
    std::byte* dev = column_buffer(ctx, rows, ctx.rank == 0, 17);
    const core::VbufPool& pool = cluster.vbufs(ctx.rank);
    std::uint64_t allocs_first = 0;
    for (int i = 0; i < 2; ++i) {
      if (ctx.rank == 0) {
        ctx.comm.send(dev, 1, col, 1, i);
      } else {
        ctx.comm.recv(dev, 1, col, 0, i);
      }
      ctx.comm.barrier();
      if (i == 0) allocs_first = pool.oversized_allocs();
    }
    EXPECT_GT(allocs_first, 0u) << "rank " << ctx.rank;
    EXPECT_EQ(pool.oversized_allocs(), allocs_first) << "rank " << ctx.rank;
    EXPECT_GT(pool.oversized_reuses(), 0u) << "rank " << ctx.rank;
    EXPECT_LE(pool.idle_spares(), core::VbufPool::kMaxSpares);
    if (ctx.rank == 1) {
      EXPECT_EQ(column_mismatches(ctx, dev, rows, 17), 0u);
    }
    ctx.cuda->free(dev);
  });
}

TEST(RndvPipeline, AbortedReceiveParksOversizedSlots) {
  // Every chunk fin is lost, so the sender exhausts its retries and aborts
  // the matched 1 MB receive. The receiver's landing slots (chunks larger
  // than a vbuf) may still be written by queued duplicates: they go to the
  // graveyard, not to the spare list.
  ClusterConfig cfg;
  cfg.rng_seed = 13;
  cfg.tunables.rndv_timeout_ns = 200'000;
  cfg.tunables.rndv_max_retries = 3;
  mv2gnc::netsim::FaultSpec swallow;
  swallow.drop_imm = 1.0;
  cfg.faults.set_kind(core::kChunkFin, swallow);
  Cluster cluster(cfg);
  cluster.run([](Context& ctx) {
    const int n = 1 << 20;
    auto byte_t = committed(Datatype::byte());
    auto* dev = static_cast<std::byte*>(ctx.cuda->malloc(n));
    if (ctx.rank == 0) {
      EXPECT_THROW(ctx.comm.send(dev, n, byte_t, 1, 0), mpisim::RequestError);
    } else {
      EXPECT_THROW(ctx.comm.recv(dev, n, byte_t, 0, 0), mpisim::RequestError);
    }
    ctx.cuda->free(dev);
  });
  const core::VbufPool& recv_pool = cluster.vbufs(1);
  EXPECT_GT(recv_pool.oversized_allocs(), 0u);
  EXPECT_EQ(recv_pool.idle_spares(), 0u);
  EXPECT_EQ(cluster.vbuf_audit(1), "");
}
