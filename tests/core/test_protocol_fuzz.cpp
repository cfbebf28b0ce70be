// Protocol fuzz: random-but-deterministic sweeps of tunables (chunk size,
// pool size, window, thresholds, ablation levers) crossed with message
// shapes and buffer placements. Every combination must deliver bit-exact
// payloads; this is the net that catches protocol edge cases (chunk
// seams, window exhaustion, degenerate plans).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "mpi/cluster.hpp"

namespace mpisim = mv2gnc::mpisim;
namespace core = mv2gnc::core;
using mpisim::Cluster;
using mpisim::ClusterConfig;
using mpisim::Context;
using mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

struct FuzzCase {
  unsigned seed;
};

class ProtocolFuzz : public ::testing::TestWithParam<FuzzCase> {};

}  // namespace

TEST_P(ProtocolFuzz, RandomConfigDeliversExactPayload) {
  std::mt19937 rng(GetParam().seed);
  // Random tunables within valid ranges.
  core::Tunables tun;
  // Fixed chunking so the randomized chunk_bytes actually exercises odd
  // chunk/message alignments (kModel would override it on device paths).
  tun.chunk_select = core::ChunkSelect::kFixed;
  tun.chunk_bytes = 1u << (10 + rng() % 9);           // 1 KB .. 256 KB
  tun.vbuf_count = 2 + rng() % 30;                    // 2 .. 31
  tun.recv_window = 1 + rng() % tun.vbuf_count;       // 1 .. vbuf_count
  tun.eager_threshold = (rng() % 2) ? 0 : 1u << (8 + rng() % 7);
  tun.pipeline_threshold = 1u << (12 + rng() % 8);
  tun.gpu_offload = rng() % 2 == 0;
  rng();  // unused draw, kept so each seed still yields the same case
  tun.pipelining = rng() % 2 == 0;
  // Topology dimension: one process per node (pure fabric), or both ranks
  // co-located (pure intra-node IPC — rpn 2 and 4 both fold the two ranks
  // onto node 0, exercising the peer-copy paths under every knob above).
  const std::size_t rpn_options[] = {1, 2, 4};
  tun.ranks_per_node = rpn_options[rng() % 3];
  ASSERT_NO_THROW(tun.validate());

  // Random message shape.
  const int blocklen = 1 + static_cast<int>(rng() % 8);
  const int stride = blocklen + static_cast<int>(rng() % 8);
  const int rows = 1 + static_cast<int>(rng() % 30000);
  const int elements = 1 + static_cast<int>(rng() % 3);
  const bool src_dev = rng() % 2 == 0;
  const bool dst_dev = rng() % 2 == 0;

  ClusterConfig cfg;
  cfg.tunables = tun;
  Cluster cluster(cfg);
  cluster.run([&](Context& ctx) {
    auto t = committed(
        Datatype::vector(rows, blocklen, stride, Datatype::int32()));
    const std::size_t span =
        static_cast<std::size_t>(t.extent()) * elements + 64;
    const bool mine_dev = (ctx.rank == 0) ? src_dev : dst_dev;
    std::vector<std::byte> host_buf;
    std::byte* buf;
    if (mine_dev) {
      buf = static_cast<std::byte*>(ctx.cuda->malloc(span));
    } else {
      host_buf.resize(span);
      buf = host_buf.data();
    }
    std::vector<std::byte> init(span);
    std::mt19937 drng(GetParam().seed * 7 + 1);
    for (auto& b : init) b = static_cast<std::byte>(drng() & 0xFF);
    if (ctx.rank == 0) {
      if (mine_dev) ctx.cuda->memcpy(buf, init.data(), span);
      else std::memcpy(buf, init.data(), span);
      ctx.comm.send(buf, elements, t, 1, 0);
    } else {
      if (mine_dev) ctx.cuda->memset(buf, 0, span);
      else std::memset(buf, 0, span);
      ctx.comm.recv(buf, elements, t, 0, 0);
      std::vector<std::byte> got(span);
      if (mine_dev) ctx.cuda->memcpy(got.data(), buf, span);
      else std::memcpy(got.data(), buf, span);
      for (int e = 0; e < elements; ++e) {
        for (const auto& seg : t.segments()) {
          const std::size_t off =
              static_cast<std::size_t>(e) * t.extent() + seg.offset;
          ASSERT_EQ(std::memcmp(got.data() + off, init.data() + off,
                                seg.length),
                    0)
              << "seed " << GetParam().seed << " rows " << rows
              << " chunk " << tun.chunk_bytes << " rpn "
              << tun.ranks_per_node;
        }
      }
    }
    if (mine_dev) ctx.cuda->free(buf);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(FuzzCase{1}, FuzzCase{2},
                                           FuzzCase{3}, FuzzCase{5},
                                           FuzzCase{8}, FuzzCase{13},
                                           FuzzCase{21}, FuzzCase{34},
                                           FuzzCase{55}, FuzzCase{89},
                                           FuzzCase{144}, FuzzCase{233},
                                           FuzzCase{377}, FuzzCase{610},
                                           FuzzCase{987}, FuzzCase{1597}));

TEST(ProtocolFuzz, StencilCorrectUnderExtremeThresholds) {
  // Everything-rendezvous and giant-chunk configurations must not change
  // application results (validated against the serial reference).
  for (std::size_t eager : {std::size_t{0}, std::size_t{1} << 20}) {
    core::Tunables tun;
    tun.eager_threshold = eager;
    tun.pipeline_threshold = 0;  // chunk everything that rendezvous
    ClusterConfig cfg;
    cfg.ranks = 4;
    cfg.tunables = tun;
    Cluster cluster(cfg);
    cluster.run([](Context& ctx) {
      auto ints = committed(Datatype::int32());
      std::vector<int> v(4096, ctx.rank);
      std::vector<int> got(4096, -1);
      const int peer = ctx.rank ^ 1;
      auto r = ctx.comm.irecv(got.data(), 4096, ints, peer, 0);
      ctx.comm.send(v.data(), 4096, ints, peer, 0);
      ctx.comm.wait(r);
      EXPECT_EQ(got[0], peer);
      EXPECT_EQ(got[4095], peer);
    });
  }
}
