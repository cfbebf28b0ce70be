// Collectives built on the p2p layer: barrier, bcast, allreduce.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"

namespace mpisim = mv2gnc::mpisim;
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

}  // namespace

class CollectivesBySize : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesBySize, BarrierSynchronizesRanks) {
  const int ranks = GetParam();
  Cluster cluster(ClusterConfig{.ranks = ranks});
  std::vector<sim::SimTime> after(static_cast<std::size_t>(ranks));
  cluster.run([&](Context& ctx) {
    // Stagger arrival: rank r arrives at r*100us.
    ctx.engine->delay(sim::microseconds(100) * ctx.rank);
    ctx.comm.barrier();
    after[static_cast<std::size_t>(ctx.rank)] = ctx.engine->now();
  });
  // Nobody may leave the barrier before the last arrival.
  const sim::SimTime last_arrival = sim::microseconds(100) * (ranks - 1);
  for (int r = 0; r < ranks; ++r) {
    EXPECT_GE(after[static_cast<std::size_t>(r)], last_arrival) << "rank " << r;
  }
}

TEST_P(CollectivesBySize, BcastFromEveryRoot) {
  const int ranks = GetParam();
  for (int root = 0; root < ranks; ++root) {
    Cluster cluster(ClusterConfig{.ranks = ranks});
    cluster.run([&, root](Context& ctx) {
      auto ints = committed(Datatype::int32());
      std::vector<int> buf(256, -1);
      if (ctx.rank == root) std::iota(buf.begin(), buf.end(), root * 1000);
      ctx.comm.bcast(buf.data(), 256, ints, root);
      EXPECT_EQ(buf[0], root * 1000);
      EXPECT_EQ(buf[255], root * 1000 + 255);
    });
  }
}

TEST_P(CollectivesBySize, AllreduceSum) {
  const int ranks = GetParam();
  Cluster cluster(ClusterConfig{.ranks = ranks});
  cluster.run([&](Context& ctx) {
    std::vector<double> in{static_cast<double>(ctx.rank), 1.0};
    std::vector<double> out(2, 0.0);
    ctx.comm.allreduce_sum(in.data(), out.data(), 2);
    EXPECT_DOUBLE_EQ(out[0], ranks * (ranks - 1) / 2.0);
    EXPECT_DOUBLE_EQ(out[1], static_cast<double>(ranks));
  });
}

TEST_P(CollectivesBySize, AllreduceMax) {
  const int ranks = GetParam();
  Cluster cluster(ClusterConfig{.ranks = ranks});
  cluster.run([&](Context& ctx) {
    double in = (ctx.rank == ranks / 2) ? 99.5 : static_cast<double>(ctx.rank);
    double out = 0;
    ctx.comm.allreduce_max(&in, &out, 1);
    EXPECT_DOUBLE_EQ(out, 99.5);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesBySize,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Collectives, RepeatedAllreducesRecycleOneScratchArena) {
  // The host scratch arena is sized by the first allreduce and reused,
  // unzeroed, by the other 49: exactly one allocation per rank, and every
  // result still exact.
  constexpr int kRanks = 4;
  constexpr int kCount = 4096;
  Cluster cluster(ClusterConfig{.ranks = kRanks});
  cluster.run([&](Context& ctx) {
    std::vector<double> in(kCount), out(kCount);
    for (int it = 0; it < 50; ++it) {
      for (int i = 0; i < kCount; ++i) {
        in[static_cast<std::size_t>(i)] = ctx.rank + it * i;
      }
      ctx.comm.allreduce_sum(in.data(), out.data(), kCount);
      for (int i = 0; i < kCount; i += 97) {
        ASSERT_EQ(out[static_cast<std::size_t>(i)], 6.0 + 4.0 * it * i)
            << "iteration " << it << " element " << i;
      }
    }
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(cluster.coll_stats(r).allreduce.calls, 50u) << "rank " << r;
    EXPECT_EQ(cluster.coll_stats(r).scratch_allocs, 1u) << "rank " << r;
    EXPECT_EQ(cluster.coll_stats(r).scratch_parked, 0u) << "rank " << r;
  }
}

TEST(Collectives, LargeBcastUsesRendezvous) {
  Cluster cluster(ClusterConfig{.ranks = 4});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    const int n = 1 << 18;  // 1 MB
    std::vector<int> buf(n, -1);
    if (ctx.rank == 2) std::iota(buf.begin(), buf.end(), 0);
    ctx.comm.bcast(buf.data(), n, ints, 2);
    EXPECT_EQ(buf[n - 1], n - 1);
  });
}

TEST(Collectives, BarrierDoesNotStealWildcardTraffic) {
  // A wildcard receive posted before a barrier must not match the
  // barrier's internal messages.
  Cluster cluster(ClusterConfig{.ranks = 2});
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    if (ctx.rank == 0) {
      int got = 0;
      auto req = ctx.comm.irecv(&got, 1, ints, mpisim::kAnySource,
                                mpisim::kAnyTag);
      ctx.comm.barrier();
      ctx.comm.wait(req);
      EXPECT_EQ(got, 777);
    } else {
      ctx.comm.barrier();
      int v = 777;
      ctx.comm.send(&v, 1, ints, 0, 5);
    }
  });
}
