// Two-level (topology-aware) collectives over the transport seam: the
// hierarchical variants must deliver byte-identical results to the flat
// algorithms on split communicators across ranks_per_node topologies, on
// clean and on faulty fabrics, and the co-located intra-node leg must
// actually be modeled cheaper than the fabric path it replaces.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/coll.hpp"

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

// Same adversarial fabric the reliability suite uses: every rendezvous
// control kind lossy, chunk fins occasionally dropped or failed. Eager
// traffic stays clean (the reliability layer covers rendezvous only).
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

void append(std::vector<std::byte>& sink, const void* data,
            std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  sink.insert(sink.end(), p, p + bytes);
}

// Exercise every collective on two split communicators (even/odd ranks
// with reversed key order, and blocked halves) plus the world comm, at an
// eager and a rendezvous payload size. Each rank's observed bytes are
// concatenated into one trace; the traces must be invariant under the
// coll_select choice. All doubles are integer-valued so any reduction
// association yields the same bits.
std::vector<std::vector<std::byte>> run_workload(const ClusterConfig& cfg) {
  Cluster cluster(cfg);
  std::vector<std::vector<std::byte>> traces(
      static_cast<std::size_t>(cfg.ranks));
  cluster.run([&](Context& ctx) {
    auto ints = committed(Datatype::int32());
    auto doubles = committed(Datatype::float64());
    std::vector<std::byte>& trace = traces[static_cast<std::size_t>(ctx.rank)];

    auto exercise = [&](mpisim::Communicator& comm, int salt) {
      const int p = comm.size();
      const int me = comm.rank();
      for (const int count : {64, 4096}) {  // 256 B eager / 16 KB rendezvous
        // allgather
        std::vector<std::int32_t> mine(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          mine[static_cast<std::size_t>(i)] = salt * 1000003 + me * 131 + i;
        }
        std::vector<std::int32_t> gathered(
            static_cast<std::size_t>(p * count));
        comm.allgather(mine.data(), count, ints, gathered.data());
        append(trace, gathered.data(), gathered.size() * 4);
        // alltoall
        std::vector<std::int32_t> a2a_in(static_cast<std::size_t>(p * count));
        for (std::size_t i = 0; i < a2a_in.size(); ++i) {
          a2a_in[i] = salt * 7 + me * 100000 + static_cast<int>(i);
        }
        std::vector<std::int32_t> a2a_out(static_cast<std::size_t>(p * count));
        comm.alltoall(a2a_in.data(), a2a_out.data(), count, ints);
        append(trace, a2a_out.data(), a2a_out.size() * 4);
        // bcast from the last rank (exercises non-zero roots)
        std::vector<std::int32_t> bc(static_cast<std::size_t>(count));
        if (me == p - 1) {
          std::iota(bc.begin(), bc.end(), salt * 17);
        }
        comm.bcast(bc.data(), count, ints, p - 1);
        append(trace, bc.data(), bc.size() * 4);
      }
      // allreduce (integer-valued doubles: exact under any association)
      std::vector<double> in(257);
      for (std::size_t i = 0; i < in.size(); ++i) {
        in[i] = static_cast<double>((me + 1) * 3 + static_cast<int>(i) + salt);
      }
      std::vector<double> out(in.size(), 0.0);
      comm.allreduce_sum(in.data(), out.data(), static_cast<int>(in.size()));
      append(trace, out.data(), out.size() * 8);
      comm.allreduce_max(in.data(), out.data(), static_cast<int>(in.size()));
      append(trace, out.data(), out.size() * 8);
      comm.barrier();
    };

    exercise(ctx.comm, 1);
    // Even/odd ranks, reversed rank order within each half.
    auto striped = ctx.comm.split(ctx.rank % 2, ctx.size - ctx.rank);
    exercise(striped, 2);
    // Blocked halves (consecutive ranks stay together -> co-located).
    auto blocked = ctx.comm.split(ctx.rank / (ctx.size / 2), ctx.rank);
    exercise(blocked, 3);
    // Uneven 3/5 split: at rpn = 2 this leaves ragged groups (a 2+1 node
    // layout and a 1+2+2 one), where every rank must still reach the same
    // flat-vs-hier verdict despite sitting on differently-sized nodes.
    auto ragged = ctx.comm.split(ctx.rank < 3 ? 0 : 1, ctx.rank);
    exercise(ragged, 4);
  });
  return traces;
}

ClusterConfig workload_config(int ranks, int rpn, core::CollSelect select) {
  ClusterConfig cfg;
  cfg.ranks = ranks;
  cfg.tunables.ranks_per_node = static_cast<std::size_t>(rpn);
  cfg.tunables.coll_select = select;
  return cfg;
}

}  // namespace

class HierCollByTopology : public ::testing::TestWithParam<int> {};

TEST_P(HierCollByTopology, FlatAndHierarchicalAgreeByteForByte) {
  const int rpn = GetParam();
  const auto flat =
      run_workload(workload_config(8, rpn, core::CollSelect::kFlat));
  const auto hier =
      run_workload(workload_config(8, rpn, core::CollSelect::kHier));
  const auto aut =
      run_workload(workload_config(8, rpn, core::CollSelect::kAuto));
  for (int r = 0; r < 8; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(flat[i], hier[i]) << "flat vs hier, rank " << r;
    EXPECT_EQ(flat[i], aut[i]) << "flat vs auto, rank " << r;
  }
}

TEST_P(HierCollByTopology, AgreementSurvivesLossyFabric) {
  const int rpn = GetParam();
  for (const auto select : {core::CollSelect::kFlat, core::CollSelect::kHier}) {
    ClusterConfig cfg = workload_config(8, rpn, select);
    cfg.rng_seed = 20260807;
    cfg.tunables.rndv_timeout_ns = 200'000;
    cfg.tunables.rndv_max_retries = 25;
    fault_rendezvous_control(cfg.faults, /*drop_send=*/0.03,
                             /*drop_imm=*/0.03, /*fail_write=*/0.01);
    const auto lossy = run_workload(cfg);
    ClusterConfig clean_cfg = workload_config(8, rpn, select);
    const auto clean = run_workload(clean_cfg);
    for (int r = 0; r < 8; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(lossy[i], clean[i])
          << "lossy vs clean, rank " << r << ", select "
          << (select == core::CollSelect::kFlat ? "flat" : "hier");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RanksPerNode, HierCollByTopology,
                         ::testing::Values(1, 2, 4));

TEST(HierColl, TwoLevelPathEngagesOnlyWhenCoLocated) {
  // rpn=1: every node hosts one rank, so kHier must quietly stay flat.
  {
    Cluster cluster(workload_config(4, 1, core::CollSelect::kHier));
    cluster.run([](Context& ctx) { ctx.comm.barrier(); });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(cluster.coll_stats(r).barrier.hier_calls, 0u);
      EXPECT_EQ(cluster.coll_stats(r).barrier.calls, 1u);
    }
  }
  // rpn=2, auto, bandwidth-regime payload: co-located topology + default
  // cost models -> the striped two-level path, where every member runs
  // two intra phases (reduce-scatter + allgather) and carries its own
  // stripe through the inter-node butterfly.
  {
    Cluster cluster(workload_config(4, 2, core::CollSelect::kAuto));
    cluster.run([](Context& ctx) {
      std::vector<double> in(32768, static_cast<double>(ctx.rank));
      std::vector<double> out(32768);
      ctx.comm.allreduce_sum(in.data(), out.data(), 32768);
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(cluster.coll_stats(r).allreduce.hier_calls, 1u) << "rank " << r;
      EXPECT_GT(cluster.coll_stats(r).allreduce.intra_phases, 0u);
      EXPECT_GT(cluster.coll_stats(r).allreduce.leader_phases, 0u);
    }
  }
  // rpn=2, auto, latency-regime payload: for a handful of doubles the two
  // extra intra phases cost more than they save, so auto stays flat.
  {
    Cluster cluster(workload_config(4, 2, core::CollSelect::kAuto));
    cluster.run([](Context& ctx) {
      std::vector<double> in(8, static_cast<double>(ctx.rank));
      std::vector<double> out(8);
      ctx.comm.allreduce_sum(in.data(), out.data(), 8);
    });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(cluster.coll_stats(r).allreduce.hier_calls, 0u) << "rank " << r;
    }
  }
  // Ragged topology (3 ranks at rpn=2: one full node + a singleton) takes
  // the leader-based fallback: leader phases only on node leaders.
  {
    Cluster cluster(workload_config(3, 2, core::CollSelect::kHier));
    cluster.run([](Context& ctx) {
      std::vector<double> in(8, static_cast<double>(ctx.rank));
      std::vector<double> out(8);
      ctx.comm.allreduce_sum(in.data(), out.data(), 8);
    });
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(cluster.coll_stats(r).allreduce.hier_calls, 1u) << "rank " << r;
    }
    EXPECT_GT(cluster.coll_stats(1).allreduce.intra_phases, 0u);
    EXPECT_GT(cluster.coll_stats(0).allreduce.leader_phases, 0u);
    EXPECT_EQ(cluster.coll_stats(1).allreduce.leader_phases, 0u);
  }
  // Forced fabric: no IPC channel exists, so auto must not split.
  {
    ClusterConfig cfg = workload_config(4, 2, core::CollSelect::kAuto);
    cfg.tunables.transport_select = core::TransportSelect::kFabric;
    Cluster cluster(cfg);
    cluster.run([](Context& ctx) { ctx.comm.barrier(); });
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(cluster.coll_stats(r).barrier.hier_calls, 0u);
    }
  }
}

TEST(HierColl, AutoIsRankInvariantOnRaggedTopology) {
  // Regression: a 2+1 ragged comm at a bandwidth-regime payload. The old
  // auto sketch read the caller's own node size, so the 2-rank node chose
  // hier while the singleton chose flat -> mismatched algorithms/tags and
  // a deadlock. The decision is now a pure function of the (identical)
  // node map: on ragged topologies auto must stay flat on every rank and
  // the collectives must complete with correct results.
  Cluster cluster(workload_config(3, 2, core::CollSelect::kAuto));
  cluster.run([](Context& ctx) {
    std::vector<double> in(4096, static_cast<double>(ctx.rank + 1));
    std::vector<double> out(4096);
    ctx.comm.allreduce_sum(in.data(), out.data(), 4096);
    for (double v : out) ASSERT_EQ(v, 6.0);  // 1 + 2 + 3

    auto ints = committed(Datatype::int32());
    std::vector<std::int32_t> mine(4096, ctx.rank);
    std::vector<std::int32_t> all(3 * 4096);
    ctx.comm.allgather(mine.data(), 4096, ints, all.data());
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r) * 4096], r);
    }

    std::vector<std::int32_t> a2a_in(3 * 4096, ctx.rank);
    std::vector<std::int32_t> a2a_out(3 * 4096);
    ctx.comm.alltoall(a2a_in.data(), a2a_out.data(), 4096, ints);
    for (int r = 0; r < 3; ++r) {
      ASSERT_EQ(a2a_out[static_cast<std::size_t>(r) * 4096], r);
    }
  });
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.coll_stats(r).allreduce.hier_calls, 0u) << "rank " << r;
    EXPECT_EQ(cluster.coll_stats(r).allgather.hier_calls, 0u) << "rank " << r;
    EXPECT_EQ(cluster.coll_stats(r).alltoall.hier_calls, 0u) << "rank " << r;
  }
}

TEST(HierColl, CostHintsMirrorIpcModelSizeSplit) {
  // The auto sketch must see both in-node copy rates and the shm/CMA
  // threshold the IPC channel actually models, not just the large-copy
  // rate (which overestimates sub-threshold payloads by ~2.3x).
  ClusterConfig cfg;
  cfg.ranks = 2;
  cfg.tunables.ranks_per_node = 2;
  cfg.gpu_cost.shm_host_bw = 3.0;
  cfg.gpu_cost.cma_host_bw = 9.0;
  cfg.gpu_cost.shm_cma_threshold = 4096;
  Cluster cluster(cfg);
  const mpisim::detail::CollCostHints& h = cluster.coll_cost_hints(0);
  EXPECT_EQ(h.ipc_shm_bw, 3.0);
  EXPECT_EQ(h.ipc_cma_bw, 9.0);
  EXPECT_EQ(h.ipc_cma_threshold, 4096u);
  EXPECT_EQ(h.ipc_host_bw(4095), 3.0);
  EXPECT_EQ(h.ipc_host_bw(4096), 9.0);
}

TEST(HierColl, IntraNodeTrafficRidesIpcChannel) {
  Cluster cluster(workload_config(4, 2, core::CollSelect::kHier));
  cluster.run([](Context& ctx) {
    auto ints = committed(Datatype::int32());
    std::vector<std::int32_t> mine(1024, ctx.rank);
    std::vector<std::int32_t> all(4 * 1024);
    ctx.comm.allgather(mine.data(), 1024, ints, all.data());
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 1024], r);
    }
  });
  std::uint64_t ipc_msgs = 0;
  for (int r = 0; r < 4; ++r) {
    ipc_msgs += cluster.rank_stats(r).ipc_messages_sent;
  }
  EXPECT_GT(ipc_msgs, 0u);
}

TEST(HierColl, CoLocatedHostRendezvousBeatsForcedFabric) {
  // The CMA/shm cost term: a 1 MB host->host rendezvous between two ranks
  // on one node must be modeled faster over the IPC channel (single-copy
  // cross-memory attach) than the same pair forced onto the QDR fabric.
  auto timed_send = [](core::TransportSelect select) {
    ClusterConfig cfg;
    cfg.ranks = 2;
    cfg.tunables.ranks_per_node = 2;
    cfg.tunables.transport_select = select;
    Cluster cluster(cfg);
    cluster.run([](Context& ctx) {
      auto bytes = committed(Datatype::byte());
      std::vector<std::byte> buf(1 << 20);
      if (ctx.rank == 0) {
        ctx.comm.send(buf.data(), static_cast<int>(buf.size()), bytes, 1, 0);
      } else {
        ctx.comm.recv(buf.data(), static_cast<int>(buf.size()), bytes, 0, 0);
      }
    });
    return cluster.elapsed();
  };
  const sim::SimTime ipc = timed_send(core::TransportSelect::kAuto);
  const sim::SimTime fabric = timed_send(core::TransportSelect::kFabric);
  EXPECT_LT(ipc, fabric);
}

TEST(HierColl, SmallHostCopiesUseShmBelowCmaThreshold) {
  // The size split is observable end to end: speeding up only the shm term
  // must speed up a sub-threshold host rendezvous and leave a 1 MB one
  // (which rides CMA) untouched.
  auto timed_send = [](std::size_t n, double shm_bw) {
    ClusterConfig cfg;
    cfg.ranks = 2;
    cfg.tunables.ranks_per_node = 2;
    cfg.tunables.eager_threshold = 1024;  // force rendezvous even at 4 KB
    cfg.gpu_cost.shm_host_bw = shm_bw;
    Cluster cluster(cfg);
    cluster.run([n](Context& ctx) {
      auto bytes = committed(Datatype::byte());
      std::vector<std::byte> buf(n);
      if (ctx.rank == 0) {
        ctx.comm.send(buf.data(), static_cast<int>(n), bytes, 1, 0);
      } else {
        ctx.comm.recv(buf.data(), static_cast<int>(n), bytes, 0, 0);
      }
    });
    return cluster.elapsed();
  };
  EXPECT_LT(timed_send(4096, /*shm_bw=*/50.0), timed_send(4096, 2.0));
  EXPECT_EQ(timed_send(1 << 20, /*shm_bw=*/50.0), timed_send(1 << 20, 2.0));
}
