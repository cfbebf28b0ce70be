// Concurrency scaling: N simultaneous rendezvous transfers between one
// sender/receiver pair, fifo (the pre-scheduler first-grabber-wins
// baseline) vs fair vbuf QoS + coalesced chunk acks. Not a paper table —
// the paper measures one transfer at a time; this bench backs the
// multi-transfer progress scheduler (see docs/CONCURRENCY.md) with
// aggregate-rate / tail-latency / control-traffic numbers.
//
// The workload is contiguous device memory on purpose: contiguous chunks
// stage straight through the vbuf pool (no pack kernels), so the pool is
// the bottleneck and the scheduler's arbitration is what shows. Strided
// workloads at these sizes are pack-kernel-limited and would measure the
// GPU, not the scheduler.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "apps/reporting.hpp"
#include "bench_util.hpp"
#include "mpi/cluster.hpp"

namespace apps = mv2gnc::apps;
namespace bench = mv2gnc::bench;
namespace mpisim = mv2gnc::mpisim;
namespace core = mv2gnc::core;
namespace netsim = mv2gnc::netsim;
namespace sim = mv2gnc::sim;

namespace {

constexpr std::size_t kBytesPerTransfer = 512u << 10;  // 8 chunks each

struct PolicyResult {
  sim::SimTime elapsed = 0;
  /// Receiver wait-return time of each transfer, in posting order — the
  /// running max of the true completion times, exact at the tail (which
  /// is the quantile we report).
  std::vector<sim::SimTime> done;
  core::SchedStats sender;
  core::SchedStats receiver;
  std::uint64_t stall_fallbacks = 0;
  std::uint64_t retransmits = 0;
  double mean_mbps = 0;   // filled by the multi-seed wrapper
  double mean_ctrl = 0;

  double agg_mbps() const {
    const double total =
        static_cast<double>(done.size()) *
        static_cast<double>(kBytesPerTransfer);
    return total / sim::to_sec(elapsed) / 1e6;
  }
  double ctrl_per_transfer() const {
    return static_cast<double>(sender.ctrl_total() + receiver.ctrl_total()) /
           static_cast<double>(done.size());
  }
  double percentile_us(double p) const {
    std::vector<sim::SimTime> s = done;
    std::sort(s.begin(), s.end());
    const std::size_t idx = static_cast<std::size_t>(
        p * static_cast<double>(s.size() - 1) + 0.5);
    return static_cast<double>(s[idx]) / 1e3;
  }
};

mpisim::ClusterConfig make_config(bool fair, std::uint64_t seed) {
  mpisim::ClusterConfig cfg;
  cfg.rng_seed = seed;
  // A pool small enough that >= 4 concurrent transfers genuinely contend
  // (8 slots vs 8 chunks per transfer), fixed 64 KB chunks so both
  // policies move identical chunk counts, and a production-style timeout
  // short enough that starving a transfer for one timeout has its real
  // cost (retransmits, stall-watchdog pinned fallbacks).
  cfg.tunables.chunk_select = core::ChunkSelect::kFixed;
  cfg.tunables.vbuf_count = 8;
  cfg.tunables.recv_window = 4;
  cfg.tunables.rndv_timeout_ns = 300'000;
  cfg.tunables.rndv_max_retries = 100;
  // Seeded delivery jitter on the rendezvous control plane and chunk
  // fins (uniform [0, 50 us]): real links are not metronomes, and the
  // fifo baseline's pathologies (starvation into the stall watchdog,
  // timeout-driven retransmits) only cost anything when delivery times
  // vary. Deterministic for a fixed seed.
  netsim::FaultSpec ctrl;
  ctrl.jitter_ns = 50'000;
  for (int kind : {core::kRts, core::kCts, core::kChunkAck,
                   core::kChunkAckBatch, core::kChunkFin,
                   core::kSendDone, core::kRtsAck, core::kSendDoneAck}) {
    cfg.faults.set_kind(kind, ctrl);
  }
  if (fair) {
    cfg.tunables.sched_policy = core::SchedPolicy::kFair;
    cfg.tunables.vbuf_reserve_per_transfer = 1;
    // ~half a 64 KB chunk's service time: acks of different transfers
    // bunch into batches, while each transfer's own credit still returns
    // well inside its pipeline window.
    cfg.tunables.ack_coalesce_window_ns = 30'000;
  }
  return cfg;
}

PolicyResult run_one(bool fair, int transfers, std::uint64_t seed) {
  mpisim::Cluster cluster(make_config(fair, seed));
  PolicyResult res;
  res.done.resize(static_cast<std::size_t>(transfers));
  cluster.run([&](mpisim::Context& ctx) {
    auto byte_t = mpisim::Datatype::byte();
    byte_t.commit();
    const int count = static_cast<int>(kBytesPerTransfer);
    std::vector<std::byte*> dev(static_cast<std::size_t>(transfers));
    for (auto& d : dev) {
      d = static_cast<std::byte*>(ctx.cuda->malloc(kBytesPerTransfer));
    }
    std::vector<mpisim::Request> reqs;
    reqs.reserve(static_cast<std::size_t>(transfers));
    for (int t = 0; t < transfers; ++t) {
      if (ctx.rank == 0) {
        reqs.push_back(ctx.comm.isend(dev[static_cast<std::size_t>(t)],
                                      count, byte_t, 1, t));
      } else {
        reqs.push_back(ctx.comm.irecv(dev[static_cast<std::size_t>(t)],
                                      count, byte_t, 0, t));
      }
    }
    for (int t = 0; t < transfers; ++t) {
      ctx.comm.wait(reqs[static_cast<std::size_t>(t)]);
      if (ctx.rank == 1) res.done[static_cast<std::size_t>(t)] = ctx.now();
    }
    ctx.comm.barrier();
    for (auto* d : dev) ctx.cuda->free(d);
  });
  // Rate denominator: time until the last transfer's data was delivered.
  // Cluster::elapsed() would also count the post-barrier finalize drain
  // (SEND_DONE stragglers, watchdog recovery), which is teardown, not
  // transfer throughput.
  res.elapsed = *std::max_element(res.done.begin(), res.done.end());
  res.sender = cluster.sched_stats(0);
  res.receiver = cluster.sched_stats(1);
  for (int r = 0; r < 2; ++r) {
    const core::RetryStats& rs = cluster.retry_stats(r);
    res.stall_fallbacks += rs.stall_fallbacks;
    res.retransmits += rs.total_retransmits();
  }
  return res;
}

// Three seeds per cell: jitter draws differ per seed, and single-seed
// deltas at these sizes are within the jitter noise. Rates and message
// counts are averaged; completion times are pooled for the percentiles.
PolicyResult run(bool fair, int transfers) {
  PolicyResult merged;
  double mbps = 0, ctrl = 0;
  const std::uint64_t seeds[] = {7, 11, 13};
  for (std::uint64_t seed : seeds) {
    PolicyResult r = run_one(fair, transfers, seed);
    merged.done.insert(merged.done.end(), r.done.begin(), r.done.end());
    merged.elapsed += r.elapsed;
    merged.stall_fallbacks += r.stall_fallbacks;
    merged.retransmits += r.retransmits;
    merged.receiver.ack_batches += r.receiver.ack_batches;
    mbps += r.agg_mbps();
    ctrl += r.ctrl_per_transfer();
  }
  merged.mean_mbps = mbps / 3.0;
  merged.mean_ctrl = ctrl / 3.0;
  return merged;
}

std::string fmt(double v, const char* spec = "%.1f") {
  char buf[32];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main() {
  bench::banner(
      "Concurrency scaling: fifo vs fair vbuf QoS + coalesced acks",
      "multi-transfer extension of Section IV-B (docs/CONCURRENCY.md)");
  std::cout << "\n" << (kBytesPerTransfer >> 10)
            << " KB contiguous D-D transfers, one sender/receiver pair, "
               "8-slot vbuf pool,\n300 us rendezvous timer, uniform [0, 50 us] "
               "seeded delivery jitter (3 seeds).\nfair = fair QoS + 30 us "
               "ack coalescing; fifo = scheduler disabled (ablation "
               "baseline).\n";

  bench::JsonReport report("concurrency");
  apps::Table table(
      "aggregate rate (MB/s), p99 completion (us), ctrl msgs per transfer",
      {"concurrent", "fifo MB/s", "fair MB/s", "fifo p99", "fair p99",
       "fifo ctrl/x", "fair ctrl/x", "fifo rtx", "fair rtx"});
  for (int n : {1, 4, 16, 32}) {
    const PolicyResult fifo = run(/*fair=*/false, n);
    const PolicyResult fair = run(/*fair=*/true, n);
    table.add_row({std::to_string(n),
                   fmt(fifo.mean_mbps, "%.0f"),
                   fmt(fair.mean_mbps, "%.0f"),
                   fmt(fifo.percentile_us(0.99)),
                   fmt(fair.percentile_us(0.99)),
                   fmt(fifo.mean_ctrl),
                   fmt(fair.mean_ctrl),
                   std::to_string(fifo.retransmits),
                   std::to_string(fair.retransmits)});
    const std::string k = "n" + std::to_string(n) + "_";
    report.add(k + "fifo_agg_mbps", fifo.mean_mbps);
    report.add(k + "fair_agg_mbps", fair.mean_mbps);
    report.add(k + "fifo_p50_us", fifo.percentile_us(0.50));
    report.add(k + "fair_p50_us", fair.percentile_us(0.50));
    report.add(k + "fifo_p99_us", fifo.percentile_us(0.99));
    report.add(k + "fair_p99_us", fair.percentile_us(0.99));
    report.add(k + "fifo_ctrl_per_transfer", fifo.mean_ctrl);
    report.add(k + "fair_ctrl_per_transfer", fair.mean_ctrl);
    report.add(k + "fifo_stall_fallbacks",
               static_cast<double>(fifo.stall_fallbacks));
    report.add(k + "fair_stall_fallbacks",
               static_cast<double>(fair.stall_fallbacks));
    report.add(k + "fair_ack_batches",
               static_cast<double>(fair.receiver.ack_batches));
    report.add(k + "fifo_retransmits",
               static_cast<double>(fifo.retransmits));
    report.add(k + "fair_retransmits",
               static_cast<double>(fair.retransmits));
  }
  table.print(std::cout);
  report.write_and_note();
  std::cout << "\nExpected: a solo transfer pays a few percent for the "
               "bounded pipeline depth (fifo prefetches the whole pool; "
               "fair opens at the receive window — the price of the "
               "concurrency protection); near-identical at moderate "
               "concurrency; from 16 concurrent on, fifo starves late "
               "transfers past the rendezvous timeout and pays in "
               "retransmitted chunks (rtx) — fair QoS keeps every "
               "transfer under the timer, finishing higher-rate and with "
               "a shorter tail. Coalescing cuts control messages per "
               "transfer throughout; the credit valve (half-window "
               "flush, immediate when solo) keeps the batching delay off "
               "the critical path.\n";
  return 0;
}
