// vector-pingpong: two ranks on two nodes bounce the paper's Fig-5
// strided GPU column (int32 vector, stride 2) back and forth. Every
// message gets a freshly built, committed and dropped datatype on both
// sides, as codes that create types per call do, so the full per-message
// path runs each time: type construction and commit, the pack-plan cache's
// signature tier, GPU staging, rendezvous (eager below the threshold, the
// chunked pipeline above it), the fabric and the copy engines.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/tunables.hpp"
#include "gpu/cost_model.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinBytes = 16;
constexpr std::size_t kMaxBytes = std::size_t{4} << 20;
// 18 octaves x 3 round trips = 108 messages: enough for a p90 with ten
// samples beyond it, small enough that the pinned fresh types (see
// README.md, known defects) stay well under a gigabyte.
constexpr int kPerOctave = 3;
constexpr int kStride = 2;

std::int32_t pattern(std::uint64_t seed, std::uint64_t msg, std::size_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + msg * 0xD1B54A32D192ED03ull +
                    i * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 29;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 32;
  return static_cast<std::int32_t>(z);
}

mpisim::Datatype column(std::size_t bytes) {
  const int n = static_cast<int>(bytes / sizeof(std::int32_t));
  return mpisim::Datatype::vector(n, 1, kStride, mpisim::Datatype::int32());
}

// The paper's per-message model (n+2)·T(N/n), with T the device-internal
// pack of one chunk (the pace-setting stage) and the chunk chosen to
// minimise the model over power-of-two candidates.
double model_ns(const mv2gnc::gpu::GpuCostModel& cost, std::size_t bytes) {
  double best = INFINITY;
  for (std::size_t c = 8 * 1024; c <= 1024 * 1024; c *= 2) {
    const std::size_t chunk = std::min(c, bytes);
    const std::size_t n = (bytes + chunk - 1) / chunk;
    const auto t = cost.copy2d_time(sizeof(std::int32_t),
                                    chunk / sizeof(std::int32_t),
                                    mv2gnc::gpu::CopyDir::kDeviceToDevice,
                                    mv2gnc::gpu::Layout2D::kPack,
                                    /*rows_contiguous=*/false);
    best = std::min(best, static_cast<double>(n + 2) * static_cast<double>(t));
  }
  return best;
}

}  // namespace

Round run_vector_pingpong(const Options& opt) {
  Rng rng(opt.seed);
  const std::vector<std::size_t> sizes =
      stratified_sizes(rng, kMinBytes, kMaxBytes, kPerOctave, 4);
  const std::size_t msgs = 2 * sizes.size();
  const std::size_t corrupt_msg = rng.below(msgs);

  Round r;
  r.attempted = msgs;
  Tracer tr(opt.traced, 2);
  CommitMeter cm;
  PhaseClock clock;
  std::vector<sim::SimTime> sent_at(msgs, 0), done_at(msgs, 0);
  std::vector<char> ok(msgs, 0);
  bool warm_ok = true;

  clock.wall_setup0 = wall_now();
  mpisim::ClusterConfig cfg;
  cfg.ranks = 2;
  cfg.rng_seed = opt.seed;
  mpisim::Cluster cluster(cfg);

  const double sys_s = run_cluster(cluster, [&](mpisim::Context& ctx) {
    const int peer = 1 - ctx.rank;
    const std::size_t buf_bytes = kStride * kMaxBytes;
    std::int32_t* sbuf = nullptr;
    std::int32_t* rbuf = nullptr;
    tr.call(ctx, "cuda.malloc", -1, -1, [&] {
      sbuf = static_cast<std::int32_t*>(ctx.cuda->malloc(buf_bytes));
      rbuf = static_cast<std::int32_t*>(ctx.cuda->malloc(buf_bytes));
    });

    // Message `m` of `bytes` from `sender`; this rank plays its part.
    // Returns whether the received payload verified (true on the sender).
    auto message = [&](std::size_t m, std::size_t bytes, int sender) {
      // Warm-up messages (ids past the timed ones) trace as op -1.
      const std::int64_t op = m < msgs ? static_cast<std::int64_t>(m) : -1;
      const std::int64_t root = tr.open(ctx, "op", op);
      const std::size_t n = bytes / sizeof(std::int32_t);
      mpisim::Datatype t = column(bytes);
      cm.commit(t, tr, ctx, op, root);
      const int tag = static_cast<int>(m % 30000);
      bool good = true;
      mpisim::Request q;
      if (ctx.rank == sender) {
        clock.harness([&] {
          for (std::size_t i = 0; i < n; ++i) {
            sbuf[i * kStride] = pattern(opt.seed, m, i);
          }
        });
        if (m < msgs) sent_at[m] = ctx.now();
        tr.call(ctx, "mpi.isend", op, root,
                [&] { q = ctx.comm.isend(sbuf, 1, t, peer, tag); });
        tr.call(ctx, "mpi.wait", op, root, [&] { ctx.comm.wait(q); });
      } else {
        tr.call(ctx, "mpi.irecv", op, root,
                [&] { q = ctx.comm.irecv(rbuf, 1, t, peer, tag); });
        tr.call(ctx, "mpi.wait", op, root, [&] { ctx.comm.wait(q); });
        if (m < msgs) done_at[m] = ctx.now();
        clock.harness([&] {
          if (opt.corrupt && m == corrupt_msg) rbuf[kStride * (n / 2)] ^= 0x10;
          for (std::size_t i = 0; i < n && good; ++i) {
            good = rbuf[i * kStride] == pattern(opt.seed, m, i);
          }
        });
      }
      tr.close(ctx, root);
      return good;
    };

    // Warm-up: one round trip at each end of the size range.
    std::size_t warm_id = msgs;
    for (std::size_t bytes : {kMaxBytes, kMinBytes}) {
      warm_ok &= message(warm_id++, bytes, 0);
      warm_ok &= message(warm_id++, bytes, 1);
    }
    ctx.comm.barrier();
    clock.start(ctx);
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      for (int dir = 0; dir < 2; ++dir) {
        const std::size_t m = 2 * j + static_cast<std::size_t>(dir);
        const bool good = message(m, sizes[j], dir);
        if (ctx.rank != dir) ok[m] = good;
      }
    }
    clock.finish(ctx);
  }, r);
  if (!warm_ok && r.error.empty()) r.error = "warm-up payload mismatch";

  finish_round(clock, r);
  std::vector<double> ratios;
  std::vector<std::vector<double>> by_class(6);
  const std::size_t pipe = mv2gnc::core::Tunables{}.pipeline_threshold;
  const auto& cost = cluster.config().gpu_cost;
  for (std::size_t m = 0; m < msgs; ++m) {
    const std::size_t bytes = sizes[m / 2];
    const double ns = static_cast<double>(done_at[m] - sent_at[m]);
    r.op_us.push_back(ns / 1e3);
    r.payload_bytes += static_cast<double>(bytes);
    if (!ok[m]) ++r.failed;
    if (bytes > pipe) {
      const double q = ns / model_ns(cost, bytes);
      ratios.push_back(q);
      const int cls = static_cast<int>(std::log2(bytes / (64.0 * 1024)));
      by_class[static_cast<std::size_t>(std::clamp(cls, 0, 5))].push_back(q);
    }
  }
  collect_layers(cluster, static_cast<double>(msgs), sys_s, cm, r);
  r.layer["rndv.model_ratio"] = median(ratios);
  const char* names[] = {"64K", "128K", "256K", "512K", "1M", "2M"};
  for (std::size_t c = 0; c < by_class.size(); ++c) {
    r.layer[std::string("rndv.model_ratio.") + names[c]] = median(by_class[c]);
  }
  r.spans = tr.spans();
  return r;
}

}  // namespace perfbench
