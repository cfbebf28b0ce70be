// coll-mix: four ranks, two per node, run a seeded closed-loop mix of
// collectives: allreduce_sum on device and on host buffers, allgather and
// bcast on device buffers, from 1 KB to 1 MB. It is the only workload that
// reaches mpi.coll, mpi.coll_device, transport routing and the IPC
// channel. Values are small integers stored as doubles, so every result
// is checked exactly against the host-computed one.
#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kMinBytes = 1024;
constexpr std::size_t kMaxBytes = std::size_t{1} << 20;
// 10 octaves x 12 sizes x 4 kinds = 480 collectives per round.
constexpr int kPerOctave = 12;

enum class Kind { kAllreduceDevice, kAllreduceHost, kAllgatherDevice,
                  kBcastDevice };
constexpr Kind kKinds[] = {Kind::kAllreduceDevice, Kind::kAllreduceHost,
                           Kind::kAllgatherDevice, Kind::kBcastDevice};

struct CollOp {
  Kind kind;
  int count;  // doubles per rank
  int root;   // bcast only
};

// Rank `rank`'s input element `i` of op `op`: an integer in [0, 1024).
double input(std::uint64_t seed, std::int64_t op, int rank, int i) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ull ^
                    static_cast<std::uint64_t>(op + 8) * 0xD1B54A32D192ED03ull ^
                    static_cast<std::uint64_t>(rank) << 56 ^
                    static_cast<std::uint64_t>(i);
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  return static_cast<double>(h & 1023);
}

double delivered_bytes(const CollOp& c) {
  const double bytes = 8.0 * c.count;
  switch (c.kind) {
    case Kind::kAllreduceDevice:
    case Kind::kAllreduceHost: return bytes * kRanks;
    case Kind::kAllgatherDevice: return bytes * kRanks * (kRanks - 1);
    case Kind::kBcastDevice: return bytes * (kRanks - 1);
  }
  return 0;
}

}  // namespace

Round run_coll_mix(const Options& opt) {
  Rng rng(opt.seed);
  std::vector<CollOp> ops;
  // Kinds take turns, so every collective follows each kind equally often
  // and inherits comparable arrival skew; sizes and roots are seeded.
  std::vector<std::vector<CollOp>> by_kind;
  for (Kind k : kKinds) {
    std::vector<CollOp> mine;
    int root = 0;
    for (std::size_t bytes :
         stratified_sizes(rng, kMinBytes, kMaxBytes, kPerOctave, 8)) {
      mine.push_back({k, static_cast<int>(bytes / 8), root++ % kRanks});
    }
    by_kind.push_back(std::move(mine));
  }
  for (std::size_t i = 0; i < by_kind[0].size(); ++i) {
    for (const auto& mine : by_kind) ops.push_back(mine[i]);
  }
  const std::size_t n_ops = ops.size();
  const auto corrupt_op = static_cast<std::int64_t>(rng.below(n_ops));

  Round r;
  r.attempted = n_ops;
  Tracer tr(opt.traced, kRanks);
  CommitMeter cm;
  PhaseClock clock;
  std::vector<sim::SimTime> entry(n_ops, sim::kNever), exit(n_ops, 0);
  std::vector<char> ok(n_ops, 1);
  bool warm_ok = true;

  clock.wall_setup0 = wall_now();
  mpisim::ClusterConfig cfg;
  cfg.ranks = kRanks;
  cfg.rng_seed = opt.seed;
  cfg.tunables.ranks_per_node = 2;
  mpisim::Cluster cluster(cfg);

  const double sys_s = run_cluster(cluster, [&](mpisim::Context& ctx) {
    const std::size_t max_doubles = kMaxBytes / 8;
    double* din = nullptr;
    double* dout = nullptr;
    tr.call(ctx, "cuda.malloc", -1, -1, [&] {
      din = static_cast<double*>(ctx.cuda->malloc(kMaxBytes));
      dout = static_cast<double*>(ctx.cuda->malloc(kRanks * kMaxBytes));
    });
    std::vector<double> hin(max_doubles), hout(max_doubles);
    mpisim::Datatype dbl = mpisim::Datatype::float64();
    cm.commit(dbl, tr, ctx, -1);

    // Run collective `op` (negative ids are warm-up) and check its result.
    auto collective = [&](std::int64_t op, const CollOp& c) {
      const std::int64_t root = tr.open(ctx, "op", op);
      const bool host = c.kind == Kind::kAllreduceHost;
      double* in = host ? hin.data() : din;
      double* out = host ? hout.data() : dout;
      clock.harness([&] {
        for (int i = 0; i < c.count; ++i) {
          in[i] = input(opt.seed, op, ctx.rank, i);
        }
      });
      const sim::SimTime t0 = ctx.now();
      switch (c.kind) {
        case Kind::kAllreduceDevice:
        case Kind::kAllreduceHost:
          tr.call(ctx, "mpi.allreduce", op, root,
                  [&] { ctx.comm.allreduce_sum(in, out, c.count); });
          break;
        case Kind::kAllgatherDevice:
          tr.call(ctx, "mpi.allgather", op, root,
                  [&] { ctx.comm.allgather(in, c.count, dbl, out); });
          break;
        case Kind::kBcastDevice:
          tr.call(ctx, "mpi.bcast", op, root,
                  [&] { ctx.comm.bcast(in, c.count, dbl, c.root); });
          break;
      }
      const sim::SimTime t1 = ctx.now();
      tr.close(ctx, root);
      bool good = true;
      clock.harness([&] {
        if (opt.corrupt && op == corrupt_op && ctx.rank == 0) {
          (c.kind == Kind::kBcastDevice ? in : out)[c.count / 2] += 1.0;
        }
        for (int i = 0; i < c.count && good; ++i) {
          switch (c.kind) {
            case Kind::kAllreduceDevice:
            case Kind::kAllreduceHost: {
              double want = 0;
              for (int k = 0; k < kRanks; ++k) {
                want += input(opt.seed, op, k, i);
              }
              good = out[i] == want;
              break;
            }
            case Kind::kAllgatherDevice:
              for (int k = 0; k < kRanks && good; ++k) {
                good = out[static_cast<std::size_t>(k) * c.count + i] ==
                       input(opt.seed, op, k, i);
              }
              break;
            case Kind::kBcastDevice:
              good = in[i] == input(opt.seed, op, c.root, i);
              break;
          }
        }
      });
      return std::make_tuple(t0, t1, good);
    };

    std::int64_t warm = -1;
    for (Kind k : kKinds) {
      warm_ok &= std::get<2>(
          collective(warm--, {k, static_cast<int>(max_doubles), 0}));
    }
    ctx.comm.barrier();
    clock.start(ctx);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const auto [t0, t1, good] =
          collective(static_cast<std::int64_t>(i), ops[i]);
      entry[i] = std::min(entry[i], t0);
      exit[i] = std::max(exit[i], t1);
      if (!good) ok[i] = 0;
    }
    clock.finish(ctx);
  }, r);
  if (!warm_ok && r.error.empty()) r.error = "warm-up collective mismatch";

  finish_round(clock, r);
  for (std::size_t i = 0; i < n_ops; ++i) {
    const bool done = exit[i] >= entry[i] && entry[i] != sim::kNever;
    r.op_us.push_back(done ? sim::to_us(exit[i] - entry[i]) : 0.0);
    r.payload_bytes += delivered_bytes(ops[i]);
    if (!ok[i] || !done || !r.error.empty()) ++r.failed;
  }
  collect_layers(cluster, static_cast<double>(n_ops), sys_s, cm, r);
  r.spans = tr.spans();
  return r;
}

}  // namespace perfbench
