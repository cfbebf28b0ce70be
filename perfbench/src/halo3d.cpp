// halo3d: the paper's application pattern. Four ranks in a periodic 2x2
// grid over (z, x), two per node, so the x neighbour is reached over IPC
// and the z neighbour over the fabric. Each rank owns a 3-D brick of
// doubles in device memory (C order: z slowest, x fastest; ghost planes in
// z and ghost columns in x). Every iteration runs a timed compute kernel,
// then a dimension-ordered halo exchange over persistent requests built
// once: the x faces first, then the z faces, whose plus side carries the
// freshly received x ghosts so corners propagate.
//
// The four faces cover the three shapes the datatype layer lowers
// differently:
//   x faces   element-strided gather (one double every row)
//   z+ face   contiguous run (the whole padded plane)
//   z- face   2-D strided rows (interior columns only; memcpy2d)
// and sender and receiver spell each face differently (subarray,
// hvector-of-vector, indexed_block), so the plan cache's signature tier
// has to see through the spelling.
#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

using mpisim::Datatype;

constexpr int kNx = 96, kNy = 96, kNz = 96;
constexpr int kX = kNx + 2, kY = kNy, kZ = kNz + 2;
constexpr std::size_t kPlane = static_cast<std::size_t>(kY) * kX;
constexpr std::size_t kCells = kPlane * kZ;
constexpr int kIters = 100;
constexpr int kRanks = 4;

constexpr std::size_t idx(int z, int y, int x) {
  return static_cast<std::size_t>(z) * kPlane +
         static_cast<std::size_t>(y) * kX + static_cast<std::size_t>(x);
}

// Value the compute kernel of `rank` writes at cell (z, y, x) in iteration
// `it`: an integer below 2^24, so exact in a double.
double value(int rank, int it, int z, int y, int x) {
  std::uint64_t h = (static_cast<std::uint64_t>(rank) << 40) ^
                    (static_cast<std::uint64_t>(it) << 24) ^ idx(z, y, x);
  h *= 0x9E3779B97F4A7C15ull;
  h ^= h >> 31;
  return static_cast<double>(h & 0xFFFFFF);
}

int rank_of(int pz, int px) { return pz * 2 + px; }

// The kernel body: write this iteration's values into every cell a face
// sends (x = 1 and x = nx columns, z = 1 and z = nz interior planes).
void compute(double* b, int rank, int it) {
  for (int z = 1; z <= kNz; ++z) {
    for (int y = 0; y < kY; ++y) {
      b[idx(z, y, 1)] = value(rank, it, z, y, 1);
      b[idx(z, y, kNx)] = value(rank, it, z, y, kNx);
    }
  }
  for (int z : {1, kNz}) {
    for (int y = 0; y < kY; ++y) {
      for (int x = 2; x < kNx; ++x) b[idx(z, y, x)] = value(rank, it, z, y, x);
    }
  }
}

// Every ghost cell must hold what its owner's kernel wrote this iteration.
bool check(const double* b, int pz, int px, int it) {
  const int xn = rank_of(pz, 1 - px), zn = rank_of(1 - pz, px),
            dn = rank_of(1 - pz, 1 - px);
  for (int z = 1; z <= kNz; ++z) {
    for (int y = 0; y < kY; ++y) {
      if (b[idx(z, y, 0)] != value(xn, it, z, y, kNx)) return false;
      if (b[idx(z, y, kNx + 1)] != value(xn, it, z, y, 1)) return false;
    }
  }
  for (int y = 0; y < kY; ++y) {
    for (int x = 1; x <= kNx; ++x) {
      if (b[idx(0, y, x)] != value(zn, it, kNz, y, x)) return false;
      if (b[idx(kNz + 1, y, x)] != value(zn, it, 1, y, x)) return false;
    }
    // Corners of the padded z+ plane came from the diagonal rank via zn.
    if (b[idx(0, y, 0)] != value(dn, it, kNz, y, kNx)) return false;
    if (b[idx(0, y, kNx + 1)] != value(dn, it, kNz, y, 1)) return false;
  }
  return true;
}

const Datatype& f64() {
  static const Datatype t = Datatype::float64();
  return t;
}

Datatype subarray(std::array<int, 3> sub, std::array<int, 3> start) {
  const std::array<int, 3> sizes{kZ, kY, kX};
  return Datatype::subarray(sizes, sub, start, mpisim::ArrayOrder::kC, f64());
}

// x = const column over z = 1..nz, all y, as indexed_block from the base.
Datatype x_face_indexed(int x) {
  std::vector<int> displs;
  for (int z = 1; z <= kNz; ++z) {
    for (int y = 0; y < kY; ++y) {
      displs.push_back(static_cast<int>(idx(z, y, x)));
    }
  }
  return Datatype::indexed_block(1, displs, f64());
}

// The same column as hvector-of-vector, from &b(1, 0, x).
Datatype x_face_hvector() {
  return Datatype::hvector(kNz, 1, static_cast<std::int64_t>(kPlane * 8),
                           Datatype::vector(kY, 1, kX, f64()));
}

}  // namespace

Round run_halo3d(const Options& opt) {
  Round r;
  r.attempted = kIters;
  Tracer tr(opt.traced, kRanks);
  CommitMeter cm;
  PhaseClock clock;
  std::array<std::array<sim::SimTime, kIters>, kRanks> dur{};
  std::array<std::array<char, kIters>, kRanks> ok{};
  bool warm_ok = true;
  const int corrupt_it = static_cast<int>(Rng(opt.seed).below(kIters)) + 1;

  clock.wall_setup0 = wall_now();
  mpisim::ClusterConfig cfg;
  cfg.ranks = kRanks;
  cfg.rng_seed = opt.seed;
  cfg.tunables.ranks_per_node = 2;
  mpisim::Cluster cluster(cfg);
  const auto& cost = cluster.config().gpu_cost;

  const double sys_s = run_cluster(cluster, [&](mpisim::Context& ctx) {
    const int pz = ctx.rank / 2, px = ctx.rank % 2;
    const int xn = rank_of(pz, 1 - px), zn = rank_of(1 - pz, px);
    double* b = nullptr;
    tr.call(ctx, "cuda.malloc", -1, -1, [&] {
      b = static_cast<double*>(ctx.cuda->malloc(kCells * sizeof(double)));
    });
    mv2gnc::cusim::Stream stream = ctx.cuda->create_stream();

    // Face types: tag 1 carries x = nx into the neighbour's x = 0, tag 2
    // x = 1 into x = nx+1, tag 3 the padded z = nz plane into z = 0, tag
    // 4 the interior of z = 1 into z = nz+1.
    Datatype xp_send = x_face_hvector(), xp_recv = x_face_indexed(0),
             xm_send = x_face_indexed(1),
             xm_recv = subarray({kNz, kY, 1}, {1, 0, kNx + 1}),
             zp_send = subarray({1, kY, kX}, {kNz, 0, 0}),
             zp_recv = Datatype::indexed_block(static_cast<int>(kPlane),
                                               std::array<int, 1>{0}, f64()),
             zm_send = Datatype::hvector(kY, 1, kX * 8,
                                         Datatype::contiguous(kNx, f64())),
             zm_recv = subarray({1, kY, kNx}, {kNz + 1, 0, 1});
    for (Datatype* t : {&xp_send, &xp_recv, &xm_send, &xm_recv, &zp_send,
                        &zp_recv, &zm_send, &zm_recv}) {
      cm.commit(*t, tr, ctx, -1);
    }
    // Phase 1 (x) and phase 2 (z) requests: receives first, then sends.
    std::array<mpisim::PersistentRequest, 4> xreqs, zreqs;
    const std::int64_t init = tr.open(ctx, "mpi.init", -1);
    xreqs = {ctx.comm.recv_init(b, 1, xp_recv, xn, 1),
             ctx.comm.recv_init(b, 1, xm_recv, xn, 2),
             ctx.comm.send_init(b + idx(1, 0, kNx), 1, xp_send, xn, 1),
             ctx.comm.send_init(b, 1, xm_send, xn, 2)};
    zreqs = {ctx.comm.recv_init(b, 1, zp_recv, zn, 3),
             ctx.comm.recv_init(b, 1, zm_recv, zn, 4),
             ctx.comm.send_init(b, 1, zp_send, zn, 3),
             ctx.comm.send_init(b + idx(1, 0, 1), 1, zm_send, zn, 4)};
    tr.close(ctx, init);

    Rng jitter(opt.seed * 0x9E3779B97F4A7C15ull +
               static_cast<std::uint64_t>(ctx.rank));
    const sim::SimTime base = cost.kernel_time(
        static_cast<std::uint64_t>(kNx) * kNy * kNz, /*double_precision=*/true);

    // One iteration; `it` 0 is the warm-up.
    auto iteration = [&](int it) {
      const std::int64_t op = it - 1;
      const std::int64_t root = tr.open(ctx, "op", op);
      const sim::SimTime t0 = ctx.now();
      // Seeded +-5% load imbalance per rank and iteration.
      const auto d = static_cast<sim::SimTime>(
          static_cast<double>(base) * (0.95 + 0.1 * jitter.uniform()));
      tr.call(ctx, "cuda.launch_kernel", op, root, [&] {
        ctx.cuda->launch_kernel_timed(stream, d, [&, it, d, op, root] {
          compute(b, ctx.rank, it);
          const sim::SimTime end = ctx.now();
          tr.add(ctx.rank, "cuda.kernel", op, root, end - d, end);
        });
      });
      for (auto* reqs : {&xreqs, &zreqs}) {
        tr.call(ctx, "mpi.start", op, root,
                [&] { ctx.comm.startall_on(stream, *reqs); });
        tr.call(ctx, "mpi.wait", op, root,
                [&] { ctx.comm.waitall_persistent(*reqs); });
      }
      tr.call(ctx, "cuda.synchronize", op, root, [&] { stream.synchronize(); });
      const sim::SimTime t1 = ctx.now();
      tr.close(ctx, root);
      bool good = true;
      clock.harness([&] {
        if (opt.corrupt && it == corrupt_it) b[idx(0, kY / 2, kNx / 2)] += 1.0;
        good = check(b, pz, px, it);
      });
      return std::make_pair(t1 - t0, good);
    };

    warm_ok &= iteration(0).second;
    ctx.comm.barrier();
    clock.start(ctx);
    const auto me = static_cast<std::size_t>(ctx.rank);
    for (int it = 1; it <= kIters; ++it) {
      const auto [d, good] = iteration(it);
      dur[me][static_cast<std::size_t>(it - 1)] = d;
      ok[me][static_cast<std::size_t>(it - 1)] = good;
    }
    clock.finish(ctx);
    ctx.cuda->free(b);
  }, r);
  if (!warm_ok && r.error.empty()) r.error = "warm-up halo mismatch";

  finish_round(clock, r);
  const double face_bytes =
      8.0 * (2.0 * kNz * kY + static_cast<double>(kPlane) + kY * kNx);
  for (std::size_t it = 0; it < kIters; ++it) {
    sim::SimTime slowest = 0;
    bool good = true;
    for (std::size_t k = 0; k < kRanks; ++k) {
      slowest = std::max(slowest, dur[k][it]);
      good = good && ok[k][it];
    }
    r.op_us.push_back(sim::to_us(slowest));
    r.payload_bytes += kRanks * face_bytes;
    if (!good) ++r.failed;
  }
  collect_layers(cluster, kIters, sys_s, cm, r);
  r.spans = tr.spans();
  return r;
}

}  // namespace perfbench
