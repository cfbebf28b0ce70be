// Shared pieces of the perfbench workloads: seeded inputs, the round
// record every workload fills, the timed-phase clock, the span tracer and
// the per-layer counter collection.
//
// A *round* is one complete, fresh instance of a workload: a new Cluster,
// setup, one warm-up, the timed closed loop and teardown. A benchmark run
// repeats rounds with the same seed until its time budget is spent; every
// round must reproduce the first one's virtual metrics and per-layer
// counts bit for bit (see main.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mpi/cluster.hpp"
#include "mpi/datatype.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace mpisim = mv2gnc::mpisim;
namespace sim = mv2gnc::sim;

/// Host seconds on a monotonic clock.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// In-place Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Log-uniform sizes from `lo` to `hi` bytes as a systematic sample: the
/// log range is cut into `per_octave` equal strata per octave and one
/// seeded offset u places a size in every stratum (u in even strata, 1-u
/// in odd ones, so neighbouring strata cancel each other's shift). Each
/// size is log-uniform on its own, while the mix is the same for every
/// seed, so quantiles and totals move little with the seed. Sizes are
/// rounded down to `align` and returned in seeded order.
std::vector<std::size_t> stratified_sizes(Rng& rng, std::size_t lo,
                                          std::size_t hi, int per_octave,
                                          std::size_t align);

/// One recorded interval of the traced run. `parent` indexes the same
/// rank's span list (-1 for an op root).
struct Span {
  const char* name = "";
  int rank = 0;
  std::int64_t op = -1;  // -1: setup / warm-up
  std::int64_t parent = -1;
  sim::SimTime v0 = 0, v1 = 0;
  double w0 = 0.0, w1 = 0.0;
};

/// Spans recorded from the benchmark's own code around each call into a
/// layer. Kept in memory; main.cpp writes them out at exit. Off in
/// untraced rounds, where every call is a single branch.
class Tracer {
 public:
  Tracer(bool on, int ranks) : on_(on), spans_(on ? ranks : 0) {}

  /// Open a span; returns its index on this rank (or -1 when off).
  std::int64_t open(const mpisim::Context& ctx, const char* name,
                    std::int64_t op, std::int64_t parent = -1);
  void close(const mpisim::Context& ctx, std::int64_t idx);
  /// Run `fn` inside a span.
  template <typename F>
  void call(const mpisim::Context& ctx, const char* name, std::int64_t op,
            std::int64_t parent, F&& fn) {
    const std::int64_t s = open(ctx, name, op, parent);
    fn();
    close(ctx, s);
  }
  /// Record an interval known after the fact (a kernel's execution).
  void add(int rank, const char* name, std::int64_t op, std::int64_t parent,
           sim::SimTime v0, sim::SimTime v1);

  const std::vector<std::vector<Span>>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<std::vector<Span>> spans_;  // per rank
};

/// Datatype commit timed on the wall clock and counted (the mpi.datatype
/// layer's metrics), recorded as a datatype.commit span when tracing.
struct CommitMeter {
  std::uint64_t commits = 0;
  double wall_s = 0.0;
  void commit(mpisim::Datatype& t, Tracer& tr, const mpisim::Context& ctx,
              std::int64_t op, std::int64_t parent = -1);
};

/// Boundaries of the timed phase, shared by the rank bodies of one round.
/// Only one simulated rank runs at a time, so plain fields suffice.
struct PhaseClock {
  double wall_setup0 = 0.0;    // just before the Cluster is constructed
  double wall_start = -1.0;    // first rank entering the timed phase
  sim::SimTime v_start = -1;
  double wall_end = 0.0;       // last rank leaving it
  sim::SimTime v_end = 0;
  double harness_s = 0.0;      // fill/check time inside the timed phase

  void start(const mpisim::Context& ctx);
  void finish(const mpisim::Context& ctx);
  /// Run benchmark-side work (input fill, output check) off the wall_s
  /// clock.
  template <typename F>
  void harness(F&& fn) {
    const double t0 = wall_now();
    fn();
    if (wall_start >= 0) harness_s += wall_now() - t0;
  }
};

/// Everything one round measured.
struct Round {
  std::vector<double> op_us;  // virtual µs per op, in op order
  double payload_bytes = 0;   // delivered during the timed phase
  sim::SimTime virt_span = 0; // timed-phase virtual makespan
  double wall_s = 0;          // timed-phase host seconds, harness excluded
  double setup_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;          // first exception a rank threw, if any
  /// Per-layer metrics by name.
  std::map<std::string, double> layer;
  std::vector<std::vector<Span>> spans;  // traced rounds only
};

struct Options {
  std::uint64_t seed = 1;
  bool traced = false;   // record spans in this round
  bool corrupt = false;  // self-test: damage one delivered payload
};

using WorkloadFn = Round (*)(const Options&);
Round run_vector_pingpong(const Options& opt);
Round run_halo3d(const Options& opt);
Round run_coll_mix(const Options& opt);

/// Fill `r` from the cluster's public counters after run(). `ops` is the
/// number of timed ops (the per-op ratios' base).
void collect_layers(mpisim::Cluster& cluster, double ops, double sys_s,
                    const CommitMeter& commits, Round& r);

/// Run the cluster body, turning a rank's exception into a failed round
/// rather than a crashed benchmark. Returns host system seconds spent.
double run_cluster(mpisim::Cluster& cluster,
                   std::function<void(mpisim::Context&)> body, Round& r);

/// Close out the timed phase into `r`.
void finish_round(const PhaseClock& clock, Round& r);

/// Per-layer metric names whose value is a host (wall-clock) measurement,
/// and so excluded from the determinism fingerprint.
bool is_wall_metric(const std::string& name);

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Per-layer metrics every workload reports, in print order.
const std::vector<MetricDef>& layer_metrics();

/// Median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

}  // namespace perfbench
