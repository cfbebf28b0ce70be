// perfbench: the repository's benchmark binary.
//
//   perfbench --workload <vector-pingpong|halo3d|coll-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>] [--corrupt]
//
// Repeats fresh rounds of one workload (one process per workload run, the
// process-wide plan cache reset before every round) until `--seconds` of
// host time are spent, then prints a metric table and, as the last line,
// the JSON result. Every round must reproduce the first round's virtual
// metrics and per-layer counts bit for bit, or the run is not correct.
// With --trace 1 every other round records spans; the per-layer metrics
// and the tracing overhead come from comparing the two kinds of round.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pack_plan.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<vector-pingpong|halo3d|coll-mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>] [--corrupt]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(val().c_str());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--spans-out") a.spans_out = val();
    else if (k == "--corrupt") a.corrupt = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

WorkloadFn find_workload(const std::string& name) {
  if (name == "vector-pingpong") return run_vector_pingpong;
  if (name == "halo3d") return run_halo3d;
  if (name == "coll-mix") return run_coll_mix;
  usage(("unknown workload " + name).c_str());
}

// Nearest-rank percentile: with n >= 100 samples p90 leaves at least ten
// samples above it.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// FNV-1a over every deterministic quantity of a round.
std::uint64_t fingerprint(const Round& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (double v : r.op_us) mix(&v, sizeof v);
  mix(&r.payload_bytes, sizeof r.payload_bytes);
  mix(&r.virt_span, sizeof r.virt_span);
  mix(&r.attempted, sizeof r.attempted);
  mix(&r.failed, sizeof r.failed);
  for (const auto& [k, v] : r.layer) {
    if (is_wall_metric(k)) continue;
    mix(k.data(), k.size());
    mix(&v, sizeof v);
  }
  return h;
}

using Intervals = std::vector<std::pair<sim::SimTime, sim::SimTime>>;

// Length of [a0, a1) covered by the disjoint intervals `iv`.
sim::SimTime covered(sim::SimTime a0, sim::SimTime a1, const Intervals& iv) {
  sim::SimTime c = 0;
  for (const auto& [b0, b1] : iv) {
    const sim::SimTime lo = std::max(a0, b0), hi = std::min(a1, b1);
    if (hi > lo) c += hi - lo;
  }
  return c;
}

// The Fig-6 split per (rank, op): compute is the kernels' execution on
// the virtual clock; post and wait are the self time of MPI post and wait
// calls, less the part a kernel covered. Medians over all (rank, op).
void span_split(const Round& r, std::map<std::string, double>& out) {
  static const std::set<std::string> post = {"mpi.isend", "mpi.irecv",
                                             "mpi.start"};
  std::vector<double> comp, posts, waits;
  for (const auto& spans : r.spans) {
    std::map<std::int64_t, Intervals> kernels;
    std::map<std::int64_t, std::array<double, 3>> per_op;
    for (const Span& s : spans) {
      if (s.op < 0) continue;
      per_op[s.op];
      if (std::strcmp(s.name, "cuda.kernel") == 0) {
        kernels[s.op].emplace_back(s.v0, s.v1);
      }
    }
    for (const Span& s : spans) {
      if (s.op < 0) continue;
      auto& acc = per_op[s.op];
      const double d = static_cast<double>(s.v1 - s.v0);
      const std::string name = s.name;
      if (name == "cuda.kernel") {
        acc[0] += d;
      } else if (name.rfind("mpi.", 0) == 0) {
        const double self = d - static_cast<double>(
                                    covered(s.v0, s.v1, kernels[s.op]));
        acc[post.count(name) ? 1 : 2] += self;
      }
    }
    for (const auto& [op, acc] : per_op) {
      comp.push_back(acc[0] / 1e3);
      posts.push_back(acc[1] / 1e3);
      waits.push_back(acc[2] / 1e3);
    }
  }
  out["span.compute_us"] = median(comp);
  out["span.post_us"] = median(posts);
  out["span.comm_wait_us"] = median(waits);
}

void write_spans(const std::string& path, const Round& r) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  char line[320];
  for (const auto& spans : r.spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::snprintf(line, sizeof line,
                    "{\"rank\": %d, \"id\": %zu, \"parent\": %" PRId64
                    ", \"op\": %" PRId64 ", \"name\": \"%s\""
                    ", \"v0_ns\": %" PRId64 ", \"v1_ns\": %" PRId64
                    ", \"w0_s\": %.9f, \"w1_s\": %.9f}\n",
                    s.rank, i, s.parent, s.op, s.name, s.v0, s.v1, s.w0, s.w1);
      f << line;
    }
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Confine the calling thread, and the rank threads the next Cluster
// spawns, to one CPU.
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

int run(const Args& a) {
  const WorkloadFn fn = find_workload(a.workload);
  // Only one simulated rank runs at a time, so each round runs on a single
  // CPU: a rank hand-off is then a local context switch instead of a
  // cross-CPU wake-up, whose latency on a virtual machine depends on the
  // host's load and swung wall_s by 4x between runs. Rounds rotate over
  // the allowed CPUs so no one CPU's load decides a run; a traced round
  // shares its CPU with the untraced round before it.
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t per_cpu = a.trace ? 2 : 1;
  std::vector<Round> plain, traced;
  std::vector<std::uint64_t> prints;
  std::string error;
  const double t0 = wall_now();
  const std::size_t min_rounds = a.trace ? 4 : 3;
  while (prints.size() < min_rounds || wall_now() - t0 < a.seconds) {
    if (!cpus.empty()) pin_to(cpus[prints.size() / per_cpu % cpus.size()]);
    mv2gnc::core::PlanCache::instance().reset();
    Options o;
    o.seed = a.seed;
    o.corrupt = a.corrupt;
    o.traced = a.trace && prints.size() % 2 == 1;
    Round r = fn(o);
    prints.push_back(fingerprint(r));
    if (!r.error.empty() && error.empty()) error = r.error;
    (o.traced ? traced : plain).push_back(std::move(r));
  }
  mv2gnc::core::PlanCache::instance().reset();

  const Round& first = plain.front();
  const bool deterministic =
      std::all_of(prints.begin(), prints.end(),
                  [&](std::uint64_t p) { return p == prints.front(); });
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> walls, setups, traced_walls;
  for (const Round& r : plain) {
    walls.push_back(r.wall_s);
    setups.push_back(r.setup_s);
  }
  for (const Round& r : traced) traced_walls.push_back(r.wall_s);
  for (const auto* rounds : {&plain, &traced}) {
    for (const Round& r : *rounds) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }

  struct Out {
    std::string name, unit;
    double value;
  };
  std::vector<Out> e2e = {
      {"op_us.p50", "us", percentile(first.op_us, 0.5)},
      {"op_us.p90", "us", percentile(first.op_us, 0.9)},
      {"virtual_MBps", "MB/s",
       first.payload_bytes / 1e6 / sim::to_sec(first.virt_span)},
      {"wall_s", "s", median(walls)},
      {"setup_s", "s", median(setups)},
      {"peak_rss_MB", "MB", peak_rss_mb()}};

  std::map<std::string, double> layer = first.layer;
  for (const auto& [k, v] : first.layer) {
    if (!is_wall_metric(k)) continue;
    std::vector<double> vals;
    for (const Round& r : plain) vals.push_back(r.layer.at(k));
    layer[k] = median(vals);
  }
  if (!traced.empty()) {
    span_split(traced.back(), layer);
    layer["trace.overhead_s"] = median(traced_walls) - median(walls);
    if (!a.spans_out.empty()) write_spans(a.spans_out, traced.back());
  }
  layer["ops_failed_ratio"] =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;

  const bool correct = deterministic && failed == 0 && error.empty();
  std::printf("perfbench %s seed=%" PRIu64
              " rounds=%zu (%zu traced) ops/round=%zu\n",
              a.workload.c_str(), a.seed, prints.size(), traced.size(),
              first.op_us.size());
  std::printf("fingerprint %016" PRIx64 " %s\n", prints.front(),
              deterministic ? "identical in every round"
                            : "DIFFERS between rounds");
  if (!error.empty()) std::printf("error: %s\n", error.c_str());
  std::printf("wall_s by untraced round:");
  for (double w : walls) std::printf(" %.3f", w);
  std::printf("\n");
  std::printf("end-to-end (ops_failed_ratio %.6g = %" PRIu64 "/%" PRIu64 ")\n",
              layer["ops_failed_ratio"], failed, attempted);
  const std::string op_count =
      " (" + std::to_string(first.op_us.size()) + " ops)";
  for (const Out& o : e2e) {
    std::printf("  %-30s %16.6f %-8s%s\n", o.name.c_str(), o.value,
                o.unit.c_str(),
                o.name.rfind("op_us", 0) == 0 ? op_count.c_str() : "");
  }
  if (a.trace) {
    std::printf("per-layer\n");
    for (const MetricDef& d : layer_metrics()) {
      std::printf("  %-30s %16.6f %s\n", d.name, layer[d.name], d.unit);
    }
  }

  // The result line: end-to-end metrics untraced, per-layer ones traced.
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[160];
  bool sep = false;
  auto add = [&](const std::string& name, double v, const char* unit) {
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  sep ? ", " : "", name.c_str(), std::isfinite(v) ? v : 0.0,
                  unit);
    json += buf;
    sep = true;
  };
  if (a.trace) {
    for (const MetricDef& d : layer_metrics()) {
      add(d.name, layer[d.name], d.unit);
    }
  } else {
    for (const Out& o : e2e) add(o.name, o.value, o.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold hands large blocks back to the system on free,
  // so peak_rss_MB tracks live memory instead of glibc's adaptive
  // threshold, which moved it by up to 25 % between seeds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return perfbench::run(perfbench::parse(argc, argv));
}
