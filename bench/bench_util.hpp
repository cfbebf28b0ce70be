// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cuda/runtime.hpp"
#include "gpu/device.hpp"
#include "sim/engine.hpp"

namespace mv2gnc::bench {

/// Run `body` as a single simulated process against one Tesla-C2050-class
/// device (for the single-GPU measurements of §I-A and Figure 2).
inline void run_single_gpu(
    const std::function<void(sim::Engine&, cusim::CudaContext&)>& body,
    std::size_t device_memory = 3ull << 30) {
  sim::Engine engine;
  gpu::MemoryRegistry registry;
  gpu::Device device(engine, registry, 0, gpu::GpuCostModel::tesla_c2050(),
                     device_memory);
  cusim::CudaContext ctx(device);
  engine.spawn("bench", [&] { body(engine, ctx); });
  engine.run();
}

inline constexpr const char* kVirtualClock =
    "virtual time on the simulated C2050/QDR testbed";

/// Standard benchmark banner; `clock` names what the section's times are.
inline void banner(const std::string& what, const std::string& paper_ref,
                   const std::string& clock = kVirtualClock) {
  std::cout << "\n######################################################\n"
            << "# " << what << "\n"
            << "# reproduces: " << paper_ref << "\n"
            << "# (" << clock << ")\n"
            << "######################################################\n";
}

/// Machine-readable benchmark results. Each binary accumulates flat
/// (key, value) metrics; when the MV2GNC_BENCH_JSON_DIR environment
/// variable names a directory, write() emits BENCH_<name>.json there so
/// scripts/run_benches.sh (and CI trend tooling) can diff runs without
/// scraping the ASCII tables. Without the variable, write() is a no-op.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Returns the path written, or "" when reporting is disabled.
  std::string write() const {
    const char* dir = std::getenv("MV2GNC_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return {};
    const std::string path = std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return {};
    }
    out << "{\n  \"bench\": \"" << name_ << "\",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::ostringstream v;  // default precision; no locale surprises
      v << metrics_[i].second;
      out << (i ? "," : "") << "\n    \"" << metrics_[i].first
          << "\": " << v.str();
    }
    out << "\n  }\n}\n";
    return path;
  }

  /// write() plus the standard one-line stdout pointer every benchmark
  /// prints ("json metrics: <path>"); silent when reporting is disabled.
  /// Returns the path written, or "" when disabled.
  std::string write_and_note() const {
    const std::string path = write();
    if (!path.empty()) std::cout << "\njson metrics: " << path << "\n";
    return path;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Append an engine's execution-throughput counters under `prefix`: events
/// executed, wall-clock seconds spent inside run(), events per wall second
/// and wall seconds per simulated virtual second. Call while the Cluster
/// (or Engine) that ran the cell is still alive.
inline void add_engine_throughput(JsonReport& report, const std::string& prefix,
                                  const sim::Engine& engine) {
  report.add(prefix + "_events",
             static_cast<double>(engine.events_executed()));
  report.add(prefix + "_wall_s", engine.run_wall_seconds());
  report.add(prefix + "_events_per_s", engine.events_per_wall_second());
  report.add(prefix + "_wall_per_virtual_s", engine.wall_per_virtual_second());
}

}  // namespace mv2gnc::bench
