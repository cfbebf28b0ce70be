// Simulated GPU device: memory heap + DMA copy engines + kernel engine.
//
// Device memory is backed by real host allocations so simulated copies move
// real bytes (correctness is byte-testable); the engines are FIFO servers
// on the virtual clock so timing follows the calibrated cost model.
//
// Engine topology mirrors Fermi-class hardware as the paper's pipeline
// requires: one PCIe copy engine per direction (C2050 has two copy
// engines), a device-internal copy path, and a compute engine. This is
// exactly the concurrency the paper's 5-stage pipeline exploits — a D2D
// pack can run while the previous chunk crosses PCIe.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "gpu/cost_model.hpp"
#include "gpu/memory_registry.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace mv2gnc::gpu {

/// Thrown on allocation failures and invalid frees.
class DeviceError : public std::runtime_error {
 public:
  explicit DeviceError(const std::string& what) : std::runtime_error(what) {}
};

class Device {
 public:
  /// `mem_capacity` models the device DRAM limit (the paper's C2050 has
  /// 3 GB and the authors explicitly hit this bound in §V-B3).
  Device(sim::Engine& engine, MemoryRegistry& registry, int id,
         GpuCostModel cost, std::size_t mem_capacity);
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocate device memory (cudaMalloc). Throws DeviceError when the
  /// modeled DRAM capacity would be exceeded.
  void* allocate(std::size_t bytes);

  /// Free device memory (cudaFree). Throws DeviceError on unknown pointer.
  void deallocate(void* ptr);

  int id() const { return id_; }
  const GpuCostModel& cost() const { return cost_; }
  sim::Engine& engine() { return engine_; }
  MemoryRegistry& registry() { return registry_; }

  std::size_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t live_allocations() const { return allocations_.size(); }
  /// Successful allocate() calls over the device's lifetime.
  std::size_t allocations_made() const { return allocations_made_; }

  /// DMA engine moving data device -> host (one of the two copy engines).
  sim::FifoResource& d2h_engine() { return d2h_engine_; }
  /// DMA engine moving data host -> device.
  sim::FifoResource& h2d_engine() { return h2d_engine_; }
  /// Device-internal copy path (used by the pack/unpack offload).
  sim::FifoResource& d2d_engine() { return d2d_engine_; }
  /// Compute (kernel) engine.
  sim::FifoResource& kernel_engine() { return kernel_engine_; }

 private:
  sim::Engine& engine_;
  MemoryRegistry& registry_;
  int id_;
  GpuCostModel cost_;
  std::size_t capacity_;
  std::size_t bytes_allocated_ = 0;
  std::size_t allocations_made_ = 0;
  std::unordered_map<void*, std::unique_ptr<std::byte[]>> allocations_;
  std::unordered_map<void*, std::size_t> allocation_sizes_;
  sim::FifoResource d2h_engine_;
  sim::FifoResource h2d_engine_;
  sim::FifoResource d2d_engine_;
  sim::FifoResource kernel_engine_;
};

}  // namespace mv2gnc::gpu
