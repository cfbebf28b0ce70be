#include "gpu/device.hpp"

#include <string>

namespace mv2gnc::gpu {

Device::Device(sim::Engine& engine, MemoryRegistry& registry, int id,
               GpuCostModel cost, std::size_t mem_capacity)
    : engine_(engine),
      registry_(registry),
      id_(id),
      cost_(cost),
      capacity_(mem_capacity),
      d2h_engine_(engine, "gpu" + std::to_string(id) + ".d2h"),
      h2d_engine_(engine, "gpu" + std::to_string(id) + ".h2d"),
      d2d_engine_(engine, "gpu" + std::to_string(id) + ".d2d"),
      kernel_engine_(engine, "gpu" + std::to_string(id) + ".kernel") {}

Device::~Device() {
  // Unregister any leaked allocations so the registry stays consistent
  // across sequentially constructed clusters in one OS process.
  for (const auto& [ptr, buf] : allocations_) {
    registry_.unregister_range(ptr);
  }
}

void* Device::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;  // CUDA returns a unique pointer for 0 bytes
  if (bytes_allocated_ + bytes > capacity_) {
    throw DeviceError("device " + std::to_string(id_) +
                      " out of memory: requested " + std::to_string(bytes) +
                      " bytes, " + std::to_string(capacity_ - bytes_allocated_) +
                      " free of " + std::to_string(capacity_));
  }
  // for_overwrite: device memory contents are indeterminate after
  // cudaMalloc (and zero-filling multi-GB benchmarks would dominate
  // wall-clock time).
  auto buf = std::make_unique_for_overwrite<std::byte[]>(bytes);
  void* ptr = buf.get();
  registry_.register_range(ptr, bytes, id_);
  allocations_.emplace(ptr, std::move(buf));
  allocation_sizes_.emplace(ptr, bytes);
  bytes_allocated_ += bytes;
  ++allocations_made_;
  return ptr;
}

void Device::deallocate(void* ptr) {
  if (ptr == nullptr) return;  // cudaFree(nullptr) is a no-op
  auto it = allocations_.find(ptr);
  if (it == allocations_.end()) {
    throw DeviceError("cudaFree of pointer not allocated on device " +
                      std::to_string(id_));
  }
  registry_.unregister_range(ptr);
  bytes_allocated_ -= allocation_sizes_.at(ptr);
  allocation_sizes_.erase(ptr);
  allocations_.erase(it);
}

}  // namespace mv2gnc::gpu
