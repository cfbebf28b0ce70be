#include "core/msg_view.hpp"

#include <stdexcept>

namespace mv2gnc::core {

MsgView MsgView::make(void* base, int count, const mpisim::Datatype& dtype,
                      const gpu::MemoryRegistry& registry) {
  if (count < 0) throw std::invalid_argument("MsgView: negative count");
  if (!dtype.valid()) throw std::invalid_argument("MsgView: null datatype");
  if (!dtype.committed()) {
    throw std::logic_error("MsgView: datatype must be committed: " +
                           dtype.describe());
  }
  MsgView v;
  v.count = count;
  v.dtype = dtype;
  v.plan = PlanCache::instance().get(dtype, count);
  v.packed_bytes = v.plan->packed_bytes();
  v.contiguous = v.plan->contiguous();
  // Every spelling of dense bytes moves as one plain copy from its first
  // byte.
  v.base = v.plan->dense_offset() == 0
               ? base
               : static_cast<std::byte*>(base) + v.plan->dense_offset();
  if (auto info = registry.query(base)) {
    v.on_device = true;
    v.device_id = info->device_id;
  }
  return v;
}

}  // namespace mv2gnc::core
