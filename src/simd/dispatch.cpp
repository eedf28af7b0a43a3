#include "simd/dispatch.h"

#include <atomic>

namespace crmc::simd {
namespace {

Backend BestBackend() {
  static const Backend best = [] {
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
    return Backend::kScalar;
  }();
  return best;
}

std::atomic<Backend>& ActiveSlot() {
  static std::atomic<Backend> active{BestBackend()};
  return active;
}

}  // namespace

const char* ToString(Backend backend) {
  return backend == Backend::kAvx2 ? "avx2" : "scalar";
}

bool BackendAvailable(Backend backend) {
  return backend == Backend::kScalar || backend == BestBackend();
}

Backend ActiveBackend() {
  return ActiveSlot().load(std::memory_order_relaxed);
}

bool SetBackend(Backend backend) {
  if (!BackendAvailable(backend)) return false;
  ActiveSlot().store(backend, std::memory_order_relaxed);
  return true;
}

}  // namespace crmc::simd
