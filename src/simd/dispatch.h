// Runtime CPU dispatch for the one vector kernel in src/simd/: CompactKeep.
//
// Every other kernel has a single scalar implementation. CompactKeep also
// has an AVX2 body, compiled with a function-level target attribute on
// x86-64 builds and only ever *called* after a cpuid probe says the CPU has
// AVX2, so the binary runs everywhere the scalar build would. The probe
// runs once; the active backend is process-global. SetBackend is a test
// seam: the bit-exactness suites and the kernel microbenchmark use it to
// run CompactKeep both ways on one machine.
#pragma once

#include <cstdint>

namespace crmc::simd {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

const char* ToString(Backend backend);

// True when `backend` is both compiled into this binary and supported by
// the running CPU. kScalar is always available.
bool BackendAvailable(Backend backend);

// The backend CompactKeep currently dispatches to. Starts at the best
// available backend (cpuid probe, memoized).
Backend ActiveBackend();

// Forces dispatch to `backend`. Returns false (active backend unchanged)
// when the backend is not available in this build or on this CPU.
bool SetBackend(Backend backend);

}  // namespace crmc::simd
