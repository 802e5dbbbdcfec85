// Heap-allocation counting for the traced replay. alloc_count.cpp
// replaces the global operator new for the whole benchmark binary (the
// pattern bench/bench_micro_phy.cpp uses); the counter is per thread,
// so the four-thread campaign never contends on it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made by the calling thread so far. Difference it
/// around a call to count that call's allocations.
std::uint64_t ThreadAllocCount();

}  // namespace perfbench
