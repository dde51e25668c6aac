// Heap-allocation counting for alloc.heap_per_msg. alloc_count.cpp
// replaces the global operator new of the benchmark binary; every call on
// any thread is counted while counting is on, except calls made inside an
// UncountedScope — the benchmark's own bookkeeping (sample vectors, wire
// logs), so the count is the engine's alone.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
[[nodiscard]] uint64_t alloc_count();

class UncountedScope {
 public:
  UncountedScope();
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;
};

}  // namespace perfbench
