#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
thread_local int t_uncounted = 0;

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed) && t_uncounted == 0) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* checked_aligned(std::size_t n, std::align_val_t al) {
  note_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

UncountedScope::UncountedScope() { ++t_uncounted; }
UncountedScope::~UncountedScope() { --t_uncounted; }

}  // namespace perfbench

// The nothrow forms of libstdc++ forward to these, so replacing the plain
// and aligned forms covers every allocation a new-expression makes.
void* operator new(std::size_t n) { return perfbench::checked_malloc(n); }
void* operator new[](std::size_t n) { return perfbench::checked_malloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::checked_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::checked_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
