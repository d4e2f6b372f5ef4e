#include "heap_counter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* Note(void* p) {
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t live =
      g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* Allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  return p == nullptr ? nullptr : Note(p);
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n == 0 ? a : (n + a - 1) / a * a);
  void* p = std::aligned_alloc(a, rounded);
  return p == nullptr ? nullptr : Note(p);
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

HeapSnapshot Heap() {
  HeapSnapshot s;
  s.allocs = g_allocs.load(std::memory_order_relaxed);
  s.live_bytes = g_live.load(std::memory_order_relaxed);
  s.peak_bytes = g_peak.load(std::memory_order_relaxed);
  return s;
}

void ResetHeapPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateAligned;
using perfbench::Release;

void* operator new(std::size_t n) {
  void* p = Allocate(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = AllocateAligned(n, a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateAligned(n, a);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
