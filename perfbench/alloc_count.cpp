// Counting replacements of the global allocation functions. Every block's
// usable size is added on allocation and removed on release, so the live
// heap can be read at any instant; a per-thread count lets the ledger charge
// allocations to the handler that made them.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};
thread_local std::uint64_t t_allocs = 0;

void* counted(void* p) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  ++t_allocs;
  return p;
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return counted(p);
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  const std::size_t size = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, size == 0 ? align : size);
  if (p == nullptr) throw std::bad_alloc();
  return counted(p);
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

HeapSnapshot heap_snapshot() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_live_bytes.load(std::memory_order_relaxed)};
}

std::uint64_t thread_allocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  return p == nullptr ? nullptr : counted(p);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
