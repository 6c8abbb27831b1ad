// Counting allocator hook for the benches that report heap traffic.
//
// Replaces every global operator new/delete: every allocation bumps
// g_alloc_count (allocs-per-event is the budget the substrate model in
// DESIGN.md §4.2 talks about) and adds its usable size to g_live_bytes;
// every delete takes the size back off. Counters are relaxed atomics. The
// nothrow forms are replaced too: under ASan its own nothrow new would
// otherwise hand blocks to this delete (std::stable_sort's temporary
// buffer does), which ASan reports as an alloc-dealloc mismatch.
//
// The counters and the replacements are ordinary (non-inline) definitions,
// as the language requires: include this header from exactly one
// translation unit of a binary (gryphon_bench's main.cpp,
// bench_micro_datastructures.cpp). The other translation units of
// gryphon_bench reach the counters through bench_common.hpp.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gryphon::bench {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_live_bytes{0};

/// A counted block of at least `size` bytes (at least one), aligned to
/// `align` if it is not 0; null if there is no memory.
inline void* counted_alloc(std::size_t size, std::align_val_t align = {}) noexcept {
  void* p = nullptr;
  if (align == std::align_val_t{}) {
    p = std::malloc(size ? size : 1);
  } else if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) return nullptr;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}

inline void* counted_alloc_or_throw(std::size_t size, std::align_val_t align = {}) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace gryphon::bench

namespace gb = gryphon::bench;
using std::align_val_t;
using std::nothrow_t;
using std::size_t;

void* operator new(size_t n) { return gb::counted_alloc_or_throw(n); }
void* operator new[](size_t n) { return gb::counted_alloc_or_throw(n); }
void* operator new(size_t n, align_val_t a) { return gb::counted_alloc_or_throw(n, a); }
void* operator new[](size_t n, align_val_t a) { return gb::counted_alloc_or_throw(n, a); }
void* operator new(size_t n, const nothrow_t&) noexcept { return gb::counted_alloc(n); }
void* operator new[](size_t n, const nothrow_t&) noexcept { return gb::counted_alloc(n); }
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
  return gb::counted_alloc(n, a);
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
  return gb::counted_alloc(n, a);
}
void operator delete(void* p) noexcept { gb::counted_free(p); }
void operator delete[](void* p) noexcept { gb::counted_free(p); }
void operator delete(void* p, size_t) noexcept { gb::counted_free(p); }
void operator delete[](void* p, size_t) noexcept { gb::counted_free(p); }
void operator delete(void* p, align_val_t) noexcept { gb::counted_free(p); }
void operator delete[](void* p, align_val_t) noexcept { gb::counted_free(p); }
void operator delete(void* p, size_t, align_val_t) noexcept { gb::counted_free(p); }
void operator delete[](void* p, size_t, align_val_t) noexcept { gb::counted_free(p); }
void operator delete(void* p, const nothrow_t&) noexcept { gb::counted_free(p); }
void operator delete[](void* p, const nothrow_t&) noexcept { gb::counted_free(p); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept { gb::counted_free(p); }
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept { gb::counted_free(p); }
