// Counting allocator hook for the benches that report heap traffic.
//
// Replaces the global operator new/delete: every allocation bumps
// g_alloc_count (allocs-per-event is the budget the substrate model in
// DESIGN.md §4.2 talks about); deletes are uncounted. A bench that also
// needs resident heap bytes defines GRYPHON_ALLOC_HOOK_LIVE_BYTES before
// the include: then every allocation adds its usable size to g_live_bytes
// and every delete takes it back off. Only that bench pays the
// malloc_usable_size and the atomic on delete. Counters are relaxed atomics.
//
// The replacements are ordinary (non-inline) definitions, as the language
// requires: include this header from exactly one translation unit of a
// bench binary.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gryphon::bench {

inline std::atomic<std::uint64_t> g_alloc_count{0};
#ifdef GRYPHON_ALLOC_HOOK_LIVE_BYTES
inline std::atomic<std::uint64_t> g_live_bytes{0};
#endif

/// Counts `p`, a fresh block of at least one byte.
inline void* note_alloc(void* p) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
#ifdef GRYPHON_ALLOC_HOOK_LIVE_BYTES
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
#endif
  return p;
}

inline void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return note_alloc(p);
}

inline void counted_free(void* p) noexcept {
#ifdef GRYPHON_ALLOC_HOOK_LIVE_BYTES
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
#endif
  std::free(p);
}

}  // namespace gryphon::bench

void* operator new(std::size_t size) { return gryphon::bench::counted_alloc(size); }
void* operator new[](std::size_t size) { return gryphon::bench::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return gryphon::bench::note_alloc(p);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { gryphon::bench::counted_free(p); }
void operator delete[](void* p) noexcept { gryphon::bench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { gryphon::bench::counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { gryphon::bench::counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { gryphon::bench::counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  gryphon::bench::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  gryphon::bench::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  gryphon::bench::counted_free(p);
}
