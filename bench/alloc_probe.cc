// Copyright 2026 The streambid Authors

#include "bench/alloc_probe.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define STREAMBID_ALLOC_PROBE_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define STREAMBID_ALLOC_PROBE_DISABLED 1
#endif
#endif

namespace streambid::bench {
namespace {
std::atomic<int64_t> alloc_count{0};
}  // namespace

int64_t AllocCount() {
  return alloc_count.load(std::memory_order_relaxed);
}

namespace internal {
inline void* CountedAlloc(std::size_t size, std::size_t alignment) {
  alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = alignment > alignof(std::max_align_t)
                ? std::aligned_alloc(alignment, (size + alignment - 1) /
                                                    alignment * alignment)
                : std::malloc(size);
  return p;
}
}  // namespace internal

}  // namespace streambid::bench

#if !defined(STREAMBID_ALLOC_PROBE_DISABLED)

// Replace every allocating form. The throwing forms must not return
// null; the benches never exhaust memory, so a failure aborts.
void* operator new(std::size_t size) {
  void* p = streambid::bench::internal::CountedAlloc(
      size, alignof(std::max_align_t));
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  void* p = streambid::bench::internal::CountedAlloc(
      size, static_cast<std::size_t>(alignment));
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return streambid::bench::internal::CountedAlloc(size,
                                                  alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return streambid::bench::internal::CountedAlloc(
      size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return ::operator new(size, alignment, std::nothrow);
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
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // !STREAMBID_ALLOC_PROBE_DISABLED
