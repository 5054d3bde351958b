// Global operator new/delete replacement for the traced binary: counts
// every allocation (and its requested bytes) made by any thread while
// counting is switched on. Relaxed atomics: the tallies are statistics
// read between phases, never synchronization.

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc.h"

namespace fgro::perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_count{0};
std::atomic<uint64_t> g_bytes{0};

void Tally(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  Tally(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Tally(size);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

bool AllocCountingAvailable() { return true; }

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts ReadAllocCounts() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace fgro::perfbench

using fgro::perfbench::Allocate;
using fgro::perfbench::AllocateAligned;

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
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
