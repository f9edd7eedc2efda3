// Asserts the zero-allocation contract of the arena hot path: once warmed
// up, BufferCache::lookup/fill/write and CScanScheduler::submit/dispatch
// perform no heap allocation. Global operator new/delete are replaced with
// counting versions (this test lives in its own binary for that reason).
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "os/buffer_cache.hpp"
#include "os/io_scheduler.hpp"

namespace {

std::uint64_t g_allocations = 0;

std::uint64_t allocation_count() { return g_allocations; }

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace flexfetch::os {
namespace {

TEST(HotpathAllocation, BufferCacheSteadyStateIsAllocationFree) {
  BufferCacheConfig config;
  config.capacity_pages = 1024;
  BufferCache cache(config);

  std::vector<DirtyPage> flushed;
  flushed.reserve(4096);

  // Warm-up: stream enough pages to fill the cache, the ghost list, and the
  // dirty chain, so every later operation recycles arena slots.
  for (std::uint64_t i = 0; i < 4096; ++i) {
    cache.fill(PageId{1, i}, Seconds{0.001 * static_cast<double>(i)}, flushed);
    if (i % 3 == 0) {
      cache.write(PageId{1, i}, Seconds{0.001 * static_cast<double>(i)}, flushed);
    }
  }
  flushed.clear();

  const std::uint64_t before = allocation_count();
  std::uint64_t hits = 0;
  Seconds now = Seconds{10.0};
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const PageId id{1, 4096 + i % 8192};
    now += Seconds{0.001};
    hits += cache.lookup(id, now) ? 1u : 0u;
    cache.fill(id, now, flushed);
    if (i % 4 == 0) cache.write(PageId{1, i % 512}, now, flushed);
    if (i % 7 == 0) cache.mark_clean(PageId{1, i % 512});
    if (flushed.size() > 2048) flushed.clear();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "BufferCache steady state allocated " << (after - before)
      << " times (hits=" << hits << ")";
}

TEST(HotpathAllocation, BufferCacheRefillAfterClearIsAllocationFree) {
  // clear() keeps the reserved arena, so refilling rebuilds slots in storage
  // the cache already owns: neither the clear nor the refill allocates.
  BufferCacheConfig config;
  config.capacity_pages = 1024;
  BufferCache cache(config);

  std::vector<DirtyPage> flushed;
  flushed.reserve(8192);
  const auto fill_past_capacity = [&](std::uint64_t inode) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      const Seconds t = Seconds{0.001 * static_cast<double>(i)};
      cache.fill(PageId{inode, i}, t, flushed);
      if (i % 3 == 0) cache.write(PageId{inode, i}, t, flushed);
      if (i % 5 == 0) cache.lookup(PageId{inode, i / 2}, t);
    }
  };
  fill_past_capacity(1);
  ASSERT_EQ(cache.size(), config.capacity_pages);
  flushed.clear();

  const std::uint64_t before = allocation_count();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  fill_past_capacity(2);
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(cache.size(), config.capacity_pages);
  EXPECT_FALSE(flushed.empty());
  EXPECT_EQ(after - before, 0u)
      << "BufferCache clear + refill allocated " << (after - before) << " times";
}

TEST(HotpathAllocation, CScanSteadyStateIsAllocationFree) {
  CScanScheduler sched;
  sched.reserve(256);

  const std::uint64_t before = allocation_count();
  Bytes lba = Bytes{0};
  for (std::uint64_t i = 0; i < 100000; ++i) {
    if (i % 4 == 0) lba = Bytes{(i * 7919) % (1ull << 30)};
    sched.submit(device::DeviceRequest{.lba = lba, .size = Bytes{4096}});
    lba += Bytes{4096};
    while (sched.pending() > 128) sched.dispatch();
  }
  while (sched.dispatch()) {
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "CScanScheduler steady state allocated " << (after - before) << " times";
}

TEST(HotpathAllocation, ConstructionAllocatesOnlyFixedStructures) {
  // Sanity check that the counter works at all: construction must allocate
  // (the arena and the open-addressing table).
  const std::uint64_t before = allocation_count();
  BufferCache cache;
  EXPECT_GT(allocation_count(), before);
}

}  // namespace
}  // namespace flexfetch::os
