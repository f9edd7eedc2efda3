#include "os/buffer_cache.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace flexfetch::os {
namespace {

BufferCacheConfig small_config(std::size_t pages) {
  BufferCacheConfig c;
  c.capacity_pages = pages;
  return c;
}

TEST(BufferCache, MissThenHit) {
  BufferCache c(small_config(16));
  const PageId p{1, 0};
  EXPECT_FALSE(c.lookup(p, Seconds{0.0}));
  c.fill(p, Seconds{0.0});
  EXPECT_TRUE(c.lookup(p, Seconds{1.0}));
  EXPECT_EQ(c.stats().lookups, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(BufferCache, ContainsDoesNotCountLookups) {
  BufferCache c(small_config(16));
  c.fill(PageId{1, 0}, Seconds{0.0});
  EXPECT_TRUE(c.contains(PageId{1, 0}));
  EXPECT_FALSE(c.contains(PageId{1, 1}));
  EXPECT_EQ(c.stats().lookups, 0u);
}

TEST(BufferCache, FillIsIdempotent) {
  BufferCache c(small_config(16));
  c.fill(PageId{1, 0}, Seconds{0.0});
  c.fill(PageId{1, 0}, Seconds{1.0});
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.stats().insertions, 1u);
}

TEST(BufferCache, EvictsWhenFull) {
  BufferCache c(small_config(8));
  for (std::uint64_t i = 0; i < 12; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.stats().evictions, 4u);
}

TEST(BufferCache, FirstTouchGoesToA1inFifoEviction) {
  // With capacity 8 and kin 25% (=2), scanning many once-touched pages
  // evicts in FIFO order: a pure scan cannot pollute the hot set.
  BufferCache c(small_config(8));
  for (std::uint64_t i = 0; i < 8; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  // Pages 0..5 were pushed out of A1in as new ones arrived.
  c.fill(PageId{2, 100}, Seconds{1.0});
  EXPECT_FALSE(c.contains(PageId{1, 0}));
}

TEST(BufferCache, GhostHitPromotesToAm) {
  BufferCache c(small_config(8));
  // Fill enough to push page {1,0} through A1in and out into the ghost list.
  c.fill(PageId{1, 0}, Seconds{0.0});
  for (std::uint64_t i = 1; i < 12; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  ASSERT_FALSE(c.contains(PageId{1, 0}));
  EXPECT_FALSE(c.lookup(PageId{1, 0}, Seconds{1.0}));
  EXPECT_GE(c.stats().ghost_hits, 1u);
  // Re-admission of a ghost page goes to Am (the hot LRU).
  c.fill(PageId{1, 0}, Seconds{1.0});
  // Scanning new pages now must NOT evict the re-admitted page quickly:
  for (std::uint64_t i = 100; i < 104; ++i) c.fill(PageId{2, i}, Seconds{2.0});
  EXPECT_TRUE(c.contains(PageId{1, 0}));
}

TEST(BufferCache, HotPagesSurviveScans) {
  BufferCache c(small_config(32));
  const PageId hot{9, 0};
  // Make `hot` a proper Am resident: touch, evict to ghost, re-admit.
  c.fill(hot, Seconds{0.0});
  for (std::uint64_t i = 0; i < 40; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  c.fill(hot, Seconds{1.0});
  ASSERT_TRUE(c.contains(hot));
  // A long scan of one-shot pages must not evict the hot page.
  for (std::uint64_t i = 0; i < 200; ++i) {
    c.fill(PageId{2, i}, Seconds{2.0});
    c.lookup(hot, Seconds{2.0});  // Keep it recently used.
  }
  EXPECT_TRUE(c.contains(hot));
}

TEST(BufferCache, WriteMarksDirty) {
  BufferCache c(small_config(16));
  c.write(PageId{1, 0}, Seconds{5.0});
  EXPECT_EQ(c.dirty_count(), 1u);
  const auto dirty = c.dirty_pages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].page, (PageId{1, 0}));
  EXPECT_DOUBLE_EQ(dirty[0].dirtied_at.value(), 5.0);
}

TEST(BufferCache, RewriteKeepsOriginalDirtyTime) {
  BufferCache c(small_config(16));
  c.write(PageId{1, 0}, Seconds{5.0});
  c.write(PageId{1, 0}, Seconds{9.0});
  EXPECT_EQ(c.dirty_count(), 1u);
  EXPECT_DOUBLE_EQ(c.dirty_pages()[0].dirtied_at.value(), 5.0);
}

TEST(BufferCache, MarkCleanClearsDirty) {
  BufferCache c(small_config(16));
  c.write(PageId{1, 0}, Seconds{5.0});
  c.mark_clean(PageId{1, 0});
  EXPECT_EQ(c.dirty_count(), 0u);
  EXPECT_TRUE(c.contains(PageId{1, 0}));  // Still resident, just clean.
}

TEST(BufferCache, MarkCleanOnAbsentPageIsNoOp) {
  BufferCache c(small_config(16));
  EXPECT_NO_THROW(c.mark_clean(PageId{3, 3}));
}

TEST(BufferCache, EvictingDirtyPageReturnsItForFlush) {
  BufferCache c(small_config(8));
  c.write(PageId{1, 0}, Seconds{1.0});
  std::vector<DirtyPage> flushed;
  for (std::uint64_t i = 1; i < 16 && flushed.empty(); ++i) {
    flushed = c.fill(PageId{2, i}, Seconds{2.0});
  }
  ASSERT_FALSE(flushed.empty());
  EXPECT_EQ(flushed[0].page, (PageId{1, 0}));
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(BufferCache, DirtyPagesSortedOldestFirst) {
  BufferCache c(small_config(16));
  c.write(PageId{1, 2}, Seconds{3.0});
  c.write(PageId{1, 0}, Seconds{1.0});
  c.write(PageId{1, 1}, Seconds{2.0});
  const auto dirty = c.dirty_pages();
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_DOUBLE_EQ(dirty[0].dirtied_at.value(), 1.0);
  EXPECT_DOUBLE_EQ(dirty[2].dirtied_at.value(), 3.0);
}

TEST(BufferCache, DirtyPagesOlderThanFilters) {
  BufferCache c(small_config(16));
  c.write(PageId{1, 0}, Seconds{0.0});
  c.write(PageId{1, 1}, Seconds{50.0});
  const auto old = c.dirty_pages_older_than(Seconds{60.0}, Seconds{30.0});
  ASSERT_EQ(old.size(), 1u);
  EXPECT_EQ(old[0].page, (PageId{1, 0}));
}

TEST(BufferCache, WritePromotesAmResidents) {
  BufferCache c(small_config(16));
  c.write(PageId{1, 0}, Seconds{0.0});
  EXPECT_TRUE(c.lookup(PageId{1, 0}, Seconds{1.0}));
}

TEST(BufferCache, ClearDropsEverything) {
  BufferCache c(small_config(16));
  c.fill(PageId{1, 0}, Seconds{0.0});
  c.write(PageId{1, 1}, Seconds{0.0});
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.dirty_count(), 0u);
  EXPECT_FALSE(c.contains(PageId{1, 0}));
}

TEST(BufferCache, HitRateComputation) {
  BufferCache c(small_config(16));
  c.fill(PageId{1, 0}, Seconds{0.0});
  c.lookup(PageId{1, 0}, Seconds{0.0});  // Hit.
  c.lookup(PageId{1, 1}, Seconds{0.0});  // Miss.
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
}

TEST(BufferCache, RejectsTinyCapacity) {
  EXPECT_THROW(BufferCache(small_config(2)), ConfigError);
}

TEST(BufferCache, RejectsBadFractions) {
  BufferCacheConfig c;
  c.kin_fraction = 0.0;
  EXPECT_THROW(BufferCache{c}, ConfigError);
  c = BufferCacheConfig{};
  c.kin_fraction = 1.5;
  EXPECT_THROW(BufferCache{c}, ConfigError);
}

// --- Edge semantics pinned before the slot-arena rewrite (kept verbatim
// --- afterwards; the arena must reproduce all of them bit-for-bit).

TEST(BufferCache, GhostReadmissionViaWriteGoesToAm) {
  BufferCache c(small_config(8));
  c.fill(PageId{1, 0}, Seconds{0.0});
  for (std::uint64_t i = 1; i < 12; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  ASSERT_FALSE(c.contains(PageId{1, 0}));
  // Re-admission through the write path must also land in Am.
  c.write(PageId{1, 0}, Seconds{1.0});
  for (std::uint64_t i = 100; i < 104; ++i) c.fill(PageId{2, i}, Seconds{2.0});
  EXPECT_TRUE(c.contains(PageId{1, 0}));
  EXPECT_EQ(c.dirty_count(), 1u);
}

TEST(BufferCache, KinKoutBoundaryRounding) {
  // capacity 5 with the default fractions: kin = floor(1.25) = 1,
  // kout = floor(2.5) = 2. Both floors are pinned here so the arena
  // rewrite cannot silently change the rounding.
  BufferCache c(small_config(5));
  for (std::uint64_t i = 0; i < 5; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  // Sixth insert: A1in (size 5) is over kin=1, so FIFO-evict page 0.
  c.fill(PageId{1, 5}, Seconds{0.0});
  EXPECT_FALSE(c.contains(PageId{1, 0}));
  // Evict two more; the ghost list holds only kout=2 ids, so the oldest
  // ghost (page 0) must have been dropped by now.
  c.fill(PageId{1, 6}, Seconds{0.0});
  c.fill(PageId{1, 7}, Seconds{0.0});
  const auto ghost_hits_before = c.stats().ghost_hits;
  EXPECT_FALSE(c.lookup(PageId{1, 0}, Seconds{1.0}));
  EXPECT_EQ(c.stats().ghost_hits, ghost_hits_before);  // Fell off A1out.
  EXPECT_FALSE(c.lookup(PageId{1, 2}, Seconds{1.0}));
  EXPECT_EQ(c.stats().ghost_hits, ghost_hits_before + 1);  // Still a ghost.
}

TEST(BufferCache, DirtyEvictionOrderFollowsA1inFifo) {
  BufferCache c(small_config(8));
  c.write(PageId{1, 0}, Seconds{1.0});
  c.write(PageId{1, 1}, Seconds{2.0});
  c.write(PageId{1, 2}, Seconds{3.0});
  // Fill until all three dirty pages have been evicted; evictions must
  // come back in A1in FIFO order (insertion order) with their dirty times.
  std::vector<DirtyPage> flushed;
  for (std::uint64_t i = 0; i < 32 && flushed.size() < 3; ++i) {
    const auto evicted = c.fill(PageId{2, i}, Seconds{10.0});
    flushed.insert(flushed.end(), evicted.begin(), evicted.end());
  }
  ASSERT_EQ(flushed.size(), 3u);
  EXPECT_EQ(flushed[0].page, (PageId{1, 0}));
  EXPECT_DOUBLE_EQ(flushed[0].dirtied_at.value(), 1.0);
  EXPECT_EQ(flushed[1].page, (PageId{1, 1}));
  EXPECT_EQ(flushed[2].page, (PageId{1, 2}));
  EXPECT_EQ(c.dirty_count(), 0u);
}

TEST(BufferCache, MarkCleanOnEvictedPageIsNoOp) {
  BufferCache c(small_config(8));
  c.write(PageId{1, 0}, Seconds{1.0});
  std::vector<DirtyPage> flushed;
  for (std::uint64_t i = 0; i < 32 && flushed.empty(); ++i) {
    flushed = c.fill(PageId{2, i}, Seconds{2.0});
  }
  ASSERT_FALSE(flushed.empty());
  // The page now lives (at most) in the ghost list; completing its
  // write-back must not resurrect it or touch the dirty list.
  EXPECT_NO_THROW(c.mark_clean(PageId{1, 0}));
  EXPECT_FALSE(c.contains(PageId{1, 0}));
  EXPECT_EQ(c.dirty_count(), 0u);
  const auto dirty_before = c.stats();
  (void)dirty_before;
}

TEST(BufferCache, A1inHitDoesNotChangeFifoOrder) {
  // 2Q: a hit in A1in leaves the page in place; it must still be the FIFO
  // eviction victim.
  BufferCache c(small_config(8));
  for (std::uint64_t i = 0; i < 8; ++i) c.fill(PageId{1, i}, Seconds{0.0});
  EXPECT_TRUE(c.lookup(PageId{1, 0}, Seconds{1.0}));  // Hit the FIFO head.
  c.fill(PageId{2, 0}, Seconds{2.0});                 // Forces one eviction.
  EXPECT_FALSE(c.contains(PageId{1, 0}));    // Still evicted first.
}

TEST(BufferCache, EqualHashTagsAreToldApartByKey) {
  // The index stores only the high 32 bits of a key's hash; a tag match must
  // still be confirmed against the page id held in the slot. These two pages
  // share that tag and their home bucket in a 4-page cache's 16-bucket table.
  const PageId a{1, 106052};
  const PageId b{1, 341589};
  const std::uint64_t ha = PageIdHash{}(a);
  const std::uint64_t hb = PageIdHash{}(b);
  ASSERT_EQ(ha >> 32, hb >> 32);
  ASSERT_EQ(ha & 15, hb & 15);

  BufferCache c(small_config(4));
  c.fill(a, Seconds{0.0});
  EXPECT_FALSE(c.contains(b));
  EXPECT_FALSE(c.lookup(b, Seconds{0.0}));
  c.write(b, Seconds{1.0});
  EXPECT_TRUE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
  c.mark_clean(a);  // Must not clean b.
  ASSERT_EQ(c.dirty_count(), 1u);
  EXPECT_EQ(c.dirty_pages()[0].page, b);

  // a leaves A1in as a ghost and comes back to Am; b is then demoted to a
  // ghost and trimmed. Erasing one of two colliding entries must leave the
  // other findable.
  for (std::uint64_t i = 0; i < 3; ++i) c.fill(PageId{2, i}, Seconds{2.0});
  EXPECT_FALSE(c.contains(a));
  EXPECT_TRUE(c.contains(b));
  c.fill(a, Seconds{3.0});  // Ghost hit: readmitted to Am, evicting b.
  EXPECT_TRUE(c.lookup(a, Seconds{3.0}));
  for (std::uint64_t i = 3; i < 16; ++i) c.fill(PageId{2, i}, Seconds{4.0});
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.lookup(a, Seconds{5.0}));
  EXPECT_EQ(c.stats().ghost_hits, 0u);
}

TEST(PageId, HashAndOrdering) {
  PageIdHash h;
  EXPECT_EQ(h(PageId{1, 2}), h(PageId{1, 2}));
  EXPECT_NE(h(PageId{1, 2}), h(PageId{2, 1}));
  EXPECT_LT((PageId{1, 2}), (PageId{1, 3}));
  EXPECT_LT((PageId{1, 9}), (PageId{2, 0}));
}

TEST(PageId, IndexHelpers) {
  EXPECT_EQ(page_index(Bytes{0}), 0u);
  EXPECT_EQ(page_index(Bytes{4095}), 0u);
  EXPECT_EQ(page_index(Bytes{4096}), 1u);
  EXPECT_EQ(page_end_index(Bytes{0}, Bytes{1}), 1u);
  EXPECT_EQ(page_end_index(Bytes{0}, Bytes{4096}), 1u);
  EXPECT_EQ(page_end_index(Bytes{0}, Bytes{4097}), 2u);
  EXPECT_EQ(page_end_index(Bytes{4000}, Bytes{200}), 2u);  // Straddles a boundary.
  EXPECT_EQ(page_end_index(Bytes{100}, Bytes{0}), 0u);     // Empty range.
}

}  // namespace
}  // namespace flexfetch::os
