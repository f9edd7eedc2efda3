// 2Q buffer cache (Johnson & Shasha, VLDB'94) — the "2Q-like page
// replacement algorithm" the paper's simulator uses for the Linux buffer
// cache (Section 3.1).
//
// Three structures:
//   * A1in : FIFO of pages seen once recently (hot admission buffer),
//   * A1out: ghost FIFO of page ids recently evicted from A1in,
//   * Am   : LRU of pages re-referenced after leaving A1in.
//
// A page hit in A1out on (re)admission goes straight to Am; a brand-new page
// goes to A1in. Dirty state is tracked per page so the write-back substrate
// can find flush candidates.
//
// Storage layout: every page (resident or ghost) lives in one slot of a flat
// arena. Storage for capacity + kout slots is reserved at construction, but a
// slot is only built the first time the cache needs it, so a short-lived
// cache pays for the pages it touches rather than the pages it could hold.
// The A1in/Am/A1out queues and the age-ordered dirty list are intrusive
// doubly-linked chains of slot indices, and a fixed-size open-addressing
// table of 8-byte {hash tag, slot} entries maps PageId -> slot (keys are
// compared through the arena). After construction no operation allocates:
// lookup/fill/write/mark_clean run entirely inside the reserved arena, and
// evicted dirty pages are appended to a caller-owned scratch buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "os/page.hpp"

namespace flexfetch::os {

struct BufferCacheConfig {
  /// Total cache capacity in pages (default 64 MiB of 4 KiB pages — a
  /// laptop-era memory budget).
  std::size_t capacity_pages = 16384;
  /// A1in capacity as a fraction of total (2Q paper recommends ~25%).
  double kin_fraction = 0.25;
  /// A1out ghost capacity as a fraction of total (2Q recommends ~50%).
  double kout_fraction = 0.50;
};

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t ghost_hits = 0;  ///< Misses whose id was in A1out.
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

/// A dirty page due for write-back.
struct DirtyPage {
  PageId page;
  Seconds dirtied_at = Seconds{0.0};
};

class BufferCache {
 public:
  explicit BufferCache(BufferCacheConfig config = {});

  /// True and promotes the page if resident (a cache hit).
  bool lookup(const PageId& id, Seconds now);

  /// True without promoting or counting a lookup (used by FlexFetch's
  /// Section 2.3.2 profile filtering).
  bool contains(const PageId& id) const;

  /// Inserts a clean page fetched from a device. Dirty pages evicted to
  /// make room are APPENDED to `flushed` (the caller owns the buffer and
  /// must flush them); nothing is cleared.
  void fill(const PageId& id, Seconds now, std::vector<DirtyPage>& flushed);

  /// Inserts/marks a page dirty (application write). Evictions reported as
  /// fill().
  void write(const PageId& id, Seconds now, std::vector<DirtyPage>& flushed);

  /// Allocating conveniences (tests / one-shot callers).
  std::vector<DirtyPage> fill(const PageId& id, Seconds now);
  std::vector<DirtyPage> write(const PageId& id, Seconds now);

  /// Marks a page clean after its write-back completed.
  void mark_clean(const PageId& id);

  /// Appends all dirty pages, oldest first, to `out`. O(dirty) — reads the
  /// insertion-ordered dirty chain (dirtied_at is monotone in simulation
  /// time, so insertion order IS age order).
  void append_dirty_pages(std::vector<DirtyPage>& out) const;

  /// Appends dirty pages whose age at `now` is at least `min_age`, oldest
  /// first. O(matches) — a prefix scan of the dirty chain.
  void append_dirty_pages_older_than(Seconds now, Seconds min_age,
                                     std::vector<DirtyPage>& out) const;

  std::vector<DirtyPage> dirty_pages() const;
  std::vector<DirtyPage> dirty_pages_older_than(Seconds now, Seconds min_age) const;

  std::size_t size() const { return a1in_.size + am_.size; }
  std::size_t capacity() const { return capacity_; }
  std::size_t dirty_count() const { return dirty_list_.size; }
  const CacheStats& stats() const { return stats_; }

  /// Drops every page (clean and dirty) — test helper / remount semantics.
  void clear();

 private:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  /// Which chain a slot is linked into (kFree slots sit on the free list).
  enum class Where : std::uint8_t { kFree, kA1in, kAm, kA1out };

  struct Slot {
    PageId id;
    std::uint32_t prev = kNull;        ///< Queue chain (or free-list next).
    std::uint32_t next = kNull;
    std::uint32_t dirty_prev = kNull;  ///< Dirty chain, valid iff dirty.
    std::uint32_t dirty_next = kNull;
    Where where = Where::kFree;
    bool dirty = false;
    Seconds dirtied_at = Seconds{0.0};
  };

  /// Doubly-linked chain of slot indices; head = front (newest/MRU for the
  /// queues, oldest for the dirty list).
  struct Chain {
    std::uint32_t head = kNull;
    std::uint32_t tail = kNull;
    std::size_t size = 0;
  };

  /// One bucket: the high 32 bits of the key's PageIdHash (the low bits pick
  /// the bucket) and the slot holding the key. A tag match is confirmed by
  /// comparing arena_[slot].id.
  struct MapEntry {
    std::uint32_t tag = 0;
    std::uint32_t slot = kNull;  ///< kNull = empty bucket.
  };

  // Open-addressing table (linear probe, backward-shift deletion); sized at
  // construction so it never rehashes.
  std::uint32_t map_find(const PageId& id) const;
  /// Indexes slot `s` under the id it holds.
  void map_insert(std::uint32_t s);
  /// Drops slot `s` from the index; its id must still be in place.
  void map_erase(std::uint32_t s);

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t s);

  void chain_push_front(Chain& c, std::uint32_t s);
  void chain_unlink(Chain& c, std::uint32_t s);

  void mark_dirty(std::uint32_t s, Seconds now);
  void dirty_unlink(std::uint32_t s);

  /// Ensures a free resident slot, evicting per 2Q; collects evicted dirty
  /// pages.
  void make_room(std::vector<DirtyPage>& flushed);
  void insert_new(const PageId& id, bool dirty, Seconds now,
                  std::vector<DirtyPage>& flushed);

  std::size_t capacity_;
  std::size_t kin_;
  std::size_t kout_;

  /// Reserved for capacity_ + kout_ slots and never reallocated; slots past
  /// size() have not been used yet.
  std::vector<Slot> arena_;
  std::uint32_t free_head_ = kNull;
  std::vector<MapEntry> map_;
  std::size_t map_mask_ = 0;

  Chain a1in_;   ///< head = newest, tail = FIFO eviction end.
  Chain am_;     ///< head = MRU, tail = LRU.
  Chain a1out_;  ///< ghost ids, head = newest.
  /// Dirty pages in dirtying order (head = oldest). Simulation time only
  /// moves forward, so the chain stays sorted by dirtied_at without ever
  /// being resorted; the flusher's age queries become prefix scans.
  Chain dirty_list_;
  CacheStats stats_;
};

}  // namespace flexfetch::os
