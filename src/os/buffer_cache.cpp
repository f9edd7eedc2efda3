#include "os/buffer_cache.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flexfetch::os {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

BufferCache::BufferCache(BufferCacheConfig config)
    : capacity_(config.capacity_pages),
      kin_(static_cast<std::size_t>(config.kin_fraction *
                                    static_cast<double>(config.capacity_pages))),
      kout_(static_cast<std::size_t>(config.kout_fraction *
                                     static_cast<double>(config.capacity_pages))) {
  FF_REQUIRE(capacity_ >= 4, "buffer cache: capacity too small");
  FF_REQUIRE(config.kin_fraction > 0.0 && config.kin_fraction < 1.0,
             "buffer cache: kin fraction out of (0,1)");
  FF_REQUIRE(config.kout_fraction > 0.0, "buffer cache: kout fraction <= 0");
  kin_ = std::max<std::size_t>(kin_, 1);
  kout_ = std::max<std::size_t>(kout_, 1);

  // One slot per resident page plus one per ghost; both populations are
  // bounded (<= capacity_ residents, <= kout_ ghosts), so the reserved arena
  // never reallocates and a slot is always available when insert_new needs
  // one. Slots are built on first use (alloc_slot), not here.
  const std::size_t slots = capacity_ + kout_;
  FF_REQUIRE(slots < kNull, "buffer cache: capacity too large for 32-bit slots");
  arena_.reserve(slots);

  // <= 50% load factor, power-of-two size: the table is sized once and
  // never rehashes.
  map_.resize(next_pow2(2 * slots));
  map_mask_ = map_.size() - 1;
}

std::uint32_t BufferCache::map_find(const PageId& id) const {
  const std::uint64_t h = PageIdHash{}(id);
  const auto tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t pos = h & map_mask_;
  while (map_[pos].slot != kNull) {
    if (map_[pos].tag == tag && arena_[map_[pos].slot].id == id) {
      return map_[pos].slot;
    }
    pos = (pos + 1) & map_mask_;
  }
  return kNull;
}

void BufferCache::map_insert(std::uint32_t s) {
  const std::uint64_t h = PageIdHash{}(arena_[s].id);
  std::size_t pos = h & map_mask_;
  while (map_[pos].slot != kNull) pos = (pos + 1) & map_mask_;
  map_[pos].tag = static_cast<std::uint32_t>(h >> 32);
  map_[pos].slot = s;
}

void BufferCache::map_erase(std::uint32_t s) {
  std::size_t pos = PageIdHash{}(arena_[s].id) & map_mask_;
  while (map_[pos].slot != s) pos = (pos + 1) & map_mask_;
  // Backward-shift deletion keeps probe sequences unbroken without
  // tombstones: any entry displaced past the hole moves into it. An entry's
  // home bucket comes from the id in its slot.
  std::size_t hole = pos;
  std::size_t next = (hole + 1) & map_mask_;
  while (map_[next].slot != kNull) {
    const std::size_t home = PageIdHash{}(arena_[map_[next].slot].id) & map_mask_;
    if (((next - home) & map_mask_) >= ((next - hole) & map_mask_)) {
      map_[hole] = map_[next];
      hole = next;
    }
    next = (next + 1) & map_mask_;
  }
  map_[hole].slot = kNull;
}

std::uint32_t BufferCache::alloc_slot() {
  if (free_head_ != kNull) {
    const std::uint32_t s = free_head_;
    free_head_ = arena_[s].next;
    return s;
  }
  // Free list empty: build the next never-used slot (the high-water mark).
  // The bound is the configured slot count, so emplace_back stays inside the
  // reserved storage and never reallocates.
  FF_ASSERT(arena_.size() < capacity_ + kout_);
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void BufferCache::free_slot(std::uint32_t s) {
  arena_[s].where = Where::kFree;
  arena_[s].next = free_head_;
  free_head_ = s;
}

void BufferCache::chain_push_front(Chain& c, std::uint32_t s) {
  arena_[s].prev = kNull;
  arena_[s].next = c.head;
  if (c.head != kNull) {
    arena_[c.head].prev = s;
  } else {
    c.tail = s;
  }
  c.head = s;
  ++c.size;
}

void BufferCache::chain_unlink(Chain& c, std::uint32_t s) {
  const std::uint32_t p = arena_[s].prev;
  const std::uint32_t n = arena_[s].next;
  if (p != kNull) arena_[p].next = n; else c.head = n;
  if (n != kNull) arena_[n].prev = p; else c.tail = p;
  --c.size;
}

bool BufferCache::lookup(const PageId& id, Seconds /*now*/) {
  ++stats_.lookups;
  const std::uint32_t s = map_find(id);
  if (s == kNull) return false;
  if (arena_[s].where == Where::kA1out) {
    ++stats_.ghost_hits;
    return false;
  }
  ++stats_.hits;
  if (arena_[s].where == Where::kAm && am_.head != s) {
    chain_unlink(am_, s);  // Promote to MRU.
    chain_push_front(am_, s);
  }
  // 2Q: a hit in A1in leaves the page in place (FIFO order unchanged).
  return true;
}

bool BufferCache::contains(const PageId& id) const {
  const std::uint32_t s = map_find(id);
  return s != kNull && arena_[s].where != Where::kA1out;
}

void BufferCache::fill(const PageId& id, Seconds now,
                       std::vector<DirtyPage>& flushed) {
  const std::uint32_t s = map_find(id);
  if (s != kNull && arena_[s].where != Where::kA1out) return;  // Resident.
  insert_new(id, /*dirty=*/false, now, flushed);
}

void BufferCache::write(const PageId& id, Seconds now,
                        std::vector<DirtyPage>& flushed) {
  const std::uint32_t s = map_find(id);
  if (s != kNull && arena_[s].where != Where::kA1out) {
    if (!arena_[s].dirty) mark_dirty(s, now);
    if (arena_[s].where == Where::kAm && am_.head != s) {
      chain_unlink(am_, s);
      chain_push_front(am_, s);
    }
    return;
  }
  insert_new(id, /*dirty=*/true, now, flushed);
}

std::vector<DirtyPage> BufferCache::fill(const PageId& id, Seconds now) {
  std::vector<DirtyPage> flushed;
  fill(id, now, flushed);
  return flushed;
}

std::vector<DirtyPage> BufferCache::write(const PageId& id, Seconds now) {
  std::vector<DirtyPage> flushed;
  write(id, now, flushed);
  return flushed;
}

void BufferCache::mark_dirty(std::uint32_t s, Seconds now) {
  Slot& sl = arena_[s];
  sl.dirty = true;
  sl.dirtied_at = now;
  // Simulation time only moves forward, so this is an O(1) append on the
  // hot path; the backward scan runs only for out-of-order timestamps
  // (direct API use) and keeps the sorted-by-age invariant regardless.
  std::uint32_t after = dirty_list_.tail;
  while (after != kNull && arena_[after].dirtied_at > now) {
    after = arena_[after].dirty_prev;
  }
  if (after == kNull) {  // New oldest entry: link at the head.
    sl.dirty_prev = kNull;
    sl.dirty_next = dirty_list_.head;
    if (dirty_list_.head != kNull) {
      arena_[dirty_list_.head].dirty_prev = s;
    } else {
      dirty_list_.tail = s;
    }
    dirty_list_.head = s;
  } else {  // Link directly after `after`.
    sl.dirty_prev = after;
    sl.dirty_next = arena_[after].dirty_next;
    if (sl.dirty_next != kNull) {
      arena_[sl.dirty_next].dirty_prev = s;
    } else {
      dirty_list_.tail = s;
    }
    arena_[after].dirty_next = s;
  }
  ++dirty_list_.size;
}

void BufferCache::dirty_unlink(std::uint32_t s) {
  Slot& sl = arena_[s];
  if (sl.dirty_prev != kNull) {
    arena_[sl.dirty_prev].dirty_next = sl.dirty_next;
  } else {
    dirty_list_.head = sl.dirty_next;
  }
  if (sl.dirty_next != kNull) {
    arena_[sl.dirty_next].dirty_prev = sl.dirty_prev;
  } else {
    dirty_list_.tail = sl.dirty_prev;
  }
  --dirty_list_.size;
  sl.dirty = false;
  sl.dirty_prev = sl.dirty_next = kNull;
}

void BufferCache::insert_new(const PageId& id, bool dirty, Seconds now,
                             std::vector<DirtyPage>& flushed) {
  make_room(flushed);
  ++stats_.insertions;
  // Re-find after make_room: evicting may have trimmed this id's ghost slot.
  const std::uint32_t ghost = map_find(id);
  std::uint32_t s;
  if (ghost != kNull) {
    // Re-reference of a recently evicted page: admit straight to Am.
    FF_ASSERT(arena_[ghost].where == Where::kA1out);
    chain_unlink(a1out_, ghost);
    s = ghost;
    chain_push_front(am_, s);
    arena_[s].where = Where::kAm;
  } else {
    s = alloc_slot();
    arena_[s].id = id;
    map_insert(s);
    chain_push_front(a1in_, s);
    arena_[s].where = Where::kA1in;
  }
  arena_[s].dirty = false;
  arena_[s].dirty_prev = arena_[s].dirty_next = kNull;
  if (dirty) mark_dirty(s, now);
}

void BufferCache::make_room(std::vector<DirtyPage>& flushed) {
  if (a1in_.size + am_.size < capacity_) return;
  // 2Q "reclaim": prefer shrinking an over-quota A1in, else take the Am LRU.
  if (a1in_.size > kin_ || am_.size == 0) {
    FF_ASSERT(a1in_.size > 0);
    const std::uint32_t victim = a1in_.tail;
    Slot& sl = arena_[victim];
    if (sl.dirty) {
      flushed.push_back(DirtyPage{sl.id, sl.dirtied_at});
      dirty_unlink(victim);
    }
    chain_unlink(a1in_, victim);
    ++stats_.evictions;
    // The victim becomes a ghost in place: same slot, same map entry.
    sl.where = Where::kA1out;
    chain_push_front(a1out_, victim);
    while (a1out_.size > kout_) {
      const std::uint32_t g = a1out_.tail;
      chain_unlink(a1out_, g);
      map_erase(g);
      free_slot(g);
    }
  } else {
    const std::uint32_t victim = am_.tail;
    Slot& sl = arena_[victim];
    if (sl.dirty) {
      flushed.push_back(DirtyPage{sl.id, sl.dirtied_at});
      dirty_unlink(victim);
    }
    chain_unlink(am_, victim);
    map_erase(victim);
    free_slot(victim);
    ++stats_.evictions;
  }
}

void BufferCache::mark_clean(const PageId& id) {
  const std::uint32_t s = map_find(id);
  if (s == kNull || arena_[s].where == Where::kA1out) return;
  if (arena_[s].dirty) dirty_unlink(s);
}

void BufferCache::append_dirty_pages(std::vector<DirtyPage>& out) const {
  for (std::uint32_t s = dirty_list_.head; s != kNull; s = arena_[s].dirty_next) {
    out.push_back(DirtyPage{arena_[s].id, arena_[s].dirtied_at});
  }
}

void BufferCache::append_dirty_pages_older_than(Seconds now, Seconds min_age,
                                                std::vector<DirtyPage>& out) const {
  // The chain is ordered by dirtied_at, so eligible pages form a prefix.
  for (std::uint32_t s = dirty_list_.head; s != kNull; s = arena_[s].dirty_next) {
    if (now - arena_[s].dirtied_at < min_age) break;
    out.push_back(DirtyPage{arena_[s].id, arena_[s].dirtied_at});
  }
}

std::vector<DirtyPage> BufferCache::dirty_pages() const {
  std::vector<DirtyPage> out;
  out.reserve(dirty_list_.size);
  append_dirty_pages(out);
  return out;
}

std::vector<DirtyPage> BufferCache::dirty_pages_older_than(Seconds now,
                                                           Seconds min_age) const {
  std::vector<DirtyPage> out;
  append_dirty_pages_older_than(now, min_age, out);
  return out;
}

void BufferCache::clear() {
  a1in_ = Chain{};
  am_ = Chain{};
  a1out_ = Chain{};
  dirty_list_ = Chain{};
  arena_.clear();  // Keeps the reserved storage: refilling never allocates.
  free_head_ = kNull;
  for (auto& e : map_) e.slot = kNull;
}

}  // namespace flexfetch::os
