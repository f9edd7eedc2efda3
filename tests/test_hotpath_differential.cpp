// Randomized differential tests for the arena-backed hot path: the slot-arena
// 2Q cache and the flat C-SCAN scheduler are driven op-for-op against
// reference implementations (the former std::list/std::unordered_map and
// std::map versions, kept verbatim below) and must agree on every return
// value, eviction, stat counter, and dirty-list ordering. This is the
// bit-identity contract of the rewrite: same simulated numbers, new layout.
#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "os/buffer_cache.hpp"
#include "os/io_scheduler.hpp"

namespace flexfetch::os {
namespace {

// ---------------------------------------------------------------------------
// Reference 2Q implementation (pre-arena): three std::list queues, a
// std::list dirty list, and two unordered_maps.
// ---------------------------------------------------------------------------

class Reference2Q {
 public:
  explicit Reference2Q(BufferCacheConfig config)
      : capacity_(config.capacity_pages),
        kin_(static_cast<std::size_t>(config.kin_fraction *
                                      static_cast<double>(config.capacity_pages))),
        kout_(static_cast<std::size_t>(
            config.kout_fraction * static_cast<double>(config.capacity_pages))) {
    kin_ = std::max<std::size_t>(kin_, 1);
    kout_ = std::max<std::size_t>(kout_, 1);
  }

  bool lookup(const PageId& id, Seconds /*now*/) {
    ++stats_.lookups;
    auto it = table_.find(id);
    if (it == table_.end()) {
      if (ghost_table_.contains(id)) ++stats_.ghost_hits;
      return false;
    }
    ++stats_.hits;
    Entry& e = it->second;
    if (e.queue == Queue::kAm) am_.splice(am_.begin(), am_, e.pos);
    return true;
  }

  bool contains(const PageId& id) const { return table_.contains(id); }

  std::vector<DirtyPage> fill(const PageId& id, Seconds now) {
    std::vector<DirtyPage> flushed;
    if (table_.contains(id)) return flushed;
    insert_new(id, false, now, flushed);
    return flushed;
  }

  std::vector<DirtyPage> write(const PageId& id, Seconds now) {
    std::vector<DirtyPage> flushed;
    auto it = table_.find(id);
    if (it != table_.end()) {
      Entry& e = it->second;
      if (!e.dirty) mark_dirty(id, e, now);
      if (e.queue == Queue::kAm) am_.splice(am_.begin(), am_, e.pos);
      return flushed;
    }
    insert_new(id, true, now, flushed);
    return flushed;
  }

  void mark_clean(const PageId& id) {
    auto it = table_.find(id);
    if (it == table_.end()) return;
    Entry& e = it->second;
    if (e.dirty) {
      e.dirty = false;
      dirty_.erase(e.dirty_pos);
    }
  }

  std::vector<DirtyPage> dirty_pages() const { return {dirty_.begin(), dirty_.end()}; }

  std::vector<DirtyPage> dirty_pages_older_than(Seconds now, Seconds min_age) const {
    std::vector<DirtyPage> out;
    for (const DirtyPage& d : dirty_) {
      if (now - d.dirtied_at < min_age) break;
      out.push_back(d);
    }
    return out;
  }

  std::size_t size() const { return table_.size(); }
  std::size_t dirty_count() const { return dirty_.size(); }
  const CacheStats& stats() const { return stats_; }

  /// Drops every page and ghost; stats are kept, as BufferCache::clear does.
  void clear() {
    a1in_.clear();
    am_.clear();
    a1out_.clear();
    dirty_.clear();
    table_.clear();
    ghost_table_.clear();
  }

 private:
  enum class Queue : std::uint8_t { kA1in, kAm };

  struct Entry {
    Queue queue;
    std::list<PageId>::iterator pos;
    bool dirty = false;
    Seconds dirtied_at = Seconds{0.0};
    std::list<DirtyPage>::iterator dirty_pos;
  };

  void mark_dirty(const PageId& id, Entry& e, Seconds now) {
    e.dirty = true;
    e.dirtied_at = now;
    auto pos = dirty_.end();
    while (pos != dirty_.begin() && std::prev(pos)->dirtied_at > now) --pos;
    e.dirty_pos = dirty_.insert(pos, DirtyPage{id, now});
  }

  void insert_new(const PageId& id, bool dirty, Seconds now,
                  std::vector<DirtyPage>& flushed) {
    make_room(flushed);
    ++stats_.insertions;
    Entry e;
    if (dirty) mark_dirty(id, e, now);
    auto ghost = ghost_table_.find(id);
    if (ghost != ghost_table_.end()) {
      a1out_.erase(ghost->second);
      ghost_table_.erase(ghost);
      am_.push_front(id);
      e.queue = Queue::kAm;
      e.pos = am_.begin();
    } else {
      a1in_.push_front(id);
      e.queue = Queue::kA1in;
      e.pos = a1in_.begin();
    }
    table_.emplace(id, e);
  }

  void make_room(std::vector<DirtyPage>& flushed) {
    if (table_.size() < capacity_) return;
    if (a1in_.size() > kin_ || am_.empty()) {
      const PageId victim = a1in_.back();
      evict(victim, flushed);
      push_ghost(victim);
    } else {
      const PageId victim = am_.back();
      evict(victim, flushed);
    }
  }

  void evict(const PageId& id, std::vector<DirtyPage>& flushed) {
    auto it = table_.find(id);
    Entry& e = it->second;
    if (e.dirty) {
      flushed.push_back(DirtyPage{id, e.dirtied_at});
      dirty_.erase(e.dirty_pos);
    }
    if (e.queue == Queue::kA1in) {
      a1in_.erase(e.pos);
    } else {
      am_.erase(e.pos);
    }
    table_.erase(it);
    ++stats_.evictions;
  }

  void push_ghost(const PageId& id) {
    a1out_.push_front(id);
    ghost_table_[id] = a1out_.begin();
    while (a1out_.size() > kout_) {
      ghost_table_.erase(a1out_.back());
      a1out_.pop_back();
    }
  }

  std::size_t capacity_;
  std::size_t kin_;
  std::size_t kout_;
  std::list<PageId> a1in_;
  std::list<PageId> am_;
  std::list<PageId> a1out_;
  std::list<DirtyPage> dirty_;
  std::unordered_map<PageId, Entry, PageIdHash> table_;
  std::unordered_map<PageId, std::list<PageId>::iterator, PageIdHash> ghost_table_;
  CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Reference C-SCAN implementation (pre-flattening): std::map keyed by LBA.
// ---------------------------------------------------------------------------

class ReferenceCScan {
 public:
  void submit(const device::DeviceRequest& req) {
    ++stats_.submitted;
    if (!queue_.empty()) {
      auto next = queue_.lower_bound(req.lba);
      if (next != queue_.begin()) {
        auto prev = std::prev(next);
        device::DeviceRequest& p = prev->second;
        if (p.is_write == req.is_write && p.lba + p.size == req.lba) {
          p.size += req.size;
          ++stats_.merged;
          if (next != queue_.end() && next->second.is_write == p.is_write &&
              p.lba + p.size == next->first) {
            p.size += next->second.size;
            queue_.erase(next);
            ++stats_.merged;
          }
          return;
        }
      }
      if (next != queue_.end() && next->second.is_write == req.is_write &&
          req.lba + req.size == next->first) {
        device::DeviceRequest grown = next->second;
        grown.lba = req.lba;
        grown.size += req.size;
        queue_.erase(next);
        queue_.emplace(grown.lba, grown);
        ++stats_.merged;
        return;
      }
    }
    auto [it, inserted] = queue_.emplace(req.lba, req);
    if (!inserted) {
      it->second.size = std::max(it->second.size, req.size);
      ++stats_.merged;
    }
  }

  std::optional<device::DeviceRequest> dispatch() {
    if (queue_.empty()) return std::nullopt;
    auto it = queue_.lower_bound(head_);
    if (it == queue_.end()) {
      it = queue_.begin();
      ++stats_.sweeps;
    }
    device::DeviceRequest req = it->second;
    queue_.erase(it);
    head_ = req.lba + req.size;
    ++stats_.dispatched;
    return req;
  }

  std::size_t pending() const { return queue_.size(); }
  const SchedulerStats& stats() const { return stats_; }

 private:
  std::map<Bytes, device::DeviceRequest> queue_;
  Bytes head_ = Bytes{0};
  SchedulerStats stats_;
};

bool same_dirty(const std::vector<DirtyPage>& a, const std::vector<DirtyPage>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].page != b[i].page || a[i].dirtied_at != b[i].dirtied_at) return false;
  }
  return true;
}

bool same_stats(const CacheStats& a, const CacheStats& b) {
  return a.lookups == b.lookups && a.hits == b.hits &&
         a.ghost_hits == b.ghost_hits && a.insertions == b.insertions &&
         a.evictions == b.evictions;
}

/// One input for expect_matches_reference.
struct RandomOpsInput {
  BufferCacheConfig config;
  std::uint32_t seed = 0;
  std::uint64_t inodes = 1;  ///< Inodes are drawn from [1, inodes].
  /// Page indices are drawn from [0, min(max_pages, first_pages + i / widen_every))
  /// at op i: a working set that widens over the run when widen_every > 0.
  std::uint64_t max_pages = 256;
  std::uint64_t first_pages = 256;
  int widen_every = 0;
  /// Ops before which both sides are clear()ed.
  std::vector<int> clear_at;
};

/// Drives 150k random lookup/fill/write/mark_clean/contains/dirty-query ops
/// into a BufferCache and a Reference2Q and requires identical answers.
void expect_matches_reference(const RandomOpsInput& in) {
  BufferCache arena(in.config);
  Reference2Q ref(in.config);

  std::mt19937 rng(in.seed);
  std::uniform_int_distribution<std::uint64_t> inode(1, in.inodes);
  std::uniform_int_distribution<int> op(0, 99);
  Seconds now = Seconds{0.0};

  constexpr int kOps = 150000;
  for (int i = 0; i < kOps; ++i) {
    if (std::find(in.clear_at.begin(), in.clear_at.end(), i) != in.clear_at.end()) {
      arena.clear();
      ref.clear();
    }
    std::uint64_t pages = in.max_pages;
    if (in.widen_every > 0) {
      pages = std::min<std::uint64_t>(
          pages, in.first_pages + static_cast<std::uint64_t>(i / in.widen_every));
    }
    const PageId id{inode(rng),
                    std::uniform_int_distribution<std::uint64_t>(0, pages - 1)(rng)};
    now += Seconds{0.001};
    const int o = op(rng);
    if (o < 35) {  // lookup
      ASSERT_EQ(arena.lookup(id, now), ref.lookup(id, now)) << "op " << i;
    } else if (o < 60) {  // fill
      ASSERT_TRUE(same_dirty(arena.fill(id, now), ref.fill(id, now)))
          << "op " << i;
    } else if (o < 85) {  // write
      ASSERT_TRUE(same_dirty(arena.write(id, now), ref.write(id, now)))
          << "op " << i;
    } else if (o < 92) {  // mark_clean
      arena.mark_clean(id);
      ref.mark_clean(id);
    } else if (o < 96) {  // contains
      ASSERT_EQ(arena.contains(id), ref.contains(id)) << "op " << i;
    } else {  // dirty queries
      ASSERT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages()))
          << "op " << i;
      ASSERT_TRUE(same_dirty(arena.dirty_pages_older_than(now, Seconds{0.05}),
                             ref.dirty_pages_older_than(now, Seconds{0.05})))
          << "op " << i;
    }
    ASSERT_EQ(arena.size(), ref.size()) << "op " << i;
    ASSERT_EQ(arena.dirty_count(), ref.dirty_count()) << "op " << i;
  }
  EXPECT_TRUE(same_stats(arena.stats(), ref.stats()));
  EXPECT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages()));
}

/// Small cache, 768 distinct pages: the arena reaches its high-water mark
/// within a few hundred ops, then every allocation recycles a freed slot.
RandomOpsInput churn_input() {
  RandomOpsInput in;
  in.config.capacity_pages = 64;  // Small capacity => constant eviction churn.
  in.config.kin_fraction = 0.25;
  in.config.kout_fraction = 0.5;
  in.seed = 0xf1e2d3c4u;
  in.inodes = 3;
  return in;
}

/// Larger cache under a working set that widens from 64 to 4096 pages: the
/// cache fills long before the arena reaches its high-water mark, so Am
/// evictions feed the free list while new ghosts still take never-used
/// slots, and allocations alternate between the two sources.
RandomOpsInput widening_input() {
  RandomOpsInput in;
  in.config.capacity_pages = 1024;
  in.seed = 0x5eed1e55u;
  in.max_pages = 4096;
  in.first_pages = 64;
  in.widen_every = 32;
  return in;
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceOverRandomOps) {
  expect_matches_reference(churn_input());
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceAsArenaGrows) {
  expect_matches_reference(widening_input());
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceAcrossClear) {
  // clear() keeps the arena's storage; the refill rebuilds slots in it. The
  // first clear lands while the arena is still partly built.
  RandomOpsInput grow = widening_input();
  grow.clear_at = {55000, 110000};
  expect_matches_reference(grow);
  RandomOpsInput churn = churn_input();
  churn.clear_at = {50000, 100000};
  expect_matches_reference(churn);
}

TEST(HotpathDifferential, ArenaCacheMatchesReferenceWithOutOfOrderTimestamps) {
  // Direct API use may mark pages dirty with non-monotone timestamps; the
  // dirty chain must keep the same sorted order as the reference list.
  BufferCacheConfig config;
  config.capacity_pages = 16;
  BufferCache arena(config);
  Reference2Q ref(config);

  std::mt19937 rng(77);
  std::uniform_int_distribution<std::uint64_t> page(0, 31);
  std::uniform_real_distribution<double> when(0.0, 10.0);
  for (int i = 0; i < 20000; ++i) {
    const PageId id{1, page(rng)};
    const Seconds t = Seconds{when(rng)};
    ASSERT_TRUE(same_dirty(arena.write(id, t), ref.write(id, t))) << "op " << i;
    ASSERT_TRUE(same_dirty(arena.dirty_pages(), ref.dirty_pages())) << "op " << i;
  }
}

TEST(HotpathDifferential, FlatCScanMatchesReferenceOverRandomOps) {
  CScanScheduler flat;
  ReferenceCScan ref;

  std::mt19937 rng(0xabad1deau);
  std::uniform_int_distribution<std::uint64_t> lba_page(0, 4095);
  std::uniform_int_distribution<std::uint64_t> npages(1, 8);
  std::uniform_int_distribution<int> coin(0, 99);

  Bytes prev_end = Bytes{0};
  constexpr int kOps = 120000;
  for (int i = 0; i < kOps; ++i) {
    const int c = coin(rng);
    if (c < 70 || ref.pending() == 0) {
      device::DeviceRequest req;
      // Half the submissions extend the previous request to exercise the
      // merge paths; the rest jump to random 4 KiB-aligned positions.
      req.lba = (c % 2 == 0) ? prev_end : Bytes{lba_page(rng) * 4096};
      req.size = Bytes{npages(rng) * 4096};
      req.is_write = c % 5 == 0;
      prev_end = req.lba + req.size;
      flat.submit(req);
      ref.submit(req);
    } else {
      const auto a = flat.dispatch();
      const auto b = ref.dispatch();
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << i;
      if (a) {
        ASSERT_EQ(a->lba, b->lba) << "op " << i;
        ASSERT_EQ(a->size, b->size) << "op " << i;
        ASSERT_EQ(a->is_write, b->is_write) << "op " << i;
      }
    }
    ASSERT_EQ(flat.pending(), ref.pending()) << "op " << i;
  }
  // Drain both queues completely and compare the final elevator order.
  while (true) {
    const auto a = flat.dispatch();
    const auto b = ref.dispatch();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    ASSERT_EQ(a->lba, b->lba);
    ASSERT_EQ(a->size, b->size);
  }
  EXPECT_EQ(flat.stats().submitted, ref.stats().submitted);
  EXPECT_EQ(flat.stats().merged, ref.stats().merged);
  EXPECT_EQ(flat.stats().dispatched, ref.stats().dispatched);
  EXPECT_EQ(flat.stats().sweeps, ref.stats().sweeps);
}

}  // namespace
}  // namespace flexfetch::os
