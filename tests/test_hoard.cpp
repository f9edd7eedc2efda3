#include "hoard/hoard_set.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "trace/builder.hpp"
#include "workloads/generators.hpp"

namespace flexfetch::hoard {
namespace {

TEST(HoardSet, UnknownFileHasZeroPriority) {
  HoardSet h;
  EXPECT_DOUBLE_EQ(h.priority(42, Seconds{0.0}), 0.0);
  EXPECT_EQ(h.size(), 0u);
}

TEST(HoardSet, AccessRaisesPriority) {
  HoardSet h;
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  EXPECT_GT(h.priority(1, Seconds{0.0}), 0.0);
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{1.0});
  EXPECT_GT(h.priority(1, Seconds{1.0}), 1.0);  // Two stacked accesses.
}

TEST(HoardSet, PriorityDecaysWithHalfLife) {
  HoardConfig config;
  config.recency_half_life = Seconds{100.0};
  HoardSet h(config);
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  const double now_p = h.priority(1, Seconds{0.0});
  const double later_p = h.priority(1, Seconds{100.0});
  EXPECT_NEAR(later_p, now_p / 2.0, 1e-9);
}

TEST(HoardSet, FrequentFileOutranksRareFile) {
  HoardSet h;
  for (int i = 0; i < 10; ++i) {
    h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{static_cast<double>(i) * 10});
  }
  h.record_access(2, Bytes{0}, Bytes{4096}, Seconds{50.0});
  EXPECT_GT(h.priority(1, Seconds{100.0}), h.priority(2, Seconds{100.0}));
}

TEST(HoardSet, RecentFileOutranksStaleFile) {
  HoardConfig config;
  config.recency_half_life = Seconds{60.0};
  HoardSet h(config);
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{1.0});
  h.record_access(2, Bytes{0}, Bytes{4096}, Seconds{1000.0});
  // File 1 was touched twice but ages ago; file 2 once, just now.
  EXPECT_GT(h.priority(2, Seconds{1000.0}), h.priority(1, Seconds{1000.0}));
}

TEST(HoardSet, ExtentTracksLargestAccess) {
  HoardSet h;
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  h.record_access(1, Bytes{100 * 1024}, Bytes{4096}, Seconds{1.0});
  const auto ranked = h.ranked(Seconds{1.0});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].size, Bytes{100u * 1024u + 4096u});
}

TEST(HoardSet, CoAccessLinksNeighbours) {
  HoardConfig config;
  config.co_access_window = Seconds{1.0};
  HoardSet h(config);
  // Files 1 and 2 always accessed together; file 3 alone, far away in time.
  for (int round = 0; round < 5; ++round) {
    const double t = round * 100.0;
    h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{t});
    h.record_access(2, Bytes{0}, Bytes{4096}, Seconds{t + 0.5});
    h.record_access(3, Bytes{0}, Bytes{4096}, Seconds{t + 50.0});
  }
  EXPECT_GT(h.stats().co_access_links, 0u);
  // The clustered pair carries a bonus over the loner at equal frequency.
  EXPECT_GT(h.priority(1, Seconds{500.0}) + h.priority(2, Seconds{500.0}),
            2.0 * h.priority(3, Seconds{500.0}));
}

TEST(HoardSet, NoLinkAcrossLargeGaps) {
  HoardConfig config;
  config.co_access_window = Seconds{0.5};
  HoardSet h(config);
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  h.record_access(2, Bytes{0}, Bytes{4096}, Seconds{10.0});  // Way beyond the window.
  EXPECT_EQ(h.stats().co_access_links, 0u);
}

TEST(HoardSet, SelectRespectsBudget) {
  HoardSet h;
  h.record_access(1, Bytes{0}, 10 * kMiB, Seconds{0.0});
  h.record_access(2, Bytes{0}, 10 * kMiB, Seconds{1.0});
  h.record_access(3, Bytes{0}, 10 * kMiB, Seconds{2.0});
  const auto chosen = h.select(25 * kMiB, Seconds{3.0});
  EXPECT_EQ(chosen.size(), 2u);
  Bytes total = Bytes{0};
  for (const auto& c : chosen) total += c.size;
  EXPECT_LE(total, 25 * kMiB);
}

TEST(HoardSet, SelectSkipsOversizedButKeepsSmaller) {
  HoardSet h;
  // Huge file with top priority, but it does not fit; a small one does.
  for (int i = 0; i < 10; ++i) {
    h.record_access(1, Bytes{0}, 100 * kMiB, Seconds{static_cast<double>(i)});
  }
  h.record_access(2, Bytes{0}, 1 * kMiB, Seconds{5.0});
  const auto chosen = h.select(2 * kMiB, Seconds{10.0});
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].inode, 2u);
}

TEST(HoardSet, RankedIsSortedByPriority) {
  HoardSet h;
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  for (int i = 0; i < 5; ++i) {
    h.record_access(2, Bytes{0}, Bytes{4096}, Seconds{static_cast<double>(i)});
  }
  const auto ranked = h.ranked(Seconds{5.0});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].inode, 2u);
  EXPECT_GE(ranked[0].priority, ranked[1].priority);
}

TEST(HoardSet, HitConfidenceBounds) {
  HoardSet h;
  EXPECT_DOUBLE_EQ(h.hit_confidence(kGiB, Seconds{0.0}), 0.0);  // No data yet.
  h.record_access(1, Bytes{0}, Bytes{4096}, Seconds{0.0});
  EXPECT_DOUBLE_EQ(h.hit_confidence(kGiB, Seconds{0.0}), 1.0);   // Everything fits.
  EXPECT_DOUBLE_EQ(h.hit_confidence(Bytes{0}, Seconds{0.0}), 0.0);      // Nothing fits.
}

TEST(HoardSet, WorkingSetCapturedWithHighConfidence) {
  // The Kuenning-Popek claim the paper leans on: a modest hoard captures
  // the working set. The make workload re-reads hot headers constantly.
  HoardSet h;
  h.record_trace(workloads::make_trace());
  const auto stats = h.stats();
  EXPECT_GT(stats.accesses, 1000u);
  // A hoard the size of the full footprint captures everything...
  EXPECT_GT(h.hit_confidence(1 * kGiB, Seconds{1e6}), 0.999);
  // ...and even a half-footprint hoard captures well over half the
  // accesses, because access frequency is skewed.
  EXPECT_GT(h.hit_confidence(30 * kMiB, Seconds{1e6}), 0.6);
}

TEST(HoardSet, RecordTraceIgnoresNonTransfers) {
  trace::TraceBuilder b;
  b.open(1);
  b.close(1);
  HoardSet h;
  h.record_trace(b.build());
  EXPECT_EQ(h.stats().accesses, 0u);
}

TEST(HoardSet, ConfigValidation) {
  HoardConfig c;
  c.recency_half_life = Seconds{0.0};
  EXPECT_THROW(HoardSet{c}, ConfigError);
  c = HoardConfig{};
  c.cluster_bonus = -1.0;
  EXPECT_THROW(HoardSet{c}, ConfigError);
}

}  // namespace
}  // namespace flexfetch::hoard
