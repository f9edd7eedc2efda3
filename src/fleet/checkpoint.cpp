#include "fleet/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace flexfetch::fleet {

namespace {

using sim::RunningStat;
using sim::StratumAggregate;
using sim::SweepAggregator;
using telemetry::Histogram;
using telemetry::MetricKind;

/// Stratum keys and metric names become single tokens on the line;
/// whitespace inside one would corrupt the stream (none of the paper's
/// scenario/policy/metric names contain any — this enforces it).
void check_token(const std::string& name) {
  FF_REQUIRE(!name.empty(), "checkpoint: empty token name");
  for (const char c : name) {
    FF_REQUIRE(std::isspace(static_cast<unsigned char>(c)) == 0,
               "checkpoint: whitespace in name '" + name + "'");
  }
}

/// C99 hexfloat (%a): the only printf form that round-trips every finite
/// double exactly and prints inf/nan in strtod-parseable spellings.
void put_hex(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

/// Forward-only token reader over one line. Every accessor sets ok=false
/// on malformed input and the caller checks once at the end — truncated
/// (kill-mid-write) lines fail cleanly instead of throwing.
struct Cursor {
  std::string_view s;
  bool ok = true;

  std::string_view next() {
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    if (s.empty()) {
      ok = false;
      return {};
    }
    const std::size_t end = s.find(' ');
    const std::string_view tok = s.substr(0, end);
    s.remove_prefix(end == std::string_view::npos ? s.size() : end);
    return tok;
  }

  void expect(std::string_view keyword) {
    if (next() != keyword) ok = false;
  }

  std::uint64_t u64() {
    const std::string_view tok = next();
    char buf[32];
    if (!ok || tok.empty() || tok.size() >= sizeof(buf)) {
      ok = false;
      return 0;
    }
    tok.copy(buf, tok.size());
    buf[tok.size()] = '\0';
    char* end = nullptr;
    const unsigned long long v = std::strtoull(buf, &end, 10);
    if (end != buf + tok.size()) ok = false;
    return static_cast<std::uint64_t>(v);
  }

  double dbl() {
    const std::string_view tok = next();
    char buf[64];
    if (!ok || tok.empty() || tok.size() >= sizeof(buf)) {
      ok = false;
      return 0.0;
    }
    tok.copy(buf, tok.size());
    buf[tok.size()] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end != buf + tok.size()) ok = false;
    return v;
  }

  /// The line must be fully consumed but for trailing spaces.
  bool at_end() {
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    return s.empty();
  }
};

void put_stat(std::ostream& os, const RunningStat& s) {
  os << " stat " << s.count() << ' ';
  put_hex(os, s.mean());
  os << ' ';
  put_hex(os, s.m2());
  os << ' ';
  put_hex(os, s.min());
  os << ' ';
  put_hex(os, s.max());
}

RunningStat parse_stat(Cursor& c) {
  c.expect("stat");
  const std::uint64_t n = c.u64();
  const double mean = c.dbl();
  const double m2 = c.dbl();
  const double min = c.dbl();
  const double max = c.dbl();
  return RunningStat::from_raw(n, mean, m2, min, max);
}

void write_agg_tokens(std::ostream& os, const SweepAggregator& agg) {
  os << "agg " << agg.cells_seen() << " strata " << agg.strata().size();
  for (const auto& [key, st] : agg.strata()) {
    check_token(key);
    os << " key " << key << " cells " << st.cells;
    put_stat(os, st.energy_j);
    put_stat(os, st.disk_energy_j);
    put_stat(os, st.wnic_energy_j);
    put_stat(os, st.makespan_s);
    put_stat(os, st.io_time_s);
    os << " metrics " << st.metrics.items().size();
    for (const auto& [name, metric] : st.metrics.items()) {
      check_token(name);
      os << ' ' << name << ' ' << static_cast<int>(metric.kind) << ' ';
      put_hex(os, metric.value);
    }
    os << " hists " << st.metrics.histograms().size();
    for (const auto& [name, h] : st.metrics.histograms()) {
      check_token(name);
      os << ' ' << name << ' ' << h.count() << ' ';
      put_hex(os, h.sum());
      os << ' ';
      put_hex(os, h.min());
      os << ' ';
      put_hex(os, h.max());
      std::size_t populated = 0;
      for (const std::uint64_t b : h.buckets()) populated += (b != 0) ? 1 : 0;
      os << " nb " << populated;
      for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
        if (h.buckets()[i] != 0) os << ' ' << i << ' ' << h.buckets()[i];
      }
    }
  }
}

bool parse_agg_tokens(Cursor& c, SweepAggregator* agg) {
  c.expect("agg");
  const std::uint64_t total_cells = c.u64();
  c.expect("strata");
  const std::uint64_t n_strata = c.u64();
  if (!c.ok || n_strata > 1'000'000) return false;
  for (std::uint64_t s = 0; s < n_strata && c.ok; ++s) {
    c.expect("key");
    const std::string key(c.next());
    StratumAggregate st;
    c.expect("cells");
    st.cells = c.u64();
    st.energy_j = parse_stat(c);
    st.disk_energy_j = parse_stat(c);
    st.wnic_energy_j = parse_stat(c);
    st.makespan_s = parse_stat(c);
    st.io_time_s = parse_stat(c);
    c.expect("metrics");
    const std::uint64_t n_metrics = c.u64();
    if (!c.ok || n_metrics > 1'000'000) return false;
    for (std::uint64_t m = 0; m < n_metrics && c.ok; ++m) {
      const std::string name(c.next());
      const std::uint64_t kind = c.u64();
      const double value = c.dbl();
      if (!c.ok || kind > 2) return false;
      st.metrics.restore(name, static_cast<MetricKind>(kind), value);
    }
    c.expect("hists");
    const std::uint64_t n_hists = c.u64();
    if (!c.ok || n_hists > 1'000'000) return false;
    for (std::uint64_t h = 0; h < n_hists && c.ok; ++h) {
      const std::string name(c.next());
      const std::uint64_t count = c.u64();
      const double sum = c.dbl();
      const double min = c.dbl();
      const double max = c.dbl();
      c.expect("nb");
      const std::uint64_t populated = c.u64();
      if (!c.ok || populated > Histogram::kBuckets) return false;
      std::array<std::uint64_t, Histogram::kBuckets> buckets{};
      for (std::uint64_t b = 0; b < populated && c.ok; ++b) {
        const std::uint64_t i = c.u64();
        const std::uint64_t v = c.u64();
        if (!c.ok || i >= Histogram::kBuckets) return false;
        buckets[i] = v;
      }
      if (!c.ok) return false;
      st.metrics.histogram(name) = Histogram::from_raw(count, sum, min, max,
                                                       buckets);
    }
    if (!c.ok || key.empty() || agg->strata().contains(key)) return false;
    agg->restore_stratum(key, std::move(st));
  }
  return c.ok && agg->cells_seen() == total_cells;
}

}  // namespace

void write_block_line(std::ostream& os, const BlockSummary& summary) {
  os << "block " << summary.block << ' ' << summary.user_lo << ' '
     << summary.user_hi << ' ';
  write_agg_tokens(os, summary.agg);
  os << " end\n";
}

bool parse_block_line(std::string_view line, BlockSummary* out) {
  Cursor c{line};
  c.expect("block");
  BlockSummary b;
  b.block = c.u64();
  b.user_lo = c.u64();
  b.user_hi = c.u64();
  if (!c.ok || b.user_hi <= b.user_lo) return false;
  if (!parse_agg_tokens(c, &b.agg)) return false;
  c.expect("end");
  if (!c.ok || !c.at_end()) return false;
  *out = std::move(b);
  return true;
}

std::string shard_file_name(int shard) {
  return "shard-" + std::to_string(shard);
}

CheckpointState load_checkpoint_dir(const std::string& dir) {
  CheckpointState state;
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return state;

  // Sort file names so the recovered state never depends on directory
  // iteration order (only duplicate-block resolution could see it, but
  // determinism is cheap here).
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const auto& path : files) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      // Anything that does not parse (a torn line, a foreign one) is
      // skipped.
      BlockSummary b;
      if (parse_block_line(line, &b) && !state.blocks.contains(b.block)) {
        state.blocks.emplace(b.block, std::move(b));
      }
    }
  }
  return state;
}

std::string fingerprint(const sim::SweepAggregator& agg) {
  std::ostringstream os;
  write_agg_tokens(os, agg);
  return std::move(os).str();
}

}  // namespace flexfetch::fleet
