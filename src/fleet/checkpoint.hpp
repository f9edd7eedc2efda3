// Exact, kill-safe serialization of partial fleet aggregates.
//
// A fleet shard emits one line per completed user block: the block's
// SweepAggregator partial, serialized with every double in C99 hexfloat
// (%a) so the parse reconstructs the exact bit pattern — no decimal
// rounding anywhere in the save/load cycle. Lines are appended and
// flushed one at a time, so a killed run leaves at most one PARTIAL
// trailing line per shard file; every line is terminated by an "end" sentinel and a
// newline, and the loader silently drops any line that fails to parse
// completely. Resume therefore never double-counts and never loses a
// completed block: the set of well-formed lines IS the set of durable
// blocks.
//
// The same serializer doubles as the bit-identity oracle: fingerprint()
// renders an aggregator to its canonical exact text, and two aggregators
// are bit-identical iff their fingerprints compare equal — this is the
// string the fleet bench's shard-merge identity gate diffs.
//
// Format (one record per line, space-separated tokens; stratum keys and
// metric names are whitespace-free by construction and enforced here):
//   block <idx> <lo> <hi> agg <cells> strata <n>
//     { key <key> cells <c>
//       stat <n> <mean> <m2> <min> <max>   x5 (energy, disk, wnic,
//                                             makespan, io_time)
//       metrics <m> { <name> <kind> <value> }*
//       hists <h> { <name> <count> <sum> <min> <max> nb <k> {<i> <v>}* }*
//     }* end
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "sim/sweep.hpp"

namespace flexfetch::fleet {

/// The durable unit of fleet progress: the aggregate of one contiguous
/// user block [user_lo, user_hi).
struct BlockSummary {
  std::uint64_t block = 0;
  std::uint64_t user_lo = 0;
  std::uint64_t user_hi = 0;
  sim::SweepAggregator agg;
};

/// Writes one block record (newline-terminated) in the exact format
/// above. Throws ConfigError if a stratum key or metric name contains
/// whitespace (would corrupt the token stream).
void write_block_line(std::ostream& os, const BlockSummary& summary);

/// Parses one line produced by write_block_line. Returns false (leaving
/// *out unspecified) on any malformed/truncated input — the loader's
/// partial-trailing-line tolerance.
bool parse_block_line(std::string_view line, BlockSummary* out);

/// Everything recovered from a checkpoint directory.
struct CheckpointState {
  /// Completed blocks by block index (later duplicates of a block —
  /// possible when a resumed run re-lists a block an earlier run already
  /// wrote — are ignored; block contents are deterministic so any copy
  /// is as good as any other).
  std::map<std::uint64_t, BlockSummary> blocks;
};

/// Name of shard w's checkpoint file within a checkpoint directory.
std::string shard_file_name(int shard);

/// Scans every "shard-*" file in `dir` (which may not exist — that is an
/// empty state, not an error) and returns all well-formed records.
/// Malformed lines are skipped, so a checkpoint written by a killed
/// run loads cleanly. The scan accepts files from ANY worker count:
/// resume with a different --workers than the killed run is exact.
CheckpointState load_checkpoint_dir(const std::string& dir);

/// Canonical exact rendering of an aggregator (hexfloat doubles, sorted
/// strata). Equal strings <=> bit-identical aggregates; this is the
/// shard-merge identity gate's comparison key.
std::string fingerprint(const sim::SweepAggregator& agg);

}  // namespace flexfetch::fleet
