// In-memory span recorder and policy timing decorator for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator's layers (scenario functions, Simulator construction/loop/
// finish, fleet blocks and checkpoints, multi-client sessions). Calls that
// happen once per simulated syscall — the sim::Policy hooks — are far too
// many to keep as spans, so TimedPolicy folds them into per-policy
// counters instead and charges their time to the enclosing span as child
// time. A span's self time is its duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< Time covered by child spans and timers.
  std::int32_t parent = -1;   ///< Index into the recorder's spans, or -1.
  std::uint32_t track = 0;    ///< Workload index (one Chrome thread each).
  std::int64_t cell = -1;     ///< Cell id within the workload, or -1.

  std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

class Tracer {
 public:
  /// Spans opened from now on belong to `track` (a workload index).
  void set_track(std::uint32_t track) { track_ = track; }
  /// Spans opened from now on carry `cell` (-1 = not inside a cell).
  void set_cell(std::int64_t cell) { cell_ = cell; }

  std::int32_t open(std::string name);
  void close(std::int32_t id);
  /// Charges time measured outside any span (an aggregated timer) to the
  /// innermost open span, so that span's self time excludes it.
  void add_child_time(std::int64_t ns) {
    if (!stack_.empty()) spans_[static_cast<std::size_t>(stack_.back())].child_ns += ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
    ~Scope() { t_.close(id_); }
    std::int32_t id() const { return id_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t track_ = 0;
  std::int64_t cell_ = -1;
};

/// Per-hook call count and total host time.
struct HookTime {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  double ns_per_call() const {
    return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  }
};

struct PolicyTimes {
  HookTime select;
  HookTime on_syscall;
  HookTime observe;
  std::int64_t total_ns() const { return select.ns + on_syscall.ns + observe.ns; }
};

/// Forwards every sim::Policy call to `inner`, timing select, on_syscall
/// and observe. Decisions are untouched, so results stay bit-identical.
class TimedPolicy final : public flexfetch::sim::Policy {
 public:
  TimedPolicy(flexfetch::sim::Policy& inner, PolicyTimes& times, Tracer& tracer)
      : inner_(inner), times_(times), tracer_(tracer) {}

  void begin(flexfetch::sim::SimContext& ctx) override { inner_.begin(ctx); }
  flexfetch::device::DeviceKind select(const flexfetch::sim::RequestContext& req,
                                       flexfetch::sim::SimContext& ctx) override;
  void on_syscall(const flexfetch::trace::SyscallRecord& r,
                  flexfetch::sim::SimContext& ctx) override;
  void observe(const flexfetch::sim::RequestContext& req,
               flexfetch::device::DeviceKind used,
               const flexfetch::device::ServiceResult& result,
               flexfetch::sim::SimContext& ctx) override;
  void end(flexfetch::sim::SimContext& ctx) override { inner_.end(ctx); }
  void export_metrics(flexfetch::telemetry::MetricsRegistry& m) const override {
    inner_.export_metrics(m);
  }
  std::string name() const override { return inner_.name(); }

 private:
  void charge(HookTime& h, std::int64_t t0);

  flexfetch::sim::Policy& inner_;
  PolicyTimes& times_;
  Tracer& tracer_;
};

/// Writes the spans as Chrome trace_event JSON ("X" complete events, one
/// thread per track, named by `track_names`).
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& track_names);

}  // namespace perfbench
