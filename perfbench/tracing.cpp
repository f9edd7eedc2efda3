#include "tracing.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int32_t Tracer::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.track = track_;
  s.cell = cell_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

void Tracer::close(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  stack_.pop_back();
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

void TimedPolicy::charge(HookTime& h, std::int64_t t0) {
  const std::int64_t dt = now_ns() - t0;
  ++h.calls;
  h.ns += dt;
  tracer_.add_child_time(dt);
}

flexfetch::device::DeviceKind TimedPolicy::select(
    const flexfetch::sim::RequestContext& req, flexfetch::sim::SimContext& ctx) {
  const std::int64_t t0 = now_ns();
  const auto kind = inner_.select(req, ctx);
  charge(times_.select, t0);
  return kind;
}

void TimedPolicy::on_syscall(const flexfetch::trace::SyscallRecord& r,
                             flexfetch::sim::SimContext& ctx) {
  const std::int64_t t0 = now_ns();
  inner_.on_syscall(r, ctx);
  charge(times_.on_syscall, t0);
}

void TimedPolicy::observe(const flexfetch::sim::RequestContext& req,
                          flexfetch::device::DeviceKind used,
                          const flexfetch::device::ServiceResult& result,
                          flexfetch::sim::SimContext& ctx) {
  const std::int64_t t0 = now_ns();
  inner_.observe(req, used, result, ctx);
  charge(times_.observe, t0);
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::string>& track_names) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t t = 0; t < track_names.size(); ++t) {
    os << (first ? "" : ",\n") << "{\"ph\": \"M\", \"name\": \"thread_name\", "
       << "\"pid\": 1, \"tid\": " << t << ", \"args\": {\"name\": \""
       << track_names[t] << "\"}}";
    first = false;
  }
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Microseconds with nanosecond digits, as the format expects.
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (first ? "" : ",\n") << "{\"ph\": \"X\", \"name\": \"" << s.name
       << "\", \"cat\": \"" << s.name.substr(0, s.name.find('.'))
       << "\", \"pid\": 1, \"tid\": " << s.track << ", " << buf
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"cell\": " << s.cell << ", \"self_us\": "
       << static_cast<double>(s.self_ns()) / 1e3 << "}}";
    first = false;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace perfbench
