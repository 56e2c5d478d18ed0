// In-memory span recorder for the benchmark's traced run.
//
// A span is (name, trace id, parent, start, end). Spans opened while another
// is open on the same thread become its children; the spans of one replayed
// round (or one settlement batch) share a trace id. Nothing is written while
// the benchmark measures: spans stay in a vector and are dumped to JSON once
// the run ends. With tracing disabled a Span guard records nothing, so the
// untraced run pays only a branch per boundary.
//
// The benchmark is single-threaded at its own call sites (the library may fan
// work out to its pool internally, below the spans), so the recorder needs no
// locking.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t trace_id = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  double start_us = 0;
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int begin(const char* name, std::uint64_t trace_id) {
    SpanRecord s;
    s.name = name;
    s.trace_id = trace_id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_us = now_us();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes the innermost open span (guards close in LIFO order).
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    open_.pop_back();
  }

  /// Durations (ms) of every closed span with this name, in record order.
  std::vector<double> durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) out.push_back(s.duration_us() / 1000.0);
    }
    return out;
  }

  /// Sum of durations (ms) of every span with this name.
  double total_ms(const std::string& name) const {
    double t = 0;
    for (double d : durations_ms(name)) t += d;
    return t;
  }

  struct SelfTime {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the time covered by child spans
  };

  /// Per span name: count, total and self time. Children of one span never
  /// overlap (they run sequentially on the benchmark thread), so a span's
  /// covered time is the sum of its children's durations.
  std::map<std::string, SelfTime> self_times() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.duration_us();
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SelfTime& t = out[spans_[i].name];
      t.count += 1;
      t.total_ms += spans_[i].duration_us() / 1000.0;
      t.self_ms += (spans_[i].duration_us() - child_us[i]) / 1000.0;
    }
    return out;
  }

  /// Dumps every span as JSON; false if the file cannot be written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %zu, \"name\": \"%s\", \"trace\": %llu, "
                   "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}",
                   i ? "," : "", i, s.name,
                   static_cast<unsigned long long>(s.trace_id), s.parent,
                   s.start_us, s.end_us);
    }
    std::fprintf(f, "\n],\n\"self_time_ms\": {");
    bool first = true;
    for (const auto& [name, t] : self_times()) {
      std::fprintf(f,
                   "%s\n  \"%s\": {\"count\": %zu, \"total\": %.6f, "
                   "\"self\": %.6f}",
                   first ? "" : ",", name.c_str(), t.count, t.total_ms,
                   t.self_ms);
      first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t trace_id = 0)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(name, trace_id) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Median, the highest percentile that still has at least ten samples
/// beyond it, and the sample count of one per-call timing.
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  std::string tail_label = "none";  // e.g. "p90"; "none" below 20 samples
  std::size_t n = 0;
};

/// Nearest-rank q-th percentile (0 for no samples).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

inline LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = percentile(samples, 50);
  s.tail = s.p50;
  static const double kCandidates[] = {99.9, 99, 95, 90, 75, 50};
  for (double q : kCandidates) {
    if (static_cast<double>(s.n) * (1.0 - q / 100.0) >= 10.0) {
      s.tail = percentile(samples, q);
      char label[16];
      std::snprintf(label, sizeof(label), "p%g", q);
      s.tail_label = label;
      break;
    }
  }
  return s;
}

}  // namespace perfbench
