// trace.hpp — in-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public API (nothing inside src/ is instrumented). A span has a
// name, a layer, an id (the job or case it belongs to; empty for spans
// that cover many), a start, an end and the thread that recorded it.
// Parents are resolved when the trace is finalized: a span's parent is
// the shortest span that encloses it in time and either shares its id or
// has none. A layer's self time is the summed duration of its spans
// minus the part of each span that its children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::string id;
    double start = 0.0;  // seconds since the process-wide epoch (now())
    double end = 0.0;
    std::size_t thread = 0;
    long parent = -1;  // index into spans(), set by finalize()
  };

  /// Seconds since the process-wide epoch shared by every tracer, so
  /// spans of different tracers line up on one timeline.
  static double now() {
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
  }

  void record(std::string name, std::string layer, std::string id, double start,
              double end) {
    const std::size_t thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), std::move(layer), std::move(id), start, end,
                          thread, -1});
  }

  /// Run `fn` inside a span and return its result; `seconds`, when given,
  /// receives the span's duration.
  template <typename Fn>
  auto span(const std::string& name, const std::string& layer, const std::string& id,
            Fn&& fn, double* seconds = nullptr) -> decltype(fn()) {
    struct Closer {
      Tracer* t;
      const std::string& name;
      const std::string& layer;
      const std::string& id;
      double* seconds;
      double start = now();
      ~Closer() {
        const double end = now();
        if (seconds) *seconds = end - start;
        t->record(name, layer, id, start, end);
      }
    } closer{this, name, layer, id, seconds};
    return fn();
  }

  /// Resolve parents. Call once, after every recording thread has ended.
  void finalize() {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      double best = -1.0;
      for (std::size_t p = 0; p < spans_.size(); ++p) {
        if (p == i) continue;
        const Span& c = spans_[p];
        if (c.start > s.start || c.end < s.end) continue;
        if (!c.id.empty() && c.id != s.id) continue;
        const double len = c.end - c.start;
        // Equal intervals: the outer span closes, and so is recorded,
        // after the inner one.
        if (len == s.end - s.start && p < i) continue;
        if (best < 0.0 || len < best) {
          best = len;
          spans_[i].parent = static_cast<long>(p);
        }
      }
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: span duration minus the union of its children.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0.0, run_start = 0.0, run_end = -1.0;
      for (const auto& [a, b] : k) {
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
      out[spans_[i].layer] += (spans_[i].end - spans_[i].start) - covered;
    }
    return out;
  }

  /// Total duration of the spans called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) sum += s.end - s.start;
    return sum;
  }

  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end - s.start);
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Write tracers as one Chrome Trace Event JSON file (opens in Perfetto
/// or chrome://tracing), one process lane per named tracer.
inline bool write_chrome_trace(
    const std::string& path, const std::vector<std::pair<std::string, const Tracer*>>& lanes) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t pid = 0; pid < lanes.size(); ++pid) {
    os << (first ? "\n" : ",\n") << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"args\": {\"name\": ";
    sepe::json_escape(os, lanes[pid].first);
    os << "}}";
    first = false;
    std::map<std::size_t, int> tids;
    const auto& spans = lanes[pid].second->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      const int tid = tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
      os << ",\n{\"name\": ";
      sepe::json_escape(os, s.name);
      os << ", \"cat\": ";
      sepe::json_escape(os, s.layer);
      os << ", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
         << ", \"ts\": " << static_cast<std::int64_t>(s.start * 1e6)
         << ", \"dur\": " << static_cast<std::int64_t>((s.end - s.start) * 1e6)
         << ", \"args\": {\"id\": ";
      sepe::json_escape(os, s.id);
      os << ", \"span\": " << i << ", \"parent\": " << s.parent << "}}";
    }
  }
  os << "\n]}\n";
  std::ofstream out(path);
  out << os.str();
  return static_cast<bool>(out);
}

}  // namespace perfbench
