#pragma once
// Span recorder for the traced run. A span is (name, start, end, parent);
// spans nest through a stack, so every span knows the span that was open
// when it started. Only the benchmark's own code opens spans — around its
// calls into the library's public functions and inside the decorating
// PinnProblem / Sampler wrappers — so the library itself carries no
// instrumentation.
//
// Self time of a span = its duration minus the durations of its direct
// children; summed per name it says where the time went *inside* a layer
// rather than below it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 = root
  };
  struct Totals {
    double total_s = 0.0;  ///< inclusive
    double self_s = 0.0;   ///< exclusive of direct children
    std::uint64_t count = 0;
  };

  std::int64_t open(const char* name) {
    Span s{name, now_ns(), 0, stack_.empty() ? -1 : stack_.back()};
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a Chrome trace-event file ("X" events, times in
  /// microseconds from the first span; the parent index is in args).
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

  /// Per-name inclusive/self totals over every closed span.
  std::map<std::string, Totals> totals() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      auto& t = out[s.name];
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
      ++t.count;
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
