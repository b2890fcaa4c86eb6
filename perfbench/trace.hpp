// Spans recorded from the benchmark's side of each layer boundary.
//
// A span has a name, a parent, wall start/end (steady clock, seconds
// since the tracer was created), and the user-mode instructions and
// cycles retired across all threads while it was open. Spans stay in
// memory; the benchmark writes them out once the run is over. A span
// around a batch of identical calls carries the call count, so per-call
// costs are the span's totals divided by `calls`.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pmu.hpp"

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
  double instructions = 0;
  double cycles = 0;
  std::uint64_t calls = 1;

  [[nodiscard]] double wall_s() const { return end_s - start_s; }
};

class Tracer {
 public:
  explicit Tracer(const Pmu& pmu)
      : pmu_(pmu), origin_(std::chrono::steady_clock::now()) {}

  /// Runs `fn` inside a span named `name`, nested under the innermost
  /// open span, and returns what `fn` returns.
  template <typename Fn>
  decltype(auto) span(std::string name, Fn&& fn, std::uint64_t calls = 1) {
    const int id = open(std::move(name), calls);
    struct Closer {
      Tracer& t;
      int id;
      ~Closer() { t.close(id); }
    } closer{*this, id};
    return std::forward<Fn>(fn)();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// The first span with this name; throws if there is none.
  [[nodiscard]] const Span& get(const std::string& name) const;

 private:
  struct Open {
    double t = 0;
    PmuSample pmu;
  };

  int open(std::string name, std::uint64_t calls);
  void close(int id);
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  const Pmu& pmu_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Open> open_;  // parallel to spans_
  std::vector<int> stack_;
};

inline int Tracer::open(std::string name, std::uint64_t calls) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.calls = calls;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  Open o;
  o.pmu = pmu_.read();
  o.t = now_s();
  open_.push_back(o);
  spans_[id].start_s = o.t;
  return id;
}

inline void Tracer::close(int id) {
  const double t = now_s();
  const PmuSample end = pmu_.read();
  Span& s = spans_[id];
  s.end_s = t;
  s.instructions = end.instructions - open_[id].pmu.instructions;
  s.cycles = end.cycles - open_[id].pmu.cycles;
  stack_.pop_back();
}

inline const Span& Tracer::get(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("perfbench: no span named " + name);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
