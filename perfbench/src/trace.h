// In-memory spans recorded by the benchmark around its calls into the
// program's layers.
//
// A span is a name, a start, an end, the span that caused it, and for a
// served request the request id that the client span and the server-side
// submit-hook span share. Spans stay in memory and are written out as JSON
// lines when the run ends, each with its self time: its duration minus the
// part of it that its children cover. With tracing off nothing is
// recorded, but ScopedSpan still times its scope, so traced and untraced
// runs execute the same timing code.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (never 0; 0 means "no parent").
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// Records one finished span under a given id. Thread safe; a no-op when
  /// tracing is off.
  void Record(uint64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t parent,
              uint64_t request_id = 0);

  /// Writes every span, with its self time, one JSON object per line.
  /// Spans carrying a request id are parented to that request's
  /// "net.request" client span. False on I/O error.
  bool Write(const std::string& path) const;

  struct Span {
    uint64_t id;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    uint64_t parent;
    uint64_t request_id;
  };

  /// A copy of every span recorded so far.
  std::vector<Span> Snapshot() const;

 private:

  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times its scope and, with tracing on, records it as a span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer.NewId()),
        start_(Clock::now()) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double End() {
    if (!ended_) {
      end_ = Clock::now();
      ended_ = true;
      tracer_.Record(id_, name_, start_, end_, parent_);
    }
    return SecondsBetween(start_, end_);
  }

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
  Clock::time_point end_;
  bool ended_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
