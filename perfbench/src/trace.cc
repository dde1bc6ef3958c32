#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {

void Tracer::Record(uint64_t id, const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent,
                    uint64_t request_id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({id, name, start, end, parent, request_id});
}

std::vector<Tracer::Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::Write(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  // Request-linked spans hang under their request's client span.
  std::unordered_map<uint64_t, uint64_t> client_span;
  for (const Span& span : spans) {
    if (span.request_id != 0 && std::strcmp(span.name, "net.request") == 0) {
      client_span[span.request_id] = span.id;
    }
  }
  for (Span& span : spans) {
    if (span.request_id == 0 || span.parent != 0) continue;
    const auto it = client_span.find(span.request_id);
    if (it != client_span.end() && it->second != span.id) {
      span.parent = it->second;
    }
  }

  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{}
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start < b.start;
                                       })->start;

  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans) {
    // Self time: the duration minus the union of the children's intervals,
    // clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const auto lo = std::max(child->start, span.start);
        const auto hi = std::min(child->end, span.end);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0;
    Clock::time_point reach = span.start;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        covered_s += SecondsBetween(from, hi);
        reach = hi;
      }
    }
    const double duration = SecondsBetween(span.start, span.end);
    std::fprintf(file,
                 "{\"id\":%llu,\"name\":\"%s\",\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"dur_us\":%.3f,"
                 "\"self_us\":%.3f}\n",
                 static_cast<unsigned long long>(span.id), span.name,
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request_id),
                 SecondsBetween(origin, span.start) * 1e6, duration * 1e6,
                 std::max(0.0, duration - covered_s) * 1e6);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
