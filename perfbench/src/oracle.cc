#include "oracle.h"

#include <algorithm>
#include <thread>

namespace perfbench {

InAdjacency::InAdjacency(Node n_nodes, const EdgeList& edges)
    : n(n_nodes), offsets(n_nodes + 1, 0), sources(edges.size()) {
  for (const auto& edge : edges) ++offsets[edge.second + 1];
  for (Node v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<uint64_t> next(offsets.begin(), offsets.end() - 1);
  for (const auto& [src, dst] : edges) sources[next[dst]++] = src;
}

ExactSimRank::ExactSimRank(const InAdjacency& graph, double c, int iterations,
                           unsigned threads)
    : n_(graph.n), scores_(static_cast<size_t>(graph.n) * graph.n, 0.0) {
  const size_t n = n_;
  for (size_t u = 0; u < n; ++u) scores_[u * n + u] = 1.0;
  std::vector<double> next(scores_.size());
  threads = std::max(1u, threads);

  const auto run_rows = [&](size_t lo, size_t hi) {
    std::vector<double> in_sum(n);  // sum over a in I(u) of S(a, b)
    for (size_t u = lo; u < hi; ++u) {
      double* out = next.data() + u * n;
      const uint64_t in_u = graph.InDegree(static_cast<Node>(u));
      if (in_u == 0) {
        std::fill(out, out + n, 0.0);
        out[u] = 1.0;
        continue;
      }
      std::fill(in_sum.begin(), in_sum.end(), 0.0);
      for (uint64_t e = graph.offsets[u]; e < graph.offsets[u + 1]; ++e) {
        const double* row = scores_.data() + size_t{graph.sources[e]} * n;
        for (size_t b = 0; b < n; ++b) in_sum[b] += row[b];
      }
      const double scale = c / static_cast<double>(in_u);
      for (size_t v = 0; v < n; ++v) {
        const uint64_t in_v = graph.InDegree(static_cast<Node>(v));
        if (in_v == 0) {
          out[v] = 0.0;
          continue;
        }
        double sum = 0;
        for (uint64_t e = graph.offsets[v]; e < graph.offsets[v + 1]; ++e) {
          sum += in_sum[graph.sources[e]];
        }
        out[v] = scale * sum / static_cast<double>(in_v);
      }
      out[u] = 1.0;
    }
  };

  for (int it = 0; it < iterations; ++it) {
    std::vector<std::thread> workers;
    const size_t chunk = (n + threads - 1) / threads;
    for (unsigned t = 1; t < threads; ++t) {
      const size_t lo = std::min(n, t * chunk);
      const size_t hi = std::min(n, lo + chunk);
      if (lo < hi) workers.emplace_back(run_rows, lo, hi);
    }
    run_rows(0, std::min(n, chunk));
    for (std::thread& worker : workers) worker.join();
    scores_.swap(next);
  }
  error_bound_ = std::pow(c, iterations + 1);
}

double MonteCarloSimRank::Estimate(Node u, Node v, uint64_t samples,
                                   uint64_t seed) const {
  if (u == v) return 1.0;
  Rng rng(seed);
  uint64_t meetings = 0;
  for (uint64_t i = 0; i < samples; ++i) {
    Node a = u;
    Node b = v;
    while (true) {
      const uint64_t in_a = graph_.InDegree(a);
      const uint64_t in_b = graph_.InDegree(b);
      if (in_a == 0 || in_b == 0) break;
      if (rng.Uniform() >= sqrt_c_ || rng.Uniform() >= sqrt_c_) break;
      a = graph_.sources[graph_.offsets[a] + rng.Below(in_a)];
      b = graph_.sources[graph_.offsets[b] + rng.Below(in_b)];
      if (a == b) {
        ++meetings;
        break;
      }
    }
  }
  return static_cast<double>(meetings) / static_cast<double>(samples);
}

double MonteCarloSimRank::HalfWidth(uint64_t samples, double delta) {
  return std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(samples)));
}

}  // namespace perfbench
