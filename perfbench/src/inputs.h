// Seeded workload inputs, generated by the benchmark's own code.
//
// Every input a workload feeds the program — the Chung-Lu graph (written
// as a text edge list that the program loads), the source lists, the Zipf
// request mix and the open-loop arrival schedule — comes from this file and
// a seed given on the command line. Nothing here calls into the program
// (no src/gen, no util/rng.h, no util/zipf.h), so a change to those files
// cannot change a workload: one seed gives byte-identical inputs on every
// commit.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Node = uint32_t;
using EdgeList = std::vector<std::pair<Node, Node>>;

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t Next();
  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound);

 private:
  uint64_t s_[4];
};

/// Derives an independent stream seed for one named input of a run.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

struct GraphSpec {
  Node n = 0;
  double avg_degree = 0;
  /// Cumulative power-law exponent shared by out- and in-degrees.
  double gamma = 2.0;
};

/// A directed Chung-Lu graph: node i has out-weight (i+1)^(-1/gamma); the
/// in-weights are the same sequence under a seeded permutation. Draws
/// round(avg_degree * n) endpoint pairs by inverse-CDF sampling, drops
/// self-loops and duplicates, and returns the edges sorted by (src, dst).
EdgeList ChungLuEdges(const GraphSpec& spec, uint64_t seed);

/// Node count the program's text loader derives: max endpoint + 1.
Node NodeCount(const EdgeList& edges);

/// SNAP-style text: one '#' header line, then "src\tdst" per edge.
std::string EdgeListText(const EdgeList& edges);

/// Writes `text` to `path`; false on any I/O error.
bool WriteFile(const std::string& path, const std::string& text);

/// Nodes with at least one in-neighbour, ascending. Sources are drawn only
/// from these: a node without in-neighbours has no similar node at all.
std::vector<Node> NodesWithInEdges(const EdgeList& edges, Node n);

/// `count` sources drawn uniformly (with replacement) from `pool`.
std::vector<Node> UniformSources(const std::vector<Node>& pool, size_t count,
                                 uint64_t seed);

/// Zipf(s) over `pool`: rank r is drawn with probability proportional to
/// (r+1)^-s, and ranks map to pool nodes through a seeded permutation, so
/// the hot sources are not simply the lowest ids.
class ZipfSampler {
 public:
  ZipfSampler(const std::vector<Node>& pool, double s, uint64_t seed);
  Node Sample(Rng& rng) const;

 private:
  std::vector<Node> by_rank_;
  std::vector<double> cdf_;
};

/// Poisson arrivals at `rate` per second: `count` due offsets in seconds
/// from the start of the phase, ascending.
std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
