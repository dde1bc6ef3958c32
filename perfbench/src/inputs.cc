#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Cumulative power-law weights (i+1)^(-1/gamma), normalised to end at 1.
std::vector<double> PowerLawCdf(Node n, double gamma) {
  std::vector<double> cdf(n);
  double total = 0;
  for (Node i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i) + 1.0, -1.0 / gamma);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

/// Index of the first cdf entry above u (u in [0, 1)).
Node SampleCdf(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<Node>(
      std::min<size_t>(it - cdf.begin(), cdf.size() - 1));
}

void AppendDecimal(Node value, std::string* out) {
  char digits[10];
  int length = 0;
  do {
    digits[length++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (length > 0) out->push_back(digits[--length]);
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.Below(i)]);
  }
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  for (uint64_t& word : s_) word = SplitMix64(&state);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Below(uint64_t bound) {
  // Lemire's multiply-shift with rejection: unbiased for every bound.
  unsigned __int128 product =
      static_cast<unsigned __int128>(Next()) * bound;
  uint64_t low = static_cast<uint64_t>(product);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      product = static_cast<unsigned __int128>(Next()) * bound;
      low = static_cast<uint64_t>(product);
    }
  }
  return static_cast<uint64_t>(product >> 64);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  return SplitMix64(&state);
}

EdgeList ChungLuEdges(const GraphSpec& spec, uint64_t seed) {
  Rng rng(seed);
  const std::vector<double> cdf = PowerLawCdf(spec.n, spec.gamma);
  std::vector<Node> in_perm(spec.n);
  std::iota(in_perm.begin(), in_perm.end(), Node{0});
  Shuffle(&in_perm, rng);

  const auto samples =
      static_cast<uint64_t>(std::llround(spec.avg_degree * spec.n));
  EdgeList edges;
  edges.reserve(samples);
  for (uint64_t i = 0; i < samples; ++i) {
    const Node src = SampleCdf(cdf, rng.Uniform());
    const Node dst = in_perm[SampleCdf(cdf, rng.Uniform())];
    if (src != dst) edges.emplace_back(src, dst);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

Node NodeCount(const EdgeList& edges) {
  Node max_id = 0;
  for (const auto& [src, dst] : edges) max_id = std::max({max_id, src, dst});
  return edges.empty() ? 0 : max_id + 1;
}

std::string EdgeListText(const EdgeList& edges) {
  std::string text = "# perfbench chung-lu edge list: n=" +
                     std::to_string(NodeCount(edges)) +
                     " m=" + std::to_string(edges.size()) + "\n";
  text.reserve(text.size() + edges.size() * 14);
  for (const auto& [src, dst] : edges) {
    AppendDecimal(src, &text);
    text.push_back('\t');
    AppendDecimal(dst, &text);
    text.push_back('\n');
  }
  return text;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && wrote;
}

std::vector<Node> NodesWithInEdges(const EdgeList& edges, Node n) {
  std::vector<bool> has_in(n, false);
  for (const auto& edge : edges) has_in[edge.second] = true;
  std::vector<Node> nodes;
  for (Node v = 0; v < n; ++v) {
    if (has_in[v]) nodes.push_back(v);
  }
  return nodes;
}

std::vector<Node> UniformSources(const std::vector<Node>& pool, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Node> sources(count);
  for (Node& source : sources) source = pool[rng.Below(pool.size())];
  return sources;
}

ZipfSampler::ZipfSampler(const std::vector<Node>& pool, double s,
                         uint64_t seed)
    : by_rank_(pool), cdf_(pool.size()) {
  Rng rng(seed);
  Shuffle(&by_rank_, rng);
  double total = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

Node ZipfSampler::Sample(Rng& rng) const {
  return by_rank_[SampleCdf(cdf_, rng.Uniform())];
}

std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due(count);
  double t = 0;
  for (double& offset : due) {
    t += -std::log1p(-rng.Uniform()) / rate;
    offset = t;
  }
  return due;
}

}  // namespace perfbench
