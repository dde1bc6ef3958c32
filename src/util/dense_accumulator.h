// DenseAccumulator — a node-keyed accumulator backed by arrays indexed by
// node id, for query paths whose answers touch most of the graph (PRSim's
// scores and tail columns, the SLING/READS/TSF score maps).
//
// Three arrays: one value per node, a one-byte first-touch mark per node,
// and the touched node ids in first-touch order. operator[] is a plain
// array access plus a mark test — no hashing, no probing, no rehash — and
// touched()/ForEach() visit nodes in first-touch order, which is a pure
// function of the call sequence — the same contract as FlatHashMap2's
// insertion-order ForEach: a caller that adds in a fixed order gets the
// same per-node float sums and the same emission order whatever the
// accumulator held before.
//
// Reset() zeroes only the touched entries, so it costs O(touched) and needs
// no epoch counter (nothing can wrap). Memory is (sizeof(T) + 1) bytes per
// addressable node — 9 for double — plus 4 bytes per touched node, held
// for the accumulator's lifetime; the arrays only grow.

#ifndef PRSIM_UTIL_DENSE_ACCUMULATOR_H_
#define PRSIM_UTIL_DENSE_ACCUMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace prsim {

template <typename T>
class DenseAccumulator {
  static_assert(std::is_trivially_copyable_v<T>,
                "DenseAccumulator values are reset by assignment of T{}");

 public:
  /// Empties the accumulator in O(touched) and makes node ids [0, n)
  /// addressable, growing the arrays when n exceeds their size (they never
  /// shrink). Every entry then reads T{}.
  void Reset(size_t n) {
    for (const uint32_t v : touched_) {
      values_[v] = T{};
      marks_[v] = 0;
    }
    touched_.clear();
    if (n > values_.size()) {
      values_.resize(n, T{});
      marks_.resize(n, 0);
    }
  }

  /// v's value; the first access after Reset() appends v to touched().
  T& operator[](uint32_t v) {
    PRSIM_DCHECK_LT(v, values_.size());
    if (marks_[v] == 0) {
      marks_[v] = 1;
      touched_.push_back(v);
    }
    return values_[v];
  }

  /// Nodes accessed since the last Reset(), in first-touch order.
  const std::vector<uint32_t>& touched() const { return touched_; }
  size_t size() const { return touched_.size(); }

  /// fn(v, value) for every touched node, in first-touch order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const uint32_t v : touched_) fn(v, values_[v]);
  }

  /// Summed element capacity of the three arrays (workspace-reuse probe).
  size_t BufferCapacity() const {
    return values_.capacity() + marks_.capacity() + touched_.capacity();
  }

 private:
  std::vector<T> values_;
  std::vector<uint8_t> marks_;
  std::vector<uint32_t> touched_;
};

}  // namespace prsim

#endif  // PRSIM_UTIL_DENSE_ACCUMULATOR_H_
