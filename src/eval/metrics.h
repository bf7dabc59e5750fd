// Ranking metrics of §IV-C: hit@k and rec@k, plus ndcg@k as an extra —
// and the top-k selection that evaluation and serving share, so a ranking
// produced offline and one produced at request time cannot drift.
#ifndef KGAG_EVAL_METRICS_H_
#define KGAG_EVAL_METRICS_H_

#include <algorithm>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/interactions.h"

namespace kgag {

/// \brief Bounded selection of the k best (score, index) pairs under the
/// ranking order: higher score first, equal scores to the smaller index.
/// That order is total, so the kept set depends only on which pairs were
/// pushed, never on their arrival order — heaps filled over disjoint
/// index ranges merge (push one's entries() into another) to exactly the
/// selection one heap over the whole range makes.
class TopKHeap {
 public:
  using Entry = std::pair<double, size_t>;

  /// Keeps at most `k` pairs. Reserves min(k, reserve_cap) slots up
  /// front, so an untrusted k never sizes an allocation on its own.
  TopKHeap(size_t k, size_t reserve_cap) : k_(k) {
    heap_.reserve(std::min(k, reserve_cap));
  }

  void Push(double score, size_t index) {
    if (k_ == 0) return;
    const Entry cand{score, index};
    if (heap_.size() < k_) {
      heap_.push_back(cand);
      std::push_heap(heap_.begin(), heap_.end(), Weaker);
    } else if (Weaker(cand, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Weaker);
      heap_.back() = cand;
      std::push_heap(heap_.begin(), heap_.end(), Weaker);
    }
  }

  /// The kept pairs in heap order (for merging).
  const std::vector<Entry>& entries() const { return heap_; }

  /// Drops every kept pair; the reservation stays for reuse.
  void Clear() { heap_.clear(); }

  /// The kept pairs, best first; leaves the heap empty.
  std::vector<Entry> TakeSorted() {
    std::sort(heap_.begin(), heap_.end(), Weaker);
    return std::move(heap_);
  }

 private:
  // Min-heap comparator: the root is the weakest survivor, evicted
  // whenever a strictly better candidate arrives. Sorting by it puts the
  // best first, which reproduces std::partial_sort with the same
  // comparator exactly.
  static bool Weaker(const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  }

  size_t k_;
  std::vector<Entry> heap_;
};

/// Indices of the k largest scores among those `keep` admits, in
/// descending score order; ties break towards the smaller index. A
/// bounded max-selection (TopKHeap): memory is O(min(k, scores)), one
/// pass over the scores, so serving can rank a full item catalog without
/// materializing an index array per request. `keep` is a callable
/// (size_t) -> bool.
template <typename Keep>
std::vector<size_t> TopKIndicesWhere(std::span<const double> scores, size_t k,
                                     Keep&& keep) {
  TopKHeap heap(k, scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    if (keep(i)) heap.Push(scores[i], i);
  }
  std::vector<size_t> idx;
  idx.reserve(heap.entries().size());
  for (const auto& [score, i] : heap.TakeSorted()) idx.push_back(i);
  return idx;
}

/// Indices of the k largest scores, in descending score order. Ties break
/// towards the smaller index for determinism.
std::vector<size_t> TopKIndices(std::span<const double> scores, size_t k);

/// The ranked item list the evaluator scores metrics on and the serving
/// engine returns: `pool[i]` labels `scores[i]`. One definition for both.
std::vector<ItemId> TopKItems(std::span<const double> scores,
                              std::span<const ItemId> pool, size_t k);

/// 1.0 if any of the top-k ranked items is a positive, else 0.0 (Eq. 21's
/// per-group indicator).
double HitAtK(std::span<const ItemId> ranked_items,
              const std::unordered_set<ItemId>& positives, size_t k);

/// |top-k ∩ positives| / |positives| for one group.
double RecallAtK(std::span<const ItemId> ranked_items,
                 const std::unordered_set<ItemId>& positives, size_t k);

/// DCG@k / IDCG@k with binary relevance.
double NdcgAtK(std::span<const ItemId> ranked_items,
               const std::unordered_set<ItemId>& positives, size_t k);

}  // namespace kgag

#endif  // KGAG_EVAL_METRICS_H_
