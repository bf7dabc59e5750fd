#include "eval/ranking_evaluator.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "obs/obs.h"

namespace kgag {

std::string EvalResult::ToString() const {
  std::ostringstream os;
  os << "hit@" << k << "=" << hit_at_k << " rec@" << k << "=" << recall_at_k
     << " ndcg@" << k << "=" << ndcg_at_k << " (" << num_groups << " groups)";
  return os.str();
}

RankingEvaluator::RankingEvaluator(const GroupRecDataset* dataset, size_t k)
    : dataset_(dataset), k_(k) {
  KGAG_CHECK(dataset != nullptr);
  KGAG_CHECK_GT(k, 0u);
}

EvalResult RankingEvaluator::Evaluate(
    GroupScorer* scorer, const std::vector<Interaction>& interactions) const {
  KGAG_TRACE_SPAN("eval.evaluate");
  // Candidate pool + per-group positive sets from the held-out slice.
  std::unordered_set<ItemId> pool_set;
  std::unordered_map<GroupId, std::unordered_set<ItemId>> positives;
  for (const Interaction& it : interactions) {
    pool_set.insert(it.item);
    positives[it.row].insert(it.item);
  }
  std::vector<ItemId> pool(pool_set.begin(), pool_set.end());
  std::sort(pool.begin(), pool.end());

  EvalResult result;
  result.k = k_;
  if (pool.empty() || positives.empty()) return result;

  // Fixed group order: keeps the reduction deterministic (unordered_map
  // iteration order is not) and gives the parallel path stable slots.
  std::vector<std::pair<GroupId, const std::unordered_set<ItemId>*>> groups;
  groups.reserve(positives.size());
  for (const auto& [group, pos] : positives) groups.emplace_back(group, &pos);
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<GroupId> group_ids;
  group_ids.reserve(groups.size());
  for (const auto& entry : groups) group_ids.push_back(entry.first);
  // One batch call: scorers that share work across groups (KGAG's member
  // table, KGCN's per-item user scores) see the whole evaluation at once.
  const std::vector<double> scores =
      scorer->ScoreGroups(group_ids, pool, pool_);
  KGAG_CHECK_EQ(scores.size(), groups.size() * pool.size())
      << "scorer returned wrong-size block";

  struct GroupMetrics {
    double hit = 0.0;
    double recall = 0.0;
    double ndcg = 0.0;
  };
  std::vector<GroupMetrics> slots(groups.size());
  auto rank_group = [&](size_t i) {
    const std::vector<ItemId> ranked = TopKItems(
        std::span<const double>(scores).subspan(i * pool.size(), pool.size()),
        pool, k_);
    const std::unordered_set<ItemId>& pos = *groups[i].second;
    slots[i] = {HitAtK(ranked, pos, k_), RecallAtK(ranked, pos, k_),
                NdcgAtK(ranked, pos, k_)};
  };
  {
    KGAG_TRACE_SPAN("eval.rank");
    ForEachIndex(pool_, groups.size(), rank_group);
  }

  // Serial reduction in group order: identical for both paths above.
  for (const GroupMetrics& m : slots) {
    result.hit_at_k += m.hit;
    result.recall_at_k += m.recall;
    result.ndcg_at_k += m.ndcg;
    ++result.num_groups;
  }
  const double n = static_cast<double>(result.num_groups);
  result.hit_at_k /= n;
  result.recall_at_k /= n;
  result.ndcg_at_k /= n;
  KGAG_COUNTER_ADD("eval.evaluations", 1);
  KGAG_COUNTER_ADD("eval.groups", result.num_groups);
  KGAG_GAUGE_SET("eval.hit_at_k", result.hit_at_k);
  KGAG_GAUGE_SET("eval.recall_at_k", result.recall_at_k);
  KGAG_GAUGE_SET("eval.ndcg_at_k", result.ndcg_at_k);
  KGAG_GAUGE_SET("eval.num_groups", result.num_groups);
  return result;
}

}  // namespace kgag
