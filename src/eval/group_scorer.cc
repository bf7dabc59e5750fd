#include "eval/group_scorer.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace kgag {

std::vector<double> GroupScorer::ScoreGroups(std::span<const GroupId> groups,
                                             std::span<const ItemId> items,
                                             ThreadPool* pool) {
  const size_t n = items.size();
  std::vector<double> out(groups.size() * n);
  const auto score = [&](size_t i) {
    const std::vector<double> s = ScoreGroup(groups[i], items);
    KGAG_CHECK_EQ(s.size(), n) << "scorer returned wrong-size vector";
    std::copy(s.begin(), s.end(), out.begin() + static_cast<ptrdiff_t>(i * n));
  };
  ForEachIndex(pool, groups.size(), score);
  return out;
}

}  // namespace kgag
