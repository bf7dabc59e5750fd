// The one scoring path shared by offline evaluation and online serving
// (DESIGN.md §10). Both FrozenGroupScorer (driven by RankingEvaluator)
// and ServingEngine::TopK call BuildGroupRep + the score reduction below,
// so eval and serving cannot drift — the bit-identity test in
// tests/test_serve.cc pins this.
//
// Scoring math on frozen representations: with member reps u_i fixed
// (query-independent), the peer-influence logit
//   pi_i = vc^T ReLU(W1 u_i + W2 concat(peers_i) + b)
// is a per-member constant, and only the self-persistence logit
//   sp_i(v) = <u_i, v>
// depends on the candidate. The group score expands to
//   score(v) = <g, v> = sum_i softmax_i(sp + pi) * sp_i(v)
// so one GEMM S = U_members · V^T provides every sp_i(v), and the rest is
// an O(L) softmax-reduce per candidate. Note sp_i(v) feeds the score even
// when use_sp is off (it is <u_i, v> either way); use_sp only controls
// whether it enters the softmax logit.
//
// Serving runs that math as ScanTopK: one pass over fixed item tiles,
// each tile's sp block, scores and bounded top-k heaps staying in cache,
// tiles fanned out over a pool. Evaluation and the oracle paths
// (ScoreAllItems, ScoreItems) materialize S and the score vector
// instead; both reach every item score through the same kernels, so they
// agree bit for bit (tests/test_serve.cc pins this).
//
// Group canonicalization: members are sorted and deduplicated before any
// arithmetic. This is the cache-key rule AND a correctness rule — scores
// become independent of the order a client lists members in (floating
// point would otherwise leak the order through the W2 peer concat).
// Ad-hoc group sizes: W2's peer concat is only defined for the trained
// group size L; for any other member count the W2 term is dropped and the
// W1 path kept (single members additionally reduce to a softmax over one).
#ifndef KGAG_SERVE_FROZEN_SCORER_H_
#define KGAG_SERVE_FROZEN_SCORER_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "data/interactions.h"
#include "eval/group_scorer.h"
#include "serve/frozen_model.h"
#include "tensor/tensor.h"

namespace kgag {
namespace serve {

/// \brief A group's request-time state: canonical members, their frozen
/// representations and per-member peer-influence logits. Immutable once
/// built; safe to share across threads (cache entries do).
///
/// On a quantized model, member_emb holds the DEQUANTIZED member reps
/// (the values the quantized kernels reconstruct); the peer-influence
/// logits are computed from them with the fp64 attention weights, so pi
/// is deterministic given the artifact regardless of ISA tier.
struct GroupRep {
  std::vector<UserId> members;  ///< sorted, unique — the cache key
  Tensor member_emb;            ///< (|members| x dim), canonical order
  std::vector<double> pi;       ///< raw α_PI per member (0 when PI off)
};

/// Canonicalizes `members` (sort + unique) and builds the rep. Fails on
/// an empty member list or ids outside [0, num_users).
Result<GroupRep> BuildGroupRep(const FrozenModel& model,
                               std::span<const UserId> members);

/// \brief Member rows from one or more reps stacked contiguously at the
/// model's storage precision, so a whole batch of groups shares each
/// sp-logit GEMM against the item table. This is the single kernel entry
/// point for S = U_members · V^T — ScoreAllItems/ScoreItems (offline
/// eval) and ScanTopK (online batches) all build one, which is what keeps
/// the fp64 and quantized paths from drifting apart.
///
/// On an fp64 model the rows are the member reps themselves and the GEMM
/// is kernels::Gemm, bit-identical to scoring each rep alone. On a
/// quantized model the rows are the packed user codes (+ int8 scales)
/// gathered straight from the artifact and the GEMM is the matching
/// kernels::QGemm* kernel — also batch-invariant, since every output
/// element accumulates its own dot in a fixed k-order.
class MemberStack {
 public:
  /// The model is borrowed and must outlive the stack.
  explicit MemberStack(const FrozenModel& model);

  /// Appends rep's member rows (canonical order preserved); returns the
  /// row index the rep's block starts at.
  size_t Append(const GroupRep& rep);

  size_t rows() const { return rows_; }

  /// S against every item: out = (rows() x num_items), row-major,
  /// leading dimension num_items, OVERWRITTEN.
  void SpLogitsAllItems(double* out) const;

  /// S against the item range [first, first + count): out = (rows() x
  /// count), row-major, leading dimension count, OVERWRITTEN. One kernel
  /// call, so each item row is converted once for all member rows.
  /// Per-item results are bit-identical to SpLogitsAllItems.
  void SpLogitsTile(size_t first, size_t count, double* out) const;

  /// S against an explicit candidate list (gathers the candidate rows):
  /// out = (rows() x items.size()), leading dimension items.size(),
  /// OVERWRITTEN. Per-item results are bit-identical to SpLogitsAllItems.
  void SpLogits(std::span<const ItemId> items, double* out) const;

 private:
  const FrozenModel* model_;
  size_t rows_ = 0;
  std::vector<double> emb_;     ///< fp64 models: stacked member reps
  std::vector<uint8_t> codes_;  ///< quantized models: packed member codes
  std::vector<float> scales_;   ///< int8 models: per-row/block scales
};

/// Scores every row of `sp_logits` — the S = U_members · V^T block for
/// this rep, `n` candidates wide with leading dimension `ld` — into
/// `out[0..n)`: out[p] = Σ_i softmax_i(sp(:,p)·use_sp + pi) · sp(i,p).
/// The softmax subtracts the max over members (member 0 seeding the
/// max), as the model's attention softmax does, but runs on
/// kernels::SoftmaxScoreReduce — FastExp, one division per candidate,
/// SIMD across candidates under the same bit-identity-across-tiers
/// contract as the QGemm kernels. Every frozen-path consumer (offline
/// FrozenGroupScorer and online ServingEngine) shares this exact code,
/// so eval/serve bit parity is unaffected.
void ReduceScores(const FrozenModel& model, const GroupRep& rep,
                  const double* sp_logits, size_t ld, size_t n, double* out);

/// Scores the rep against every item: one blocked GEMM
/// (|members| x dim)·(dim x num_items) + ReduceScores.
std::vector<double> ScoreAllItems(const FrozenModel& model,
                                  const GroupRep& rep);

/// Scores the rep against an explicit candidate list (the evaluator's
/// pool). Per-item results are bit-identical to ScoreAllItems — each
/// GEMM output element accumulates its dot product in the same fixed
/// k-order regardless of which other rows/columns are in the call.
std::vector<double> ScoreItems(const FrozenModel& model, const GroupRep& rep,
                               std::span<const ItemId> items);

/// \brief One ranking request of a ScanTopK call.
struct ScanQuery {
  size_t group = 0;  ///< index into the scan's reps
  /// Items to return; anything above the catalog size means all of it.
  size_t k = 0;
  /// Items never ranked, in any order (duplicates and out-of-range ids
  /// are harmless). Filtered at rank time, so they change no score bits.
  std::span<const ItemId> exclude;
  uint64_t req_id = 0;  ///< labels the query's serve.topk merge span
};

/// \brief Ranked items: items[0] is the best; ties go to the smaller id.
struct RankedItems {
  std::vector<ItemId> items;
  std::vector<double> scores;  ///< parallel to items
};

/// The serving scan: every query's top-k over the whole catalog, for a
/// batch of distinct group reps. The catalog is cut into fixed tiles of
/// items (a constant sized so a tile's sp block stays in a core's L2);
/// per tile it runs one SpLogitsTile for all reps' stacked rows, one
/// ReduceScores per rep into a tile-local buffer, and feeds each query's
/// bounded heap with exclusions filtered. Nothing catalog-sized is
/// materialized.
///
/// With a pool and more than one tile, tiles are claimed dynamically by
/// up to num_threads()+1 lanes (the caller is one); a one-tile catalog
/// (or no pool) runs inline. Each tile's per-query heaps merge at the
/// end under the TopKIndicesWhere order. That order is total and every
/// item's score is computed by the same fixed-order kernels as
/// ScoreAllItems, so the result is bit-identical to ScoreAllItems +
/// TopKIndicesWhere for any tile partition, pool or thread count.
std::vector<RankedItems> ScanTopK(const FrozenModel& model,
                                  std::span<const GroupRep* const> reps,
                                  std::span<const ScanQuery> queries,
                                  ThreadPool* pool);

/// \brief GroupScorer adapter: lets RankingEvaluator run the standard
/// offline protocol against a frozen artifact, resolving group ids to
/// members through the dataset's GroupTable.
class FrozenGroupScorer : public GroupScorer {
 public:
  /// Both pointers are borrowed and must outlive the scorer.
  FrozenGroupScorer(const FrozenModel* model, const GroupTable* groups);

  std::vector<double> ScoreGroup(GroupId g,
                                 std::span<const ItemId> items) override;

 private:
  const FrozenModel* model_;
  const GroupTable* groups_;
};

}  // namespace serve
}  // namespace kgag

#endif  // KGAG_SERVE_FROZEN_SCORER_H_
