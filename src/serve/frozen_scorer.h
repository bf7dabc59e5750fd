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
/// model's storage precision, so a whole batch of groups shares ONE
/// sp-logit GEMM against the item table. This is the single kernel entry
/// point for S = U_members · V^T — ScoreAllItems/ScoreItems (offline
/// eval) and ServingEngine::ExecuteBatch (online batches) all build one,
/// which is what keeps the fp64 and quantized paths from drifting apart.
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
