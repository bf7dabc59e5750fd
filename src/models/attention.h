// Preference aggregation block (§III-D): combines member representations
// into a group representation with a two-part attention —
//   α_SP(g,i,v) = ⟨u_i, v⟩                         (self persistence, Eq. 9)
//   α_PI(g,i)   = v_cᵀ ReLU(W₁u_i + W₂·concat(peers) + b)   (peer influence, Eq. 10)
//   α = softmax(α_SP + α_PI);  g = Σ α̃_i u_i       (Eq. 11–13)
// The concat in PI fixes the group size at construction (the paper's
// datasets have uniform group sizes: 8/5/3).
//
// AggregateOnTape is the one forward definition: training runs it for one
// candidate item, evaluation for P candidates at once, and Explain reads
// the attention terms out of the same computation.
#ifndef KGAG_MODELS_ATTENTION_H_
#define KGAG_MODELS_ATTENTION_H_

#include <vector>

#include "tensor/parameter.h"
#include "tensor/tape.h"

namespace kgag {

/// \brief Per-member attention values for explanations (Fig. 6 / RQ4).
struct AttentionBreakdown {
  std::vector<double> sp;     ///< α_SP per member (0 if SP disabled)
  std::vector<double> pi;     ///< α_PI per member (0 if PI disabled)
  std::vector<double> alpha;  ///< softmax-normalized overall influence
};

/// \brief Learns member influences and aggregates preferences.
class PreferenceAggregator {
 public:
  /// \param dim representation dimension d
  /// \param group_size fixed member count L (peer concat is d·(L−1) wide)
  /// \param use_sp include the self-persistence term (KGAG-SP ablation)
  /// \param use_pi include the peer-influence term (KGAG-PI ablation)
  PreferenceAggregator(int dim, int group_size, bool use_sp, bool use_pi,
                       ParameterStore* store, Rng* init_rng);

  /// Differentiable aggregation for P candidate items: member_reps
  /// (P·L x d) is query-major (row p·L + i is member i's representation
  /// for candidate p), item_reps is (P x d); returns the group
  /// representations (P x d).
  Var AggregateOnTape(Tape* tape, Var member_reps, Var item_reps) const;

  /// Attention values for one (group, item): member_reps (L x d),
  /// item_rep (1 x d).
  AttentionBreakdown Explain(const Tensor& member_reps,
                             const Tensor& item_rep) const;

  int group_size() const { return group_size_; }

 private:
  /// Attention terms on the tape: α_SP and α_PI as (P·L x 1) columns
  /// (invalid Vars when ablated) and the normalized α as (P x L).
  struct AttentionVars {
    Var sp;
    Var pi;
    Var alpha;
  };
  AttentionVars Attend(Tape* tape, Var member_reps, Var item_reps) const;

  int dim_;
  int group_size_;
  bool use_sp_;
  bool use_pi_;
  Parameter* w1_ = nullptr;   // (d x d)
  Parameter* w2_ = nullptr;   // (d(L-1) x d)
  Parameter* bias_ = nullptr; // (1 x d)
  Parameter* vc_ = nullptr;   // (d x 1)
};

}  // namespace kgag

#endif  // KGAG_MODELS_ATTENTION_H_
