#include "models/attention.h"

#include "obs/obs.h"

namespace kgag {

PreferenceAggregator::PreferenceAggregator(int dim, int group_size,
                                           bool use_sp, bool use_pi,
                                           ParameterStore* store,
                                           Rng* init_rng)
    : dim_(dim), group_size_(group_size), use_sp_(use_sp), use_pi_(use_pi) {
  KGAG_CHECK_GT(dim, 0);
  KGAG_CHECK_GT(group_size, 0);
  if (use_pi_) {
    w1_ = store->Create("attn.W1", dim, dim, Init::kXavierUniform, init_rng);
    if (group_size_ > 1) {
      w2_ = store->Create("attn.W2", dim * (group_size_ - 1), dim,
                          Init::kXavierUniform, init_rng);
    }
    bias_ = store->CreateZeros("attn.b", 1, dim);
    vc_ = store->Create("attn.vc", dim, 1, Init::kXavierUniform, init_rng);
  }
}

PreferenceAggregator::AttentionVars PreferenceAggregator::Attend(
    Tape* tape, Var member_reps, Var item_reps) const {
  const size_t l = static_cast<size_t>(group_size_);
  const size_t p = tape->value(item_reps).rows();
  KGAG_CHECK_EQ(tape->value(member_reps).rows(), p * l);

  AttentionVars out;
  if (use_sp_) {
    out.sp = tape->RowDot(member_reps, tape->RepeatRows(item_reps, l));
  }
  if (use_pi_) {
    Var pre = tape->MatMul(member_reps, tape->Leaf(w1_));  // (PL x d)
    if (w2_ != nullptr) {
      // Row p·L + i of the peer matrix concatenates candidate p's other
      // members in member order: (PL x d(L-1)).
      std::vector<size_t> peers;
      peers.reserve(p * l * (l - 1));
      for (size_t q = 0; q < p; ++q) {
        for (size_t i = 0; i < l; ++i) {
          for (size_t j = 0; j < l; ++j) {
            if (j != i) peers.push_back(q * l + j);
          }
        }
      }
      Var peer_cat = tape->Reshape(tape->Rows(member_reps, peers), p * l,
                                   static_cast<size_t>(dim_) * (l - 1));
      pre = tape->Add(pre, tape->MatMul(peer_cat, tape->Leaf(w2_)));
    }
    Var hidden = tape->Relu(tape->AddRowBroadcast(pre, tape->Leaf(bias_)));
    out.pi = tape->MatMul(hidden, tape->Leaf(vc_));  // (PL x 1)
  }

  Var raw;  // (PL x 1) raw importances
  if (out.sp.valid() && out.pi.valid()) {
    raw = tape->Add(out.sp, out.pi);
  } else if (out.sp.valid() || out.pi.valid()) {
    raw = out.sp.valid() ? out.sp : out.pi;
  } else {
    // Both attention parts ablated: uniform aggregation.
    raw = tape->Constant(Tensor(p * l, 1, 0.0));
  }
  out.alpha = tape->SoftmaxRows(tape->Reshape(raw, p, l));  // (P x L)
  return out;
}

Var PreferenceAggregator::AggregateOnTape(Tape* tape, Var member_reps,
                                          Var item_reps) const {
  KGAG_TRACE_SPAN("attention.aggregate");
  KGAG_COUNTER_ADD("attention.aggregate.calls", 1);
  const AttentionVars att = Attend(tape, member_reps, item_reps);
  return tape->SegmentWeightedSumRows(att.alpha, member_reps);  // (P x d)
}

AttentionBreakdown PreferenceAggregator::Explain(const Tensor& member_reps,
                                                 const Tensor& item_rep) const {
  Tape tape;
  const AttentionVars att = Attend(&tape, tape.Constant(member_reps),
                                   tape.Constant(item_rep));
  const size_t l = member_reps.rows();
  auto per_member = [&](Var v) {
    std::vector<double> out(l, 0.0);
    if (v.valid()) {
      for (size_t i = 0; i < l; ++i) out[i] = tape.value(v)[i];
    }
    return out;
  };
  return {per_member(att.sp), per_member(att.pi), per_member(att.alpha)};
}

}  // namespace kgag
