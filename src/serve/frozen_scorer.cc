#include "serve/frozen_scorer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "tensor/kernels.h"

namespace kgag {
namespace serve {

Result<GroupRep> BuildGroupRep(const FrozenModel& model,
                               std::span<const UserId> members) {
  KGAG_TRACE_SPAN("serve.rep_build.aggregate");
  if (members.empty()) {
    return Status::InvalidArgument("group has no members");
  }
  GroupRep rep;
  rep.members.assign(members.begin(), members.end());
  std::sort(rep.members.begin(), rep.members.end());
  rep.members.erase(std::unique(rep.members.begin(), rep.members.end()),
                    rep.members.end());
  for (UserId u : rep.members) {
    if (u < 0 || u >= model.num_users) {
      return Status::InvalidArgument("member id " + std::to_string(u) +
                                     " outside [0, " +
                                     std::to_string(model.num_users) + ")");
    }
  }

  const size_t l = rep.members.size();
  const size_t d = static_cast<size_t>(model.dim);
  const RepView users = model.UserView();
  rep.member_emb = Tensor(l, d);
  for (size_t i = 0; i < l; ++i) {
    // DequantizeRow on a view handles every tier including fp64 (straight
    // copy) and reads owned and mmap'd storage identically.
    DequantizeRow(users, static_cast<size_t>(rep.members[i]),
                  &rep.member_emb.at(i, 0));
  }

  rep.pi.assign(l, 0.0);
  if (model.use_pi && model.w1.size() != 0) {
    // W2's peer concat is only defined for the trained group size; other
    // (ad-hoc) sizes keep the W1 self path and drop the peer term.
    const bool use_w2 = model.w2.size() != 0 &&
                        l == static_cast<size_t>(model.group_size) && l > 1;
    for (size_t i = 0; i < l; ++i) {
      Tensor pre = MatMul(rep.member_emb.RowAt(i), model.w1);  // (1 x d)
      if (use_w2) {
        Tensor peers(1, d * (l - 1));
        size_t off = 0;
        for (size_t j = 0; j < l; ++j) {
          if (j == i) continue;
          for (size_t c = 0; c < d; ++c) {
            peers.at(0, off + c) = rep.member_emb.at(j, c);
          }
          off += d;
        }
        pre.Add(MatMul(peers, model.w2));
      }
      pre.Add(model.bias);
      pre.Apply([](Scalar x) { return x > 0 ? x : 0.0; });
      rep.pi[i] = MatMul(pre, model.vc).item();
    }
  }
  return rep;
}

void ReduceScores(const FrozenModel& model, const GroupRep& rep,
                  const double* sp_logits, size_t ld, size_t n, double* out) {
  kernels::SoftmaxScoreReduce(rep.members.size(), n, model.use_sp, sp_logits,
                              ld, rep.pi.data(), out);
}

MemberStack::MemberStack(const FrozenModel& model) : model_(&model) {}

size_t MemberStack::Append(const GroupRep& rep) {
  const size_t start = rows_;
  const size_t l = rep.members.size();
  const size_t d = static_cast<size_t>(model_->dim);
  if (model_->quant == QuantType::kFp64) {
    emb_.insert(emb_.end(), rep.member_emb.data(),
                rep.member_emb.data() + l * d);
  } else {
    // Gather the packed code rows (and int8 scales) straight from the
    // artifact — the kernels consume the stored codes, so batching loses
    // nothing to a dequantize round trip. The view reads owned and
    // mmap'd artifacts through the same pointers.
    const RepView q = model_->UserView();
    const size_t rb = q.RowBytes();
    const size_t spr = q.ScalesPerRow();
    for (size_t i = 0; i < l; ++i) {
      const size_t u = static_cast<size_t>(rep.members[i]);
      codes_.insert(codes_.end(), q.RowData(u), q.RowData(u) + rb);
      if (spr != 0) {
        scales_.insert(scales_.end(), q.RowScales(u), q.RowScales(u) + spr);
      }
    }
  }
  rows_ += l;
  return start;
}

namespace {

/// Routes one S = A · B^T block to the precision's kernel. A is the
/// stacked member storage, B the (gathered or whole) item table at the
/// same precision. `c` is m x n row-major, leading dimension n,
/// overwritten.
void QuantSpGemm(QuantType type, uint32_t block, size_t m, size_t n,
                 size_t k, const uint8_t* a_codes, const float* a_scales,
                 const uint8_t* b_codes, const float* b_scales, double* c) {
  switch (type) {
    case QuantType::kInt8:
      kernels::QGemmInt8(m, n, k, block,
                         reinterpret_cast<const int8_t*>(a_codes), a_scales,
                         reinterpret_cast<const int8_t*>(b_codes), b_scales,
                         c, n);
      return;
    case QuantType::kFp16:
      kernels::QGemmFp16(m, n, k,
                         reinterpret_cast<const uint16_t*>(a_codes),
                         reinterpret_cast<const uint16_t*>(b_codes), c, n);
      return;
    case QuantType::kFp32:
      kernels::QGemmFp32(m, n, k, reinterpret_cast<const float*>(a_codes),
                         reinterpret_cast<const float*>(b_codes), c, n);
      return;
    case QuantType::kFp64:
      break;
  }
  KGAG_CHECK(false) << "fp64 model routed to quantized GEMM";
}

}  // namespace

void MemberStack::SpLogitsAllItems(double* out) const {
  KGAG_TRACE_SPAN("serve.score_kernel.gemm");
  SpLogitsTile(0, static_cast<size_t>(model_->num_items), out);
}

void MemberStack::SpLogitsTile(size_t first, size_t count,
                               double* out) const {
  KGAG_CHECK_LE(first + count, static_cast<size_t>(model_->num_items));
  const size_t d = static_cast<size_t>(model_->dim);
  const RepView qi = model_->ItemView();
  if (model_->quant == QuantType::kFp64) {
    std::fill(out, out + rows_ * count, 0.0);  // Gemm accumulates
    kernels::Gemm(/*trans_a=*/false, /*trans_b=*/true, rows_, count, d,
                  emb_.data(), d, qi.F64Data() + first * d, d, out, count);
    return;
  }
  QuantSpGemm(model_->quant, model_->quant_block, rows_, count, d,
              codes_.data(), scales_.data(), qi.RowData(first),
              qi.ScalesPerRow() != 0 ? qi.RowScales(first) : nullptr, out);
}

void MemberStack::SpLogits(std::span<const ItemId> items, double* out) const {
  const size_t d = static_cast<size_t>(model_->dim);
  const size_t p = items.size();
  const RepView qi = model_->ItemView();
  if (model_->quant == QuantType::kFp64) {
    Tensor cand(p, d);
    const double* item_rows = qi.F64Data();
    for (size_t i = 0; i < p; ++i) {
      KGAG_CHECK(items[i] >= 0 && items[i] < model_->num_items)
          << "item id out of range: " << items[i];
      const double* row = item_rows + static_cast<size_t>(items[i]) * d;
      for (size_t c = 0; c < d; ++c) cand.at(i, c) = row[c];
    }
    std::fill(out, out + rows_ * p, 0.0);
    kernels::Gemm(/*trans_a=*/false, /*trans_b=*/true, rows_, p, d,
                  emb_.data(), d, cand.data(), d, out, p);
    return;
  }
  const size_t rb = qi.RowBytes();
  const size_t spr = qi.ScalesPerRow();
  std::vector<uint8_t> cand_codes;
  std::vector<float> cand_scales;
  cand_codes.reserve(p * rb);
  cand_scales.reserve(p * spr);
  for (size_t i = 0; i < p; ++i) {
    KGAG_CHECK(items[i] >= 0 && items[i] < model_->num_items)
        << "item id out of range: " << items[i];
    const size_t v = static_cast<size_t>(items[i]);
    cand_codes.insert(cand_codes.end(), qi.RowData(v), qi.RowData(v) + rb);
    if (spr != 0) {
      cand_scales.insert(cand_scales.end(), qi.RowScales(v),
                         qi.RowScales(v) + spr);
    }
  }
  QuantSpGemm(model_->quant, model_->quant_block, rows_, p, d, codes_.data(),
              scales_.data(), cand_codes.data(), cand_scales.data(), out);
}

std::vector<double> ScoreAllItems(const FrozenModel& model,
                                  const GroupRep& rep) {
  const size_t n = static_cast<size_t>(model.num_items);
  MemberStack stack(model);
  stack.Append(rep);
  std::vector<double> sp(rep.members.size() * n);
  stack.SpLogitsAllItems(sp.data());
  std::vector<double> scores(n);
  ReduceScores(model, rep, sp.data(), n, n, scores.data());
  return scores;
}

std::vector<double> ScoreItems(const FrozenModel& model, const GroupRep& rep,
                               std::span<const ItemId> items) {
  const size_t p = items.size();
  MemberStack stack(model);
  stack.Append(rep);
  std::vector<double> sp(rep.members.size() * p);
  stack.SpLogits(items, sp.data());
  std::vector<double> scores(p);
  ReduceScores(model, rep, sp.data(), p, p, scores.data());
  return scores;
}

namespace {

// Items per scan tile: a tile's sp block (stacked member rows x kScanTile
// doubles, 512 KiB at 128 rows) and its item rows stay in a core's L2
// while the tile is reduced and ranked.
constexpr size_t kScanTile = 512;

}  // namespace

std::vector<RankedItems> ScanTopK(const FrozenModel& model,
                                  std::span<const GroupRep* const> reps,
                                  std::span<const ScanQuery> queries,
                                  ThreadPool* pool) {
  const size_t n = static_cast<size_t>(model.num_items);
  const size_t nq = queries.size();
  MemberStack stack(model);
  std::vector<size_t> row_offset;
  row_offset.reserve(reps.size());
  for (const GroupRep* rep : reps) row_offset.push_back(stack.Append(*rep));

  // k is clamped to the catalog before anything is sized by it; each
  // query's exclusions are sorted once so a tile filters them in one
  // forward walk.
  std::vector<size_t> k(nq);
  std::vector<std::vector<ItemId>> excluded(nq);
  for (size_t q = 0; q < nq; ++q) {
    KGAG_CHECK_LT(queries[q].group, reps.size());
    k[q] = std::min(queries[q].k, n);
    excluded[q].assign(queries[q].exclude.begin(), queries[q].exclude.end());
    std::sort(excluded[q].begin(), excluded[q].end());
  }

  const size_t tile = std::min(n, kScanTile);
  const size_t tiles = tile == 0 ? 0 : (n + tile - 1) / tile;
  // Each (tile, query) pair's top-k lands in its own slot of one flat
  // buffer, so the merge below reads the same entries whichever lane
  // ran which tile.
  std::vector<size_t> slot_begin(tiles * nq + 1, 0);
  for (size_t t = 0; t < tiles; ++t) {
    const size_t nt = std::min(tile, n - t * tile);
    for (size_t q = 0; q < nq; ++q) {
      const size_t s = t * nq + q;
      slot_begin[s + 1] = slot_begin[s] + std::min(k[q], nt);
    }
  }
  std::vector<TopKHeap::Entry> slots(slot_begin.back());
  std::vector<size_t> slot_size(tiles * nq, 0);

  // Lanes claim tiles dynamically, so a lane that starts late on a busy
  // pool just claims fewer; each owns its buffers and per-query heaps.
  std::atomic<size_t> next_tile{0};
  auto run_lane = [&](size_t /*lane*/) {
    std::vector<TopKHeap> heaps;
    heaps.reserve(nq);
    for (size_t q = 0; q < nq; ++q) heaps.emplace_back(k[q], tile);
    std::vector<double> sp(stack.rows() * tile);
    std::vector<double> scores(tile);
    for (size_t t = next_tile.fetch_add(1); t < tiles;
         t = next_tile.fetch_add(1)) {
      const size_t j0 = t * tile;
      const size_t nt = std::min(tile, n - j0);
      stack.SpLogitsTile(j0, nt, sp.data());
      for (size_t g = 0; g < reps.size(); ++g) {
        ReduceScores(model, *reps[g], sp.data() + row_offset[g] * nt, nt, nt,
                     scores.data());
        for (size_t q = 0; q < nq; ++q) {
          if (queries[q].group != g) continue;
          const std::vector<ItemId>& ex = excluded[q];
          auto next_ex = std::lower_bound(ex.begin(), ex.end(),
                                          static_cast<ItemId>(j0));
          for (size_t p = 0; p < nt; ++p) {
            const auto j = static_cast<ItemId>(j0 + p);
            while (next_ex != ex.end() && *next_ex < j) ++next_ex;
            if (next_ex != ex.end() && *next_ex == j) continue;
            heaps[q].Push(scores[p], j0 + p);
          }
          const std::vector<TopKHeap::Entry>& top = heaps[q].entries();
          std::copy(top.begin(), top.end(),
                    slots.begin() + slot_begin[t * nq + q]);
          slot_size[t * nq + q] = top.size();
          heaps[q].Clear();
        }
      }
    }
  };
  // A single lane (a one-tile catalog, or no pool) runs inline.
  const size_t lanes =
      pool == nullptr ? 1 : std::min(tiles, pool->num_threads() + 1);
  ForEachIndex(pool, lanes, run_lane);

  std::vector<RankedItems> out(nq);
  for (size_t q = 0; q < nq; ++q) {
    KGAG_TRACE_SPAN_REQ("serve.topk", queries[q].req_id);
    TopKHeap merged(k[q], n);
    for (size_t t = 0; t < tiles; ++t) {
      const auto first = slots.begin() + slot_begin[t * nq + q];
      for (auto it = first; it != first + slot_size[t * nq + q]; ++it) {
        merged.Push(it->first, it->second);
      }
    }
    const std::vector<TopKHeap::Entry> top = merged.TakeSorted();
    out[q].items.reserve(top.size());
    out[q].scores.reserve(top.size());
    for (const auto& [score, j] : top) {
      out[q].items.push_back(static_cast<ItemId>(j));
      out[q].scores.push_back(score);
    }
  }
  return out;
}

FrozenGroupScorer::FrozenGroupScorer(const FrozenModel* model,
                                     const GroupTable* groups)
    : model_(model), groups_(groups) {
  KGAG_CHECK(model != nullptr);
  KGAG_CHECK(groups != nullptr);
}

std::vector<double> FrozenGroupScorer::ScoreGroup(
    GroupId g, std::span<const ItemId> items) {
  Result<GroupRep> rep = BuildGroupRep(*model_, groups_->MembersOf(g));
  KGAG_CHECK(rep.ok()) << rep.status().ToString();
  return ScoreItems(*model_, *rep, items);
}

}  // namespace serve
}  // namespace kgag
