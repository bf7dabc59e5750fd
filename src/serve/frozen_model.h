// Frozen serving artifact (DESIGN.md §10).
//
// Training needs the full propagation machinery per score; serving cannot
// afford it. Following the KGCN-style split, FreezeKgagModel runs the
// propagation layers ONCE per entity offline — each user/item entity is
// propagated with its own zero-order embedding as the query, a
// query-independent approximation of the query-conditioned eval path —
// and the resulting user/item representation matrices plus the attention
// weights (W1, W2, b, vc) are written to an immutable artifact. Online,
// a request only needs row gathers, one GEMM against the item matrix and
// a softmax per candidate (see frozen_scorer.h).
//
// The artifact is KGAGSRV2 (artifact_mmap.h, DESIGN.md §14), the one
// serving format: a CRC-protected header + blob index followed by the raw
// rep tables (codes, plus int8 scales) and the fp64 attention weights.
// SaveFrozenModelV2 writes it and LoadFrozenModelMmap maps it; the mapped
// model scores bit-identically to the in-memory one it was saved from.
// Encoding is deterministic: freezing the same model state twice yields
// byte-identical files (eval trees are seeded per node), and so does
// re-saving a mapped model. Quantized tiers (DESIGN.md §11) record their
// precision in the header's quant_type byte; an unknown tag is rejected
// with a clear error.
#ifndef KGAG_SERVE_FROZEN_MODEL_H_
#define KGAG_SERVE_FROZEN_MODEL_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "serve/artifact_mmap.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace kgag {

class KgagModel;

namespace serve {

/// \brief Immutable scoring state: everything the online path needs.
struct FrozenModel {
  int dim = 0;
  /// Member count the attention's W2 peer-concat was trained for; groups
  /// of any other size are served without the W2 term (see
  /// frozen_scorer.h).
  int group_size = 0;
  bool use_sp = true;
  bool use_pi = true;
  int32_t num_users = 0;
  int32_t num_items = 0;

  /// Rep-table storage precision. kFp64 (the default) keeps owned tables
  /// in user_emb/item_emb; any other tier keeps them in q_user/q_item
  /// instead and leaves the fp64 tensors 0x0.
  QuantType quant = QuantType::kFp64;
  /// Columns per int8 scale block (0 = per-row). Meaningless unless
  /// quant == kInt8.
  uint32_t quant_block = 0;

  Tensor user_emb;  ///< (num_users x dim), row u = user v (kFp64 only)
  Tensor item_emb;  ///< (num_items x dim), row v = item v (kFp64 only)
  QuantizedMatrix q_user;  ///< quantized tiers only
  QuantizedMatrix q_item;  ///< quantized tiers only

  // Attention weights; 0x0 tensors when the model was built without them
  // (ablations, group_size == 1). Always fp64: they are O(dim^2), not
  // O(entities), so quantizing them would save nothing and cost accuracy.
  // On an mmap-backed model these are COPIED out of the mapping at load
  // (O(dim^2) bytes — negligible), so the scorer's MatMul path is
  // identical either way.
  Tensor w1;    ///< (dim x dim)
  Tensor w2;    ///< (dim*(group_size-1) x dim)
  Tensor bias;  ///< (1 x dim)
  Tensor vc;    ///< (dim x 1)

  /// Non-null when the rep tables live inside an mmap'd KGAGSRV2
  /// artifact (LoadFrozenModelMmap). The mapping owns the bytes behind
  /// mapped_user/mapped_item; the owned tables above are then all empty.
  std::shared_ptr<MappedArtifact> mapping;
  RepView mapped_user;  ///< valid iff mapping != nullptr
  RepView mapped_item;  ///< valid iff mapping != nullptr

  bool is_mapped() const { return mapping != nullptr; }

  /// View of the user rep table wherever it lives — owned fp64 tensor,
  /// owned quantized matrix, or the mapping. THE way the scoring path
  /// reads rep rows: because in-memory and mmap-backed models expose the
  /// same bytes through the same view, the two are bit-identical by
  /// construction.
  RepView UserView() const;
  /// Item-table counterpart of UserView().
  RepView ItemView() const;
};

/// Resident bytes one entity row costs at the model's precision (codes
/// plus int8 scales; 8*dim for fp64). The number freeze_model prints and
/// /statusz reports.
size_t RepBytesPerEntity(const FrozenModel& model);

/// JSON description of a loaded artifact (precision, shapes, bytes per
/// entity) for /statusz.
std::string ArtifactStatusJson(const FrozenModel& model);

/// Returns a copy of `model` with the user/item rep tables quantized to
/// `type` (block `block` for int8). `model` must be full-precision
/// (quant == kFp64) and in memory, not mmap-backed; asking for kFp64
/// returns an unchanged copy. The attention weights pass through
/// untouched.
Result<FrozenModel> QuantizeFrozenModel(const FrozenModel& model,
                                        QuantType type, uint32_t block = 0);

/// Runs propagation for every user and item entity and captures the
/// attention weights. The model must be constructed (trained or with
/// restored parameters); it is not modified beyond its eval-tree cache.
Result<FrozenModel> FreezeKgagModel(KgagModel* model);

/// Writes the model as a KGAGSRV2 artifact (temp + fsync + rename).
/// Reads the tables through views, so it works from an owned OR an
/// mmap-backed model; re-saving a mapped model reproduces its file byte
/// for byte.
Status SaveFrozenModelV2(const FrozenModel& model, const std::string& path);

/// Maps a KGAGSRV2 artifact: header/index validated (and blob CRCs too
/// when options.verify_crc), rep tables exposed as views into the
/// mapping, attention weights copied into owned tensors. O(header) work —
/// no rep bytes are read until queries touch them. This is the only
/// artifact loader.
Result<FrozenModel> LoadFrozenModelMmap(
    const std::string& path, const MappedArtifact::Options& options = {});

}  // namespace serve
}  // namespace kgag

#endif  // KGAG_SERVE_FROZEN_MODEL_H_
