#include "serve/bigworld_freeze.h"

#include <algorithm>
#include <vector>

#include "serve/artifact_mmap.h"
#include "tensor/tensor.h"

namespace kgag {
namespace serve {

namespace {

using synthetic::BigWorldGen;
using synthetic::BigWorldSpec;

using RowFiller = void (BigWorldGen::*)(uint64_t, uint64_t, double*) const;

/// Deterministic attention tensors at the world's shapes.
struct BigWorldAttention {
  Tensor w1, w2, bias, vc;
};

BigWorldAttention MakeAttention(const BigWorldGen& gen) {
  const BigWorldSpec& spec = gen.spec();
  const size_t d = spec.dim;
  BigWorldAttention a;
  a.w1 = Tensor(d, d);
  a.w2 = Tensor(d * (spec.group_size - 1), d);
  a.bias = Tensor(1, d);
  a.vc = Tensor(d, 1);
  gen.Attention(a.w1.data(), a.w2.data(), a.bias.data(), a.vc.data());
  return a;
}

ArtifactV2Meta MakeMeta(const BigWorldSpec& spec,
                        const BigWorldFreezeOptions& options) {
  ArtifactV2Meta meta;
  meta.dim = spec.dim;
  meta.group_size = spec.group_size;
  meta.use_sp = true;
  meta.use_pi = true;
  meta.num_users = static_cast<uint32_t>(spec.num_users);
  meta.num_items = static_cast<uint32_t>(spec.num_items);
  meta.quant_type = static_cast<uint8_t>(options.quant);
  meta.quant_block = options.quant == QuantType::kInt8 ? options.quant_block : 0;
  return meta;
}

/// Streams one rep table into an open v2 codes blob: generate a chunk of
/// fp64 rows, quantize in place (row-local, so chunking is invisible in
/// the codes), append; int8 scales collect in `scales_out` for the
/// separate scales blob that follows.
Status StreamTableV2(ArtifactV2Writer* w, const BigWorldGen& gen,
                     RowFiller fill, uint64_t rows, uint32_t codes_tag,
                     uint32_t scales_tag, const BigWorldFreezeOptions& opt) {
  const uint64_t d = gen.spec().dim;
  const QuantType q = opt.quant;
  const uint32_t block = q == QuantType::kInt8 ? opt.quant_block : 0;
  const size_t spr = QuantScalesPerRow(q, d, block);
  const uint64_t chunk = std::max<uint64_t>(1, opt.chunk_rows);

  std::vector<double> raw(chunk * d);
  std::vector<uint8_t> codes(q == QuantType::kFp64 ? 0
                                                   : chunk * d * QuantElemBytes(q));
  std::vector<float> scales;
  scales.reserve(rows * spr);

  KGAG_RETURN_NOT_OK(w->BeginBlob(codes_tag));
  for (uint64_t start = 0; start < rows; start += chunk) {
    const uint64_t n = std::min(chunk, rows - start);
    (gen.*fill)(start, n, raw.data());
    if (q == QuantType::kFp64) {
      KGAG_RETURN_NOT_OK(w->Append(raw.data(), n * d * sizeof(double)));
    } else {
      std::vector<float> chunk_scales(n * spr);
      QuantizeRows(q, block, n, d, raw.data(), codes.data(),
                   chunk_scales.data());
      KGAG_RETURN_NOT_OK(w->Append(codes.data(), n * d * QuantElemBytes(q)));
      scales.insert(scales.end(), chunk_scales.begin(), chunk_scales.end());
    }
  }
  KGAG_RETURN_NOT_OK(w->EndBlob());
  return w->AddBlob(scales_tag, scales.data(), scales.size() * sizeof(float));
}

}  // namespace

Status FreezeBigWorldV2(const BigWorldGen& gen,
                        const BigWorldFreezeOptions& options,
                        const std::string& path) {
  const BigWorldSpec& spec = gen.spec();
  const BigWorldAttention attn = MakeAttention(gen);
  const ArtifactV2Meta meta = MakeMeta(spec, options);

  const uint8_t rep_dtype = meta.quant_type;
  const uint8_t f32 = static_cast<uint8_t>(QuantType::kFp32);
  const uint8_t f64 = static_cast<uint8_t>(QuantType::kFp64);
  const size_t spr =
      QuantScalesPerRow(options.quant, spec.dim, meta.quant_block);
  std::vector<BlobSpec> specs;
  specs.push_back({kBlobUserRep, rep_dtype, spec.num_users, spec.dim});
  specs.push_back({kBlobUserScales, f32, spec.num_users, spr});
  specs.push_back({kBlobItemRep, rep_dtype, spec.num_items, spec.dim});
  specs.push_back({kBlobItemScales, f32, spec.num_items, spr});
  specs.push_back({kBlobAttnW1, f64, attn.w1.rows(), attn.w1.cols()});
  specs.push_back({kBlobAttnW2, f64, attn.w2.rows(), attn.w2.cols()});
  specs.push_back({kBlobAttnBias, f64, attn.bias.rows(), attn.bias.cols()});
  specs.push_back({kBlobAttnVc, f64, attn.vc.rows(), attn.vc.cols()});

  ArtifactV2Writer w;
  KGAG_RETURN_NOT_OK(w.Open(path, meta, specs));
  KGAG_RETURN_NOT_OK(StreamTableV2(&w, gen, &BigWorldGen::UserRows,
                                   spec.num_users, kBlobUserRep,
                                   kBlobUserScales, options));
  KGAG_RETURN_NOT_OK(StreamTableV2(&w, gen, &BigWorldGen::ItemRows,
                                   spec.num_items, kBlobItemRep,
                                   kBlobItemScales, options));
  KGAG_RETURN_NOT_OK(
      w.AddBlob(kBlobAttnW1, attn.w1.data(), attn.w1.size() * sizeof(double)));
  KGAG_RETURN_NOT_OK(
      w.AddBlob(kBlobAttnW2, attn.w2.data(), attn.w2.size() * sizeof(double)));
  KGAG_RETURN_NOT_OK(w.AddBlob(kBlobAttnBias, attn.bias.data(),
                               attn.bias.size() * sizeof(double)));
  KGAG_RETURN_NOT_OK(
      w.AddBlob(kBlobAttnVc, attn.vc.data(), attn.vc.size() * sizeof(double)));
  return w.Finish();
}

}  // namespace serve
}  // namespace kgag
