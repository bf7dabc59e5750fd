#include "serve/frozen_model.h"

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "models/kgag_model.h"

namespace kgag {
namespace serve {

namespace {

/// Finds a parameter's tensor by name, or an empty tensor when the model
/// was built without it (ablations create no attention parameters).
Tensor ParamOrEmpty(const ParameterStore& store, std::string_view name) {
  for (const auto& p : store.params()) {
    if (p->name == name) return p->value;
  }
  return Tensor();
}

Status ShapeError(const std::string& what) {
  return Status::InvalidArgument("frozen model: " + what);
}

/// Checks one quantized rep table against the meta chunk: precision tag,
/// shape, block geometry and code/scale buffer sizes must all agree.
Status ValidateQuantTable(const QuantizedMatrix& q, const FrozenModel& m,
                          size_t rows, const char* what) {
  if (q.type != m.quant) return ShapeError(std::string(what) + " precision tag mismatch");
  if (q.block != m.quant_block) {
    return ShapeError(std::string(what) + " scale-block mismatch");
  }
  if (q.rows != rows || q.cols != static_cast<size_t>(m.dim)) {
    return ShapeError(std::string(what) + " shape mismatch");
  }
  if (q.data.size() != q.rows * q.RowBytes()) {
    return ShapeError(std::string(what) + " code buffer size mismatch");
  }
  if (q.scales.size() != q.rows * q.ScalesPerRow()) {
    return ShapeError(std::string(what) + " scale buffer size mismatch");
  }
  return Status::OK();
}

/// Checks a mapped rep-table view against the meta fields.
Status ValidateMappedView(const RepView& v, const FrozenModel& m, size_t rows,
                          const char* what) {
  if (v.codes == nullptr && rows * static_cast<size_t>(m.dim) != 0) {
    return ShapeError(std::string(what) + " view has no data");
  }
  if (v.type != m.quant) {
    return ShapeError(std::string(what) + " precision tag mismatch");
  }
  if (v.block != m.quant_block) {
    return ShapeError(std::string(what) + " scale-block mismatch");
  }
  if (v.rows != rows || v.cols != static_cast<size_t>(m.dim)) {
    return ShapeError(std::string(what) + " shape mismatch");
  }
  if (v.ScalesPerRow() != 0 && v.scales == nullptr) {
    return ShapeError(std::string(what) + " missing int8 scales");
  }
  return Status::OK();
}

/// Meta-driven shape validation shared by the loader (hostile bytes) and
/// the writer (programming errors surface before a broken file is written).
Status ValidateShapes(const FrozenModel& m) {
  if (m.dim <= 0) return ShapeError("non-positive dim");
  if (m.group_size <= 0) return ShapeError("non-positive group size");
  if (m.num_users < 0 || m.num_items < 0) {
    return ShapeError("negative entity count");
  }
  const size_t d = static_cast<size_t>(m.dim);
  if (m.is_mapped()) {
    if (m.user_emb.size() != 0 || m.item_emb.size() != 0 ||
        !m.q_user.empty() || !m.q_item.empty()) {
      return ShapeError("mapped model carries owned rep tables");
    }
    KGAG_RETURN_NOT_OK(ValidateMappedView(
        m.mapped_user, m, static_cast<size_t>(m.num_users), "mapped user table"));
    KGAG_RETURN_NOT_OK(ValidateMappedView(
        m.mapped_item, m, static_cast<size_t>(m.num_items), "mapped item table"));
  } else if (m.quant == QuantType::kFp64) {
    if (!m.q_user.empty() || !m.q_item.empty()) {
      return ShapeError("fp64 model carries quantized tables");
    }
    if (m.user_emb.rows() != static_cast<size_t>(m.num_users) ||
        m.user_emb.cols() != d) {
      return ShapeError("user embedding shape mismatch");
    }
    if (m.item_emb.rows() != static_cast<size_t>(m.num_items) ||
        m.item_emb.cols() != d) {
      return ShapeError("item embedding shape mismatch");
    }
  } else {
    if (m.user_emb.size() != 0 || m.item_emb.size() != 0) {
      return ShapeError("quantized model carries fp64 tables");
    }
    KGAG_RETURN_NOT_OK(ValidateQuantTable(
        m.q_user, m, static_cast<size_t>(m.num_users), "quantized user table"));
    KGAG_RETURN_NOT_OK(ValidateQuantTable(
        m.q_item, m, static_cast<size_t>(m.num_items), "quantized item table"));
  }
  if (m.w1.size() != 0 && (m.w1.rows() != d || m.w1.cols() != d)) {
    return ShapeError("W1 shape mismatch");
  }
  if (m.w2.size() != 0 &&
      (m.w2.cols() != d ||
       m.w2.rows() != d * static_cast<size_t>(m.group_size - 1))) {
    return ShapeError("W2 shape mismatch");
  }
  if (m.bias.size() != 0 && (m.bias.rows() != 1 || m.bias.cols() != d)) {
    return ShapeError("bias shape mismatch");
  }
  if (m.vc.size() != 0 && (m.vc.rows() != d || m.vc.cols() != 1)) {
    return ShapeError("vc shape mismatch");
  }
  if (m.use_pi && (m.w1.size() == 0 || m.bias.size() == 0 ||
                   m.vc.size() == 0)) {
    return ShapeError("peer influence enabled but attention weights absent");
  }
  return Status::OK();
}

}  // namespace

RepView FrozenModel::UserView() const {
  if (is_mapped()) return mapped_user;
  if (quant == QuantType::kFp64) return MakeRepView(user_emb);
  return MakeRepView(q_user);
}

RepView FrozenModel::ItemView() const {
  if (is_mapped()) return mapped_item;
  if (quant == QuantType::kFp64) return MakeRepView(item_emb);
  return MakeRepView(q_item);
}

size_t RepBytesPerEntity(const FrozenModel& model) {
  const size_t d = static_cast<size_t>(model.dim);
  return d * QuantElemBytes(model.quant) +
         QuantScalesPerRow(model.quant, d, model.quant_block) * sizeof(float);
}

std::string ArtifactStatusJson(const FrozenModel& model) {
  std::ostringstream os;
  os << "{\"precision\":\"" << QuantTypeName(model.quant) << "\""
     << ",\"dim\":" << model.dim << ",\"group_size\":" << model.group_size
     << ",\"num_users\":" << model.num_users
     << ",\"num_items\":" << model.num_items
     << ",\"use_sp\":" << (model.use_sp ? "true" : "false")
     << ",\"use_pi\":" << (model.use_pi ? "true" : "false")
     << ",\"rep_bytes_per_entity\":" << RepBytesPerEntity(model);
  if (model.quant == QuantType::kInt8) {
    os << ",\"quant_block\":" << model.quant_block;
  }
  os << ",\"layout\":\"" << (model.is_mapped() ? "mmap" : "heap") << "\"";
  if (model.is_mapped()) {
    os << ",\"mapped_bytes\":" << model.mapping->mapped_bytes()
       << ",\"resident_bytes\":" << model.mapping->ResidentBytes();
  }
  os << "}";
  return os.str();
}

Result<FrozenModel> QuantizeFrozenModel(const FrozenModel& model,
                                        QuantType type, uint32_t block) {
  KGAG_RETURN_NOT_OK(ValidateShapes(model));
  if (model.is_mapped()) {
    return Status::InvalidArgument(
        "frozen model: cannot quantize an mmap-backed model; quantize the "
        "in-memory model before saving it");
  }
  if (model.quant != QuantType::kFp64) {
    return Status::InvalidArgument(
        "frozen model: can only quantize a full-precision model");
  }
  if (type == QuantType::kFp64) return model;
  if (type != QuantType::kInt8) block = 0;
  if (block > static_cast<uint32_t>(model.dim)) {
    return Status::InvalidArgument(
        "frozen model: quant block exceeds rep dim");
  }
  FrozenModel out = model;
  out.quant = type;
  out.quant_block = block;
  out.q_user = QuantizeMatrix(model.user_emb, type, block);
  out.q_item = QuantizeMatrix(model.item_emb, type, block);
  out.user_emb = Tensor();
  out.item_emb = Tensor();
  KGAG_RETURN_NOT_OK(ValidateShapes(out));
  return out;
}

Result<FrozenModel> FreezeKgagModel(KgagModel* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("null model");
  }
  const KgagConfig& cfg = model->config();
  const GroupRecDataset* ds = model->dataset();

  FrozenModel out;
  out.dim = cfg.propagation.dim;
  out.group_size = ds->group_size;
  out.use_sp = cfg.use_sp;
  out.use_pi = cfg.use_pi;
  out.num_users = ds->num_users;
  out.num_items = ds->num_items;
  out.user_emb = model->ServingUserReps();
  out.item_emb = model->ServingItemReps();

  const ParameterStore& store = *model->params();
  out.w1 = ParamOrEmpty(store, "attn.W1");
  out.w2 = ParamOrEmpty(store, "attn.W2");
  out.bias = ParamOrEmpty(store, "attn.b");
  out.vc = ParamOrEmpty(store, "attn.vc");

  KGAG_RETURN_NOT_OK(ValidateShapes(out));
  return out;
}

namespace {

/// Blob declarations + payload streaming for SaveFrozenModelV2 — reads
/// through views so owned and mapped models encode identically.
struct V2Tables {
  RepView user;
  RepView item;
};

Status AppendAttnBlob(ArtifactV2Writer* w, uint32_t tag, const Tensor& t) {
  return w->AddBlob(tag, t.data(), t.size() * sizeof(double));
}

}  // namespace

Status SaveFrozenModelV2(const FrozenModel& model, const std::string& path) {
  KGAG_RETURN_NOT_OK(ValidateShapes(model));
  const V2Tables tables{model.UserView(), model.ItemView()};

  ArtifactV2Meta meta;
  meta.dim = static_cast<uint32_t>(model.dim);
  meta.group_size = static_cast<uint32_t>(model.group_size);
  meta.use_sp = model.use_sp;
  meta.use_pi = model.use_pi;
  meta.num_users = static_cast<uint32_t>(model.num_users);
  meta.num_items = static_cast<uint32_t>(model.num_items);
  meta.quant_type = static_cast<uint8_t>(model.quant);
  meta.quant_block = model.quant_block;

  const uint8_t rep_dtype = static_cast<uint8_t>(model.quant);
  const uint8_t f32 = static_cast<uint8_t>(QuantType::kFp32);
  const uint8_t f64 = static_cast<uint8_t>(QuantType::kFp64);
  std::vector<BlobSpec> specs;
  specs.push_back({kBlobUserRep, rep_dtype, tables.user.rows, tables.user.cols});
  specs.push_back({kBlobUserScales, f32, tables.user.rows,
                   tables.user.ScalesPerRow()});
  specs.push_back({kBlobItemRep, rep_dtype, tables.item.rows, tables.item.cols});
  specs.push_back({kBlobItemScales, f32, tables.item.rows,
                   tables.item.ScalesPerRow()});
  specs.push_back({kBlobAttnW1, f64, model.w1.rows(), model.w1.cols()});
  specs.push_back({kBlobAttnW2, f64, model.w2.rows(), model.w2.cols()});
  specs.push_back({kBlobAttnBias, f64, model.bias.rows(), model.bias.cols()});
  specs.push_back({kBlobAttnVc, f64, model.vc.rows(), model.vc.cols()});

  ArtifactV2Writer w;
  KGAG_RETURN_NOT_OK(w.Open(path, meta, specs));
  KGAG_RETURN_NOT_OK(w.AddBlob(kBlobUserRep, tables.user.codes,
                               tables.user.rows * tables.user.RowBytes()));
  KGAG_RETURN_NOT_OK(w.AddBlob(
      kBlobUserScales, tables.user.scales,
      tables.user.rows * tables.user.ScalesPerRow() * sizeof(float)));
  KGAG_RETURN_NOT_OK(w.AddBlob(kBlobItemRep, tables.item.codes,
                               tables.item.rows * tables.item.RowBytes()));
  KGAG_RETURN_NOT_OK(w.AddBlob(
      kBlobItemScales, tables.item.scales,
      tables.item.rows * tables.item.ScalesPerRow() * sizeof(float)));
  KGAG_RETURN_NOT_OK(AppendAttnBlob(&w, kBlobAttnW1, model.w1));
  KGAG_RETURN_NOT_OK(AppendAttnBlob(&w, kBlobAttnW2, model.w2));
  KGAG_RETURN_NOT_OK(AppendAttnBlob(&w, kBlobAttnBias, model.bias));
  KGAG_RETURN_NOT_OK(AppendAttnBlob(&w, kBlobAttnVc, model.vc));
  return w.Finish();
}

namespace {

/// Copies an attention blob into an owned Tensor (raw doubles, so the
/// values are bit-identical to the tensor that was saved). A non-empty
/// blob must have the (rows x cols) shape the header's dim/group_size
/// imply; that is checked before anything is allocated.
Status CopyAttnTensor(const MappedArtifact& m, uint32_t tag, uint64_t rows,
                      uint64_t cols, Tensor* out) {
  const BlobEntry* e = m.Find(tag);
  if (e == nullptr) return ShapeError("missing attention blob");
  if (e->dtype != static_cast<uint8_t>(QuantType::kFp64)) {
    return ShapeError("attention blob is not fp64");
  }
  if (e->rows == 0 || e->cols == 0) {
    *out = Tensor();
    return Status::OK();
  }
  if (e->rows != rows || e->cols != cols) {
    return ShapeError("attention blob shape does not match the header");
  }
  *out = Tensor(e->rows, e->cols);
  std::memcpy(out->data(), m.BlobData(*e), e->nbytes);
  return Status::OK();
}

/// Checks a table's scales blob against its codes blob: int8 tables need
/// one fp32 scale per row and scale block, every other tier carries none.
/// Returns the scales entry the view should use (null when the tier has
/// no scales).
Result<const BlobEntry*> CheckedScales(const MappedArtifact& m, uint32_t tag,
                                       const BlobEntry& codes,
                                       const char* what) {
  const BlobEntry* e = m.Find(tag);
  const ArtifactV2Meta& meta = m.meta();
  const size_t spr =
      QuantScalesPerRow(static_cast<QuantType>(meta.quant_type),
                        static_cast<size_t>(codes.cols), meta.quant_block);
  if (spr == 0) {
    if (e != nullptr && e->nbytes != 0) {
      return ShapeError(std::string(what) +
                        " has scales but its precision takes none");
    }
    return static_cast<const BlobEntry*>(nullptr);
  }
  if (e == nullptr) {
    return ShapeError(std::string(what) + " missing int8 scales");
  }
  if (e->dtype != static_cast<uint8_t>(QuantType::kFp32)) {
    return ShapeError(std::string(what) + " scales are not fp32");
  }
  if (e->rows != codes.rows || e->cols != spr) {
    return ShapeError(std::string(what) +
                      " scales shape does not match its codes");
  }
  return e;
}

}  // namespace

Result<FrozenModel> LoadFrozenModelMmap(const std::string& path,
                                        const MappedArtifact::Options& options) {
  Result<std::shared_ptr<MappedArtifact>> mapped =
      MappedArtifact::Map(path, options);
  KGAG_RETURN_NOT_OK(mapped.status());
  const std::shared_ptr<MappedArtifact>& m = *mapped;
  const ArtifactV2Meta& meta = m->meta();
  if (meta.quant_type > static_cast<uint8_t>(QuantType::kInt8)) {
    return ShapeError("unknown quantization type tag " +
                      std::to_string(static_cast<int>(meta.quant_type)) +
                      " (artifact written by a newer build?)");
  }

  FrozenModel out;
  out.dim = static_cast<int>(meta.dim);
  out.group_size = static_cast<int>(meta.group_size);
  out.use_sp = meta.use_sp;
  out.use_pi = meta.use_pi;
  out.num_users = static_cast<int32_t>(meta.num_users);
  out.num_items = static_cast<int32_t>(meta.num_items);
  out.quant = static_cast<QuantType>(meta.quant_type);
  out.quant_block = meta.quant_block;

  const BlobEntry* urep = m->Find(kBlobUserRep);
  const BlobEntry* irep = m->Find(kBlobItemRep);
  if (urep == nullptr || irep == nullptr) {
    return ShapeError("missing rep table blob");
  }
  Result<const BlobEntry*> uscl =
      CheckedScales(*m, kBlobUserScales, *urep, "user table");
  KGAG_RETURN_NOT_OK(uscl.status());
  Result<const BlobEntry*> iscl =
      CheckedScales(*m, kBlobItemScales, *irep, "item table");
  KGAG_RETURN_NOT_OK(iscl.status());
  out.mapped_user = MakeRepView(*m, *urep, *uscl);
  out.mapped_item = MakeRepView(*m, *irep, *iscl);

  const uint64_t d = meta.dim;
  const uint64_t peers = meta.group_size == 0 ? 0 : meta.group_size - 1;
  KGAG_RETURN_NOT_OK(CopyAttnTensor(*m, kBlobAttnW1, d, d, &out.w1));
  KGAG_RETURN_NOT_OK(CopyAttnTensor(*m, kBlobAttnW2, d * peers, d, &out.w2));
  KGAG_RETURN_NOT_OK(CopyAttnTensor(*m, kBlobAttnBias, 1, d, &out.bias));
  KGAG_RETURN_NOT_OK(CopyAttnTensor(*m, kBlobAttnVc, d, 1, &out.vc));

  out.mapping = m;
  KGAG_RETURN_NOT_OK(ValidateShapes(out));
  return out;
}

}  // namespace serve
}  // namespace kgag
