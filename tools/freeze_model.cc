// freeze_model: turn a trained KGAG model into a serving artifact.
//
// Reconstructs the model architecture (synthetic corpus + config, both
// derived from --seed/--scale the same way the benches do), restores
// trained parameters from one of
//   --params=FILE           a SaveParametersToFile blob, or
//   --checkpoint_dir=DIR    the newest intact training checkpoint, or
//   --epochs=N              trains N epochs right here (default 4),
// then runs the propagation layers once per entity and writes the
// KGAGSRV2 artifact (DESIGN.md §14) to --out (atomic write). The artifact
// is mapped back with every blob CRC checked and re-saved afterwards to
// prove the round trip is byte-stable.
//
// --precision={fp64,fp32,fp16,int8} quantizes the frozen rep tables at
// freeze time (DESIGN.md §11); --quant-block=B uses per-block int8
// scales (0 = per-row). The round-trip proof prints bytes-per-entity so
// the storage win is visible in the log.
//
// --bigworld switches to the synthetic serving-scale world (no training):
// rep tables, attention, groups and KG all derive deterministically from
// --seed at --users/--items/--groups/--dim scale, and the artifact is
// STREAMED — generation and encode run in --chunk-rows-sized pieces, so
// a million-user artifact never exists in memory.
//
//   ./build/tools/freeze_model --out model.srv
//   ./build/tools/freeze_model --out model.srv --precision=int8
//   ./build/tools/freeze_model --out model.srv --checkpoint_dir runs/ckpt
//   ./build/tools/freeze_model --out world.srv2 --bigworld
//       --users=1000000 --items=100000 --precision=fp16
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ckpt/checkpoint.h"
#include "common/file_io.h"
#include "common/stopwatch.h"
#include "data/synthetic/bigworld.h"
#include "data/synthetic/standard_datasets.h"
#include "models/kgag_model.h"
#include "serve/bigworld_freeze.h"
#include "serve/frozen_model.h"
#include "tensor/quant.h"
#include "tensor/serialization.h"

namespace {

struct Flags {
  std::string out;
  std::string params;
  std::string checkpoint_dir;
  double scale = 0.25;
  int seed = 7;
  int epochs = 4;
  kgag::QuantType precision = kgag::QuantType::kFp64;
  uint32_t quant_block = 0;
  bool bigworld = false;
  uint64_t users = 1'000'000;
  uint64_t items = 100'000;
  uint64_t groups = 100'000;
  uint32_t dim = 64;
  uint32_t group_size = 5;
  uint64_t chunk_rows = 8192;
};

Flags Parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* name) -> const char* {
      const std::string prefix = std::string(name) + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = val("--out")) f.out = v;
    else if (const char* vp = val("--params")) f.params = vp;
    else if (const char* vd = val("--checkpoint_dir")) f.checkpoint_dir = vd;
    else if (const char* vs = val("--scale")) f.scale = std::atof(vs);
    else if (const char* vn = val("--seed")) f.seed = std::atoi(vn);
    else if (const char* ve = val("--epochs")) f.epochs = std::atoi(ve);
    else if (const char* vq = val("--precision")) {
      if (!kgag::ParseQuantType(vq, &f.precision)) {
        std::fprintf(stderr,
                     "bad --precision (want fp64|fp32|fp16|int8): %s\n", vq);
        std::exit(2);
      }
    } else if (const char* vb = val("--quant-block")) {
      f.quant_block = static_cast<uint32_t>(std::atoi(vb));
    } else if (const char* vb2 = val("--quant_block")) {
      f.quant_block = static_cast<uint32_t>(std::atoi(vb2));
    } else if (arg == "--bigworld") {
      f.bigworld = true;
    } else if (const char* vu = val("--users")) {
      f.users = std::strtoull(vu, nullptr, 10);
    } else if (const char* vi = val("--items")) {
      f.items = std::strtoull(vi, nullptr, 10);
    } else if (const char* vg = val("--groups")) {
      f.groups = std::strtoull(vg, nullptr, 10);
    } else if (const char* vdm = val("--dim")) {
      f.dim = static_cast<uint32_t>(std::atoi(vdm));
    } else if (const char* vgs = val("--group-size")) {
      f.group_size = static_cast<uint32_t>(std::atoi(vgs));
    } else if (const char* vc = val("--chunk-rows")) {
      f.chunk_rows = std::strtoull(vc, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return f;
}

/// Streamed big-world freeze: generate + encode chunk by chunk, then
/// map/load the artifact back with full CRC verification as the
/// round-trip proof.
int RunBigWorld(const Flags& flags) {
  using namespace kgag;
  synthetic::BigWorldSpec spec;
  spec.num_users = flags.users;
  spec.num_items = flags.items;
  spec.num_groups = flags.groups;
  spec.dim = flags.dim;
  spec.group_size = flags.group_size;
  spec.seed = static_cast<uint64_t>(flags.seed);
  const synthetic::BigWorldGen gen(spec);

  serve::BigWorldFreezeOptions opt;
  opt.quant = flags.precision;
  opt.quant_block = flags.quant_block;
  opt.chunk_rows = flags.chunk_rows;

  Stopwatch watch;
  const Status s = serve::FreezeBigWorldV2(gen, opt, flags.out);
  if (!s.ok()) {
    std::fprintf(stderr, "bigworld freeze: %s\n", s.ToString().c_str());
    return 1;
  }
  const double freeze_ms = watch.ElapsedMicros() / 1000.0;

  // Round-trip proof: the artifact must map with its header and every
  // blob CRC verified, and agree with the spec's shape.
  watch.Restart();
  serve::MmapLoadOptions verify;
  verify.verify_crc = true;
  Result<serve::FrozenModel> loaded =
      serve::LoadFrozenModelMmap(flags.out, verify);
  if (!loaded.ok()) {
    std::fprintf(stderr, "bigworld verify: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const double verify_ms = watch.ElapsedMicros() / 1000.0;
  if (static_cast<uint64_t>(loaded->num_users) != spec.num_users ||
      static_cast<uint64_t>(loaded->num_items) != spec.num_items) {
    std::fprintf(stderr, "bigworld verify: shape mismatch\n");
    return 1;
  }

  std::printf(
      "wrote %s (KGAGSRV2): %llu users x %llu items, dim %u, group size "
      "%u, precision %s (%zu rep bytes/entity); freeze %.1f ms (streamed, "
      "chunk %llu rows), verify+CRC %.1f ms\n",
      flags.out.c_str(), static_cast<unsigned long long>(spec.num_users),
      static_cast<unsigned long long>(spec.num_items), spec.dim,
      spec.group_size, QuantTypeName(flags.precision),
      serve::RepBytesPerEntity(*loaded), freeze_ms,
      static_cast<unsigned long long>(opt.chunk_rows), verify_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kgag;
  const Flags flags = Parse(argc, argv);
  if (flags.out.empty()) {
    std::fprintf(stderr,
                 "usage: freeze_model --out=FILE "
                 "[--params=FILE | --checkpoint_dir=DIR | --epochs=N] "
                 "[--scale=S] [--seed=N] | --bigworld [--users=N --items=N "
                 "--groups=N --dim=D --group-size=L --chunk-rows=N]\n");
    return 2;
  }
  if (flags.bigworld) return RunBigWorld(flags);

  GroupRecDataset dataset = MakeMovieLensRandDataset(
      static_cast<uint64_t>(flags.seed), flags.scale);
  KgagConfig config;
  config.propagation.dim = 16;
  config.propagation.depth = 2;
  config.propagation.sample_size = 6;
  config.propagation.final_tanh = false;
  config.epochs = flags.epochs;
  auto model = KgagModel::Create(&dataset, config);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }

  if (!flags.params.empty()) {
    Status s = LoadParametersFromFile(flags.params, (*model)->params());
    if (!s.ok()) {
      std::fprintf(stderr, "params: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("restored parameters from %s\n", flags.params.c_str());
  } else if (!flags.checkpoint_dir.empty()) {
    ckpt::CheckpointManager mgr({.dir = flags.checkpoint_dir});
    Result<ckpt::TrainingState> state = mgr.LoadLatest();
    if (!state.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   state.status().ToString().c_str());
      return 1;
    }
    Status s = (*model)->RestoreTrainingState(*state, nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "restore: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("restored checkpoint from %s (epoch %llu)\n",
                flags.checkpoint_dir.c_str(),
                static_cast<unsigned long long>(state->epoch));
  } else {
    std::printf("training %d epochs (no --params/--checkpoint_dir)...\n",
                flags.epochs);
    (*model)->Fit();
  }

  Result<serve::FrozenModel> frozen = serve::FreezeKgagModel(model->get());
  if (!frozen.ok()) {
    std::fprintf(stderr, "freeze: %s\n", frozen.status().ToString().c_str());
    return 1;
  }
  if (flags.precision != QuantType::kFp64) {
    frozen = serve::QuantizeFrozenModel(*frozen, flags.precision,
                                        flags.quant_block);
    if (!frozen.ok()) {
      std::fprintf(stderr, "quantize: %s\n",
                   frozen.status().ToString().c_str());
      return 1;
    }
  }
  Status s = serve::SaveFrozenModelV2(*frozen, flags.out);
  if (!s.ok()) {
    std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    return 1;
  }

  // Round-trip check: map the artifact back with every blob CRC checked
  // and re-save it from the mapping; the bytes must match what is on disk.
  std::string on_disk;
  Status read = ReadFileToString(flags.out, &on_disk);
  std::string re_encoded;
  serve::MmapLoadOptions verify;
  verify.verify_crc = true;
  Result<serve::FrozenModel> loaded =
      serve::LoadFrozenModelMmap(flags.out, verify);
  Status enc = loaded.status();
  if (loaded.ok()) {
    const std::string tmp = flags.out + ".rt";
    enc = serve::SaveFrozenModelV2(*loaded, tmp);
    if (enc.ok()) enc = ReadFileToString(tmp, &re_encoded);
    std::remove(tmp.c_str());
  }
  if (!read.ok() || !enc.ok() || re_encoded != on_disk) {
    std::fprintf(stderr, "round-trip verification FAILED\n");
    return 1;
  }

  std::printf(
      "wrote %s (KGAGSRV2): %zu bytes, %d users x %d items, dim %d, "
      "group size %d (sp=%d pi=%d), precision %s (%zu rep bytes/entity); "
      "round-trip byte-stable\n",
      flags.out.c_str(), on_disk.size(), frozen->num_users, frozen->num_items,
      frozen->dim, frozen->group_size, frozen->use_sp ? 1 : 0,
      frozen->use_pi ? 1 : 0, QuantTypeName(frozen->quant),
      serve::RepBytesPerEntity(*frozen));
  return 0;
}
