#include "core/compiled_extractor.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/obs.h"
#include "common/thread_pool.h"
#include "core/extractor.h"
#include "nn/layers.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace mandipass::core {

namespace {

/// The int8 instantiation reports under nn.qplan.*, the float one under
/// nn.plan.*; the int8 trunk also takes the arena for its activations.
template <class TrunkGemm>
constexpr bool kInt8 = std::is_same_v<TrunkGemm, nn::PackedQuantizedGemm>;

/// Packs the first `axes` axes of one direction into a dense (axes, half)
/// float plane — the pack_branches layout, minus the Tensor and the
/// intermediate GradientArray copy.
void pack_plane(const std::array<std::vector<double>, imu::kAxisCount>& axis_data,
                std::size_t axes, std::size_t half, float* plane) {
  for (std::size_t a = 0; a < axes; ++a) {
    const double* src = axis_data[a].data();
    float* dst = plane + a * half;
    for (std::size_t w = 0; w < half; ++w) {
      dst[w] = static_cast<float>(src[w]);
    }
  }
}

CompiledExtractor::Plans compile_float(BiometricExtractor& source) {
  MANDIPASS_OBS_TRACE(trace_compile, "nn.plan.compile_us");
  const ExtractorConfig& cfg = source.config();
  CompiledExtractor::Plans plans;
  plans.positive = nn::InferencePlan::compile(source.branch_positive(), cfg.axes, cfg.half_length);
  plans.negative = nn::InferencePlan::compile(source.branch_negative(), cfg.axes, cfg.half_length);

  nn::Sequential& trunk = source.trunk();
  auto* linear =
      trunk.layer_count() >= 1 ? dynamic_cast<nn::Linear*>(&trunk.layer(0)) : nullptr;
  auto* sigmoid =
      trunk.layer_count() == 2 ? dynamic_cast<nn::Sigmoid*>(&trunk.layer(1)) : nullptr;
  if (linear == nullptr || sigmoid == nullptr) {
    throw ShapeError(  // mandilint: allow(no-throw-in-datapath) -- deploy-time model compilation
        "CompiledExtractor expects a Linear -> Sigmoid trunk");
  }
  const std::vector<nn::Param*> lp = linear->params();
  plans.trunk.pack_rows(lp[0]->value.data(), lp[1]->value.data(), linear->out_features(),
                        linear->in_features());
  return plans;
}

}  // namespace

template <class BranchPlan, class TrunkGemm>
PlanExtractor<BranchPlan, TrunkGemm>::PlanExtractor(std::size_t axes, std::size_t half_length,
                                                    Plans plans)
    : axes_(axes), half_(half_length), plans_(std::move(plans)) {
  MANDIPASS_EXPECTS(plans_.positive.feature_count() == plans_.negative.feature_count());
  MANDIPASS_EXPECTS(plans_.trunk.cols() == 2 * plans_.positive.feature_count());
}

template <class BranchPlan, class TrunkGemm>
void PlanExtractor<BranchPlan, TrunkGemm>::embed_tile(const GradientArray* arrays,
                                                      std::size_t count, float* out,
                                                      nn::ScratchArena& arena) const {
  const std::size_t flat = plans_.positive.feature_count();
  float* concat = arena.alloc(count * 2 * flat);
  for (std::size_t p = 0; p < count; ++p) {
    float* pos_plane = arena.alloc(plane_count());
    float* neg_plane = arena.alloc(plane_count());
    pack_plane(arrays[p].positive, axes_, half_, pos_plane);
    pack_plane(arrays[p].negative, axes_, half_, neg_plane);
    float* c = concat + p * 2 * flat;
    plans_.positive.run(pos_plane, c, arena);
    plans_.negative.run(neg_plane, c + flat, arena);
  }
  if constexpr (kInt8<TrunkGemm>) {
    plans_.trunk.run(concat, count, 2 * flat, out, count, nn::Epilogue::Sigmoid, arena);
  } else {
    plans_.trunk.run(concat, count, 2 * flat, out, count, nn::Epilogue::Sigmoid);
  }
  MANDIPASS_OBS_COUNT_N(kInt8<TrunkGemm> ? "nn.qplan.fused_forwards" : "nn.plan.fused_forwards",
                        count);
}

template <class BranchPlan, class TrunkGemm>
std::vector<float> PlanExtractor<BranchPlan, TrunkGemm>::extract(
    const GradientArray& array) const {
  MANDIPASS_EXPECTS(array.half_length() == half_);
  nn::ScratchArena& arena = nn::thread_scratch_arena();
  arena.assert_owner();  // thread_local, so trivially ours; claims the capability
  arena.reset();
  std::vector<float> out(embedding_dim());
  embed_tile(&array, 1, out.data(), arena);  // a one-sample tile is already row-major
  return out;
}

template <class BranchPlan, class TrunkGemm>
std::vector<std::vector<float>> PlanExtractor<BranchPlan, TrunkGemm>::extract_batch(
    std::span<const GradientArray> arrays) const {
  // Validate up front, on the caller: precondition failures must not fire
  // on pool workers mid-batch.
  for (const GradientArray& a : arrays) {
    MANDIPASS_EXPECTS(a.half_length() == half_);
  }
  std::vector<std::vector<float>> out(arrays.size());
  const std::size_t dim = embedding_dim();
  // Samples are processed in tiles of kSampleTile: the tile's branch
  // features are gathered into one concat matrix, then a single trunk run
  // streams the (large) packed trunk weights once per tile instead of
  // once per sample — the trunk is memory-bound, so this amortization is
  // where most of the batch throughput comes from. Per output element the
  // result is tile-size-invariant, so it stays bit-identical to extract()
  // and to any other batch/thread split.
  common::parallel_for(0, arrays.size(), kSampleTile, [&](std::size_t lo, std::size_t hi) {
    nn::ScratchArena& arena = nn::thread_scratch_arena();
    arena.assert_owner();  // this worker's own arena; claims the capability
    for (std::size_t base = lo; base < hi; base += kSampleTile) {
      const std::size_t count = std::min(kSampleTile, hi - base);
      arena.reset();
      float* tile_out = arena.alloc(dim * count);
      embed_tile(arrays.data() + base, count, tile_out, arena);
      for (std::size_t p = 0; p < count; ++p) {
        out[base + p].resize(dim);
        for (std::size_t r = 0; r < dim; ++r) {
          out[base + p][r] = tile_out[r * count + p];
        }
      }
    }
  });
  MANDIPASS_OBS_GAUGE_SET(kInt8<TrunkGemm> ? "nn.qplan.bytes_arena" : "nn.plan.bytes_arena",
                          nn::thread_scratch_arena().capacity_bytes());
  return out;
}

template class PlanExtractor<nn::InferencePlan, nn::PackedGemm>;
template class PlanExtractor<nn::QuantizedInferencePlan, nn::PackedQuantizedGemm>;

CompiledExtractor::CompiledExtractor(BiometricExtractor& source)
    : PlanExtractor(source.config().axes, source.config().half_length,
                    compile_float(source)) {}

}  // namespace mandipass::core
