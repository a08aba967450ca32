// pick_block_size: the fused pipeline's default block geometry.  Pins
// the heuristic's choices on the repo's reference workloads (so a
// change to the formula is a deliberate, visible decision), checks its
// structural invariants, and verifies the evaluators actually consume
// it as the default.

#include <gtest/gtest.h>

#include "core/batch_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
#include "poly/random_system.hpp"

namespace {

using namespace polyeval;
using core::pick_block_size;

TEST(BlockHeuristic, FullGridsGetOneWarp) {
  // Once the batch covers the 14 Fermi SMs, inter-block parallelism
  // already hides latency; the narrow block minimizes per-block cost.
  EXPECT_EQ(pick_block_size(16, 22, 9, 16, 14), 32u);   // bench_batch dim 16
  EXPECT_EQ(pick_block_size(32, 22, 9, 16, 14), 32u);   // bench_batch dim 32
  EXPECT_EQ(pick_block_size(16, 22, 9, 256, 14), 32u);  // bench_sharding batches
  EXPECT_EQ(pick_block_size(8, 6, 4, 14, 14), 32u);     // boundary: batch == SMs
}

TEST(BlockHeuristic, UnderFullGridsWiden) {
  // Small batches leave SMs idle, so the block widens to move
  // parallelism inside the point.
  EXPECT_EQ(pick_block_size(16, 22, 9, 1, 14), 64u);   // single-point tracker
  EXPECT_EQ(pick_block_size(16, 4, 2, 8, 14), 64u);    // pipeline micro-chunks
  EXPECT_EQ(pick_block_size(8, 6, 4, 4, 14), 32u);     // small system stays narrow
  EXPECT_EQ(pick_block_size(32, 22, 9, 1, 14), 160u);  // wide system, lone point
}

TEST(BlockHeuristic, SpecAwareSeedUsesTheDeviceSmCount) {
  // The SM count comes from the owning DeviceSpec instead of being
  // hard-coded to Fermi's 14: the same batch that widens on a
  // 14-SM part stays narrow on a 4-SM part (batch >= SMs) and widens
  // on a 30-SM part (batch < SMs).
  EXPECT_EQ(pick_block_size(16, 22, 9, 8, 4), 32u);    // 8 >= 4 SMs: one warp
  EXPECT_EQ(pick_block_size(16, 22, 9, 8, 14), 64u);   // 8 < 14 SMs: widened
  EXPECT_EQ(pick_block_size(16, 22, 9, 16, 30), 64u);  // 16 < 30 SMs: widened
  EXPECT_EQ(pick_block_size(16, 22, 9, 16, 0), 32u);   // degenerate spec clamps
}

TEST(BlockHeuristic, CapsAndClamps) {
  // Never wider than 256, never narrower than one warp, and never
  // wider than the narrower per-point loop can feed.
  EXPECT_EQ(pick_block_size(64, 60, 9, 1, 14), 256u);
  EXPECT_EQ(pick_block_size(1, 1, 1, 1, 14), 32u);
  EXPECT_EQ(pick_block_size(2, 2, 1, 1, 14), 32u);
  for (const unsigned n : {1u, 4u, 16u, 64u})
    for (const unsigned m : {1u, 8u, 32u})
      for (const unsigned k : {1u, 4u, 9u})
        for (const unsigned batch : {1u, 8u, 64u}) {
          const unsigned block = pick_block_size(n, m, k, batch, 14);
          EXPECT_GE(block, 32u) << n << "," << m << "," << k << "," << batch;
          EXPECT_LE(block, 256u) << n << "," << m << "," << k << "," << batch;
          EXPECT_EQ(block % 32u, 0u) << n << "," << m << "," << k << "," << batch;
        }
}

TEST(BlockHeuristic, EvaluatorsUseItAsTheHeuristicSeed) {
  // Under TuningMode::kHeuristic the evaluators resolve their auto
  // geometry with pick_block_size exactly (the pinned escape hatch);
  // the default kMeasured mode is exercised in test_tune.cpp.
  poly::SystemSpec spec;
  spec.dimension = 8;
  spec.monomials_per_polynomial = 6;
  spec.variables_per_monomial = 4;
  spec.max_exponent = 3;
  const auto sys = poly::make_random_system(spec);

  {
    simt::Device device;
    core::FusedGpuEvaluator<double>::Options opt;
    opt.tuning = tune::TuningMode::kHeuristic;
    core::FusedGpuEvaluator<double> fused(device, sys, 4, opt);
    EXPECT_EQ(fused.options().block_size,
              pick_block_size(8, 6, 4, 4, device.spec().multiprocessors));
    EXPECT_EQ(fused.options().interchange, core::InterchangeLayout::kAoS);
  }
  {
    // The pipelined evaluator launches micro-chunk grids, so its
    // default comes from the micro-chunk, not the batch capacity; its
    // heuristic stream count is the historical two.
    simt::Device device;
    core::PipelinedFusedEvaluator<double>::Options opt;
    opt.micro_chunk = 2;
    opt.tuning = tune::TuningMode::kHeuristic;
    core::PipelinedFusedEvaluator<double> pipelined(device, sys, 16, opt);
    EXPECT_EQ(pipelined.options().block_size,
              pick_block_size(8, 6, 4, 2, device.spec().multiprocessors));
    EXPECT_EQ(pipelined.streams(), 2u);
  }
  {
    // An explicit block size still wins, and pinning it also pins the
    // layout to the heuristic seed even in measured mode (a half-pinned
    // key would poison the tune cache).
    simt::Device device;
    core::FusedGpuEvaluator<double>::Options opt;
    opt.block_size = 128;
    core::FusedGpuEvaluator<double> fused(device, sys, 4, opt);
    EXPECT_EQ(fused.options().block_size, 128u);
    EXPECT_EQ(fused.options().interchange, core::InterchangeLayout::kAoS);
  }
  {
    // The three-kernel evaluator's seed is the paper's one-warp block,
    // whatever the batch shape.
    simt::Device device;
    core::BatchGpuEvaluator<double>::Options opt;
    opt.tuning = tune::TuningMode::kHeuristic;
    core::BatchGpuEvaluator<double> batch(device, sys, 4, opt);
    EXPECT_EQ(batch.options().block_size, 32u);
    EXPECT_EQ(batch.options().interchange, core::InterchangeLayout::kAoS);
  }
  {
    // Pinning the stream count alone pins the other pipelined knobs to
    // their seeds even in measured mode: the micro-chunk's
    // pick_block_size (64 here, where the 16-point capacity would give
    // 32) and AoS.
    poly::SystemSpec wide;
    wide.dimension = 16;
    wide.monomials_per_polynomial = 22;
    wide.variables_per_monomial = 9;
    wide.max_exponent = 2;
    const auto wide_sys = poly::make_random_system(wide);
    simt::Device device;
    const unsigned sms = device.spec().multiprocessors;
    ASSERT_EQ(pick_block_size(16, 22, 9, 2, sms), 64u);
    ASSERT_EQ(pick_block_size(16, 22, 9, 16, sms), 32u);
    core::PipelinedFusedEvaluator<double>::Options opt;
    opt.micro_chunk = 2;
    opt.streams = 3;
    const std::size_t misses = tune::Autotuner::global().misses();
    core::PipelinedFusedEvaluator<double> pipelined(device, wide_sys, 16, opt);
    EXPECT_EQ(tune::Autotuner::global().misses(), misses);
    EXPECT_EQ(pipelined.options().block_size, 64u);
    EXPECT_EQ(pipelined.options().interchange, core::InterchangeLayout::kAoS);
    EXPECT_EQ(pipelined.streams(), 3u);
  }
}

TEST(BlockHeuristic, MeasuredDefaultResolvesToALegalGeometry) {
  // The default (kMeasured) route may pick any probed candidate, but
  // the resolved options must always be concrete and launchable.
  poly::SystemSpec spec;
  spec.dimension = 8;
  spec.monomials_per_polynomial = 6;
  spec.variables_per_monomial = 4;
  spec.max_exponent = 3;
  const auto sys = poly::make_random_system(spec);

  simt::Device device;
  core::FusedGpuEvaluator<double> fused(device, sys, 4);
  EXPECT_GE(fused.options().block_size, 32u);
  EXPECT_LE(fused.options().block_size, 256u);
  EXPECT_EQ(fused.options().block_size % 32u, 0u);
  EXPECT_TRUE(fused.options().interchange.has_value());
}

}  // namespace
