// Access-order pin for the production kernels: on one fixed shape
// (k >= 3) the KernelStats of the fused kernels (fused_eval,
// fused_values, mt_fused, mt_fused_vals) and of the paper's three-kernel
// pipeline (GpuEvaluator full and values-only, its separate-powers
// ablation, and BatchGpuEvaluator's batch triple) are asserted field by
// field against recorded constants.
// The warp collector keys coalescing on per-thread load/store ordinals,
// so any reordering of a kernel's loads, stores or op counts moves these
// numbers (and the modeled clock) even when every output stays bitwise
// equal -- which the parity suites cannot see.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/batch_evaluator.hpp"
#include "core/gpu_evaluator.hpp"
#include "core/multitenant_evaluator.hpp"
#include "poly/random_system.hpp"
#include "simt/device.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

constexpr unsigned kN = 8, kM = 6, kK = 4, kD = 3, kBatch = 4, kBlock = 32;

poly::PolynomialSystem pin_system(std::uint64_t seed) {
  poly::SystemSpec spec;
  spec.dimension = kN;
  spec.monomials_per_polynomial = kM;
  spec.variables_per_monomial = kK;
  spec.max_exponent = kD;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

std::vector<std::vector<Cd>> pin_points() {
  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < kBatch; ++p)
    points.push_back(poly::make_random_point<double>(kN, 4100 + p));
  return points;
}

/// The recorded stats, one row per kernel in launch order; every
/// KernelStats field, in declaration order.
struct Pin {
  const char* kernel;
  std::uint64_t blocks, threads, warps;
  std::uint64_t mul_total, add_total, mul_max, add_max;
  std::uint64_t ld_req, ld_tx, st_req, st_tx, ld_bytes, st_bytes;
  std::uint64_t sh_req, sh_cycles, const_reads, inactive, races;
  std::uint64_t warps_per_block, residency, waves, busiest, shared_bytes;
};

constexpr Pin kPins[] = {
    {"fused_eval", 4, 128, 4, 3680, 1440, 39, 15, 116, 340, 52, 552, 43520, 19968,
     108, 172, 1536, 96, 0, 1, 8, 1, 1, 512},
    {"fused_values", 4, 128, 4, 1568, 160, 17, 5, 36, 52, 12, 52, 6656, 3584, 84,
     148, 1536, 192, 0, 1, 8, 1, 1, 512},
    {"mt_fused", 4, 128, 4, 3680, 1440, 39, 15, 120, 344, 116, 944, 44032, 44544,
     108, 170, 1536, 96, 0, 1, 8, 1, 1, 512},
    {"mt_fused_vals", 4, 128, 4, 1568, 160, 17, 5, 40, 56, 12, 52, 7168, 3584, 84,
     146, 1536, 192, 0, 1, 8, 1, 1, 512},
};

constexpr Pin kThreeKernelPins[] = {
    // GpuEvaluator::evaluate, then evaluate_values (which relaunches
    // kernel 1).
    {"common_factors", 2, 64, 2, 160, 0, 4, 0, 2, 2, 2, 6, 256, 768, 16, 32, 384,
     64, 0, 1, 8, 1, 1, 384},
    {"speelpenning", 2, 64, 2, 768, 0, 16, 0, 14, 38, 10, 129, 4864, 3840, 86, 226,
     192, 64, 0, 1, 8, 1, 1, 2688},
    {"summation", 3, 96, 3, 0, 360, 0, 5, 18, 54, 3, 9, 6912, 1152, 0, 0, 0, 24, 0,
     1, 8, 1, 1, 0},
    {"common_factors", 2, 64, 2, 160, 0, 4, 0, 2, 2, 2, 6, 256, 768, 16, 32, 384,
     64, 0, 1, 8, 1, 1, 384},
    {"values_only", 2, 64, 2, 240, 0, 5, 0, 6, 14, 2, 12, 1792, 768, 10, 10, 192,
     64, 0, 1, 8, 1, 1, 128},
    {"values_sum", 1, 32, 1, 0, 40, 0, 5, 6, 6, 1, 1, 768, 128, 0, 0, 0, 24,
     0, 1, 8, 1, 1, 0},
    // The separate-powers ablation's evaluate.
    {"powers_global", 1, 32, 1, 8, 0, 1, 0, 1, 1, 3, 3, 128, 384, 0, 0, 0, 24, 0, 1,
     8, 1, 1, 0},
    {"cfactors_global", 2, 64, 2, 144, 0, 3, 0, 8, 24, 2, 6, 3072, 768, 0, 0,
     384, 16, 0, 1, 8, 1, 1, 0},
    {"speelpenning", 2, 64, 2, 768, 0, 16, 0, 14, 38, 10, 129, 4864, 3840, 86, 226,
     192, 64, 0, 1, 8, 1, 1, 2688},
    {"summation", 3, 96, 3, 0, 360, 0, 5, 18, 54, 3, 9, 6912, 1152, 0, 0, 0, 24, 0,
     1, 8, 1, 1, 0},
    // BatchGpuEvaluator at batch kBatch, block kBlock, AoS.
    {"batch_cfactors", 8, 256, 8, 640, 0, 4, 0, 8, 8, 8, 24, 1024, 3072, 64, 128,
     1536, 256, 0, 1, 8, 1, 1, 384},
    {"batch_speel", 8, 256, 8, 3072, 0, 16, 0, 56, 152, 40, 516, 19456, 15360, 344,
     904, 768, 256, 0, 1, 8, 1, 1, 2688},
    {"batch_sum", 12, 384, 12, 0, 1440, 0, 5, 72, 216, 12, 36, 27648, 4608, 0, 0, 0,
     96, 0, 1, 8, 1, 1, 0},
};

void expect_pinned(const Pin& want, const simt::KernelStats& got) {
  const std::string k = want.kernel;
  EXPECT_EQ(got.kernel, k);
  EXPECT_EQ(got.blocks, want.blocks) << k;
  EXPECT_EQ(got.threads, want.threads) << k;
  EXPECT_EQ(got.warps, want.warps) << k;
  EXPECT_EQ(got.complex_mul_total, want.mul_total) << k;
  EXPECT_EQ(got.complex_add_total, want.add_total) << k;
  EXPECT_EQ(got.complex_mul_per_thread_max, want.mul_max) << k;
  EXPECT_EQ(got.complex_add_per_thread_max, want.add_max) << k;
  EXPECT_EQ(got.global_load_requests, want.ld_req) << k;
  EXPECT_EQ(got.global_load_transactions, want.ld_tx) << k;
  EXPECT_EQ(got.global_store_requests, want.st_req) << k;
  EXPECT_EQ(got.global_store_transactions, want.st_tx) << k;
  EXPECT_EQ(got.global_bytes_loaded, want.ld_bytes) << k;
  EXPECT_EQ(got.global_bytes_stored, want.st_bytes) << k;
  EXPECT_EQ(got.shared_requests, want.sh_req) << k;
  EXPECT_EQ(got.shared_cycles, want.sh_cycles) << k;
  EXPECT_EQ(got.constant_reads, want.const_reads) << k;
  EXPECT_EQ(got.inactive_lane_phases, want.inactive) << k;
  EXPECT_EQ(got.race_hazards, want.races) << k;
  EXPECT_EQ(got.warps_per_block, want.warps_per_block) << k;
  EXPECT_EQ(got.concurrent_blocks_per_sm, want.residency) << k;
  EXPECT_EQ(got.waves, want.waves) << k;
  EXPECT_EQ(got.warps_on_busiest_sm, want.busiest) << k;
  EXPECT_EQ(got.shared_bytes_per_block, want.shared_bytes) << k;
}

TEST(KernelStatsPin, FusedAndMultiTenantKernelsKeepTheirAccessOrder) {
  const auto sys_a = pin_system(601);
  const auto sys_b = pin_system(602);
  const auto points = pin_points();
  std::vector<simt::KernelStats> got;

  {
    simt::Device device;
    core::FusedGpuEvaluator<double>::Options opt;
    opt.block_size = kBlock;
    opt.interchange = core::InterchangeLayout::kAoS;
    core::FusedGpuEvaluator<double> ev(device, sys_a, kBatch, opt);
    std::vector<poly::EvalResult<double>> results;
    ev.evaluate(points, results);
    std::vector<Cd> values(std::size_t{kBatch} * kN);
    ev.evaluate_values_range(points, 0, kBatch, std::span<Cd>(values));
    for (const auto& s : device.log().kernels) got.push_back(s);
  }
  {
    simt::Device device;
    core::MultiTenantFusedEvaluator<double>::Options opt;
    opt.block_size = kBlock;
    opt.interchange = core::InterchangeLayout::kAoS;
    core::MultiTenantFusedEvaluator<double> ev(
        device, core::pack_system(sys_a).structure, /*max_tenants=*/2, kBatch, opt);
    ev.set_tenant(0, sys_a);
    ev.set_tenant(1, sys_b);
    const std::vector<unsigned> tenants = {0, 1, 1, 0};
    ev.bind_tenants(std::span<const unsigned>(tenants));
    std::vector<poly::EvalResult<double>> results(kBatch, poly::EvalResult<double>(kN));
    ev.evaluate_range(points, 0, kBatch,
                      std::span<poly::EvalResult<double>>(results));
    std::vector<Cd> values(std::size_t{kBatch} * kN);
    ev.evaluate_values_range(points, 0, kBatch, std::span<Cd>(values));
    for (const auto& s : device.log().kernels) got.push_back(s);
  }
  ASSERT_EQ(got.size(), std::size(kPins));
  for (std::size_t i = 0; i < got.size(); ++i) expect_pinned(kPins[i], got[i]);
}

TEST(KernelStatsPin, ThreeKernelPipelineKeepsItsAccessOrder) {
  const auto sys = pin_system(601);
  const auto points = pin_points();
  std::vector<simt::KernelStats> got;

  {
    simt::Device device;
    core::GpuEvaluator<double> ev(device, sys);
    poly::EvalResult<double> result(kN);
    ev.evaluate(std::span<const Cd>(points[0]), result);
    std::vector<Cd> values(kN);
    ev.evaluate_values(std::span<const Cd>(points[0]), std::span<Cd>(values));
    for (const auto& s : device.log().kernels) got.push_back(s);
  }
  {
    simt::Device device;
    core::GpuEvaluator<double>::Options opt;
    opt.powers = core::GpuEvaluator<double>::PowersStrategy::kSeparateKernel;
    core::GpuEvaluator<double> ev(device, sys, opt);
    poly::EvalResult<double> result(kN);
    ev.evaluate(std::span<const Cd>(points[0]), result);
    for (const auto& s : device.log().kernels) got.push_back(s);
  }
  {
    simt::Device device;
    core::BatchGpuEvaluator<double>::Options opt;
    opt.block_size = kBlock;
    opt.interchange = core::InterchangeLayout::kAoS;
    opt.tuning = tune::TuningMode::kHeuristic;
    core::BatchGpuEvaluator<double> ev(device, sys, kBatch, opt);
    std::vector<poly::EvalResult<double>> results;
    ev.evaluate(points, results);
    for (const auto& s : device.log().kernels) got.push_back(s);
  }
  ASSERT_EQ(got.size(), std::size(kThreeKernelPins));
  for (std::size_t i = 0; i < got.size(); ++i) expect_pinned(kThreeKernelPins[i], got[i]);
}

}  // namespace
