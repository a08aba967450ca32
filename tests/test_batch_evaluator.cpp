// The batched evaluator: exact agreement with per-point evaluation,
// launch accounting (one upload, three launches, one download per
// batch), argument validation, and the amortization property the
// extension exists for.

#include <gtest/gtest.h>

#include <cstring>

#include "core/batch_evaluator.hpp"
#include "core/gpu_evaluator.hpp"
#include "poly/random_system.hpp"
#include "prec/quad_double.hpp"
#include "simt/timing.hpp"

namespace {

using namespace polyeval;
using Cd = cplx::Complex<double>;

poly::PolynomialSystem make(unsigned n, unsigned m, unsigned k, unsigned d) {
  poly::SystemSpec spec;
  spec.dimension = n;
  spec.monomials_per_polynomial = m;
  spec.variables_per_monomial = k;
  spec.max_exponent = d;
  spec.seed = 97;
  return poly::make_random_system(spec);
}

/// Every value and Jacobian entry of the batched result must be the
/// single-point pipeline's, byte for byte.
template <prec::RealScalar S>
void expect_batch_matches_single(const poly::PolynomialSystem& sys, unsigned block,
                                 core::InterchangeLayout interchange) {
  using C = cplx::Complex<S>;
  constexpr unsigned kPoints = 5;
  simt::Device d1, d2;
  typename core::GpuEvaluator<S>::Options sopt;
  sopt.interchange = interchange;
  core::GpuEvaluator<S> single(d1, sys, sopt);
  typename core::BatchGpuEvaluator<S>::Options bopt;
  bopt.block_size = block;
  bopt.interchange = interchange;
  core::BatchGpuEvaluator<S> batch(d2, sys, kPoints, bopt);
  const unsigned n = single.dimension();

  std::vector<std::vector<C>> points;
  for (unsigned p = 0; p < kPoints; ++p)
    points.push_back(poly::make_random_point<S>(n, 200 + p));

  std::vector<poly::EvalResult<S>> batched;
  batch.evaluate(points, batched);
  ASSERT_EQ(batched.size(), kPoints);

  for (unsigned p = 0; p < kPoints; ++p) {
    const auto want = single.evaluate(std::span<const C>(points[p]));
    ASSERT_EQ(batched[p].values.size(), want.values.size());
    ASSERT_EQ(batched[p].jacobian.size(), want.jacobian.size());
    EXPECT_EQ(std::memcmp(want.values.data(), batched[p].values.data(),
                          want.values.size() * sizeof(C)),
              0)
        << "values, point " << p;
    EXPECT_EQ(std::memcmp(want.jacobian.data(), batched[p].jacobian.data(),
                          want.jacobian.size() * sizeof(C)),
              0)
        << "jacobian, point " << p;
  }
}

// k == 1 and k == 2 take the Speelpenning body's edge branches; k == 4
// its general prefix/suffix loop.  48 monomials per point: two blocks
// per point at block 32, one partly idle block at block 64.
TEST(BatchEvaluator, MatchesPerPointEvaluationExactly) {
  for (const unsigned k : {1u, 2u, 4u}) {
    const auto sys = make(8, 6, k, 3);
    for (const unsigned block : {32u, 64u}) {
      for (const auto interchange :
           {core::InterchangeLayout::kAoS, core::InterchangeLayout::kSoA}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " block=" << block << " interchange="
                     << (interchange == core::InterchangeLayout::kAoS ? "AoS" : "SoA"));
        {
          SCOPED_TRACE("double");
          expect_batch_matches_single<double>(sys, block, interchange);
        }
        {
          SCOPED_TRACE("dd");
          expect_batch_matches_single<prec::DoubleDouble>(sys, block, interchange);
        }
        {
          SCOPED_TRACE("qd");
          expect_batch_matches_single<prec::QuadDouble>(sys, block, interchange);
        }
      }
    }
  }
}

TEST(BatchEvaluator, OneUploadThreeLaunchesOneDownload) {
  const auto sys = make(8, 6, 4, 3);
  simt::Device device;
  core::BatchGpuEvaluator<double> batch(device, sys, 16);
  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < 16; ++p)
    points.push_back(poly::make_random_point<double>(8, 400 + p));
  std::vector<poly::EvalResult<double>> results;
  batch.evaluate(points, results);

  const auto& log = batch.last_log();
  EXPECT_EQ(log.kernels.size(), 3u);
  EXPECT_EQ(log.transfers.transfers_to_device, 1u);
  EXPECT_EQ(log.transfers.transfers_from_device, 1u);
  EXPECT_EQ(log.transfers.bytes_to_device, 16u * 8u * sizeof(Cd));
  EXPECT_EQ(log.transfers.bytes_from_device, 16u * (8u * 8u + 8u) * sizeof(Cd));
}

TEST(BatchEvaluator, GridScalesWithBatch) {
  const auto sys = make(8, 8, 4, 2);  // 64 monomials: 2 blocks of 32
  simt::Device device;
  core::BatchGpuEvaluator<double> batch(device, sys, 4);
  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < 4; ++p)
    points.push_back(poly::make_random_point<double>(8, 500 + p));
  std::vector<poly::EvalResult<double>> results;
  batch.evaluate(points, results);

  EXPECT_EQ(batch.last_log().kernels[0].blocks, 4u * 2u);
  EXPECT_EQ(batch.last_log().kernels[1].blocks, 4u * 2u);
}

TEST(BatchEvaluator, PartialBatchAllowed) {
  const auto sys = make(6, 4, 3, 2);
  simt::Device device;
  core::BatchGpuEvaluator<double> batch(device, sys, 8);
  std::vector<std::vector<Cd>> points = {poly::make_random_point<double>(6, 600),
                                         poly::make_random_point<double>(6, 601)};
  std::vector<poly::EvalResult<double>> results;
  EXPECT_NO_THROW(batch.evaluate(points, results));
  EXPECT_EQ(results.size(), 2u);
}

TEST(BatchEvaluator, ValidatesArguments) {
  const auto sys = make(6, 4, 3, 2);
  simt::Device device;
  EXPECT_THROW(core::BatchGpuEvaluator<double>(device, sys, 0), std::invalid_argument);

  core::BatchGpuEvaluator<double> batch(device, sys, 2);
  std::vector<poly::EvalResult<double>> results;
  std::vector<std::vector<Cd>> none;
  EXPECT_THROW(batch.evaluate(none, results), std::invalid_argument);
  std::vector<std::vector<Cd>> too_many(3, poly::make_random_point<double>(6, 1));
  EXPECT_THROW(batch.evaluate(too_many, results), std::invalid_argument);
  std::vector<std::vector<Cd>> wrong_dim = {std::vector<Cd>(5)};
  EXPECT_THROW(batch.evaluate(wrong_dim, results), std::invalid_argument);
}

TEST(BatchEvaluator, AmortizesTheLaunchFloor) {
  const auto sys = make(32, 22, 9, 2);  // Table 1, 704 monomials
  const simt::DeviceSpec dspec;
  const simt::GpuCostModel gmodel;

  const auto per_eval_us = [&](unsigned batch_size) {
    simt::Device device;
    core::BatchGpuEvaluator<double> batch(device, sys, batch_size);
    std::vector<std::vector<Cd>> points;
    for (unsigned p = 0; p < batch_size; ++p)
      points.push_back(poly::make_random_point<double>(32, 700 + p));
    std::vector<poly::EvalResult<double>> results;
    batch.evaluate(points, results);
    return simt::estimate_log_us(batch.last_log(), dspec, gmodel) / batch_size;
  };

  const double t1 = per_eval_us(1);
  const double t16 = per_eval_us(16);
  EXPECT_LT(t16, 0.5 * t1);  // the fixed floor dominates t1
}

TEST(BatchEvaluator, BatchOfOneMatchesSingleEvaluator) {
  const auto sys = make(8, 6, 4, 3);
  simt::Device d1, d2;
  core::GpuEvaluator<double> single(d1, sys);
  core::BatchGpuEvaluator<double> batch(d2, sys, 1);
  const auto x = poly::make_random_point<double>(8, 800);
  std::vector<poly::EvalResult<double>> results;
  batch.evaluate({x}, results);
  const auto want = single.evaluate(std::span<const Cd>(x));
  EXPECT_EQ(poly::max_abs_diff(want, results[0]), 0.0);
}

}  // namespace
