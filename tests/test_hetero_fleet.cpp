// Heterogeneous-fleet scheduling: per-device-spec registry
// construction, throughput weights ordered by clock x cores, the
// weighted_split primitive, bitwise parity of sharded evaluation across
// kWorkStealing / kStatic / kWeightedStatic on a mixed fleet (double,
// double-double, quad-double), weighted placement actually shifting
// work onto the fast device, and TuneCache sharing: a mixed registry
// probes once per DISTINCT DeviceSpec instead of aliasing shard 0's
// geometry onto everyone.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/gpu_evaluator.hpp"
#include "core/sharded_evaluator.hpp"
#include "core/weighted_schedule.hpp"
#include "poly/random_system.hpp"
#include "service/system_cache.hpp"
#include "tune/autotuner.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem make_system(unsigned n, unsigned m, unsigned k, unsigned d,
                                   std::uint64_t seed = 77) {
  poly::SystemSpec spec;
  spec.dimension = n;
  spec.monomials_per_polynomial = m;
  spec.variables_per_monomial = k;
  spec.max_exponent = d;
  spec.seed = seed;
  return poly::make_random_system(spec);
}

template <prec::RealScalar S>
std::vector<std::vector<cplx::Complex<S>>> points_for(unsigned batch, unsigned dim,
                                                      std::uint64_t seed) {
  std::vector<std::vector<cplx::Complex<S>>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<S>(dim, seed + p));
  return points;
}

template <prec::RealScalar S>
void expect_bitwise(const std::vector<poly::EvalResult<S>>& want,
                    const std::vector<poly::EvalResult<S>>& got, const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t p = 0; p < want.size(); ++p)
    EXPECT_EQ(poly::max_abs_diff(want[p], got[p]), 0.0) << label << ", point " << p;
}

/// The standard 2x-asymmetric two-device fleet: a full-clock card and a
/// half-clock derate of the same geometry.
std::vector<simt::DeviceSpec> asym_fleet() {
  const auto fast = simt::DeviceSpec::tesla_c2050();
  return {fast, fast.derated(0.5, "half-clock C2050 (simulated)")};
}

// ----- DeviceRegistry construction and weights -----------------------

TEST(DeviceRegistry, PerDeviceSpecsRoundTrip) {
  auto specs = asym_fleet();
  simt::DeviceRegistry registry(specs, 1);
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.spec(0).name, specs[0].name);
  EXPECT_EQ(registry.spec(1).name, specs[1].name);
  EXPECT_EQ(registry.spec(0), specs[0]);
  EXPECT_EQ(registry.spec(1), specs[1]);
  EXPECT_DOUBLE_EQ(registry.spec(1).core_clock_mhz,
                   specs[0].core_clock_mhz * 0.5);
  EXPECT_TRUE(registry.heterogeneous());

  simt::DeviceRegistry uniform(2, specs[0], 1);
  EXPECT_FALSE(uniform.heterogeneous());
  EXPECT_DOUBLE_EQ(uniform.throughput_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(uniform.throughput_weight(1), 1.0);
}

TEST(DeviceRegistry, ThroughputWeightOrderingMatchesClockTimesCores) {
  // Three specs whose clock x cores products are strictly ordered, and
  // not by clock alone: the middle one has the highest clock but the
  // fewest SMs.
  auto big = simt::DeviceSpec::tesla_c2050();     // 14 SM x 32 @ 1147
  auto small = big;
  small.multiprocessors = 4;                      // 4 SM x 32 @ 1400
  small.core_clock_mhz = 1400.0;
  small.name = "small-hot";
  auto mid = big.derated(0.75, "mid");            // 14 SM x 32 @ 860.25

  simt::DeviceRegistry registry({big, mid, small}, 1);
  EXPECT_DOUBLE_EQ(registry.throughput_weight(0), 1.0);  // fastest
  EXPECT_GT(registry.throughput_weight(1), registry.throughput_weight(2));
  // Weights are the normalized clock x cores products exactly.
  EXPECT_DOUBLE_EQ(registry.throughput_weight(1),
                   mid.modeled_throughput() / big.modeled_throughput());
  EXPECT_DOUBLE_EQ(registry.throughput_weight(2),
                   small.modeled_throughput() / big.modeled_throughput());
}

TEST(DeviceRegistry, RejectsEmptyFleet) {
  EXPECT_THROW(simt::DeviceRegistry(std::vector<simt::DeviceSpec>{}, 1),
               std::invalid_argument);
}

// ----- weighted_split -------------------------------------------------

TEST(WeightedSplit, ProportionalAndExhaustive) {
  const double w[] = {1.0, 0.5};
  const auto quota = core::weighted_split(12, w);
  ASSERT_EQ(quota.size(), 2u);
  EXPECT_EQ(quota[0] + quota[1], 12u);
  EXPECT_EQ(quota[0], 8u);  // 2:1 split
  EXPECT_EQ(quota[1], 4u);
}

TEST(WeightedSplit, RemainderMinimizesModeledFinishTime) {
  const double w[] = {1.0, 1.0, 1.0};
  const auto quota = core::weighted_split(10, w);
  EXPECT_EQ(quota[0] + quota[1] + quota[2], 10u);
  // floor(10/3) each, the leftover to the earliest-finishing (tie ->
  // lowest-index) shard.
  EXPECT_EQ(quota[0], 4u);
  EXPECT_EQ(quota[1], 3u);
  EXPECT_EQ(quota[2], 3u);

  // Two leftovers spread round-robin instead of piling onto shard 0.
  const auto q2 = core::weighted_split(11, w);
  EXPECT_EQ(q2[0], 4u);
  EXPECT_EQ(q2[1], 4u);
  EXPECT_EQ(q2[2], 3u);

  // Asymmetric fleet where the floored shares already favor the fast
  // shard: the leftover belongs on the SLOW shard, whose queue finishes
  // sooner (6/0.585 = 10.3 < 11/1.0).  Handing it to the heaviest
  // shard instead would stretch the modeled makespan by ~9%.
  const double asym[] = {1.0, 0.585};
  const auto q3 = core::weighted_split(16, asym);
  EXPECT_EQ(q3[0], 10u);
  EXPECT_EQ(q3[1], 6u);
}

TEST(WeightedSplit, RespectsCaps) {
  const double w[] = {1.0, 0.25};
  const std::size_t caps[] = {3, 100};
  const auto quota = core::weighted_split(20, w, caps);
  EXPECT_EQ(quota[0], 3u);   // capped
  EXPECT_EQ(quota[1], 17u);  // overflow lands on the only shard with room
}

TEST(WeightedSplit, UnderCappedTotalLeavesRemainder) {
  const double w[] = {1.0, 1.0};
  const std::size_t caps[] = {2, 2};
  const auto quota = core::weighted_split(10, w, caps);
  EXPECT_EQ(quota[0], 2u);
  EXPECT_EQ(quota[1], 2u);  // 6 items stay with the caller
}

// ----- sharded parity on a mixed fleet --------------------------------

/// All three schedules on a 2x-asymmetric fleet must reproduce the
/// single-device pipeline bitwise: placement moves timing, never bits.
template <prec::RealScalar S>
void run_mixed_fleet_parity(unsigned n, unsigned m, unsigned k, unsigned d,
                            unsigned batch) {
  const auto sys = make_system(n, m, k, d);
  const auto points = points_for<S>(batch, n, 4200);

  simt::Device device;
  core::GpuEvaluator<S> gpu(device, sys);
  std::vector<poly::EvalResult<S>> want;
  for (const auto& x : points)
    want.push_back(gpu.evaluate(std::span<const cplx::Complex<S>>(x)));

  for (const auto schedule :
       {core::ShardSchedule::kWorkStealing, core::ShardSchedule::kStatic,
        core::ShardSchedule::kWeightedStatic}) {
    typename core::ShardedEvaluator<S>::Options opt;
    opt.specs = asym_fleet();
    opt.chunk_points = 3;  // partial tail chunk
    opt.schedule = schedule;
    core::ShardedEvaluator<S> sharded(sys, opt);
    ASSERT_EQ(sharded.shard_count(), 2u);
    EXPECT_TRUE(sharded.registry().heterogeneous());
    std::vector<poly::EvalResult<S>> got;
    sharded.evaluate(points, got);
    expect_bitwise(want, got,
                   (std::string("schedule=") +
                    std::to_string(static_cast<int>(schedule)))
                       .c_str());
  }
}

TEST(MixedFleetParity, Double) { run_mixed_fleet_parity<double>(8, 6, 4, 3, 11); }
TEST(MixedFleetParity, DoubleDouble) {
  run_mixed_fleet_parity<prec::DoubleDouble>(6, 4, 3, 2, 10);
}
TEST(MixedFleetParity, QuadDouble) {
  run_mixed_fleet_parity<prec::QuadDouble>(5, 3, 2, 2, 10);
}

TEST(MixedFleet, WeightedStaticShiftsChunksToTheFastDevice) {
  const auto sys = make_system(8, 6, 4, 3);
  const auto points = points_for<double>(24, 8, 55);

  core::ShardedEvaluator<double>::Options opt;
  opt.specs = asym_fleet();
  opt.chunk_points = 2;  // 12 chunks over a 2:1 fleet -> 8 vs 4
  opt.schedule = core::ShardSchedule::kWeightedStatic;
  // Heuristic tuning pins the MODELED clock x cores weights {1, 0.5}:
  // this tiny workload is launch-overhead-bound, so measured weights
  // would (correctly) land near parity and split 6/6.  The subject
  // here is the schedule placing by weight, not the weight derivation
  // -- AutotunerProbesOncePerDistinctSpec covers the measured path.
  opt.backend.tuning = tune::TuningMode::kHeuristic;
  core::ShardedEvaluator<double> sharded(sys, opt);

  ASSERT_EQ(sharded.weights().size(), 2u);
  EXPECT_DOUBLE_EQ(sharded.weights()[0], 1.0);
  EXPECT_DOUBLE_EQ(sharded.weights()[1], 0.5);

  std::vector<poly::EvalResult<double>> got;
  sharded.evaluate(points, got);
  const auto fast_launches =
      sharded.registry().device(0).log().kernels.size();
  const auto slow_launches =
      sharded.registry().device(1).log().kernels.size();
  EXPECT_EQ(fast_launches + slow_launches, 12u);
  EXPECT_GT(fast_launches, slow_launches);
}

// ----- TuneCache sharing across a mixed fleet -------------------------

TEST(MixedFleet, AutotunerProbesOncePerDistinctSpec) {
  // Three shards, two DISTINCT specs: measured tuning must probe twice
  // (one miss per distinct device geometry) and serve the repeated spec
  // from the cache -- NOT probe once and alias shard 0's winner, and
  // NOT probe three times.
  auto& tuner = tune::Autotuner::global();
  tuner.cache().clear();
  const auto sys = make_system(8, 6, 4, 3, 99);
  auto fleet = asym_fleet();
  fleet.push_back(fleet[0]);  // {A, B, A}

  const std::size_t misses0 = tuner.misses();
  const std::size_t hits0 = tuner.hits();

  core::ShardedEvaluator<double>::Options opt;
  opt.specs = fleet;
  opt.chunk_points = 4;
  opt.backend.tuning = tune::TuningMode::kMeasured;
  core::ShardedEvaluator<double> sharded(sys, opt);

  EXPECT_EQ(tuner.misses() - misses0, 2u);  // one probe per distinct spec
  EXPECT_EQ(tuner.hits() - hits0, 1u);      // the repeated spec reuses it

  // A second identical fleet is all hits.
  core::ShardedEvaluator<double> again(sys, opt);
  EXPECT_EQ(tuner.misses() - misses0, 2u);
  EXPECT_EQ(tuner.hits() - hits0, 4u);

  // With every spec probed, the placement weights are the measured
  // refinement: still fastest-first, repeated specs weigh equally.
  const auto& w = sharded.weights();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_LT(w[1], 1.0);
}

TEST(MixedFleet, SystemCacheResolvesGeometryPerSpec) {
  // The service-side fix for the same bug: an entry covers every spec
  // the lookup was made with, each probed on its OWN scratch device.
  auto& tuner = tune::Autotuner::global();
  tuner.cache().clear();
  service::SystemCache<double> cache;
  const auto sys = make_system(8, 6, 4, 3, 123);
  auto fleet = asym_fleet();
  fleet.push_back(fleet[0]);  // {A, B, A}

  const std::size_t misses0 = tuner.misses();
  const auto entry =
      cache.lookup(sys, 16, solve::Options::Tuning{},
                   std::span<const simt::DeviceSpec>(fleet));
  ASSERT_EQ(entry->geometries.size(), 2u);  // distinct specs only
  EXPECT_NE(entry->geometry_for(fleet[0]), nullptr);
  EXPECT_NE(entry->geometry_for(fleet[1]), nullptr);
  EXPECT_EQ(entry->geometry_for(fleet[0]),
            entry->geometry_for(fleet[2]));  // same spec, same geometry
  EXPECT_EQ(tuner.misses() - misses0, 2u);

  // A content hit with the same fleet re-resolves nothing.
  const std::size_t misses1 = tuner.misses();
  const auto entry2 =
      cache.lookup(sys, 16, solve::Options::Tuning{},
                   std::span<const simt::DeviceSpec>(fleet));
  EXPECT_EQ(entry.get(), entry2.get());
  EXPECT_EQ(tuner.misses(), misses1);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
