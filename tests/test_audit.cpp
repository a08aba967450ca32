// The kernel access auditor: every seeded-violation fixture must make
// its checker fire with correct attribution, production kernels must
// audit clean, and attaching the auditor must not change a single
// output bit (the audit path runs the same kernels serially).

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "audit/fixtures.hpp"
#include "audit/kernel_auditor.hpp"
#include "core/fused_evaluator.hpp"
#include "poly/random_system.hpp"
#include "service/solve_service.hpp"
#include "simt/device.hpp"

namespace {

using namespace polyeval;
using audit::FindingKind;
using audit::KernelAuditor;
using Cd = cplx::Complex<double>;

std::size_t count_kind(const KernelAuditor& a, FindingKind kind) {
  std::size_t n = 0;
  for (const auto& f : a.findings())
    if (f.kind == kind) ++n;
  return n;
}

TEST(AuditFixtures, StaleSlotReadFlaggedWithProvenance) {
  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  audit::fixtures::run_stale_slot(auditor, device);

  ASSERT_EQ(count_kind(auditor, FindingKind::kStaleGlobalRead), 1u);
  const auto& f = auditor.findings().front();
  EXPECT_EQ(f.kind, FindingKind::kStaleGlobalRead);
  EXPECT_EQ(f.kernel, "fx_stale_slot");
  EXPECT_EQ(f.buffer, "FxMons");
  EXPECT_EQ(f.phase, 1u);  // the read phase, not the write phase
  // Tenant A's derivative word: element 1, 8 bytes in.
  EXPECT_EQ(f.offset, 8u);
  // Provenance names the previous epoch's device write.
  EXPECT_NE(f.provenance.find("epoch"), std::string::npos);
}

TEST(AuditFixtures, UninitReadsFlaggedGlobalAndShared) {
  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  audit::fixtures::run_uninit_read(auditor, device);

  EXPECT_EQ(count_kind(auditor, FindingKind::kUninitGlobalRead), 1u);
  EXPECT_EQ(count_kind(auditor, FindingKind::kUninitSharedRead), 1u);
  for (const auto& f : auditor.findings()) {
    EXPECT_EQ(f.kernel, "fx_uninit_read");
    if (f.kind == FindingKind::kUninitGlobalRead) EXPECT_EQ(f.buffer, "FxNever");
  }
}

TEST(AuditFixtures, OutOfBoundsSquashedAndAttributed) {
  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  // The fixture completing at all proves the squash: the overrun store
  // would land past the allocation's (unpadded) heap storage.
  audit::fixtures::run_out_of_bounds(auditor, device);

  ASSERT_EQ(count_kind(auditor, FindingKind::kGlobalOutOfBounds), 2u);
  for (const auto& f : auditor.findings()) {
    EXPECT_EQ(f.kernel, "fx_oob");
    EXPECT_EQ(f.buffer, "FxSmall");  // the buffer issued through, by name
    EXPECT_GE(f.offset, 32u);        // both past the 4-double extent
  }
}

TEST(AuditFixtures, LaneDivergenceFlaggedThreeWays) {
  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  audit::fixtures::run_lane_divergence(auditor, device);

  EXPECT_EQ(count_kind(auditor, FindingKind::kAccessAfterInactive), 1u);
  EXPECT_EQ(count_kind(auditor, FindingKind::kFootprintDivergence), 1u);
  EXPECT_EQ(count_kind(auditor, FindingKind::kCountDivergence), 1u);
  for (const auto& f : auditor.findings()) {
    EXPECT_EQ(f.kernel, "fx_diverge");
    EXPECT_EQ(f.warp, 0u);
  }
}

TEST(AuditFixtures, NondeterministicAccumulationFlagged) {
  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  audit::fixtures::run_nondeterministic_accumulation(auditor, device);

  ASSERT_EQ(count_kind(auditor, FindingKind::kNondeterministicAccumulation), 1u);
  const auto& f = auditor.findings().front();
  EXPECT_EQ(f.kernel, "fx_ndet_accum");
  EXPECT_EQ(f.buffer, "FxAcc");
  EXPECT_EQ(f.phase, 1u);  // the RMW store's phase
}

TEST(AuditFixtures, FootprintVarianceFlagged) {
  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  audit::fixtures::run_footprint_variance(auditor, device);

  ASSERT_EQ(count_kind(auditor, FindingKind::kFootprintVariance), 1u);
  const auto& f = auditor.findings().front();
  EXPECT_EQ(f.kernel, "fx_data_index");
  EXPECT_NE(f.detail.find("global_load_transactions"), std::string::npos) << f.detail;
  // Audited launches always run instrumented: nothing was replayed.
  EXPECT_EQ(device.replayed_launches(), 0u);
}

TEST(Audit, ProductionFusedKernelsAreFootprintInvariant) {
  poly::SystemSpec spec;
  spec.dimension = 6;
  spec.monomials_per_polynomial = 6;
  spec.variables_per_monomial = 3;
  const auto system = poly::make_random_system(spec);

  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);
  core::FusedGpuEvaluator<double>::Options opt;
  opt.tuning = tune::TuningMode::kHeuristic;
  core::FusedGpuEvaluator<double> ev(device, system, 4, opt);

  std::vector<simt::KernelStats> runs[2];
  for (unsigned run = 0; run < 2; ++run) {
    std::vector<std::vector<Cd>> points;
    for (unsigned p = 0; p < 4; ++p)
      points.push_back(
          poly::make_random_point<double>(spec.dimension, 100 + 50 * run + p));
    std::vector<poly::EvalResult<double>> out(4, poly::EvalResult<double>(6));
    std::vector<Cd> values(4 * 6);
    device.clear_log();
    auditor.begin_epoch();
    ev.evaluate_range(points, 0, 4, std::span<poly::EvalResult<double>>(out));
    ev.evaluate_values_range(points, 0, 4, std::span<Cd>(values));
    runs[run] = device.log().kernels;
  }
  ASSERT_EQ(runs[0].size(), 2u);
  ASSERT_EQ(runs[1].size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_TRUE(auditor.check_footprint_invariance(runs[0][i], runs[1][i]));
  EXPECT_EQ(auditor.total_findings(), 0u);
}

TEST(Audit, ProductionFusedKernelAuditsClean) {
  poly::SystemSpec spec;
  spec.dimension = 6;
  spec.monomials_per_polynomial = 6;
  spec.variables_per_monomial = 3;
  const auto system = poly::make_random_system(spec);

  simt::Device device;
  KernelAuditor auditor;
  auditor.attach(device);  // before construction: uploads are provenance

  core::FusedGpuEvaluator<double>::Options opt;
  opt.tuning = tune::TuningMode::kHeuristic;
  core::FusedGpuEvaluator<double> ev(device, system, 4, opt);

  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < 4; ++p)
    points.push_back(poly::make_random_point<double>(spec.dimension, 100 + p));
  std::vector<poly::EvalResult<double>> out(4, poly::EvalResult<double>(6));
  auditor.begin_epoch();
  ev.evaluate_range(points, 0, 4, std::span<poly::EvalResult<double>>(out));
  auditor.begin_epoch();
  ev.evaluate_range(points, 0, 4, std::span<poly::EvalResult<double>>(out));

  EXPECT_GE(auditor.launches_audited(), 2u);
  EXPECT_EQ(auditor.total_findings(), 0u)
      << audit::to_string(auditor.findings().front().kind) << ": "
      << auditor.findings().front().detail;
}

TEST(Audit, AttachedAuditorPreservesBitwiseOutputs) {
  poly::SystemSpec spec;
  spec.dimension = 5;
  spec.monomials_per_polynomial = 4;
  spec.variables_per_monomial = 3;
  const auto system = poly::make_random_system(spec);
  std::vector<std::vector<Cd>> points;
  for (unsigned p = 0; p < 3; ++p)
    points.push_back(poly::make_random_point<double>(spec.dimension, 55 + p));

  const auto run = [&](bool audited) {
    simt::Device device;
    KernelAuditor auditor;
    if (audited) auditor.attach(device);
    core::FusedGpuEvaluator<double>::Options opt;
    opt.tuning = tune::TuningMode::kHeuristic;
    core::FusedGpuEvaluator<double> ev(device, system, 3, opt);
    std::vector<poly::EvalResult<double>> out(3, poly::EvalResult<double>(5));
    ev.evaluate_range(points, 0, 3, std::span<poly::EvalResult<double>>(out));
    return out;
  };

  const auto plain = run(false);
  const auto audited = run(true);
  for (std::size_t p = 0; p < plain.size(); ++p)
    EXPECT_EQ(poly::max_abs_diff(plain[p], audited[p]), 0.0) << "point " << p;
}

TEST(Audit, ServiceAuditsFirstLaunchOfNewCacheEntries) {
  poly::SystemSpec spec;
  spec.dimension = 3;
  spec.monomials_per_polynomial = 3;
  spec.variables_per_monomial = 2;
  const auto sys_a = poly::make_random_system(spec);
  spec.seed += 1;
  const auto sys_b = poly::make_random_system(spec);

  service::SolveService<double>::Config config;
  config.shards = 1;
  config.audit_new_systems = true;
  service::SolveService<double> svc(std::move(config));

  solve::Options opt;
  opt.sharding.max_paths = 4;
  auto ta = svc.submit({sys_a, opt, {}, 0, 0.0});
  auto tb = svc.submit({sys_b, opt, {}, 0, 0.0});
  auto ta2 = svc.submit({sys_a, opt, {}, 0, 0.0});  // cache hit: no audit
  svc.drain();

  const auto stats = svc.stats();
  EXPECT_EQ(stats.audited_systems, 2u);  // one per distinct system
  EXPECT_EQ(stats.audit_findings, 0u);   // production kernels are clean
  (void)ta.report();
  (void)tb.report();
  (void)ta2.report();
}

}  // namespace
