// Record once, replay after: a memoizing kernel's first launch at a key
// runs instrumented and records its KernelStats; later launches with
// the same key run the lean engine path and replay them.  Pinned here:
//
//  * the StatsMemo key and its lifecycle on a toy kernel (geometry, tag,
//    eviction, invalidation, copies, forced instrumentation);
//  * lean-vs-instrumented parity for every production kernel that opts
//    in: outputs bitwise equal to a detect_races run, and every replayed
//    KernelStats field equal to the instrumented record -- including
//    multi-tenant launches whose tenant sequence changes between
//    launches at a fixed length and whose tables change mid-run (a key
//    that ignored either would replay another footprint's stats while
//    the outputs stayed bitwise right).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "audit/kernel_auditor.hpp"
#include "core/multitenant_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
#include "poly/random_system.hpp"
#include "prec/double_double.hpp"
#include "simt/device.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem make_system(unsigned n, unsigned m, unsigned k, unsigned d,
                                   std::uint64_t seed) {
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

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <prec::RealScalar S>
void expect_same_bits(const std::vector<poly::EvalResult<S>>& want,
                      const std::vector<poly::EvalResult<S>>& got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_TRUE(same_bits(want[p].values, got[p].values)) << label << ", point " << p;
    EXPECT_TRUE(same_bits(want[p].jacobian, got[p].jacobian))
        << label << ", point " << p;
  }
}

std::string brief(const simt::KernelStats& s) {
  return s.kernel + " [ld " + std::to_string(s.global_load_requests) + "/" +
         std::to_string(s.global_load_transactions) + ", st " +
         std::to_string(s.global_store_requests) + "/" +
         std::to_string(s.global_store_transactions) + ", sh " +
         std::to_string(s.shared_requests) + "/" + std::to_string(s.shared_cycles) +
         ", cmul " + std::to_string(s.complex_mul_total) + "]";
}

/// Every launch of the lean run replayed (or recorded) exactly the
/// stats the instrumented run produced for the same launch.
void expect_same_stats(const simt::LaunchLog& instrumented, const simt::LaunchLog& lean,
                       const std::string& label) {
  ASSERT_EQ(instrumented.kernels.size(), lean.kernels.size()) << label;
  for (std::size_t i = 0; i < lean.kernels.size(); ++i)
    EXPECT_TRUE(instrumented.kernels[i] == lean.kernels[i])
        << label << ", launch " << i << ": instrumented "
        << brief(instrumented.kernels[i]) << " vs replayed " << brief(lean.kernels[i]);
}

// ---------------------------------------------------------------------------
// The memo itself, on a toy kernel
// ---------------------------------------------------------------------------

/// out[g] = in[g] * 2 through a shared staging word; the access pattern
/// depends only on the geometry.
struct ToyKernel {
  simt::GlobalBuffer<double> in, out;
  simt::Kernel kernel;

  ToyKernel(simt::Device& device, std::size_t capacity, std::size_t tag_capacity) {
    in = device.alloc_global<double>(capacity, "ToyIn");
    out = device.alloc_global<double>(capacity, "ToyOut");
    std::vector<double> host(capacity);
    for (std::size_t i = 0; i < capacity; ++i) host[i] = 0.5 + static_cast<double>(i);
    device.upload(in, std::span<const double>(host));
    device.fill(out, 0.0);
    kernel.name = "toy";
    kernel.phases.push_back([in = in](simt::ThreadContext& ctx) {
      auto tile = ctx.shared_array<double>(0, ctx.block_dim());
      tile.set(ctx.thread_index(), ctx.load(in, ctx.global_thread_index()));
    });
    kernel.phases.push_back([out = out](simt::ThreadContext& ctx) {
      auto tile = ctx.shared_array<double>(0, ctx.block_dim());
      ctx.op_cmul();
      ctx.store(out, ctx.global_thread_index(), tile.get(ctx.thread_index()) * 2.0);
    });
    kernel.memo.enable(tag_capacity);
  }
};

simt::LaunchConfig toy_config(unsigned blocks, unsigned threads = 32) {
  simt::LaunchConfig cfg{blocks, threads, threads * sizeof(double)};
  cfg.detect_races = false;
  return cfg;
}

TEST(StatsMemo, ReplaysFromTheSecondLaunchOfAKey) {
  simt::Device device;
  ToyKernel toy(device, 256, 0);
  const auto first = device.launch(toy.kernel, toy_config(4));
  EXPECT_EQ(device.replayed_launches(), 0u);
  for (int i = 0; i < 3; ++i) {
    const auto again = device.launch(toy.kernel, toy_config(4));
    EXPECT_TRUE(again == first);
  }
  EXPECT_EQ(device.replayed_launches(), 3u);
  std::vector<double> host(128);
  device.download(toy.out, std::span<double>(host));
  for (std::size_t i = 0; i < host.size(); ++i)
    EXPECT_EQ(host[i], 2.0 * (0.5 + static_cast<double>(i)));
}

TEST(StatsMemo, GeometryIsPartOfTheKey) {
  simt::Device device;
  ToyKernel toy(device, 256, 0);
  const auto four = device.launch(toy.kernel, toy_config(4));
  const auto two = device.launch(toy.kernel, toy_config(2));
  const auto wide = device.launch(toy.kernel, toy_config(2, 64));
  EXPECT_EQ(device.replayed_launches(), 0u);
  EXPECT_FALSE(four == two);
  EXPECT_FALSE(two == wide);
  EXPECT_TRUE(device.launch(toy.kernel, toy_config(2)) == two);
  EXPECT_TRUE(device.launch(toy.kernel, toy_config(4)) == four);
  EXPECT_TRUE(device.launch(toy.kernel, toy_config(2, 64)) == wide);
  EXPECT_EQ(device.replayed_launches(), 3u);
}

TEST(StatsMemo, DeviceSpecIsPartOfTheKey) {
  simt::Device fermi;
  simt::DeviceSpec narrow_spec = simt::DeviceSpec::tesla_c2050();
  narrow_spec.global_transaction_bytes = 32;
  simt::Device narrow(narrow_spec);
  ToyKernel toy(fermi, 256, 0);
  const auto on_fermi = fermi.launch(toy.kernel, toy_config(4));
  EXPECT_TRUE(fermi.launch(toy.kernel, toy_config(4)) == on_fermi);
  EXPECT_EQ(fermi.replayed_launches(), 1u);
  const auto on_narrow = narrow.launch(toy.kernel, toy_config(4));
  EXPECT_EQ(narrow.replayed_launches(), 0u);
  EXPECT_FALSE(on_narrow == on_fermi);
  EXPECT_TRUE(narrow.launch(toy.kernel, toy_config(4)) == on_narrow);
  EXPECT_EQ(narrow.replayed_launches(), 1u);
  EXPECT_TRUE(fermi.launch(toy.kernel, toy_config(4)) == on_fermi);
  EXPECT_EQ(fermi.replayed_launches(), 1u);
}

TEST(StatsMemo, TagsCompareElementByElement) {
  simt::Device device;
  ToyKernel toy(device, 256, 4);
  const std::vector<unsigned> ab = {0, 1}, ba = {1, 0}, longer = {0, 1, 2, 3, 4};
  (void)device.launch(toy.kernel, toy_config(2), simt::FootprintTag(ab));
  (void)device.launch(toy.kernel, toy_config(2), simt::FootprintTag(ba));
  (void)device.launch(toy.kernel, toy_config(2), simt::FootprintTag{});
  EXPECT_EQ(device.replayed_launches(), 0u);
  (void)device.launch(toy.kernel, toy_config(2), simt::FootprintTag(ba));
  (void)device.launch(toy.kernel, toy_config(2), simt::FootprintTag(ab));
  EXPECT_EQ(device.replayed_launches(), 2u);
  // A tag past the preallocated capacity is never recorded.
  for (int i = 0; i < 3; ++i)
    (void)device.launch(toy.kernel, toy_config(2), simt::FootprintTag(longer));
  EXPECT_EQ(device.replayed_launches(), 2u);
}

TEST(StatsMemo, EvictsTheLeastRecentlyUsedKey) {
  constexpr auto kEntries = static_cast<unsigned>(simt::StatsMemo::kEntries);
  simt::Device device;
  ToyKernel toy(device, 32 * (kEntries + 1), 0);
  for (unsigned grid = 1; grid <= kEntries; ++grid)
    (void)device.launch(toy.kernel, toy_config(grid));
  (void)device.launch(toy.kernel, toy_config(1));  // hit: grid 2 is now oldest
  (void)device.launch(toy.kernel, toy_config(kEntries + 1));  // evicts grid 2
  EXPECT_EQ(device.replayed_launches(), 1u);
  (void)device.launch(toy.kernel, toy_config(1));
  (void)device.launch(toy.kernel, toy_config(kEntries + 1));
  EXPECT_EQ(device.replayed_launches(), 3u);
  (void)device.launch(toy.kernel, toy_config(2));  // miss: was evicted
  EXPECT_EQ(device.replayed_launches(), 3u);
}

TEST(StatsMemo, InvalidateAndCopiesStartCold) {
  simt::Device device;
  ToyKernel toy(device, 256, 0);
  (void)device.launch(toy.kernel, toy_config(4));
  toy.kernel.memo.invalidate();
  (void)device.launch(toy.kernel, toy_config(4));
  EXPECT_EQ(device.replayed_launches(), 0u);
  const simt::Kernel copy = toy.kernel;
  EXPECT_TRUE(copy.memo.enabled());
  (void)device.launch(copy, toy_config(4));
  EXPECT_EQ(device.replayed_launches(), 0u);
  (void)device.launch(copy, toy_config(4));
  EXPECT_EQ(device.replayed_launches(), 1u);
  // Assigning a kernel that does not memoize drops the recorded stats.
  simt::Kernel reassigned = toy.kernel;
  (void)device.launch(reassigned, toy_config(4));
  reassigned = simt::Kernel{toy.kernel.name, toy.kernel.phases, {}};
  EXPECT_FALSE(reassigned.memo.enabled());
  (void)device.launch(reassigned, toy_config(4));
  EXPECT_EQ(device.replayed_launches(), 1u);
}

TEST(StatsMemo, RaceCheckingAndAuditingForceTheInstrumentedPath) {
  simt::Device device;
  ToyKernel toy(device, 256, 0);
  const auto recorded = device.launch(toy.kernel, toy_config(4));
  auto checked = toy_config(4);
  checked.detect_races = true;
  EXPECT_TRUE(device.launch(toy.kernel, checked) == recorded);
  audit::KernelAuditor auditor;
  auditor.attach(device);
  EXPECT_TRUE(device.launch(toy.kernel, toy_config(4)) == recorded);
  EXPECT_EQ(auditor.launches_audited(), 1u);
  auditor.detach();
  EXPECT_EQ(device.replayed_launches(), 0u);
  (void)device.launch(toy.kernel, toy_config(4));
  EXPECT_EQ(device.replayed_launches(), 1u);
}

// ---------------------------------------------------------------------------
// Production kernels: lean (detect_races = false) vs instrumented
// ---------------------------------------------------------------------------

template <prec::RealScalar S>
void run_fused_parity() {
  using C = cplx::Complex<S>;
  constexpr unsigned n = 8, batch = 6;
  const auto sys = make_system(n, 6, 4, 3, 77);
  simt::Device dev_inst, dev_lean;
  typename core::FusedGpuEvaluator<S>::Options opt;
  opt.tuning = tune::TuningMode::kHeuristic;
  opt.detect_races = true;
  core::FusedGpuEvaluator<S> inst(dev_inst, sys, batch, opt);
  opt.detect_races = false;
  core::FusedGpuEvaluator<S> lean(dev_lean, sys, batch, opt);

  // Five rounds over fresh points; round 3 shrinks the batch (a new key)
  // and round 4 returns to the full batch (a hit on the first key).
  const unsigned counts[] = {batch, batch, batch, batch - 2, batch};
  for (unsigned round = 0; round < 5; ++round) {
    const auto points = points_for<S>(batch, n, 1000 + 100 * round);
    const unsigned count = counts[round];
    const std::string label = "round " + std::to_string(round);
    dev_inst.clear_log();
    dev_lean.clear_log();

    std::vector<poly::EvalResult<S>> want(count, poly::EvalResult<S>(n)),
        got(count, poly::EvalResult<S>(n));
    inst.evaluate_range(points, 0, count, std::span<poly::EvalResult<S>>(want));
    lean.evaluate_range(points, 0, count, std::span<poly::EvalResult<S>>(got));
    expect_same_bits(want, got, label + " full");

    std::vector<C> want_v(std::size_t{count} * n), got_v(std::size_t{count} * n);
    inst.evaluate_values_range(points, 0, count, std::span<C>(want_v));
    lean.evaluate_values_range(points, 0, count, std::span<C>(got_v));
    EXPECT_TRUE(same_bits(want_v, got_v)) << label << " values";

    expect_same_stats(dev_inst.log(), dev_lean.log(), label);
  }
  EXPECT_EQ(dev_inst.replayed_launches(), 0u);
  // Rounds 0 and 3 record (two kernels each); the other six launches replay.
  EXPECT_EQ(dev_lean.replayed_launches(), 6u);
}

TEST(StatsMemoParity, FusedFullAndValuesDouble) { run_fused_parity<double>(); }
TEST(StatsMemoParity, FusedFullAndValuesDoubleDouble) {
  run_fused_parity<prec::DoubleDouble>();
}

TEST(StatsMemoParity, PipelinedFullAndValues) {
  using C = cplx::Complex<double>;
  constexpr unsigned n = 8, batch = 8;
  const auto sys = make_system(n, 6, 4, 3, 78);
  simt::Device dev_inst, dev_lean;
  core::PipelinedFusedEvaluator<double>::Options opt;
  opt.tuning = tune::TuningMode::kHeuristic;
  opt.micro_chunk = 3;  // chunks of 3, 3, 2: two grids per buffer slot
  opt.detect_races = true;
  core::PipelinedFusedEvaluator<double> inst(dev_inst, sys, batch, opt);
  opt.detect_races = false;
  core::PipelinedFusedEvaluator<double> lean(dev_lean, sys, batch, opt);

  for (unsigned round = 0; round < 3; ++round) {
    const auto points = points_for<double>(batch, n, 2000 + 100 * round);
    const std::string label = "round " + std::to_string(round);
    dev_inst.clear_log();
    dev_lean.clear_log();

    std::vector<poly::EvalResult<double>> want, got;
    inst.evaluate(points, want);
    lean.evaluate(points, got);
    expect_same_bits(want, got, label + " full");

    std::vector<C> want_v(std::size_t{batch} * n), got_v(std::size_t{batch} * n);
    inst.evaluate_values_range(points, 0, batch, std::span<C>(want_v));
    lean.evaluate_values_range(points, 0, batch, std::span<C>(got_v));
    EXPECT_TRUE(same_bits(want_v, got_v)) << label << " values";

    expect_same_stats(dev_inst.log(), dev_lean.log(), label);
    EXPECT_DOUBLE_EQ(inst.modeled_pipelined_us(), lean.modeled_pipelined_us()) << label;
  }
  // Round 0: slot 0 records grids 3 and 2, slot 1 records grid 3, for
  // both kernels (6 records); every later launch replays.
  EXPECT_EQ(dev_lean.replayed_launches(), 2u * 2u * 3u);
}

template <prec::RealScalar S>
void run_multitenant_parity() {
  using C = cplx::Complex<S>;
  constexpr unsigned n = 8, batch = 4;
  const auto sys_a = make_system(n, 6, 4, 3, 501);
  const auto sys_b = make_system(n, 6, 4, 3, 502);
  const auto sys_c = make_system(n, 6, 4, 3, 503);
  const auto structure = core::pack_system(sys_a).structure;
  // The replacement installed mid-run must really move the footprint.
  ASSERT_NE(core::pack_system(sys_b).positions, core::pack_system(sys_c).positions);

  simt::Device dev_inst, dev_lean;
  typename core::MultiTenantFusedEvaluator<S>::Options opt;
  opt.detect_races = true;
  core::MultiTenantFusedEvaluator<S> inst(dev_inst, structure, 2, batch, opt);
  opt.detect_races = false;
  core::MultiTenantFusedEvaluator<S> lean(dev_lean, structure, 2, batch, opt);
  for (auto* ev : {&inst, &lean}) {
    ev->set_tenant(0, sys_a);
    ev->set_tenant(1, sys_b);
  }

  // Same length throughout; sequences repeat (hits) and change (misses),
  // and tenant 1's system is replaced before launch 5 with its tag
  // identical to launch 4's.
  const std::vector<std::vector<unsigned>> sequences = {
      {0, 1, 1, 0}, {0, 1, 1, 0}, {0, 0, 0, 1}, {0, 1, 1, 0},
      {1, 1, 1, 0}, {1, 1, 1, 0}, {0, 0, 0, 1}, {0, 0, 0, 1}};
  constexpr std::size_t kReplace = 5;
  std::vector<simt::KernelStats> full_stats;
  for (std::size_t launch = 0; launch < sequences.size(); ++launch) {
    if (launch == kReplace)
      for (auto* ev : {&inst, &lean}) ev->set_tenant(1, sys_c);
    const auto points = points_for<S>(batch, n, 3000 + 100 * launch);
    const std::string label = "launch " + std::to_string(launch);
    dev_inst.clear_log();
    dev_lean.clear_log();
    for (auto* ev : {&inst, &lean})
      ev->bind_tenants(std::span<const unsigned>(sequences[launch]));

    std::vector<poly::EvalResult<S>> want(batch, poly::EvalResult<S>(n)),
        got(batch, poly::EvalResult<S>(n));
    inst.evaluate_range(points, 0, batch, std::span<poly::EvalResult<S>>(want));
    lean.evaluate_range(points, 0, batch, std::span<poly::EvalResult<S>>(got));
    expect_same_bits(want, got, label + " full");

    std::vector<C> want_v(std::size_t{batch} * n), got_v(std::size_t{batch} * n);
    inst.evaluate_values_range(points, 0, batch, std::span<C>(want_v));
    lean.evaluate_values_range(points, 0, batch, std::span<C>(got_v));
    EXPECT_TRUE(same_bits(want_v, got_v)) << label << " values";

    expect_same_stats(dev_inst.log(), dev_lean.log(), label);
    full_stats.push_back(dev_inst.log().kernels.front());
  }
  // The scenario has teeth: the tenant order and the replaced tables
  // each change the instrumented stats, so a key that ignored either
  // would have replayed the wrong record above.
  EXPECT_FALSE(full_stats[0] == full_stats[2]) << "tenant order must move the stats";
  EXPECT_FALSE(full_stats[4] == full_stats[5]) << "set_tenant must move the stats";
  // Launches 1, 3 and 7 hit for both kernels; everything else records.
  EXPECT_EQ(dev_lean.replayed_launches(), 3u * 2u);
}

TEST(StatsMemoParity, MultiTenantDouble) { run_multitenant_parity<double>(); }
TEST(StatsMemoParity, MultiTenantDoubleDouble) {
  run_multitenant_parity<prec::DoubleDouble>();
}

}  // namespace
