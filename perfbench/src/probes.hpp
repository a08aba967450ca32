#pragma once

// Layer unit-cost probes of the traced run.  Each one times a module's
// public entry point at the workload's shape, precision, batch size and
// tuned geometry, or reads KernelStats from the launch log one call
// leaves behind.  They are unit costs, not self time: what one call of
// the layer costs in isolation, not its share of the workload.

#include <span>
#include <vector>

#include "common.hpp"
#include "core/fused_evaluator.hpp"
#include "linalg/lu.hpp"
#include "poly/random_system.hpp"
#include "prec/double_double.hpp"
#include "simt/device.hpp"
#include "simt/kernel.hpp"
#include "simt/timing.hpp"
#include "tune/autotuner.hpp"

namespace perfbench {

using namespace polyeval;

/// Shape and sizes one workload hands the probes.
struct ProbeShape {
  poly::SystemSpec system;  ///< the workload's (n, m, k, d) and a seed
  unsigned batch = 64;      ///< points per launch in the workload
  unsigned host_workers = 1;
  unsigned lu_dimension = 0;  ///< 0: the workload runs no host LU
};

/// Repeat `fn` until both `min_reps` calls and `min_s` seconds are spent
/// (capped at `max_reps`); median seconds per call.
template <class Fn>
double time_median(Fn&& fn, unsigned min_reps, double min_s, unsigned max_reps = 100000) {
  std::vector<double> samples;
  const double start = wall_s();
  while (samples.size() < max_reps &&
         (samples.size() < min_reps || wall_s() - start < min_s)) {
    const double t0 = wall_s();
    fn();
    samples.push_back(wall_s() - t0);
  }
  return median(std::move(samples));
}

/// Complex double-double multiply-add in a tight loop, ns per op.
inline double probe_dd_cmul_ns() {
  using C = cplx::Complex<prec::DoubleDouble>;
  const C a = C::from_double({0.6, 0.8});  // |a| = 1 keeps acc bounded
  const C b = C::from_double({1e-3, -2e-3});
  constexpr unsigned kOps = 200000;
  C acc = C::from_double({0.3, 0.4});
  const double per_call = time_median(
      [&] {
        for (unsigned i = 0; i < kOps; ++i) acc = acc * a + b;
      },
      5, 0.2);
  // Keep the loop observable.
  if (prec::ScalarTraits<prec::DoubleDouble>::to_double(acc.re()) > 1e300)
    std::cerr << "unreachable\n";
  return per_call * 1e9 / kOps;
}

/// Batched LU factor+solve at the workload's tracker dimension, µs per
/// system solved (one per path per Newton step in the tracker).
template <prec::RealScalar S>
double probe_lu_us(unsigned n, unsigned count, std::uint64_t seed) {
  using C = cplx::Complex<S>;
  linalg::LuArena<S> arena(n, count);
  std::vector<C> a(std::size_t{count} * n * n), b(std::size_t{count} * n),
      x(std::size_t{count} * n);
  std::vector<unsigned char> singular(count);
  for (unsigned s = 0; s < count; ++s) {
    const auto entries = poly::make_random_point<S>(n * n, mix(seed, s));
    for (unsigned r = 0; r < n; ++r)
      for (unsigned c = 0; c < n; ++c) {
        C v = entries[std::size_t{r} * n + c];
        if (r == c) v += C::from_double({static_cast<double>(n), 0.0});
        a[(std::size_t{s} * n + r) * n + c] = v;
      }
    const auto rhs = poly::make_random_point<S>(n, mix(seed, count + s));
    std::copy(rhs.begin(), rhs.end(), b.begin() + std::size_t{s} * n);
  }
  const double per_call = time_median(
      [&] {
        linalg::lu_solve_batch<S>(arena, count, std::span<const C>(a),
                                  std::span<const C>(b), std::span<C>(x),
                                  std::span<unsigned char>(singular));
      },
      5, 0.2);
  return per_call * 1e6 / count;
}

/// Everything the core/simt/tune probes report for one shape.
struct KernelProbe {
  double eval_us_per_point = 0.0;
  double values_us_per_point = 0.0;
  double empty_launch_us = 0.0;
  double probe_s = 0.0;  ///< cold-TuneCache evaluator construction
  double complex_ops_per_eval = 0.0;
  double global_bytes_per_eval = 0.0;
  double ops_per_byte = 0.0;
  double tx_per_request = 0.0;
  double shared_cycles_per_request = 0.0;
};

/// Time FusedGpuEvaluator<S>::evaluate_range / evaluate_values_range at
/// the tuned geometry, an empty-phase kernel at the same grid x block,
/// and (last, since it clears the TuneCache) the measured-tuning probe.
template <prec::RealScalar S>
KernelProbe probe_kernel(const ProbeShape& shape, std::uint64_t seed, SpanLog& spans) {
  using C = cplx::Complex<S>;
  KernelProbe out;
  const auto sys = poly::make_random_system(shape.system);
  const unsigned n = shape.system.dimension;
  const unsigned batch = shape.batch;
  simt::Device dev(simt::DeviceSpec::tesla_c2050(), shape.host_workers);
  core::FusedGpuEvaluator<S> ev(dev, sys, batch);

  std::vector<std::vector<C>> points;
  for (unsigned p = 0; p < batch; ++p)
    points.push_back(poly::make_random_point<S>(n, mix(seed, 7000 + p)));
  std::vector<poly::EvalResult<S>> results(batch, poly::EvalResult<S>(n));
  std::vector<C> values(std::size_t{batch} * n);

  auto span = spans.begin("probe core.evaluate_range", "probe", 0);
  out.eval_us_per_point = 1e6 / batch * time_median(
      [&] {
        ev.evaluate_range(points, 0, batch, std::span<poly::EvalResult<S>>(results));
        dev.clear_log();
      },
      3, 0.5);
  spans.end(span);

  // KernelStats of one full evaluation (the paper's per-kernel view).
  ev.evaluate_range(points, 0, batch, std::span<poly::EvalResult<S>>(results));
  double ops = 0.0, bytes = 0.0, tx = 0.0, req = 0.0, cycles = 0.0, sreq = 0.0;
  for (const auto& k : ev.last_log().kernels) {
    ops += static_cast<double>(k.complex_mul_total + k.complex_add_total);
    bytes += static_cast<double>(k.global_bytes_loaded + k.global_bytes_stored);
    tx += static_cast<double>(k.global_load_transactions + k.global_store_transactions);
    req += static_cast<double>(k.global_load_requests + k.global_store_requests);
    cycles += static_cast<double>(k.shared_cycles);
    sreq += static_cast<double>(k.shared_requests);
  }
  dev.clear_log();
  out.complex_ops_per_eval = ops / batch;
  out.global_bytes_per_eval = bytes / batch;
  out.ops_per_byte = safe_div(ops, bytes);
  out.tx_per_request = safe_div(tx, req);
  out.shared_cycles_per_request = safe_div(cycles, sreq);

  span = spans.begin("probe core.evaluate_values_range", "probe", 0);
  out.values_us_per_point = 1e6 / batch * time_median(
      [&] {
        ev.evaluate_values_range(points, 0, batch, std::span<C>(values));
        dev.clear_log();
      },
      3, 0.5);
  spans.end(span);

  span = spans.begin("probe simt.empty_launch", "probe", 0);
  simt::Kernel empty{"empty", {simt::Phase([](simt::ThreadContext&) {})}};
  simt::LaunchConfig cfg{batch, ev.options().block_size, 0};
  cfg.detect_races = false;
  out.empty_launch_us = 1e6 * time_median(
      [&] {
        (void)dev.launch(empty, cfg);
        dev.clear_log();
      },
      5, 0.3);
  spans.end(span);

  span = spans.begin("probe tune.measured_construction", "probe", 0);
  tune::Autotuner::global().cache().clear();
  const double t0 = wall_s();
  core::FusedGpuEvaluator<S> cold(dev, sys, batch);
  out.probe_s = wall_s() - t0;
  spans.end(span);
  return out;
}

}  // namespace perfbench
