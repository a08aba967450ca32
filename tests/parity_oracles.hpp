#pragma once

// The two independent tracking engines the parity suites compare the
// solve service against, built directly from library parts:
//
//   * track_perpath: the scalar PathTracker, one path at a time, over a
//     ProjectiveHomotopy on a capacity-1 FusedGpuEvaluator;
//   * track_lockstep: a BatchPathTracker over
//     BatchedProjectiveHomotopy<PipelinedFusedEvaluator>, an engine the
//     service never runs.
//
// Both track in the service's projective geometry (same patch seed) and
// run every path on one device; a path's trajectory is independent
// of how paths are placed, so their results must match the service
// bitwise.  The *_total_degree variants track the first
// options.sharding.max_paths total-degree paths (all when 0) with
// gamma = random_gamma(options.gamma_seed), as the service does.

#include <algorithm>
#include <span>
#include <vector>

#include "core/fused_evaluator.hpp"
#include "core/pipelined_evaluator.hpp"
#include "homotopy/batch_tracker.hpp"
#include "homotopy/homogenize.hpp"
#include "homotopy/projective.hpp"
#include "homotopy/solver.hpp"
#include "solve/options.hpp"

namespace polyeval::oracle {

template <prec::RealScalar S>
using Roots = std::vector<std::vector<cplx::Complex<S>>>;

template <prec::RealScalar S>
void tally(homotopy::SolveSummary<S>& summary) {
  summary.attempted = summary.paths.size();
  for (const auto& p : summary.paths) {
    if (p.success) ++summary.successes;
    if (p.status == homotopy::PathStatus::kAtInfinity) ++summary.at_infinity;
  }
}

/// `roots` embedded in the patch hyperplane `patch_d`.
template <prec::RealScalar S>
Roots<S> embed_all(const Roots<S>& roots,
                   std::span<const cplx::Complex<double>> patch_d) {
  std::vector<cplx::Complex<S>> patch;
  for (const auto& c : patch_d) patch.push_back(cplx::Complex<S>::from_double(c));
  Roots<S> embedded;
  for (const auto& root : roots)
    embedded.push_back(homotopy::embed_in_patch<S>(
        std::span<const cplx::Complex<S>>(root),
        std::span<const cplx::Complex<S>>(patch)));
  return embedded;
}

/// The scalar per-path oracle on one device with `workers` pool threads.
template <prec::RealScalar S>
homotopy::SolveSummary<S> track_perpath(const poly::PolynomialSystem& target,
                                        const poly::PolynomialSystem& start_system,
                                        const Roots<S>& roots,
                                        cplx::Complex<double> gamma,
                                        const solve::Options& options,
                                        unsigned workers = 1) {
  using F = core::FusedGpuEvaluator<S>;
  simt::Device device(simt::DeviceSpec::tesla_c2050(), workers);
  F f(device, target, 1,
      {.block_size = options.tuning.block_size,
       .interchange = {},
       .tuning = options.tuning.mode,
       .detect_races = options.tuning.detect_races});
  const auto& topt = options.tracking.track;

  homotopy::SolveSummary<S> summary;
  const auto patch =
      homotopy::random_patch(target.dimension() + 1, options.tracking.patch_seed);
  homotopy::ProjectiveHomotopy<S, F> h(f, target, start_system, gamma, patch);
  homotopy::PathTracker<S, homotopy::ProjectiveHomotopy<S, F>> tracker(h, topt);
  for (const auto& z : embed_all<S>(roots, patch))
    summary.paths.push_back(tracker.track(std::span<const cplx::Complex<S>>(z)));
  tally(summary);
  return summary;
}

/// The independent lockstep oracle: every path in one BatchPathTracker
/// over the pipelined evaluator, launches chunked to
/// options.sharding.lockstep_batch points.
template <prec::RealScalar S>
homotopy::SolveSummary<S> track_lockstep(const poly::PolynomialSystem& target,
                                         const poly::PolynomialSystem& start_system,
                                         const Roots<S>& roots,
                                         cplx::Complex<double> gamma,
                                         const solve::Options& options) {
  using F = core::PipelinedFusedEvaluator<S>;
  homotopy::SolveSummary<S> summary;
  if (roots.empty()) return summary;
  simt::Device device(simt::DeviceSpec::tesla_c2050(),
                      options.sharding.workers_per_shard);
  const auto capacity = static_cast<unsigned>(
      std::min<std::size_t>(options.sharding.lockstep_batch, roots.size()));
  F f(device, target, capacity,
      {.block_size = options.tuning.block_size,
       .interchange = {},
       .tuning = options.tuning.mode,
       .detect_races = options.tuning.detect_races});
  const auto& topt = options.tracking.track;

  const auto patch =
      homotopy::random_patch(target.dimension() + 1, options.tracking.patch_seed);
  homotopy::BatchedProjectiveHomotopy<S, F> h(f, target, start_system, gamma, patch);
  homotopy::BatchPathTracker<S, homotopy::BatchedProjectiveHomotopy<S, F>> tracker(
      device, h, topt, roots.size());
  tracker.start(embed_all<S>(roots, patch), 0, roots.size());
  tracker.run();
  for (std::size_t p = 0; p < roots.size(); ++p)
    summary.paths.push_back(tracker.result(p));
  tally(summary);
  return summary;
}

/// The first options.sharding.max_paths (all when 0) total-degree start
/// roots of `start`.
template <prec::RealScalar S>
Roots<S> total_degree_roots(const homotopy::TotalDegreeStart& start,
                            const solve::Options& options) {
  std::uint64_t paths = start.num_paths();
  if (options.sharding.max_paths > 0)
    paths = std::min(paths, options.sharding.max_paths);
  Roots<S> roots;
  for (std::uint64_t p = 0; p < paths; ++p) {
    std::vector<cplx::Complex<S>> root;
    for (const auto& z : start.start_root(p))
      root.push_back(cplx::Complex<S>::from_double(z));
    roots.push_back(std::move(root));
  }
  return roots;
}

template <prec::RealScalar S>
homotopy::SolveSummary<S> perpath_total_degree(const poly::PolynomialSystem& target,
                                               const solve::Options& options,
                                               unsigned workers = 1) {
  const homotopy::TotalDegreeStart start(target);
  return track_perpath<S>(target, start.system(), total_degree_roots<S>(start, options),
                          homotopy::random_gamma(options.gamma_seed), options, workers);
}

template <prec::RealScalar S>
homotopy::SolveSummary<S> lockstep_total_degree(const poly::PolynomialSystem& target,
                                                const solve::Options& options) {
  const homotopy::TotalDegreeStart start(target);
  return track_lockstep<S>(target, start.system(), total_degree_roots<S>(start, options),
                           homotopy::random_gamma(options.gamma_seed), options);
}

}  // namespace polyeval::oracle
