#pragma once

/// \file sharded_solver.hpp
/// One-shot path tracking over device shards: each call is a single
/// request on a throwaway SolveService, drained to completion.
///
/// The service is the only device tracking engine.  It runs every
/// path in lockstep rounds on the fused multi-tenant kernel, one
/// BatchPathTracker over a multi-tenant BatchedProjectiveHomotopy per
/// shard, with the start system on the CPU (a
/// handful of x_i^d - 1 monomials, not the uniform structure the
/// massively parallel pipeline wants).  These wrappers size the
/// service so every shard's whole slice of the paths is resident at
/// once, and return the results indexed by path.
///
/// Geometry: the service tracks PROJECTIVELY -- start roots are
/// embedded in a random patch hyperplane c . z = 1 (homogenize.hpp),
/// the trackers renormalize into the patch and classify endpoints
/// (converged / at infinity / stalled / diverged) with the Cauchy
/// endgame answering t -> 1 stalls.  The device still evaluates the
/// AFFINE target (the homogeneous rows are lifted on the host,
/// projective.hpp), so the paper's uniform structure requirement is
/// untouched.  Affine lockstep tracking stays a library capability
/// (BatchPathTracker over BatchedHomotopy, batch_tracker.hpp) outside
/// the service.
///
/// Reproducibility: a path's trajectory depends only on its start root,
/// gamma, the patch and the evaluators, all identical across shards, so
/// solutions are BITWISE reproducible across shard counts, and equal to
/// the scalar PathTracker over the same evaluators.  Requires a
/// uniform-structure target (pack_system's precondition).

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "homotopy/solver.hpp"
#include "service/solve_service.hpp"
#include "solve/options.hpp"

namespace polyeval::homotopy {

namespace detail {

/// Submit one request of `paths` paths to a service sized for it and
/// drain it.  `start` carries explicit start data, or nullopt for the
/// target's total-degree start.
template <prec::RealScalar S>
SolveSummary<S> solve_one_shot(
    const poly::PolynomialSystem& target, const solve::Options& options,
    std::uint64_t paths,
    std::optional<typename service::SolveRequest<S>::StartData> start) {
  if (paths == 0) return {};
  const unsigned shards = options.sharding.shards;
  const std::size_t per_shard = (paths + shards - 1) / shards;
  typename service::SolveService<S>::Config config;
  config.shards = shards;
  config.workers_per_shard = options.sharding.workers_per_shard;
  config.lockstep_batch = static_cast<unsigned>(
      std::min<std::size_t>(options.sharding.lockstep_batch, per_shard));
  config.slots_per_shard = per_shard;
  config.max_tenants = 1;
  config.max_queued = 1;
  config.max_paths_per_request = paths;
  service::SolveService<S> svc(std::move(config));

  auto ticket = svc.submit({target, options, std::move(start),
                            /*round_budget=*/0, /*modeled_deadline_us=*/0.0});
  if (!ticket.admitted())
    throw std::invalid_argument("track_paths_sharded: request rejected: " +
                                std::string(to_string(ticket.verdict())));
  svc.drain();
  return ticket.report().to_summary();
}

}  // namespace detail

/// Track the given AFFINE start roots of `start_system` through the
/// gamma homotopy to roots of `target`, paths distributed over device
/// shards.  summary.paths[i] is the i-th start root's result: its
/// solution is the patched projective point (n+1 coordinates,
/// homotopy::dehomogenize for the affine chart) and its status
/// classifies the endpoint.
template <prec::RealScalar S>
SolveSummary<S> track_paths_sharded(
    const poly::PolynomialSystem& target, const poly::PolynomialSystem& start_system,
    const std::vector<std::vector<cplx::Complex<S>>>& start_roots,
    cplx::Complex<double> gamma, const solve::Options& options = {}) {
  options.validate();
  return detail::solve_one_shot<S>(
      target, options, start_roots.size(),
      typename service::SolveRequest<S>::StartData{start_system, start_roots,
                                                   gamma});
}

/// Track the total-degree paths of `target` over device shards -- the
/// sharded counterpart of solve_total_degree, with the evaluation work
/// running on the shards' devices.
template <prec::RealScalar S>
SolveSummary<S> solve_total_degree_sharded(const poly::PolynomialSystem& target,
                                           const solve::Options& options = {}) {
  options.validate();
  const TotalDegreeStart start(target);
  std::uint64_t paths = start.num_paths();
  if (options.sharding.max_paths > 0)
    paths = std::min(paths, options.sharding.max_paths);
  else if (start.num_paths_saturated())
    throw std::invalid_argument(
        "solve_total_degree_sharded: Bezout number exceeds 2^64; set max_paths");
  return detail::solve_one_shot<S>(target, options, paths, std::nullopt);
}

}  // namespace polyeval::homotopy
