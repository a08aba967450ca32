// End-to-end path-tracking throughput: tracked paths per second for the
// lockstep batched tracker against the per-path baseline on Table-1
// style total-degree workloads -- the repo's first end-to-end number,
// and the workload the fused one-block-per-point schedule was built
// for.
//
// Every table row tracks in the service's PROJECTIVE geometry and reports
// solved_frac -- the fraction of paths with a CLASSIFIED endpoint
// (converged or at infinity); the projective tracker + Cauchy endgame
// must classify > 90% of the dim-16 double workload (gated, and
// regression-gated against the committed baseline).  Lockstep and
// per-path results are checked BITWISE identical path by path, so the
// work compared is exactly equal; the dim-16 results are additionally
// checked bitwise across shard counts 1/2/4.
//
// The lockstep rows run the production engine (the solve service, via
// solve_total_degree_sharded); the per-path rows run the scalar
// PathTracker oracle (tests/parity_oracles.hpp) on one device.
//
// Two clocks, as everywhere in this repo (docs/ARCHITECTURE.md):
//
//   * the MODELED DEVICE CLOCK is where the batching argument is
//     deterministic: the per-path tracker feeds the device one-block
//     grids (13 of 14 SMs idle, one launch per corrector stage), the
//     lockstep tracker sends the whole live set per launch.  Each
//     tracker's per-round launch logs are costed with the timing model.
//     Two modeled pairs run the library trackers directly on one
//     device: the AFFINE pair (BatchedHomotopy vs Homotopy), which
//     carries the >= 2x gate on the dim-16 workload in every mode, and
//     the PROJECTIVE pair (BatchedProjectiveHomotopy vs
//     ProjectiveHomotopy), reported ungated.  Both report points per
//     fused launch and the fraction of launches that replayed memoized
//     kernel stats.
//   * the HOST WALL CLOCK end to end (shards and device workers): the
//     lockstep mode keeps every device worker busy inside each launch
//     while the per-path mode leaves them spinning at one block per
//     launch.  The gated pair runs both modes on ONE device with four
//     host threads (1 manager + 3 device workers) -- identical
//     resources, so the ratio isolates what batching buys: per-path
//     single-block launches can occupy only one of the four threads,
//     lockstep fills all of them.  The >= 2x tracked-paths/sec gate
//     binds on full runs on >= 4 cores (the bench_sharding policy);
//     quick mode and small hosts report without gating.  The 2- and
//     4-shard lockstep configurations are reported ungated alongside.
//
// Emits BENCH_tracking.json; `--quick` is the CI smoke configuration.

#include <cstring>
#include <iostream>
#include <thread>
#include <tuple>
#include <utility>

#include "benchutil/json.hpp"
#include "benchutil/stamp.hpp"
#include "benchutil/table.hpp"
#include "benchutil/timer.hpp"
#include "../tests/parity_oracles.hpp"
#include "homotopy/sharded_solver.hpp"
#include "poly/random_system.hpp"
#include "simt/timing.hpp"

namespace {

using namespace polyeval;

poly::PolynomialSystem table1_system(unsigned dim) {
  poly::SystemSpec spec;
  spec.dimension = dim;
  spec.monomials_per_polynomial = 22;  // Table 1 structure
  spec.variables_per_monomial = 9;
  spec.max_exponent = 2;
  spec.seed = 42;
  return poly::make_random_system(spec);
}

template <prec::RealScalar S>
bool summaries_bitwise_equal(const homotopy::SolveSummary<S>& a,
                             const homotopy::SolveSummary<S>& b) {
  if (a.paths.size() != b.paths.size() || a.successes != b.successes ||
      a.at_infinity != b.at_infinity)
    return false;
  for (std::size_t p = 0; p < a.paths.size(); ++p) {
    const auto& x = a.paths[p];
    const auto& y = b.paths[p];
    if (x.success != y.success || x.status != y.status || x.winding != y.winding ||
        x.steps != y.steps ||
        x.rejections != y.rejections || x.final_residual != y.final_residual ||
        x.t_reached != y.t_reached || x.solution.size() != y.solution.size())
      return false;
    for (std::size_t i = 0; i < x.solution.size(); ++i)
      if (cplx::max_abs_diff(x.solution[i], y.solution[i]) != 0.0) return false;
  }
  return true;
}

struct ModeRow {
  double wall_us_per_path = 0.0;
  double paths_per_sec = 0.0;
  std::uint64_t successes = 0;
  std::uint64_t at_infinity = 0;
  double solved_frac = 0.0;  ///< classified endpoints / paths
  std::uint64_t steps = 0;
  std::uint64_t rejections = 0;
};

/// How a row tracks its paths.
enum class Mode {
  kLockstep,  ///< the solve service over `shards` devices
  kPerPath,   ///< the scalar PathTracker oracle on one device
};

/// One end-to-end timing of `paths` total-degree paths in the given
/// mode (construction included: this is the number a fresh solve
/// pays).  Per-path rows ignore `shards`.
template <prec::RealScalar S>
ModeRow run_mode(const poly::PolynomialSystem& sys, std::uint64_t paths, Mode mode,
                 unsigned shards, unsigned workers_per_shard, double min_seconds,
                 homotopy::SolveSummary<S>* out = nullptr,
                 unsigned max_steps = 3000) {
  solve::Options opt;
  opt.sharding.shards = shards;
  opt.sharding.workers_per_shard = workers_per_shard;
  opt.sharding.max_paths = paths;
  opt.tracking.track.max_steps = max_steps;

  ModeRow row;
  homotopy::SolveSummary<S> summary;
  const double sec = benchutil::time_per_call(
      [&] {
        summary = mode == Mode::kLockstep
                      ? homotopy::solve_total_degree_sharded<S>(sys, opt)
                      : oracle::perpath_total_degree<S>(sys, opt, workers_per_shard);
      },
      min_seconds);
  if (summary.attempted != paths)
    std::cout << "WARNING: attempted " << summary.attempted << " of " << paths
              << " paths\n";
  row.wall_us_per_path = sec * 1e6 / static_cast<double>(paths);
  row.paths_per_sec = static_cast<double>(paths) / sec;
  row.successes = summary.successes;
  row.at_infinity = summary.at_infinity;
  row.solved_frac =
      static_cast<double>(summary.classified()) / static_cast<double>(paths);
  for (const auto& p : summary.paths) {
    row.steps += p.steps;
    row.rejections += p.rejections;
  }
  if (out) *out = std::move(summary);
  return row;
}

/// One modeled-clock run: device µs priced by the timing model, plus
/// the launch shape behind it -- fused launches, the points they
/// carried (one block per point), and how many replayed memoized
/// kernel stats instead of running instrumented.
struct ModeledRun {
  double us = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t points = 0;
  std::uint64_t replayed = 0;

  /// Fold in the device log of one round (lockstep) or one path
  /// (per-path).
  void add(const simt::Device& device) {
    us += simt::estimate_log_us(device.log(), device.spec(), simt::GpuCostModel{});
    for (const auto& k : device.log().kernels) {
      ++launches;
      points += k.blocks;
    }
  }
  [[nodiscard]] double points_per_launch() const {
    return launches > 0 ? static_cast<double>(points) / static_cast<double>(launches)
                        : 0.0;
  }
  [[nodiscard]] double replayed_frac() const {
    return launches > 0
               ? static_cast<double>(replayed) / static_cast<double>(launches)
               : 0.0;
  }
};

/// The first `paths` total-degree start roots, embedded in `patch` when
/// it is non-empty (projective tracking).
std::vector<std::vector<cplx::Complex<double>>> start_roots(
    const homotopy::TotalDegreeStart& start, std::uint64_t paths,
    std::span<const cplx::Complex<double>> patch) {
  std::vector<std::vector<cplx::Complex<double>>> roots;
  for (std::uint64_t p = 0; p < paths; ++p) {
    const auto rd = start.start_root(p);
    std::vector<cplx::Complex<double>> r(rd.begin(), rd.end());
    roots.push_back(patch.empty() ? std::move(r)
                                  : homotopy::embed_in_patch<double>(
                                        std::span<const cplx::Complex<double>>(r),
                                        patch));
  }
  return roots;
}

/// Modeled device time of the LOCKSTEP tracker: a single-shard direct
/// run, each round's launch log costed with the timing model (round()
/// clears the log on entry, so after it returns the log is exactly that
/// round's launches).  Affine: BatchedHomotopy; projective: the
/// single-system BatchedProjectiveHomotopy on the solve service's
/// default patch.
ModeledRun modeled_lockstep(const poly::PolynomialSystem& sys, std::uint64_t paths,
                            bool projective) {
  using F = core::FusedGpuEvaluator<double>;
  const solve::Options defaults;
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(defaults.gamma_seed);
  simt::Device device;
  F f(device, sys, static_cast<unsigned>(paths));
  homotopy::TrackOptions topt;
  topt.max_steps = 3000;

  ModeledRun run;
  const auto track = [&](auto& tracker, const auto& roots) {
    tracker.start(roots, 0, roots.size());
    for (;;) {
      const std::size_t live = tracker.round();
      run.add(device);
      if (live == 0) break;
    }
  };
  if (projective) {
    const auto patch =
        homotopy::random_patch(sys.dimension() + 1, defaults.tracking.patch_seed);
    homotopy::BatchedProjectiveHomotopy<double, F> h(f, sys, start.system(), gamma,
                                                     patch);
    homotopy::BatchPathTracker<double, homotopy::BatchedProjectiveHomotopy<double, F>>
        tracker(device, h, topt, paths);
    track(tracker, start_roots(start, paths, patch));
  } else {
    ad::CpuEvaluator<double> g(start.system());
    homotopy::BatchPathTracker<double, F> tracker(device, f, g, gamma, topt, paths);
    track(tracker, start_roots(start, paths, {}));
  }
  run.replayed = device.replayed_launches();
  return run;
}

/// Modeled device time of the PER-PATH tracker: the scalar PathTracker
/// over a capacity-1 fused evaluator, one device log per path.
/// Affine: Homotopy; projective: ProjectiveHomotopy.
ModeledRun modeled_perpath(const poly::PolynomialSystem& sys, std::uint64_t paths,
                           bool projective) {
  using F = core::FusedGpuEvaluator<double>;
  using G = ad::CpuEvaluator<double>;
  const solve::Options defaults;
  const homotopy::TotalDegreeStart start(sys);
  const auto gamma = homotopy::random_gamma(defaults.gamma_seed);
  simt::Device device;
  F f(device, sys, 1);
  homotopy::TrackOptions topt;
  topt.max_steps = 3000;

  ModeledRun run;
  const auto track = [&](auto& tracker, const auto& roots) {
    for (const auto& root : roots) {
      device.clear_log();
      (void)tracker.track(std::span<const cplx::Complex<double>>(root));
      run.add(device);
    }
  };
  if (projective) {
    const auto patch =
        homotopy::random_patch(sys.dimension() + 1, defaults.tracking.patch_seed);
    homotopy::ProjectiveHomotopy<double, F> h(f, sys, start.system(), gamma, patch);
    homotopy::PathTracker<double, homotopy::ProjectiveHomotopy<double, F>> tracker(
        h, topt);
    track(tracker, start_roots(start, paths, patch));
  } else {
    G g(start.system());
    homotopy::Homotopy<double, F, G> h(f, g, gamma);
    homotopy::PathTracker<double, F, G> tracker(h, topt);
    track(tracker, start_roots(start, paths, {}));
  }
  run.replayed = device.replayed_launches();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const unsigned shards = 2;
  const unsigned host_cores = std::thread::hardware_concurrency();
  const double min_seconds = 0.01;  // one tracking run is itself seconds

  const std::uint64_t paths16 = quick ? 6 : 16;
  /// The modeled batching win scales with the batch (B blocks fill B of
  /// the 14 SMs); 8 paths is comfortably past the 2x gate while staying
  /// smoke-test sized.
  const std::uint64_t paths_modeled = 8;

  std::cout << "=== Lockstep batched tracking throughput (tracked paths/sec) ===\n"
            << "Table-1 structure, total-degree start; gated pair: 1 shard x 4 "
               "host threads, reported pairs: "
            << shards << " shards x 2 threads\n"
            << "host cores: " << host_cores << "\n\n";

  benchutil::Table table({"workload", "mode", "wall us/path", "paths/sec",
                          "ok", "inf", "solved", "steps", "rej"});
  benchutil::JsonWriter json;
  json.begin_object();
  json.field("bench", "tracking");
  polyeval::benchutil::emit_stamp(json);
  json.key("workload");
  json.begin_object()
      .field("monomials_per_polynomial", 22u)
      .field("variables_per_monomial", 9u)
      .field("max_exponent", 2u)
      .field("shards", shards)
      .field("workers_per_shard", 1u)
      .field("max_steps", 3000u)
      .field("quick", quick)
      .end_object();
  json.field("host_hardware_concurrency", std::uint64_t{host_cores});
  json.key("rows");
  json.begin_array();

  const auto emit = [&](const char* workload, const char* mode, const ModeRow& r) {
    table.add_row({workload, mode, benchutil::format_fixed(r.wall_us_per_path, 1),
                   benchutil::format_fixed(r.paths_per_sec, 3),
                   std::to_string(r.successes), std::to_string(r.at_infinity),
                   benchutil::format_fixed(r.solved_frac, 3),
                   std::to_string(r.steps), std::to_string(r.rejections)});
    json.begin_object()
        .field("workload", workload)
        .field("mode", mode)
        .field("wall_us_per_path", r.wall_us_per_path)
        .field("paths_per_sec", r.paths_per_sec)
        .field("successes", r.successes)
        .field("at_infinity", r.at_infinity)
        .field("solved_frac", r.solved_frac)
        .field("steps", r.steps)
        .field("rejections", r.rejections)
        .end_object();
  };

  // -- dim 16, double: the gated pair and the solved-paths rows ---------
  // One device, four host threads (manager + 3 device workers) for BOTH
  // modes: identical resources, so tracked-paths/sec isolates the
  // launch-level parallelism batching buys.  The projective tracker +
  // Cauchy endgame must CLASSIFY > 90% of the workload, and lockstep
  // results must be bitwise identical to the scalar (per-path) tracker
  // and across shard counts 1/2/4.
  const auto sys16 = table1_system(16);
  homotopy::SolveSummary<double> proj_lock, proj_path;
  const auto row_proj_lock = run_mode<double>(sys16, paths16, Mode::kLockstep, 1,
                                              3, min_seconds, &proj_lock);
  emit("table1_dim16_proj", "lockstep_fused_1x4", row_proj_lock);
  const auto row_proj_path = run_mode<double>(sys16, paths16, Mode::kPerPath, 1,
                                              3, min_seconds, &proj_path);
  emit("table1_dim16_proj", "perpath_fused_1x4", row_proj_path);
  bool bitwise_all = summaries_bitwise_equal(proj_lock, proj_path);
  bool proj_bitwise = bitwise_all;
  for (const unsigned proj_shards : {2u, 4u}) {
    homotopy::SolveSummary<double> proj_s;
    emit("table1_dim16_proj",
         proj_shards == 2 ? "lockstep_fused_2shard" : "lockstep_fused_4shard",
         run_mode<double>(sys16, paths16, Mode::kLockstep, proj_shards, 1,
                          min_seconds, &proj_s));
    proj_bitwise = proj_bitwise && summaries_bitwise_equal(proj_lock, proj_s);
  }
  const double proj_solved_frac = row_proj_lock.solved_frac;

  // Modeled device clock, single shard: deterministic on any host.  The
  // >= 2x gate reads the affine pair; the projective pair (the geometry
  // the service tracks in) is reported beside it, ungated.
  const ModeledRun lock_aff = modeled_lockstep(sys16, paths_modeled, false);
  const ModeledRun path_aff = modeled_perpath(sys16, paths_modeled, false);
  const ModeledRun lock_proj = modeled_lockstep(sys16, paths_modeled, true);
  const ModeledRun path_proj = modeled_perpath(sys16, paths_modeled, true);
  const auto ratio = [](const ModeledRun& perpath, const ModeledRun& lockstep) {
    return lockstep.us > 0.0 ? perpath.us / lockstep.us : 0.0;
  };
  const double modeled_lock_us = lock_aff.us;
  const double modeled_path_us = path_aff.us;
  const double modeled_speedup = ratio(path_aff, lock_aff);
  const double modeled_proj_speedup = ratio(path_proj, lock_proj);

  // -- extended precision: the quality-up rows ---------------------------
  const std::uint64_t paths_dd = 2;
  emit("table1_dim16_dd", "lockstep_fused",
       run_mode<prec::DoubleDouble>(sys16, paths_dd, Mode::kLockstep, shards, 1,
                                    min_seconds));
  if (!quick) {
    emit("table1_dim16_dd", "perpath_fused",
         run_mode<prec::DoubleDouble>(sys16, paths_dd, Mode::kPerPath, shards, 1,
                                      min_seconds));
    // qd arithmetic is ~40x double; cap the row's step budget so the
    // full bench stays minutes-free (report-only row either way).
    emit("table1_dim16_qd", "lockstep_fused",
         run_mode<prec::QuadDouble>(sys16, 1, Mode::kLockstep, shards, 1,
                                    min_seconds, nullptr, 300));

    // -- dim 32: the larger Table-1 column -------------------------------
    const auto sys32 = table1_system(32);
    homotopy::SolveSummary<double> lockstep32, perpath32;
    const auto row_lock32 = run_mode<double>(sys32, 4, Mode::kLockstep, shards, 1,
                                             min_seconds, &lockstep32);
    emit("table1_dim32", "lockstep_fused", row_lock32);
    const auto row_path32 = run_mode<double>(sys32, 4, Mode::kPerPath, shards, 1,
                                             min_seconds, &perpath32);
    emit("table1_dim32", "perpath_fused", row_path32);
    if (!summaries_bitwise_equal(lockstep32, perpath32)) {
      std::cout << "FAIL: dim-32 lockstep results differ from per-path\n";
      bitwise_all = false;
    }
  }
  json.end_array();

  const double host_speedup =
      row_proj_lock.paths_per_sec / row_proj_path.paths_per_sec;

  // Gates.  Bitwise identity across modes and the modeled batching
  // speedup are deterministic and bind in every mode.  The host
  // tracked-paths/sec gate needs cores to back the shard threads, so --
  // the bench_sharding policy -- it binds on full runs on >= 4 cores
  // and is reported otherwise.
  const double target = 2.0;
  const double solved_target = 0.9;
  const bool host_gate_applicable = !quick && host_cores >= 4;
  const bool host_gate_ok = !host_gate_applicable || host_speedup >= target;
  const bool modeled_gate_ok = modeled_speedup >= target;
  const bool bitwise_ok = bitwise_all;
  const bool solved_gate_ok = proj_solved_frac > solved_target;
  const bool proj_bitwise_ok = proj_bitwise;
  json.field("speedup_target", target);
  json.field("host_speedup_lockstep_vs_perpath", host_speedup);
  json.field("host_gate_applicable", host_gate_applicable);
  json.field("modeled_perpath_us", modeled_path_us);
  json.field("modeled_lockstep_us", modeled_lock_us);
  json.field("modeled_speedup_lockstep_vs_perpath", modeled_speedup);
  json.field("modeled_projective_perpath_us", path_proj.us);
  json.field("modeled_projective_lockstep_us", lock_proj.us);
  json.field("modeled_projective_speedup_lockstep_vs_perpath", modeled_proj_speedup);
  json.key("modeled_launch_shape");
  json.begin_array();
  for (const auto& [geometry, mode, run] :
       {std::tuple{"affine", "lockstep", &lock_aff},
        std::tuple{"affine", "perpath", &path_aff},
        std::tuple{"projective", "lockstep", &lock_proj},
        std::tuple{"projective", "perpath", &path_proj}})
    json.begin_object()
        .field("geometry", geometry)
        .field("mode", mode)
        .field("launches", run->launches)
        .field("points_per_launch", run->points_per_launch())
        .field("replayed_launches", run->replayed)
        .field("replayed_launch_frac", run->replayed_frac())
        .end_object();
  json.end_array();
  json.field("bitwise_identical_across_modes", bitwise_ok);
  json.field("solved_frac_target", solved_target);
  json.field("projective_solved_frac", proj_solved_frac);
  json.field("projective_bitwise_modes_and_shards", proj_bitwise_ok);
  json.field("gates_met", bitwise_ok && host_gate_ok && modeled_gate_ok &&
                              solved_gate_ok && proj_bitwise_ok);
  json.end_object();

  std::cout << table.to_string() << "\n"
            << "host lockstep/per-path tracked-paths/sec: "
            << benchutil::format_speedup(host_speedup) << "\n"
            << "modeled device clock, " << paths_modeled
            << " paths, 1 shard: per-path "
            << benchutil::format_fixed(modeled_path_us, 1) << " us -> lockstep "
            << benchutil::format_fixed(modeled_lock_us, 1) << " us ("
            << benchutil::format_speedup(modeled_speedup) << ", gated)\n"
            << "  projective (ungated): per-path "
            << benchutil::format_fixed(path_proj.us, 1) << " us -> lockstep "
            << benchutil::format_fixed(lock_proj.us, 1) << " us ("
            << benchutil::format_speedup(modeled_proj_speedup) << ")\n";
  for (const auto& [name, run] :
       {std::pair{"affine lockstep", &lock_aff}, std::pair{"affine per-path", &path_aff},
        std::pair{"projective lockstep", &lock_proj},
        std::pair{"projective per-path", &path_proj}})
    std::cout << "  " << name << ": " << run->launches << " launches, "
              << benchutil::format_fixed(run->points_per_launch(), 2)
              << " points/launch, " << run->replayed << " replayed\n";

  const char* out_path = "BENCH_tracking.json";
  if (json.write_file(out_path))
    std::cout << "wrote " << out_path << "\n";
  else
    std::cout << "WARNING: could not write " << out_path << "\n";

  std::cout << "projective solved_frac (dim-16 double): "
            << benchutil::format_fixed(proj_solved_frac, 3) << " (target > "
            << benchutil::format_fixed(solved_target, 2) << ")\n";
  if (!bitwise_ok) std::cout << "FAIL: lockstep results differ from per-path\n";
  if (!solved_gate_ok)
    std::cout << "FAIL: projective solved_frac " << proj_solved_frac
              << " below " << solved_target << "\n";
  if (!proj_bitwise_ok)
    std::cout << "FAIL: projective results differ across modes/shard counts\n";
  if (!modeled_gate_ok)
    std::cout << "FAIL: modeled lockstep speedup " << modeled_speedup << " < "
              << target << "\n";
  if (!host_gate_ok)
    std::cout << "FAIL: host tracked-paths/sec speedup " << host_speedup << " < "
              << target << " with " << host_cores << " cores\n";
  else if (!host_gate_applicable)
    std::cout << "note: host throughput gate waived ("
              << (quick ? "quick mode is a smoke run on shared hardware"
                        : "fewer than 4 cores")
              << "); bitwise and modeled gates still bind\n";

  return (bitwise_ok && host_gate_ok && modeled_gate_ok && solved_gate_ok &&
          proj_bitwise_ok)
             ? 0
             : 1;
}
