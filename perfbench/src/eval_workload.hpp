#pragma once

// The paper's own experiment: one caller with one batch outstanding
// evaluates a Table-2-shaped system and its full Jacobian in
// double-double on FusedGpuEvaluator, batch after batch, cycling over a
// seeded pool of distinct points.  A run is a fixed number of batches
// sized from --seconds, so its counts repeat exactly for one seed.

#include <span>
#include <vector>

#include "ad/cpu_evaluator.hpp"
#include "common.hpp"
#include "core/fused_evaluator.hpp"
#include "poly/random_system.hpp"
#include "prec/double_double.hpp"
#include "probes.hpp"
#include "simt/timing.hpp"
#include "tune/autotuner.hpp"

namespace perfbench {

using namespace polyeval;

struct EvalPlan {
  poly::SystemSpec system;     ///< shape; seed filled from --seed
  unsigned batch = 64;         ///< points per evaluate_range call
  unsigned pool_batches = 8;  ///< distinct seeded points = pool_batches x batch
  double nominal_batches_per_s = 10.0;  ///< sizes the run from --seconds
  unsigned host_workers = 3;
  unsigned checked_per_batch = 2;  ///< points compared with the CPU reference
  unsigned setup_reps = 3;
};

struct EvalOutcome {
  double evals_per_s = 0, latency_p50_ms = 0, cpu_us_per_eval = 0;
  double modeled_us_per_eval = 0, wall_s = 0;
  std::uint64_t checked = 0, failed = 0, evals = 0;
  std::uint64_t digest = 0;
};

class EvalWorkload {
  using S = prec::DoubleDouble;
  using C = cplx::Complex<S>;

 public:
  EvalWorkload(EvalPlan plan, std::uint64_t seed)
      : plan_(seeded(std::move(plan), seed)),
        seed_(seed),
        system_(poly::make_random_system(plan_.system)) {
    const unsigned pool = plan_.batch * plan_.pool_batches;
    for (unsigned p = 0; p < pool; ++p)
      points_.push_back(poly::make_random_point<S>(plan_.system.dimension, mix(seed_, 100 + p)));
    results_.assign(plan_.batch, poly::EvalResult<S>(plan_.system.dimension));
  }

  /// Construct the device and evaluator (measured tuning from a cold
  /// TuneCache) and run the first evaluation.
  SetupTime setup() {
    const auto teardown = [&] {
      ev_.reset();
      dev_.reset();
      tune::Autotuner::global().cache().clear();
    };
    return time_setup(plan_.setup_reps, teardown, [&] {
      dev_ = std::make_unique<simt::Device>(simt::DeviceSpec::tesla_c2050(),
                                            plan_.host_workers);
      ev_ = std::make_unique<core::FusedGpuEvaluator<S>>(*dev_, system_, plan_.batch);
      evaluate(0);
      dev_->clear_log();
    });
  }

  /// Evaluate round(seconds x nominal rate) batches, cycling over the
  /// point pool.
  EvalOutcome run(double seconds, double hard_stop_wall, SpanLog& spans) {
    const auto total = static_cast<unsigned>(
        std::max(1.0, std::round(seconds * plan_.nominal_batches_per_s)));
    EvalOutcome out;
    std::vector<double> latencies;
    double cpu_total = 0;
    const double w0 = wall_s();
    for (unsigned i = 0; i < total && wall_s() < hard_stop_wall; ++i) {
      const unsigned b = i % plan_.pool_batches;
      const auto span = spans.begin("evaluate_range", "client", i);
      const double t0 = wall_s(), c0 = cpu_s();
      evaluate(b);
      const double w = wall_s() - t0;
      cpu_total += cpu_s() - c0;
      spans.end(span);
      latencies.push_back(1e3 * w);
      const auto& log = ev_->last_log();
      modeled_us_ += simt::estimate_log_us(log, dev_->spec(), cost());
      for (const auto& k : log.kernels) {
        launches_[k.kernel] += 1;
        kernel_modeled_[k.kernel] += simt::estimate_kernel_us(k, dev_->spec(), cost());
      }
      h2d_ += static_cast<double>(log.transfers.bytes_to_device);
      d2h_ += static_cast<double>(log.transfers.bytes_from_device);
      dev_->clear_log();
      keep_sample(i, b);
      out.evals += plan_.batch;
    }
    const double wall = wall_s() - w0;
    out.wall_s = wall;
    out.evals_per_s = safe_div(static_cast<double>(out.evals), wall);
    out.latency_p50_ms = median(latencies);
    out.cpu_us_per_eval = safe_div(1e6 * cpu_total, static_cast<double>(out.evals));
    out.modeled_us_per_eval = safe_div(modeled_us_, static_cast<double>(out.evals));
    check(out);
    return out;
  }

  /// Per-layer counts of the run that the eval workload owns.
  void layer_metrics(MetricSink& sink) const {
    for (const char* k : {"mt_fused", "mt_fused_vals", "fused_eval"}) {
      const auto it = launches_.find(k);
      const double n = it == launches_.end() ? 0.0 : it->second;
      const auto mt = kernel_modeled_.find(k);
      sink.add(std::string("core.launches.") + k, n, "count");
      sink.add(std::string("simt.modeled_us.") + k,
               safe_div(mt == kernel_modeled_.end() ? 0.0 : mt->second, n), "us");
    }
    sink.add("simt.dma_bytes_h2d", h2d_, "B");
    sink.add("simt.dma_bytes_d2h", d2h_, "B");
  }

  [[nodiscard]] ProbeShape probe_shape() const {
    ProbeShape p;
    p.system = plan_.system;
    p.batch = plan_.batch;
    p.host_workers = plan_.host_workers;
    p.lu_dimension = 0;
    return p;
  }

  /// Output check of one point: values and Jacobian against the CPU
  /// reference, relative to the largest entry of the result.  Public so
  /// the self-test can feed it a corrupted evaluation.
  [[nodiscard]] static bool point_ok(const ad::CpuEvaluator<S>& cpu, const std::vector<C>& x,
                                     const poly::EvalResult<S>& got) {
    const auto want = cpu.evaluate(std::span<const C>(x));
    double scale = 1.0;
    for (const auto& v : want.values) scale = std::max(scale, to_d(cplx::norm1(v)));
    for (const auto& v : want.jacobian) scale = std::max(scale, to_d(cplx::norm1(v)));
    if (got.values.size() != want.values.size() ||
        got.jacobian.size() != want.jacobian.size())
      return false;
    const double diff = poly::max_abs_diff(want, got);
    return std::isfinite(diff) && diff <= kRelTol * scale;
  }

  /// A checked point and its device result (the self-test corrupts a copy).
  [[nodiscard]] const std::pair<std::vector<C>, poly::EvalResult<S>>& sample() const {
    return samples_.front();
  }
  [[nodiscard]] const poly::PolynomialSystem& system() const { return system_; }

 private:
  /// Double-double carries about 32 digits; the fused kernel and the
  /// CPU evaluator associate sums differently only in the last bits.
  static constexpr double kRelTol = 1e-26;

  static double to_d(const S& v) { return prec::ScalarTraits<S>::to_double(v); }
  static EvalPlan seeded(EvalPlan plan, std::uint64_t seed) {
    plan.system.seed = mix(seed, 1);
    return plan;
  }
  static simt::GpuCostModel cost() {
    simt::GpuCostModel c;
    c.scalar_cost_factor = simt::scalar_cost_factor_for_width(2);
    return c;
  }

  void evaluate(unsigned b) {
    ev_->evaluate_range(points_, std::size_t{b} * plan_.batch, plan_.batch,
                        std::span<poly::EvalResult<S>>(results_));
  }

  /// Copy a seeded sample of batch i for the post-run check (copies
  /// only; the comparison runs after the clocks stop) and fold the
  /// sample into the digest.
  void keep_sample(unsigned i, unsigned b) {
    for (unsigned j = 0; j < plan_.checked_per_batch; ++j) {
      const auto p = static_cast<unsigned>(mix(seed_, mix(i, j)) % plan_.batch);
      samples_.push_back({points_[std::size_t{b} * plan_.batch + p], results_[p]});
      for (const auto& v : results_[p].values) digest_.add(v);
      for (const auto& v : results_[p].jacobian) digest_.add(v);
    }
  }

  void check(EvalOutcome& out) const {
    const ad::CpuEvaluator<S> cpu(system_);
    for (const auto& [x, got] : samples_) {
      ++out.checked;
      if (!point_ok(cpu, x, got)) ++out.failed;
    }
    out.digest = digest_.value();
  }

  EvalPlan plan_;
  std::uint64_t seed_;
  poly::PolynomialSystem system_;
  std::vector<std::vector<C>> points_;
  std::vector<poly::EvalResult<S>> results_;
  std::unique_ptr<simt::Device> dev_;
  std::unique_ptr<core::FusedGpuEvaluator<S>> ev_;
  std::vector<std::pair<std::vector<C>, poly::EvalResult<S>>> samples_;
  Digest digest_;
  double modeled_us_ = 0, h2d_ = 0, d2h_ = 0;
  std::map<std::string, double> launches_, kernel_modeled_;
};

}  // namespace perfbench
