#pragma once

/// \file batch_evaluator.hpp
/// Extension beyond the paper: evaluate ONE system at MANY points per
/// kernel launch.  The kernel-breakdown bench shows ~70-85% of the
/// modeled per-evaluation time is the fixed floor (three launches plus
/// the PCIe round trip); path trackers that can batch predictor points
/// or track many paths in lockstep amortize that floor.  Grids grow by
/// the batch factor: block index = point * blocks_per_point + chunk.
/// The kernels are the paper's three from kernels.hpp, built with that
/// per-point block stride; this class only sizes the batched buffers
/// and grids, resolves the tuned geometry and stages the transfers.

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/kernels.hpp"
#include "poly/eval_result.hpp"
#include "simt/timing.hpp"
#include "tune/autotuner.hpp"

namespace polyeval::core {

template <prec::RealScalar S>
class BatchGpuEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    /// 0 = auto: measured tuning (or the paper's one-warp 32-thread
    /// seed in kHeuristic mode).  Nonzero pins it.
    unsigned block_size = 0;
    /// Element layout of the CommonFactors/Mons interchange buffers;
    /// results are bitwise identical under either (see layout.hpp).
    /// nullopt = auto (tuned, or AoS in kHeuristic mode).
    std::optional<InterchangeLayout> interchange;
    /// How the auto knobs resolve (the pin rule: tune::resolve_geometry).
    tune::TuningMode tuning = tune::TuningMode::kMeasured;
  };

  /// Packs the system and sizes the device arrays for `batch_capacity`
  /// simultaneous points.
  BatchGpuEvaluator(simt::Device& device, const poly::PolynomialSystem& system,
                    unsigned batch_capacity, Options options = {})
      : device_(device),
        options_(options),
        capacity_(batch_capacity),
        packed_(pack_system(system)),
        layout_(packed_.structure) {
    if (capacity_ == 0)
      throw std::invalid_argument("BatchGpuEvaluator: zero batch capacity");
    // The paper's one-warp block seeds candidates {32, 64, 128}; a
    // candidate whose kernel-2 shared tile overflows the per-block
    // limit throws LaunchError and reads as infeasible.
    options_ = tune::resolve_geometry(
        options_,
        [&] {
          static constexpr unsigned kBlocks[] = {32, 64, 128};
          static constexpr unsigned kStreams[] = {2};
          const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
          return tune::GeometrySearch{
              tune::TuneKey::make(tune::TunedSchedule::kBatch, packed_.structure,
                                  capacity_, 0, width, device_.spec()),
              32, kBlocks, kStreams};
        },
        [&](const Options& pinned) -> std::optional<tune::ProbeOutcome> {
          try {
            return detail::probe_zero_batch<S, BatchGpuEvaluator>(
                device_.spec(), system, capacity_, pinned);
          } catch (const simt::LaunchError&) {
            return std::nullopt;
          }
        });
    const auto s = packed_.structure;

    const auto encoded = encode_exponents(ExponentEncoding::kChar, packed_.exponents);
    bufs_.positions =
        device_.alloc_constant<unsigned char>(packed_.positions.size(), "Positions");
    bufs_.exponents = device_.alloc_constant<unsigned char>(encoded.size(), "Exponents");
    device_.upload_constant(bufs_.positions,
                            std::span<const unsigned char>(packed_.positions));
    device_.upload_constant(bufs_.exponents, std::span<const unsigned char>(encoded));

    bufs_.x = device_.alloc_global<C>(std::size_t{capacity_} * s.n, "X[batch]");
    bufs_.coeffs = device_.alloc_global<C>(layout_.coeffs_size(), "Coeffs");
    bufs_.common_factors.allocate(device_,
                                  std::size_t{capacity_} * layout_.total_monomials(),
                                  "CommonFactors[batch]", *options_.interchange);
    bufs_.mons.allocate(device_, std::size_t{capacity_} * layout_.mons_size(),
                        "Mons[batch]", *options_.interchange);
    bufs_.outputs = device_.alloc_global<C>(
        std::size_t{capacity_} * layout_.num_outputs(), "Outputs[batch]");

    std::vector<C> coeffs(layout_.coeffs_size());
    detail::fold_coefficients<S>(packed_, layout_, std::span<C>(coeffs));
    device_.upload(bufs_.coeffs, std::span<const C>(coeffs));
    bufs_.mons.fill_zero(device_);

    // Persistent host-side scratch: steady-state evaluate() calls reuse
    // these and perform zero heap allocations.
    flat_.reserve(std::size_t{capacity_} * s.n);
    host_outputs_.reserve(std::size_t{capacity_} * layout_.num_outputs());

    blocks_per_point_ = static_cast<unsigned>(
        (layout_.total_monomials() + options_.block_size - 1) / options_.block_size);
    out_blocks_per_point_ = static_cast<unsigned>(
        (layout_.num_outputs() + options_.block_size - 1) / options_.block_size);
    kernel1_ = make_common_factor_kernel<S>(bufs_, layout_, ExponentEncoding::kChar,
                                            blocks_per_point_, "batch_cfactors");
    kernel2_ = make_speelpenning_kernel<S>(bufs_, layout_, blocks_per_point_,
                                           "batch_speel");
    kernel3_ = make_summation_kernel<S>(bufs_, layout_, layout_.num_outputs(),
                                        out_blocks_per_point_, "batch_sum");
    shared1_ = std::size_t{s.n} * s.d * sizeof(C);
    shared2_ =
        (std::size_t{s.n} + std::size_t{options_.block_size} * (s.k + 1)) * sizeof(C);
  }

  [[nodiscard]] unsigned dimension() const noexcept { return packed_.structure.n; }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }
  [[nodiscard]] const SystemLayout& layout() const noexcept { return layout_; }
  /// Resolved options: block_size is nonzero and interchange engaged.
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Launches issued per evaluate_range call (shard schedulers pre-size
  /// device logs with this).
  static constexpr unsigned kLaunchesPerBatch = 3;
  [[nodiscard]] unsigned launches_per_batch() const noexcept {
    return kLaunchesPerBatch;
  }

  /// Evaluate at points.size() <= batch_capacity() points with one
  /// upload, three launches and one download.
  void evaluate(const std::vector<std::vector<C>>& points,
                std::vector<poly::EvalResult<S>>& results) {
    if (points.empty() || points.size() > capacity_)
      throw std::invalid_argument("BatchGpuEvaluator: bad batch size");
    results.resize(points.size());
    evaluate_range(points, 0, points.size(), std::span<poly::EvalResult<S>>(results));
  }

  /// Evaluate the `count` points starting at points[first], writing
  /// out[i] for the i-th point of the range: the shard-facing staging
  /// entry a ShardedEvaluator drives (see fused_evaluator.hpp for the
  /// range/merge contract).  Grids cover only the range, so a chunk of
  /// c points costs c * blocks_per_point blocks, and each point's
  /// arithmetic is independent of its chunk -- bitwise identical under
  /// any chunking.
  void evaluate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::span<poly::EvalResult<S>> out) {
    const unsigned s_n = packed_.structure.n;
    detail::check_range("BatchGpuEvaluator", points, first, count, capacity_, s_n,
                        out.size(), count);
    const auto batch = static_cast<unsigned>(count);

    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;

    detail::pack_points(points, first, count, s_n, flat_);
    device_.upload(bufs_.x, std::span<const C>(flat_));

    (void)device_.launch(kernel1_,
                         {batch * blocks_per_point_, options_.block_size, shared1_});
    (void)device_.launch(kernel2_,
                         {batch * blocks_per_point_, options_.block_size, shared2_});
    (void)device_.launch(kernel3_,
                         {batch * out_blocks_per_point_, options_.block_size, 0});

    host_outputs_.resize(std::size_t{batch} * layout_.num_outputs());
    device_.download(bufs_.outputs, std::span<C>(host_outputs_));

    for (unsigned p = 0; p < batch; ++p)
      detail::unpack_outputs<S>(layout_, std::span<const C>(host_outputs_),
                                std::size_t{p} * layout_.num_outputs(), out[p]);

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

 private:
  simt::Device& device_;
  Options options_;
  unsigned capacity_;
  PackedSystem packed_;
  SystemLayout layout_;

  DeviceBuffers<S> bufs_;
  simt::Kernel kernel1_, kernel2_, kernel3_;
  std::size_t shared1_ = 0, shared2_ = 0;
  unsigned blocks_per_point_ = 0, out_blocks_per_point_ = 0;
  std::vector<C> flat_;          ///< packed upload staging, reused
  std::vector<C> host_outputs_;  ///< download staging, reused
  simt::LaunchLog last_log_;
};

}  // namespace polyeval::core
