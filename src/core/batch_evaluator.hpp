#pragma once

/// \file batch_evaluator.hpp
/// Extension beyond the paper: evaluate ONE system at MANY points per
/// kernel launch.  The kernel-breakdown bench shows ~70-85% of the
/// modeled per-evaluation time is the fixed floor (three launches plus
/// the PCIe round trip); path trackers that can batch predictor points
/// or track many paths in lockstep amortize that floor.  Grids grow by
/// the batch factor: block index = point * blocks_per_point + chunk.

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
    /// Tuned resolution applies only when both geometry knobs are auto;
    /// pinning either one pins the other to the heuristic seed (a
    /// half-pinned key would poison the cache).
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
    resolve_options(system);
    const auto s = packed_.structure;

    const auto encoded = encode_exponents(ExponentEncoding::kChar, packed_.exponents);
    positions_ =
        device_.alloc_constant<unsigned char>(packed_.positions.size(), "Positions");
    exponents_ = device_.alloc_constant<unsigned char>(encoded.size(), "Exponents");
    device_.upload_constant(positions_,
                            std::span<const unsigned char>(packed_.positions));
    device_.upload_constant(exponents_, std::span<const unsigned char>(encoded));

    x_ = device_.alloc_global<C>(std::size_t{capacity_} * s.n, "X[batch]");
    coeffs_ = device_.alloc_global<C>(layout_.coeffs_size(), "Coeffs");
    common_factors_.allocate(device_,
                             std::size_t{capacity_} * layout_.total_monomials(),
                             "CommonFactors[batch]", *options_.interchange);
    mons_.allocate(device_, std::size_t{capacity_} * layout_.mons_size(),
                   "Mons[batch]", *options_.interchange);
    outputs_ = device_.alloc_global<C>(std::size_t{capacity_} * layout_.num_outputs(),
                                       "Outputs[batch]");

    std::vector<C> coeffs(layout_.coeffs_size());
    detail::fold_coefficients<S>(packed_, layout_, std::span<C>(coeffs));
    device_.upload(coeffs_, std::span<const C>(coeffs));
    mons_.fill_zero(device_);

    // Persistent host-side scratch: steady-state evaluate() calls reuse
    // these and perform zero heap allocations.
    flat_.reserve(std::size_t{capacity_} * s.n);
    host_outputs_.reserve(std::size_t{capacity_} * layout_.num_outputs());

    blocks_per_point_ = static_cast<unsigned>(
        (layout_.total_monomials() + options_.block_size - 1) / options_.block_size);
    out_blocks_per_point_ = static_cast<unsigned>(
        (layout_.num_outputs() + options_.block_size - 1) / options_.block_size);
    build_kernels();
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
    device_.upload(x_, std::span<const C>(flat_));

    (void)device_.launch(kernel1_,
                         {batch * blocks_per_point_, options_.block_size, shared1_});
    (void)device_.launch(kernel2_,
                         {batch * blocks_per_point_, options_.block_size, shared2_});
    (void)device_.launch(kernel3_,
                         {batch * out_blocks_per_point_, options_.block_size, 0});

    host_outputs_.resize(std::size_t{batch} * layout_.num_outputs());
    device_.download(outputs_, std::span<C>(host_outputs_));

    for (unsigned p = 0; p < batch; ++p)
      detail::unpack_outputs<S>(layout_, std::span<const C>(host_outputs_),
                                std::size_t{p} * layout_.num_outputs(), out[p]);

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

 private:
  /// Resolve the auto knobs before any allocation consumes them.  The
  /// heuristic seed is the paper's one-warp block; measured mode probes
  /// block sizes x interchange layouts on a scratch device with a
  /// full-capacity zero-point batch (values cannot move an access
  /// pattern).  Candidates whose kernel-2 shared tile overflows the
  /// per-block limit throw LaunchError and read as infeasible.
  void resolve_options(const poly::PolynomialSystem& system) {
    const bool auto_block = options_.block_size == 0;
    const bool auto_layout = !options_.interchange.has_value();
    if (!auto_block && !auto_layout) return;
    constexpr unsigned kSeedBlock = 32;  // the paper's block size
    if (options_.tuning == tune::TuningMode::kHeuristic || !auto_block ||
        !auto_layout) {
      if (auto_block) options_.block_size = kSeedBlock;
      if (auto_layout) options_.interchange = InterchangeLayout::kAoS;
      return;
    }
    const auto st = packed_.structure;
    const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
    const auto key = tune::TuneKey::make(tune::TunedSchedule::kBatch, st,
                                         capacity_, 0, width, device_.spec());
    const unsigned blocks[] = {32, 64, 128};
    const unsigned streams[] = {2};
    const auto candidates = tune::standard_candidates(kSeedBlock, blocks, streams);
    const auto decision = tune::Autotuner::global().tune(
        key, std::span<const tune::TuneCandidate>(candidates),
        [&](const tune::TuneCandidate& cand) -> std::optional<tune::ProbeOutcome> {
          simt::Device probe_device(device_.spec());
          Options copt = options_;
          copt.block_size = cand.block_size;
          copt.interchange = cand.interchange;
          copt.tuning = tune::TuningMode::kHeuristic;
          try {
            BatchGpuEvaluator probe(probe_device, system, capacity_, copt);
            std::vector<std::vector<C>> pts(capacity_, std::vector<C>(st.n, C{}));
            std::vector<poly::EvalResult<S>> res(capacity_);
            probe.evaluate_range(pts, 0, capacity_,
                                 std::span<poly::EvalResult<S>>(res));
            simt::GpuCostModel cost;
            cost.scalar_cost_factor = simt::scalar_cost_factor_for_width(width);
            tune::ProbeOutcome outcome;
            outcome.modeled_us = simt::estimate_log_us(probe.last_log(),
                                                       probe_device.spec(), cost);
            outcome.log = probe.last_log();
            return outcome;
          } catch (const simt::LaunchError&) {
            return std::nullopt;  // shared tile scales with block size
          }
        });
    options_.block_size = decision.choice.block_size;
    options_.interchange = decision.choice.interchange;
  }

  void build_kernels() {
    const auto s = packed_.structure;
    const unsigned n = s.n, d = s.d, k = s.k;
    const std::uint64_t monomials = layout_.total_monomials();
    const auto layout = layout_;
    const unsigned bpp = blocks_per_point_;
    const unsigned obpp = out_blocks_per_point_;
    const auto x = x_;
    const auto coeffs = coeffs_;
    const auto cf_buf = common_factors_;
    const auto mons = mons_;
    const auto outputs_buf = outputs_;
    const auto positions = positions_;
    const auto exponents = exponents_;

    shared1_ = std::size_t{n} * d * sizeof(C);
    shared2_ = (std::size_t{n} + std::size_t{options_.block_size} * (k + 1)) * sizeof(C);

    // Kernel names stay <= 15 chars: KernelStats copies them per launch
    // and SSO-sized strings keep those copies off the allocator (the
    // zero-alloc steady-state guarantee).
    kernel1_.name = "batch_cfactors";
    kernel1_.phases = {
        [x, n, d, bpp](simt::ThreadContext& ctx) {
          const std::size_t point = ctx.block_index() / bpp;
          auto powers = ctx.template shared_array<C>(0, std::size_t{n} * d);
          bool worked = false;
          for (unsigned v = ctx.thread_index(); v < n; v += ctx.block_dim()) {
            worked = true;
            powers.set(v, C(S(1.0)));
            if (d >= 2) {
              const C xv = ctx.load(x, point * n + v);
              powers.set(std::size_t{n} + v, xv);
              for (unsigned e = 2; e < d; ++e) {
                const C next = powers.get(std::size_t{e - 1} * n + v) * xv;
                ctx.op_cmul();
                powers.set(std::size_t{e} * n + v, next);
              }
            }
          }
          if (!worked) ctx.mark_inactive();
        },
        [cf_buf, positions, exponents, layout, n, d, k, monomials,
         bpp](simt::ThreadContext& ctx) {
          const std::size_t point = ctx.block_index() / bpp;
          const std::uint64_t g =
              std::uint64_t{ctx.block_index() % bpp} * ctx.block_dim() +
              ctx.thread_index();
          if (g >= monomials) {
            ctx.mark_inactive();
            return;
          }
          auto powers = ctx.template shared_array<C>(0, std::size_t{n} * d);
          C cf(S(1.0));
          for (unsigned j = 0; j < k; ++j) {
            const auto idx = layout.support_index(g, j);
            const unsigned pos = ctx.load_constant(positions, idx);
            const unsigned em1 = ctx.load_constant(exponents, idx);
            const C val = powers.get(std::size_t{em1} * n + pos);
            if (j == 0) {
              cf = val;
            } else {
              cf = cf * val;
              ctx.op_cmul();
            }
          }
          cf_buf.store(ctx, point * monomials + g, cf);
        },
    };

    kernel2_.name = "batch_speel";
    kernel2_.phases = {
        [x, n, bpp](simt::ThreadContext& ctx) {
          const std::size_t point = ctx.block_index() / bpp;
          auto svars = ctx.template shared_array<C>(0, n);
          bool worked = false;
          for (unsigned v = ctx.thread_index(); v < n; v += ctx.block_dim()) {
            worked = true;
            svars.set(v, ctx.load(x, point * n + v));
          }
          if (!worked) ctx.mark_inactive();
        },
        [cf_buf, coeffs, mons, positions, layout, n, k, monomials,
         bpp](simt::ThreadContext& ctx) {
          const std::size_t point = ctx.block_index() / bpp;
          const std::uint64_t g =
              std::uint64_t{ctx.block_index() % bpp} * ctx.block_dim() +
              ctx.thread_index();
          if (g >= monomials) {
            ctx.mark_inactive();
            return;
          }
          auto svars = ctx.template shared_array<C>(0, n);
          auto ell = ctx.template shared_array<C>(
              std::size_t{n} * sizeof(C), std::size_t{ctx.block_dim()} * (k + 1));
          const std::size_t base = std::size_t{ctx.thread_index()} * (k + 1);
          const std::size_t mons_base = point * layout.mons_size();

          std::array<unsigned, 256> pos{};
          for (unsigned j = 0; j < k; ++j)
            pos[j] = ctx.load_constant(positions, layout.support_index(g, j));
          const auto var = [&](unsigned j) { return svars.get(pos[j]); };

          if (k == 2) {
            ell.set(base + 0, var(1));
            ell.set(base + 1, var(0));
          } else if (k >= 3) {
            ell.set(base + 1, var(0));
            for (unsigned r = 2; r < k; ++r) {
              const C fwd = ell.get(base + r - 1) * var(r - 1);
              ctx.op_cmul();
              ell.set(base + r, fwd);
            }
            C q = var(k - 1);
            {
              const C v2 = ell.get(base + k - 2) * q;
              ctx.op_cmul();
              ell.set(base + k - 2, v2);
            }
            for (unsigned r = 1; r + 2 < k; ++r) {
              q = q * var(k - 1 - r);
              ctx.op_cmul();
              const C v2 = ell.get(base + k - 2 - r) * q;
              ctx.op_cmul();
              ell.set(base + k - 2 - r, v2);
            }
            const C first = q * var(1);
            ctx.op_cmul();
            ell.set(base + 0, first);
          }

          const C cf = cf_buf.load(ctx, point * monomials + g);
          if (k == 1) {
            ell.set(base + 0, cf);
          } else {
            for (unsigned j = 0; j < k; ++j) {
              const C v2 = ell.get(base + j) * cf;
              ctx.op_cmul();
              ell.set(base + j, v2);
            }
          }
          {
            const C value = ell.get(base + k - 1) * var(k - 1);
            ctx.op_cmul();
            ell.set(base + k, value);
          }
          for (unsigned j = 0; j <= k; ++j) {
            const C c = ctx.load(coeffs, layout.coeff_index(j, g));
            const C v2 = ell.get(base + j) * c;
            ctx.op_cmul();
            ell.set(base + j, v2);
          }

          mons.store(ctx, mons_base + layout.mons_value_index(g), ell.get(base + k));
          for (unsigned j = 0; j < k; ++j)
            mons.store(ctx, mons_base + layout.mons_deriv_index(g, pos[j]),
                       ell.get(base + j));
        },
    };

    kernel3_.name = "batch_sum";
    const unsigned m = s.m;
    const std::uint64_t outs = layout_.num_outputs();
    kernel3_.phases = {
        [mons, outputs_buf, layout, m, outs, obpp](simt::ThreadContext& ctx) {
          const std::size_t point = ctx.block_index() / obpp;
          const std::uint64_t out =
              std::uint64_t{ctx.block_index() % obpp} * ctx.block_dim() +
              ctx.thread_index();
          if (out >= outs) {
            ctx.mark_inactive();
            return;
          }
          const std::size_t mons_base = point * layout.mons_size();
          C sum = mons.load(ctx, mons_base + layout.mons_index(out, 0));
          for (unsigned j = 1; j < m; ++j) {
            sum += mons.load(ctx, mons_base + layout.mons_index(out, j));
            ctx.op_cadd();
          }
          ctx.store(outputs_buf, point * outs + out, sum);
        },
    };
  }

  simt::Device& device_;
  Options options_;
  unsigned capacity_;
  PackedSystem packed_;
  SystemLayout layout_;

  simt::GlobalBuffer<C> x_, coeffs_, outputs_;
  InterchangeBuffer<S> common_factors_, mons_;
  simt::ConstantBuffer<unsigned char> positions_, exponents_;
  simt::Kernel kernel1_, kernel2_, kernel3_;
  std::size_t shared1_ = 0, shared2_ = 0;
  unsigned blocks_per_point_ = 0, out_blocks_per_point_ = 0;
  std::vector<C> flat_;          ///< packed upload staging, reused
  std::vector<C> host_outputs_;  ///< download staging, reused
  simt::LaunchLog last_log_;
};

}  // namespace polyeval::core
