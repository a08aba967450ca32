#pragma once

/// \file fused_evaluator.hpp
/// Single-launch fused evaluation pipeline.
///
/// The paper's central design argument (section 3.1) is that fusing the
/// powers computation INTO the common-factor kernel beats a separate
/// powers kernel, because the fusion avoids a global-memory round trip.
/// This evaluator applies the same argument one level up and fuses all
/// three kernels into one launch:
///
///   * one thread block owns one evaluation point and loops over all of
///     the point's monomials (a persistent-block schedule, instead of
///     the paper's one-thread-per-monomial grid);
///   * the common factor never travels through global memory -- it is
///     computed from the shared powers table and consumed in the same
///     register in which the Speelpenning derivatives are scaled,
///     eliminating the CommonFactors store+load round trip entirely;
///   * the phase barrier between the monomial loop and the summation
///     loop replaces the kernel-2/kernel-3 launch boundary, so one
///     launch (not three) covers the whole evaluation.
///
/// The cost: a block must cover a whole point, which caps per-point
/// parallelism at one block -- throughput comes from batching points
/// (grid = batch), which is exactly the workload of a path tracker
/// advancing many paths in lockstep.  The three-kernel pipeline stays
/// available (GpuEvaluator / BatchGpuEvaluator) as the ablation
/// baseline.
///
/// detail::build_fused_kernel is the ONE builder of every fused kernel:
/// the full and values-only kernels of this evaluator, of the pipelined
/// double-buffered variant (pipelined_evaluator.hpp) and of the
/// multi-tenant service evaluator (multitenant_evaluator.hpp).  It is
/// templated on the output mode and on the table source (one system at
/// base 0, or tenant-indexed tables), and its phase-2 monomial
/// arithmetic is written once, so every variant's results are bitwise
/// equal by construction.  The system's device-resident state lives in
/// detail::FusedSystemState, which the plain and pipelined evaluators
/// share while owning their own X/Outputs buffers.
///
/// Steady-state evaluate() calls perform zero heap allocations: the
/// packed system, kernels, staging vectors and device buffers are all
/// built once in the constructor.  The exception is the Device launch
/// log, which grows by one entry per launch -- long-running callers
/// should clear it periodically (Device::clear_log keeps capacity).

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/kernels.hpp"
#include "poly/eval_result.hpp"
#include "simt/timing.hpp"
#include "tune/autotuner.hpp"

namespace polyeval::core {

/// The fused pipeline's block-geometry HEURISTIC -- since the measured
/// autotuner (tune/autotuner.hpp) landed, this is the cache-miss seed
/// (candidate zero of every tuned sweep) and the
/// `TuningMode::kHeuristic` escape hatch, not the default decision
/// maker.  Choose the block size from the system structure (n, m, k),
/// the batch size and the device's SM count.  One block owns one point,
/// so the grid IS the batch: once the batch covers the SMs, inter-block
/// parallelism hides per-thread serial depth and the narrowest block
/// (one warp) minimizes per-block overhead.  An under-full grid instead
/// widens the block, moving the idle SMs' worth of parallelism inside
/// the point: enough threads that the busier of the two per-point loops
/// (nm monomials in phase 2, n^2+n outputs in phase 3) runs only a few
/// trips per thread -- deep monomials (~5k multiplications each, large
/// k) keep a lane busy across more trips -- but never wider than the
/// narrower loop, whose surplus lanes would idle a whole phase.
[[nodiscard]] constexpr unsigned pick_block_size(unsigned n, unsigned m, unsigned k,
                                                 unsigned batch,
                                                 unsigned sm_count) noexcept {
  constexpr unsigned kWarp = 32;
  constexpr std::uint64_t kMaxBlock = 256;
  if (sm_count == 0) sm_count = 1;
  if (batch >= sm_count) return kWarp;
  const std::uint64_t monomials = std::uint64_t{n} * m;
  const std::uint64_t outputs = std::uint64_t{n} * (n + 1);
  const std::uint64_t trips = k >= 6 ? 8 : 4;
  std::uint64_t threads = (std::max(monomials, outputs) + trips - 1) / trips;
  threads = std::min({threads, std::min(monomials, outputs), kMaxBlock});
  return static_cast<unsigned>((std::max<std::uint64_t>(threads, 1) + kWarp - 1) /
                               kWarp) *
         kWarp;
}

namespace detail {

/// The device buffers a fused kernel works on besides its point/output
/// pair: the constant Positions/Exponents tables (kChar), the folded
/// coefficients and the per-point Mons scratch (written and read inside
/// one launch, so one copy serves any number of in-flight point
/// buffers).  A multi-tenant evaluator's tables hold several systems
/// back to back at fixed strides.
template <prec::RealScalar S>
struct FusedBuffers {
  simt::ConstantBuffer<unsigned char> positions, exponents;
  simt::GlobalBuffer<cplx::Complex<S>> coeffs;
  InterchangeBuffer<S> mons;
};

/// Shared memory of one fused block: the point (n) and the powers table
/// (n*d).  Unlike the paper's kernel 2, the per-thread L_1..L_{k+1}
/// strip lives in registers/local memory: it is thread-private, so
/// shared memory buys it nothing but bank pressure, and keeping it
/// local lifts the shared-capacity ceiling on the block size.
template <prec::RealScalar S>
[[nodiscard]] constexpr std::size_t fused_shared_bytes(
    const poly::UniformStructure& s) noexcept {
  return std::size_t{s.n} * (1 + s.d) * sizeof(cplx::Complex<S>);
}

/// What a fused kernel produces per point: all n^2+n outputs, or only
/// the n values (the corrector-residual fast path).
enum class FusedOutput { kFull, kValues };

/// Table source of the single-tenant kernels: the one system's tables
/// start at index 0, so a block issues no routing load.  Every index
/// comes from tables fixed at construction, so the geometry alone keys
/// the stats memo (empty footprint tag).
struct SingleTenantTables {
  static constexpr bool kTenantIndexed = false;
  static constexpr const char* kNames[2] = {"fused_eval", "fused_values"};
  static constexpr std::size_t memo_tag_capacity = 0;

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> bases(
      simt::ThreadContext& /*ctx*/, std::size_t /*point*/) const noexcept {
    return {0, 0};
  }
};

/// Table source of the multi-tenant kernels: each block loads its
/// point's tenant id and offsets every positions/exponents index by
/// tenant * support_stride and every coefficient index by tenant *
/// coeff_stride -- offsets change WHICH entries are read, never the
/// operation order.  Stats depend on the tenant tables (set_tenant
/// invalidates) and on the routing, which is the footprint tag (up to
/// one tenant id per point of the batch capacity).
struct TenantIndexedTables {
  static constexpr bool kTenantIndexed = true;
  static constexpr const char* kNames[2] = {"mt_fused", "mt_fused_vals"};
  std::size_t memo_tag_capacity = 0;
  simt::GlobalBuffer<unsigned> tenant_ids;
  std::uint64_t support_stride = 0, coeff_stride = 0;

  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> bases(
      simt::ThreadContext& ctx, std::size_t point) const {
    const std::uint64_t tenant = ctx.load(tenant_ids, point);
    return {tenant * support_stride, tenant * coeff_stride};
  }
};

/// Phase 1 of every fused kernel: one coalesced read of the block's
/// point fills both the shared copy of the variables and the powers
/// table (row 0 ones, row e holding x^e).  Instantiated per scalar
/// only, so all four fused kernels of a precision share one copy.
template <prec::RealScalar S>
[[nodiscard]] auto fused_point_phase(simt::GlobalBuffer<cplx::Complex<S>> x, unsigned n,
                                     unsigned d) {
  using C = cplx::Complex<S>;
  const std::size_t powers_off = std::size_t{n} * sizeof(C);
  return [x, n, d, powers_off](simt::ThreadContext& ctx) {
    const std::size_t point = ctx.block_index();
    auto svars = ctx.template shared_array<C>(0, n);
    auto powers = ctx.template shared_array<C>(powers_off, std::size_t{n} * d);
    bool worked = false;
    for (unsigned v = ctx.thread_index(); v < n; v += ctx.block_dim()) {
      worked = true;
      const C xv = ctx.load(x, point * n + v);
      svars.set(v, xv);
      powers.set(v, C(S(1.0)));  // row 0: x^0
      if (d >= 2) {
        powers.set(std::size_t{n} + v, xv);
        for (unsigned e = 2; e < d; ++e) {
          const C next = powers.get(std::size_t{e - 1} * n + v) * xv;
          ctx.op_cmul();
          powers.set(std::size_t{e} * n + v, next);
        }
      }
    }
    if (!worked) ctx.mark_inactive();
  };
}

/// Phase 3 of every fused kernel (kernel 3 behind the block barrier):
/// each thread sums its share of the point's first `out_count` outputs
/// -- n^2+n in full mode, the n value rows in values mode -- into
/// out[point * out_count + o].  Instantiated per scalar only.
template <prec::RealScalar S>
[[nodiscard]] auto fused_summation_phase(
    InterchangeBuffer<S> mons, simt::GlobalBuffer<cplx::Complex<S>> out,
    SystemLayout layout, std::uint64_t out_count) {
  using C = cplx::Complex<S>;
  const unsigned m = layout.structure().m;
  return [mons, out, layout, m, out_count](simt::ThreadContext& ctx) {
    const std::size_t point = ctx.block_index();
    const std::size_t mons_base = point * layout.mons_size();
    bool worked = false;
    for (std::uint64_t o = ctx.thread_index(); o < out_count; o += ctx.block_dim()) {
      worked = true;
      C sum = mons.load(ctx, mons_base + layout.mons_index(o, 0));
      for (unsigned j = 1; j < m; ++j) {
        sum += mons.load(ctx, mons_base + layout.mons_index(o, j));
        ctx.op_cadd();
      }
      ctx.store(out, point * out_count + o, sum);
    }
    if (!worked) ctx.mark_inactive();
  };
}

/// Build a fused single-launch kernel over the given point/output
/// buffer pair (cheap handles, captured by value in the phase
/// closures): the shared point/powers load, then the monomial loop
/// (kernels 1+2 fused: the common factor is produced from the shared
/// powers table and consumed in-register -- no global interchange),
/// then behind the block barrier the summation of n^2+n outputs (full
/// mode) or the n value rows (values mode).
///
/// Values mode computes one monomial VALUE per loop trip with EXACTLY
/// the full mode's operation order -- common factor, the forward prefix
/// product var(0)..var(k-2) (full mode's L_{k-1} before suffix
/// scaling), then * cf, * var(k-1), * value coefficient -- so its
/// values equal a full evaluation's bit for bit and a tracker may mix
/// the two freely.  It writes only the value slots of Mons, and its
/// summation reads only the value rows, never the stale derivative
/// slots.  Both modes are compiled from one source (`if constexpr`, no
/// per-thread branch on the mode), and every load, store and op_c* is
/// issued in a fixed per-thread order: the warp collector keys
/// coalescing on those ordinals, so a reordering can move KernelStats
/// and the modeled clock (pinned by tests/test_kernel_stats_pin.cpp).
template <FusedOutput kOut, prec::RealScalar S, class Tables>
[[nodiscard]] simt::Kernel build_fused_kernel(const SystemLayout& layout,
                                              const FusedBuffers<S>& bufs,
                                              const Tables& tables,
                                              simt::GlobalBuffer<cplx::Complex<S>> x,
                                              simt::GlobalBuffer<cplx::Complex<S>> out) {
  using C = cplx::Complex<S>;
  constexpr bool kFull = kOut == FusedOutput::kFull;
  const auto s = layout.structure();
  const unsigned n = s.n, d = s.d, k = s.k;
  const std::uint64_t monomials = layout.total_monomials();
  const std::uint64_t out_count = kFull ? layout.num_outputs() : n;
  const auto mons = bufs.mons;
  // Shared layout offsets (bytes): the point, then the powers table.
  const std::size_t powers_off = std::size_t{n} * sizeof(C);

  simt::Kernel kernel;
  // <= 15 chars: KernelStats copies the name per launch, and an
  // SSO-sized string keeps that copy off the allocator.
  kernel.name = Tables::kNames[kFull ? 0 : 1];
  kernel.memo.enable(tables.memo_tag_capacity);
  kernel.phases = {
      // Phase 1: the shared point/powers load.
      fused_point_phase<S>(x, n, d),
      // Phase 2: the monomial loop.
      [mons, positions = bufs.positions, exponents = bufs.exponents,
       coeffs = bufs.coeffs, tables, layout, n, d, k, monomials,
       powers_off](simt::ThreadContext& ctx) {
        const std::size_t point = ctx.block_index();
        const auto [tbase, cbase] = tables.bases(ctx, point);
        auto svars = ctx.template shared_array<C>(0, n);
        auto powers = ctx.template shared_array<C>(powers_off, std::size_t{n} * d);
        // Thread-private L_1..L_{k+1} strip (full mode only; entries
        // below k are always written before they are read) and position
        // cache, in registers/local memory -- see fused_shared_bytes.
        [[maybe_unused]] std::array<C, kFull ? 257 : 0> ell;
        std::array<unsigned, 256> pos;
        const std::size_t mons_base = point * layout.mons_size();

        bool worked = false;
        for (std::uint64_t g = ctx.thread_index(); g < monomials;
             g += ctx.block_dim()) {
          worked = true;

          for (unsigned j = 0; j < k; ++j)
            pos[j] = ctx.load_constant(positions, tbase + layout.support_index(g, j));
          const auto var = [&](unsigned j) { return svars.get(pos[j]); };

          // Common factor from the powers table: k-1 multiplications.
          C cf(S(1.0));
          for (unsigned j = 0; j < k; ++j) {
            const unsigned em1 =
                ctx.load_constant(exponents, tbase + layout.support_index(g, j));
            const C val = powers.get(std::size_t{em1} * n + pos[j]);
            if (j == 0) {
              cf = val;
            } else {
              cf = cf * val;
              ctx.op_cmul();
            }
          }

          if constexpr (!kFull) {
            // The full mode's value: ((var(0)..var(k-2)) * cf) *
            // var(k-1) -- its last Speelpenning derivative scaled by the
            // factor, times the last variable -- then the value
            // coefficient (portion k): 2k multiplications instead of
            // 5k-4.  k == 1 degenerates to cf * var(0).
            C p = cf;
            if (k >= 2) {
              p = var(0);
              for (unsigned r = 2; r < k; ++r) {
                p = p * var(r - 1);
                ctx.op_cmul();
              }
              p = p * cf;
              ctx.op_cmul();
            }
            p = p * var(k - 1);
            ctx.op_cmul();
            p = p * ctx.load(coeffs, cbase + layout.coeff_index(k, g));
            ctx.op_cmul();
            mons.store(ctx, mons_base + layout.mons_value_index(g), p);
          } else {
            // Speelpenning derivatives into L_1..L_k: 3k-6 for k >= 3.
            if (k == 2) {
              ell[0] = var(1);
              ell[1] = var(0);
            } else if (k >= 3) {
              ell[1] = var(0);
              for (unsigned r = 2; r < k; ++r) {
                ell[r] = ell[r - 1] * var(r - 1);
                ctx.op_cmul();
              }
              C q = var(k - 1);
              ell[k - 2] = ell[k - 2] * q;
              ctx.op_cmul();
              for (unsigned r = 1; r + 2 < k; ++r) {
                q = q * var(k - 1 - r);
                ctx.op_cmul();
                ell[k - 2 - r] = ell[k - 2 - r] * q;
                ctx.op_cmul();
              }
              ell[0] = q * var(1);
              ctx.op_cmul();
            }

            // Scale by the in-register common factor (k multiplications;
            // for k == 1 the derivative IS the factor).
            if (k == 1) {
              ell[0] = cf;
            } else {
              for (unsigned j = 0; j < k; ++j) {
                ell[j] = ell[j] * cf;
                ctx.op_cmul();
              }
            }

            // Monomial value from its last derivative (1 multiplication).
            ell[k] = ell[k - 1] * var(k - 1);
            ctx.op_cmul();

            // Coefficient products (k+1 multiplications).
            for (unsigned j = 0; j <= k; ++j) {
              const C c = ctx.load(coeffs, cbase + layout.coeff_index(j, g));
              ell[j] = ell[j] * c;
              ctx.op_cmul();
            }

            // Tenant-indexed tables re-establish the zero padding before
            // the sparse derivative stores: a previous launch may have
            // run a DIFFERENT tenant on this point slot, leaving its
            // derivatives at variable positions this tenant's monomial
            // never writes.  A single system's positions are identical
            // launch over launch, so it skips this.
            if constexpr (Tables::kTenantIndexed)
              for (unsigned q = 0; q < n; ++q)
                mons.store(ctx, mons_base + layout.mons_deriv_index(g, q), C{});
            mons.store(ctx, mons_base + layout.mons_value_index(g), ell[k]);
            for (unsigned j = 0; j < k; ++j)
              mons.store(ctx, mons_base + layout.mons_deriv_index(g, pos[j]), ell[j]);
          }
        }
        if (!worked) ctx.mark_inactive();
      },
      // Phase 3 (behind the block barrier): the point's first
      // `out_count` outputs.
      fused_summation_phase<S>(mons, out, layout, out_count),
  };
  return kernel;
}

/// Device-resident state the single-tenant fused evaluators share: the
/// packed system, its layout, the fused buffers (tables uploaded and
/// coefficients folded once) and the shared-memory budget.  The X and
/// Outputs buffers stay with the evaluator: the plain evaluator owns
/// one pair, the pipelined evaluator double-buffers two.
template <prec::RealScalar S>
struct FusedSystemState {
  using C = cplx::Complex<S>;

  PackedSystem packed;
  SystemLayout layout;
  FusedBuffers<S> bufs;
  std::size_t shared_bytes = 0;

  FusedSystemState(simt::Device& device, const poly::PolynomialSystem& system,
                   unsigned batch_capacity, InterchangeLayout interchange)
      : packed(pack_system(system)),
        layout(packed.structure),
        shared_bytes(fused_shared_bytes<S>(packed.structure)) {
    const auto encoded = encode_exponents(ExponentEncoding::kChar, packed.exponents);
    bufs.positions =
        device.alloc_constant<unsigned char>(packed.positions.size(), "Positions");
    bufs.exponents = device.alloc_constant<unsigned char>(encoded.size(), "Exponents");
    device.upload_constant(bufs.positions,
                           std::span<const unsigned char>(packed.positions));
    device.upload_constant(bufs.exponents, std::span<const unsigned char>(encoded));

    bufs.coeffs = device.alloc_global<C>(layout.coeffs_size(), "Coeffs");
    bufs.mons.allocate(device, std::size_t{batch_capacity} * layout.mons_size(),
                       "Mons[batch]", interchange);

    std::vector<C> folded(layout.coeffs_size());
    fold_coefficients<S>(packed, layout, std::span<C>(folded));
    device.upload(bufs.coeffs, std::span<const C>(folded));
    bufs.mons.fill_zero(device);
  }

  /// This system's fused kernel over one point/output buffer pair.
  template <FusedOutput kOut>
  [[nodiscard]] simt::Kernel kernel(simt::GlobalBuffer<C> x,
                                    simt::GlobalBuffer<C> out) const {
    return build_fused_kernel<kOut>(layout, bufs, SingleTenantTables{}, x, out);
  }
};

}  // namespace detail

template <prec::RealScalar S>
class FusedGpuEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    /// Threads per block; 0 (the default) resolves through the measured
    /// autotuner (or, under TuningMode::kHeuristic, to
    /// pick_block_size(n, m, k, batch_capacity, SMs) -- one warp once
    /// the batch fills the SMs, wider blocks for under-full grids).
    unsigned block_size = 0;
    /// Element layout of the Mons interchange buffer (the only
    /// interchange left once the common factor stays in registers);
    /// nullopt (the default) resolves with the block size: measured
    /// tuning picks per workload, the heuristic pins AoS.  Results are
    /// bitwise identical under either layout.
    std::optional<InterchangeLayout> interchange;
    /// How the auto knobs above resolve (the pin rule:
    /// tune::resolve_geometry).  Measured tuning may change TIMING only
    /// -- results are pinned bitwise identical across the modes
    /// (tests/test_tune.cpp).
    tune::TuningMode tuning = tune::TuningMode::kMeasured;
    /// The race journals are a debugging aid (the cuda-memcheck
    /// analogue); the production fast path skips the per-access
    /// bookkeeping.  Parity tests run with detection on.
    bool detect_races = false;
  };

  /// Packs the system and sizes the device arrays for `batch_capacity`
  /// simultaneous points.
  FusedGpuEvaluator(simt::Device& device, const poly::PolynomialSystem& system,
                    unsigned batch_capacity, Options options = {})
      : device_(device),
        options_(resolve_options(device.spec(), system, batch_capacity, options)),
        capacity_(batch_capacity),
        sys_(device, system, batch_capacity,
             options_.interchange.value_or(InterchangeLayout::kAoS)) {
    if (capacity_ == 0)
      throw std::invalid_argument("FusedGpuEvaluator: zero batch capacity");
    const auto s = sys_.packed.structure;

    x_ = device_.alloc_global<C>(std::size_t{capacity_} * s.n, "X[batch]");
    outputs_ = device_.alloc_global<C>(std::size_t{capacity_} * sys_.layout.num_outputs(),
                                       "Outputs[batch]");
    values_ = device_.alloc_global<C>(std::size_t{capacity_} * s.n, "Values[batch]");
    kernel_ = sys_.template kernel<detail::FusedOutput::kFull>(x_, outputs_);
    values_kernel_ = sys_.template kernel<detail::FusedOutput::kValues>(x_, values_);

    flat_.reserve(std::size_t{capacity_} * s.n);
    host_outputs_.reserve(std::size_t{capacity_} * sys_.layout.num_outputs());
  }

  [[nodiscard]] unsigned dimension() const noexcept { return sys_.packed.structure.n; }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }
  [[nodiscard]] const SystemLayout& layout() const noexcept { return sys_.layout; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Launches issued per evaluate_range call (shard schedulers pre-size
  /// device logs with this).
  static constexpr unsigned kLaunchesPerBatch = 1;
  [[nodiscard]] unsigned launches_per_batch() const noexcept {
    return kLaunchesPerBatch;
  }

  /// Evaluate at points.size() <= batch_capacity() points with one
  /// upload, ONE launch and one download.
  void evaluate(const std::vector<std::vector<C>>& points,
                std::vector<poly::EvalResult<S>>& results) {
    if (points.empty() || points.size() > capacity_)
      throw std::invalid_argument("FusedGpuEvaluator: bad batch size");
    results.resize(points.size());
    evaluate_range(points, 0, points.size(), std::span<poly::EvalResult<S>>(results));
  }

  /// Evaluate the `count` points starting at points[first], writing
  /// out[i] for the i-th point of the range -- the shard-facing entry
  /// point: a ShardedEvaluator hands each shard contiguous point ranges
  /// and the matching slices of the caller's result buffer, so merged
  /// results land in point-index (deterministic) order no matter which
  /// shard computed them.  One upload, ONE launch, one download; each
  /// point's arithmetic is independent of the range it rode in (one
  /// block per point), so results are bitwise identical under any
  /// chunking.
  void evaluate_range(const std::vector<std::vector<C>>& points, std::size_t first,
                      std::size_t count, std::span<poly::EvalResult<S>> out) {
    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;
    const unsigned batch = stage_range(points, first, count, out.size(), count);

    simt::LaunchConfig cfg{batch, options_.block_size, sys_.shared_bytes};
    cfg.detect_races = options_.detect_races;
    (void)device_.launch(kernel_, cfg);

    host_outputs_.resize(std::size_t{batch} * sys_.layout.num_outputs());
    device_.download(outputs_, std::span<C>(host_outputs_));

    for (unsigned p = 0; p < batch; ++p)
      detail::unpack_outputs<S>(sys_.layout, std::span<const C>(host_outputs_),
                                std::size_t{p} * sys_.layout.num_outputs(), out[p]);

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Values-only counterpart of evaluate_range: f at the `count` points
  /// starting at points[first] in ONE launch of the fused values kernel,
  /// out[i*n + q] receiving value q of the i-th point of the range.  No
  /// Jacobian work runs and only batch*n values ride the PCIe download
  /// -- the corrector-residual fast path -- while every value is bitwise
  /// identical to a full evaluation's (detail::build_fused_kernel).
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::size_t first, std::size_t count, std::span<C> out) {
    const unsigned s_n = sys_.packed.structure.n;
    const std::size_t kernels_before = device_.log().kernels.size();
    const simt::TransferStats transfers_before = device_.log().transfers;
    const unsigned batch = stage_range(points, first, count, out.size(), count * s_n);

    simt::LaunchConfig cfg{batch, options_.block_size, sys_.shared_bytes};
    cfg.detect_races = options_.detect_races;
    (void)device_.launch(values_kernel_, cfg);

    device_.download(values_, out.subspan(0, std::size_t{batch} * s_n));

    detail::snapshot_device_log(device_.log(), kernels_before, transfers_before,
                                last_log_);
  }

  /// Single-point values-only convenience: a batch of one.
  void evaluate_values(std::span<const C> x, std::span<C> values) {
    if (x.size() != sys_.packed.structure.n)
      throw std::invalid_argument("FusedGpuEvaluator: point has wrong dimension");
    single_point_.resize(1);
    single_point_[0].assign(x.begin(), x.end());
    evaluate_values_range(single_point_, 0, 1, values);
  }

  /// Single-point convenience: a batch of one.
  void evaluate(std::span<const C> x, poly::EvalResult<S>& out) {
    if (x.size() != sys_.packed.structure.n)
      throw std::invalid_argument("FusedGpuEvaluator: point has wrong dimension");
    single_point_.resize(1);
    single_point_[0].assign(x.begin(), x.end());
    evaluate(single_point_, single_result_);
    out = single_result_[0];
  }

  [[nodiscard]] poly::EvalResult<S> evaluate(std::span<const C> x) {
    poly::EvalResult<S> out(dimension());
    evaluate(x, out);
    return out;
  }

  /// Kernel statistics and transfer volumes of the last evaluate() call.
  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

  /// The TuneCache key of a measured fused geometry for `capacity`-point
  /// batches of `structure` on a device of `spec`: the one spelling
  /// shared by option resolution and every reader of its decisions
  /// (measured placement weights).
  [[nodiscard]] static tune::TuneKey tune_key(const poly::UniformStructure& structure,
                                              unsigned capacity,
                                              const simt::DeviceSpec& spec) {
    const unsigned width = static_cast<unsigned>(sizeof(S) / sizeof(double));
    return tune::TuneKey::make(tune::TunedSchedule::kFused, structure, capacity, 0,
                               width, spec);
  }

  /// Resolve the auto geometry knobs (block_size == 0, interchange ==
  /// nullopt) for a device of `spec`, as the constructor does before
  /// any member consumes them, through tune::resolve_geometry: the
  /// pick_block_size seed over the batch capacity, candidate blocks
  /// {32, 64, 128, 256}, each probed with a full-capacity zero batch on
  /// a scratch device and scored by estimate_log_us.
  [[nodiscard]] static Options resolve_options(const simt::DeviceSpec& spec,
                                               const poly::PolynomialSystem& system,
                                               unsigned capacity, Options options) {
    if (capacity == 0) return options;  // the ctor body throws the real error
    return tune::resolve_geometry(
        options,
        [&] {
          static constexpr unsigned kBlocks[] = {32, 64, 128, 256};
          static constexpr unsigned kStreams[] = {2};
          const auto st = pack_system(system).structure;
          return tune::GeometrySearch{
              tune_key(st, capacity, spec),
              pick_block_size(st.n, st.m, st.k, capacity, spec.multiprocessors),
              kBlocks, kStreams};
        },
        [&](const Options& pinned) {
          return detail::probe_zero_batch<S, FusedGpuEvaluator>(spec, system, capacity,
                                                                pinned);
        });
  }

 private:
  /// Shared head of the two range entry points: check the range (the
  /// caller's output span must hold `out_needed` entries), pack the
  /// points and upload X.  Throws before any device work; returns the
  /// batch size.
  unsigned stage_range(const std::vector<std::vector<C>>& points, std::size_t first,
                       std::size_t count, std::size_t out_size,
                       std::size_t out_needed) {
    const unsigned s_n = sys_.packed.structure.n;
    detail::check_range("FusedGpuEvaluator", points, first, count, capacity_, s_n,
                        out_size, out_needed);
    detail::pack_points(points, first, count, s_n, flat_);
    device_.upload(x_, std::span<const C>(flat_));
    return static_cast<unsigned>(count);
  }

  simt::Device& device_;
  Options options_;
  unsigned capacity_;
  detail::FusedSystemState<S> sys_;

  simt::GlobalBuffer<C> x_, outputs_, values_;
  simt::Kernel kernel_, values_kernel_;
  std::vector<C> flat_;          ///< packed upload staging, reused
  std::vector<C> host_outputs_;  ///< download staging, reused
  std::vector<std::vector<C>> single_point_;        ///< single-point staging
  std::vector<poly::EvalResult<S>> single_result_;  ///< single-point staging
  simt::LaunchLog last_log_;
};

}  // namespace polyeval::core
