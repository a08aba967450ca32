#pragma once

/// \file multitenant_evaluator.hpp
/// The solve service's cross-request evaluator: one fused launch serves
/// points belonging to DIFFERENT polynomial systems, as long as every
/// system shares one uniform (n, m, k, d) structure.  Structure
/// uniformity makes the per-tenant table strides identical, so up to
/// `max_tenants` systems' positions/exponents (constant memory) and
/// folded coefficients (global memory) simply concatenate, and a small
/// per-point tenant-id buffer routes each block to its own tables.
/// This is the request-level form of the paper's amortization argument:
/// where the fused kernel amortizes one launch over many points, the
/// multi-tenant kernel amortizes it over many REQUESTS -- the dominant
/// saving is the per-launch overhead (GpuCostModel::launch_overhead_us)
/// that G sequential single-request launches would each pay.
///
/// Bitwise contract: phase 2 repeats build_fused_kernel's (and the
/// values variant's) arithmetic verbatim with a tenant base offset
/// added to every table index -- offsets change WHICH coefficients are
/// read, never the operation order -- and phases 1 and 3 are the exact
/// shared lambdas of fused_evaluator.hpp.  A point evaluated here is
/// bit-identical to the same point through the tenant's own
/// single-tenant FusedGpuEvaluator, which is what lets the service
/// promise every request endpoints bitwise equal to a standalone solve.
///
/// Zero steady-state allocation, as the single-tenant pipeline: tables
/// upload at set_tenant (admission time), per-call staging reuses
/// constructor-sized buffers.  Only ExponentEncoding::kChar is
/// supported -- the nibble packing would halve the per-tenant exponent
/// stride and nothing in the service requests it.

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/fused_evaluator.hpp"

namespace polyeval::core {

template <prec::RealScalar S>
class MultiTenantFusedEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    /// Threads per block; 0 resolves to the pick_block_size heuristic.
    /// The service passes the structure's autotuned winner (resolved
    /// once per SystemCache entry and reused across requests).
    unsigned block_size = 0;
    /// Mons interchange layout; nullopt pins AoS.
    std::optional<InterchangeLayout> interchange;
    bool detect_races = false;
  };

  /// Size the device state for `max_tenants` resident systems of the
  /// given structure and `batch_capacity` simultaneous points.  Tenant
  /// tables start zeroed; set_tenant() installs systems.
  MultiTenantFusedEvaluator(simt::Device& device,
                            const poly::UniformStructure& structure,
                            unsigned max_tenants, unsigned batch_capacity,
                            Options options = {})
      : device_(device),
        layout_(structure),
        max_tenants_(max_tenants),
        capacity_(batch_capacity),
        options_(options) {
    if (max_tenants_ == 0)
      throw std::invalid_argument("MultiTenantFusedEvaluator: zero tenants");
    if (capacity_ == 0)
      throw std::invalid_argument("MultiTenantFusedEvaluator: zero capacity");
    if (options_.block_size == 0)
      options_.block_size = pick_block_size(structure.n, structure.m, structure.k,
                                            capacity_,
                                            device.spec().multiprocessors);
    if (!options_.interchange) options_.interchange = InterchangeLayout::kAoS;

    const std::size_t pos_stride = support_stride();
    const std::size_t coeff_stride = layout_.coeffs_size();
    positions_ = device_.alloc_constant<unsigned char>(
        pos_stride * max_tenants_, "MtPositions");
    exponents_ = device_.alloc_constant<unsigned char>(
        pos_stride * max_tenants_, "MtExponents");
    coeffs_ = device_.alloc_global<C>(coeff_stride * max_tenants_, "MtCoeffs");
    mons_.allocate(device_, std::size_t{capacity_} * layout_.mons_size(),
                   "MtMons[batch]", *options_.interchange);
    mons_.fill_zero(device_);
    x_ = device_.alloc_global<C>(std::size_t{capacity_} * structure.n,
                                 "MtX[batch]");
    outputs_ = device_.alloc_global<C>(
        std::size_t{capacity_} * layout_.num_outputs(), "MtOut[batch]");
    values_ = device_.alloc_global<C>(std::size_t{capacity_} * structure.n,
                                      "MtVals[batch]");
    tenant_ids_ = device_.alloc_global<unsigned>(capacity_, "MtTenants");

    host_positions_.assign(pos_stride * max_tenants_, 0);
    host_exponents_.assign(pos_stride * max_tenants_, 0);
    host_coeffs_.assign(coeff_stride * max_tenants_, C{});
    device_.upload_constant(positions_,
                            std::span<const unsigned char>(host_positions_));
    device_.upload_constant(exponents_,
                            std::span<const unsigned char>(host_exponents_));
    device_.upload(coeffs_, std::span<const C>(host_coeffs_));
    tenant_present_.assign(max_tenants_, 0);

    shared_bytes_ = std::size_t{structure.n} * (1 + structure.d) * sizeof(C);
    kernel_ = build_kernel(/*values_only=*/false);
    values_kernel_ = build_kernel(/*values_only=*/true);

    flat_.reserve(std::size_t{capacity_} * structure.n);
    host_outputs_.reserve(std::size_t{capacity_} * layout_.num_outputs());
    staged_tenants_.resize(capacity_);
  }

  [[nodiscard]] unsigned dimension() const noexcept {
    return layout_.structure().n;
  }
  [[nodiscard]] unsigned batch_capacity() const noexcept { return capacity_; }
  [[nodiscard]] unsigned max_tenants() const noexcept { return max_tenants_; }
  [[nodiscard]] const SystemLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] bool tenant_present(unsigned tenant) const {
    return tenant < max_tenants_ && tenant_present_[tenant] != 0;
  }

  /// Install (or replace) tenant `tenant`'s system: pack, fold the
  /// coefficient portions exactly as FusedSystemState does, splice into
  /// the concatenated host mirrors at the tenant's stride and re-upload
  /// the three tables.  An admission-time cost, not a per-round one.
  void set_tenant(unsigned tenant, const poly::PolynomialSystem& system) {
    if (tenant >= max_tenants_)
      throw std::invalid_argument("MultiTenantFusedEvaluator: bad tenant");
    const PackedSystem packed = pack_system(system);
    if (!(packed.structure == layout_.structure()))
      throw std::invalid_argument(
          "MultiTenantFusedEvaluator: tenant structure mismatch");
    const auto s = packed.structure;
    const auto encoded =
        encode_exponents(ExponentEncoding::kChar, packed.exponents);

    const std::size_t pos_stride = support_stride();
    std::copy(packed.positions.begin(), packed.positions.end(),
              host_positions_.begin() + tenant * pos_stride);
    std::copy(encoded.begin(), encoded.end(),
              host_exponents_.begin() + tenant * pos_stride);

    // Exponent factors folded in the working precision, as in
    // FusedSystemState (the one fold, repeated per tenant).
    const std::size_t cbase = std::size_t{tenant} * layout_.coeffs_size();
    for (std::uint64_t t = 0; t < layout_.total_monomials(); ++t) {
      const auto raw =
          C::from_double(packed.coeffs[layout_.coeff_index(s.k, t)]);
      for (unsigned j = 0; j < s.k; ++j) {
        const double a = packed.exponents[layout_.support_index(t, j)] + 1.0;
        host_coeffs_[cbase + layout_.coeff_index(j, t)] =
            raw * prec::ScalarTraits<S>::from_double(a);
      }
      host_coeffs_[cbase + layout_.coeff_index(s.k, t)] = raw;
    }

    device_.upload_constant(positions_,
                            std::span<const unsigned char>(host_positions_));
    device_.upload_constant(exponents_,
                            std::span<const unsigned char>(host_exponents_));
    device_.upload(coeffs_, std::span<const C>(host_coeffs_));
    tenant_present_[tenant] = 1;
    // The recorded stats describe the old tables' access pattern.
    kernel_.memo.invalidate();
    values_kernel_.memo.invalidate();
  }

  /// Mark a tenant slot free (host bookkeeping only -- the tables stay
  /// until a new tenant overwrites them).
  void clear_tenant(unsigned tenant) {
    if (tenant < max_tenants_) tenant_present_[tenant] = 0;
  }

  /// Per-point tenant routing for the NEXT evaluate call(s): point
  /// `first + i` of the call belongs to tenants[first + i].  The span
  /// must stay valid (and at least first + count long) until the call.
  void bind_tenants(std::span<const unsigned> tenants) { bound_ = tenants; }

  static constexpr unsigned kLaunchesPerBatch = 1;

  /// One upload (points + tenant ids), ONE launch, one download -- the
  /// FusedGpuEvaluator range contract, with each point's tables chosen
  /// by its bound tenant id.
  void evaluate_range(const std::vector<std::vector<C>>& points,
                      std::size_t first, std::size_t count,
                      std::span<poly::EvalResult<S>> out) {
    const unsigned batch = stage_range(points, first, count, out.size(), count);
    launch(kernel_, batch);
    host_outputs_.resize(std::size_t{batch} * layout_.num_outputs());
    device_.download(outputs_, std::span<C>(host_outputs_));
    for (unsigned p = 0; p < batch; ++p)
      detail::unpack_outputs<S>(layout_, std::span<const C>(host_outputs_),
                                std::size_t{p} * layout_.num_outputs(), out[p]);
  }

  /// Values-only counterpart: out[i*n + q] gets value q of point i.
  void evaluate_values_range(const std::vector<std::vector<C>>& points,
                             std::size_t first, std::size_t count,
                             std::span<C> out) {
    const unsigned n = dimension();
    const unsigned batch =
        stage_range(points, first, count, out.size(), count * n);
    launch(values_kernel_, batch);
    device_.download(values_, out.subspan(0, std::size_t{batch} * n));
  }

 private:
  /// Positions/exponents bytes per tenant (kChar: one byte per support
  /// entry for both tables).
  [[nodiscard]] std::size_t support_stride() const {
    return static_cast<std::size_t>(layout_.total_monomials()) *
           layout_.structure().k;
  }

  unsigned stage_range(const std::vector<std::vector<C>>& points,
                       std::size_t first, std::size_t count,
                       std::size_t out_size, std::size_t out_needed) {
    const unsigned n = dimension();
    if (count == 0 || count > capacity_)
      throw std::invalid_argument("MultiTenantFusedEvaluator: bad batch size");
    if (first > points.size() || count > points.size() - first ||
        out_size < out_needed)
      throw std::invalid_argument("MultiTenantFusedEvaluator: bad point range");
    if (bound_.size() < first + count)
      throw std::invalid_argument(
          "MultiTenantFusedEvaluator: bind_tenants span too short");
    const auto batch = static_cast<unsigned>(count);
    for (std::size_t p = first; p < first + count; ++p) {
      if (points[p].size() != n)
        throw std::invalid_argument(
            "MultiTenantFusedEvaluator: point has wrong dimension");
      const unsigned ten = bound_[p];
      if (ten >= max_tenants_ || !tenant_present_[ten])
        throw std::invalid_argument(
            "MultiTenantFusedEvaluator: point bound to absent tenant");
      staged_tenants_[p - first] = ten;
    }
    flat_.resize(std::size_t{batch} * n);
    for (unsigned p = 0; p < batch; ++p)
      std::copy(points[first + p].begin(), points[first + p].end(),
                flat_.begin() + std::size_t{p} * n);
    device_.upload(x_, std::span<const C>(flat_));
    device_.upload(tenant_ids_, std::span<const unsigned>(staged_tenants_.data(),
                                                          batch));
    return batch;
  }

  void launch(const simt::Kernel& kernel, unsigned batch) {
    simt::LaunchConfig cfg{batch, options_.block_size, shared_bytes_};
    cfg.detect_races = options_.detect_races;
    // Which tables each block reads is the staged tenant sequence: it
    // is the launch's footprint tag.
    (void)device_.launch(kernel, cfg,
                         simt::FootprintTag(staged_tenants_.data(), batch));
  }

  /// The fused kernel with tenant-offset table reads.  Phases 1 and 3
  /// are the exact shared lambdas of fused_evaluator.hpp; phase 2 is
  /// build_fused_kernel's (or the values variant's) loop with
  /// `tbase`/`cbase` added to every positions/exponents/coeffs index.
  [[nodiscard]] simt::Kernel build_kernel(bool values_only) const {
    const auto s = layout_.structure();
    const unsigned n = s.n, d = s.d, k = s.k, m = s.m;
    const std::uint64_t monomials = layout_.total_monomials();
    const std::uint64_t pos_stride = support_stride();
    const std::uint64_t coeff_stride = layout_.coeffs_size();
    const auto layout = layout_;
    const auto coeffs = coeffs_;
    const auto mons = mons_;
    const auto positions = positions_;
    const auto exponents = exponents_;
    const auto tenants = tenant_ids_;

    const std::size_t svars_off = 0;
    const std::size_t powers_off = std::size_t{n} * sizeof(C);

    simt::Kernel kernel;
    kernel.name = values_only ? "mt_fused_vals" : "mt_fused";
    // Stats depend on the tenant tables (set_tenant invalidates) and on
    // which tenant each point routes to (the footprint tag).
    kernel.memo.enable(capacity_);
    kernel.phases.push_back(
        detail::make_fused_point_phase<S>(x_, n, d, svars_off, powers_off));

    if (!values_only) {
      kernel.phases.push_back([mons, coeffs, positions, exponents, tenants,
                               layout, n, d, k, monomials, pos_stride,
                               coeff_stride, svars_off,
                               powers_off](simt::ThreadContext& ctx) {
        const std::size_t point = ctx.block_index();
        const std::uint64_t ten = ctx.load(tenants, point);
        const std::uint64_t tbase = ten * pos_stride;
        const std::uint64_t cbase = ten * coeff_stride;
        auto svars = ctx.template shared_array<C>(svars_off, n);
        auto powers =
            ctx.template shared_array<C>(powers_off, std::size_t{n} * d);
        std::array<C, 257> ell;
        std::array<unsigned, 256> pos;
        const std::size_t mons_base = point * layout.mons_size();

        bool worked = false;
        for (std::uint64_t g = ctx.thread_index(); g < monomials;
             g += ctx.block_dim()) {
          worked = true;

          for (unsigned j = 0; j < k; ++j)
            pos[j] = ctx.load_constant(positions,
                                       tbase + layout.support_index(g, j));
          const auto var = [&](unsigned j) { return svars.get(pos[j]); };

          // Common factor from the powers table: k-1 multiplications.
          C cf(S(1.0));
          for (unsigned j = 0; j < k; ++j) {
            const unsigned em1 = ctx.load_constant(
                exponents, tbase + layout.support_index(g, j));
            const C val = powers.get(std::size_t{em1} * n + pos[j]);
            if (j == 0) {
              cf = val;
            } else {
              cf = cf * val;
              ctx.op_cmul();
            }
          }

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

          // Re-establish the zero padding before the sparse derivative
          // stores: a previous launch may have run a DIFFERENT tenant on
          // this point slot, leaving its derivatives at variable
          // positions this tenant's monomial never writes.  The
          // single-tenant kernel skips this because its positions are
          // identical launch over launch.
          for (unsigned q = 0; q < n; ++q)
            mons.store(ctx, mons_base + layout.mons_deriv_index(g, q), C{});
          mons.store(ctx, mons_base + layout.mons_value_index(g), ell[k]);
          for (unsigned j = 0; j < k; ++j)
            mons.store(ctx, mons_base + layout.mons_deriv_index(g, pos[j]),
                       ell[j]);
        }
        if (!worked) ctx.mark_inactive();
      });
      kernel.phases.push_back(detail::make_fused_summation_phase<S>(
          mons_, outputs_, layout_, m, layout_.num_outputs()));
    } else {
      kernel.phases.push_back([mons, coeffs, positions, exponents, tenants,
                               layout, n, d, k, monomials, pos_stride,
                               coeff_stride, svars_off,
                               powers_off](simt::ThreadContext& ctx) {
        const std::size_t point = ctx.block_index();
        const std::uint64_t ten = ctx.load(tenants, point);
        const std::uint64_t tbase = ten * pos_stride;
        const std::uint64_t cbase = ten * coeff_stride;
        auto svars = ctx.template shared_array<C>(svars_off, n);
        auto powers =
            ctx.template shared_array<C>(powers_off, std::size_t{n} * d);
        std::array<unsigned, 256> pos;
        const std::size_t mons_base = point * layout.mons_size();

        bool worked = false;
        for (std::uint64_t g = ctx.thread_index(); g < monomials;
             g += ctx.block_dim()) {
          worked = true;

          for (unsigned j = 0; j < k; ++j)
            pos[j] = ctx.load_constant(positions,
                                       tbase + layout.support_index(g, j));
          const auto var = [&](unsigned j) { return svars.get(pos[j]); };

          // Common factor: the full kernel's loop, verbatim.
          C cf(S(1.0));
          for (unsigned j = 0; j < k; ++j) {
            const unsigned em1 = ctx.load_constant(
                exponents, tbase + layout.support_index(g, j));
            const C val = powers.get(std::size_t{em1} * n + pos[j]);
            if (j == 0) {
              cf = val;
            } else {
              cf = cf * val;
              ctx.op_cmul();
            }
          }

          // ((var(0)..var(k-2)) * cf) * var(k-1), as the values kernel.
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

          // Value coefficient (portion k), as in the full kernel.
          p = p * ctx.load(coeffs, cbase + layout.coeff_index(k, g));
          ctx.op_cmul();

          mons.store(ctx, mons_base + layout.mons_value_index(g), p);
        }
        if (!worked) ctx.mark_inactive();
      });
      kernel.phases.push_back(detail::make_fused_summation_phase<S>(
          mons_, values_, layout_, m, n));
    }
    return kernel;
  }

  simt::Device& device_;
  SystemLayout layout_;
  unsigned max_tenants_;
  unsigned capacity_;
  Options options_;
  std::size_t shared_bytes_ = 0;

  simt::ConstantBuffer<unsigned char> positions_, exponents_;
  simt::GlobalBuffer<C> coeffs_;
  InterchangeBuffer<S> mons_;
  simt::GlobalBuffer<C> x_, outputs_, values_;
  simt::GlobalBuffer<unsigned> tenant_ids_;
  simt::Kernel kernel_, values_kernel_;

  std::vector<unsigned char> host_positions_, host_exponents_;
  std::vector<C> host_coeffs_;
  std::vector<unsigned char> tenant_present_;
  std::span<const unsigned> bound_;        ///< per-point tenant routing
  std::vector<unsigned> staged_tenants_;   ///< compacted upload staging
  std::vector<C> flat_;
  std::vector<C> host_outputs_;
};

}  // namespace polyeval::core
