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
/// Bitwise contract: both kernels come from the one fused builder
/// (detail::build_fused_kernel) with the tenant-indexed table source,
/// which adds a tenant base offset to every table index -- offsets
/// change WHICH coefficients are read, never the operation order -- and
/// the coefficients are folded by the one fold (fold_coefficients).  A
/// point evaluated here is therefore bit-identical to the same point
/// through the tenant's own single-tenant FusedGpuEvaluator, which is
/// what lets the service promise every request endpoints bitwise equal
/// to a standalone solve.
///
/// Zero steady-state allocation, as the single-tenant pipeline: tables
/// upload at set_tenant (admission time), per-call staging reuses
/// constructor-sized buffers.  Exponents use the one-byte kChar
/// encoding, as every fused kernel does.

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
    // Heuristic only (no `tuning` knob): no key, no candidate axes.
    options_ = tune::resolve_geometry(options_, [&] {
      const unsigned seed = pick_block_size(structure.n, structure.m, structure.k,
                                            capacity_, device.spec().multiprocessors);
      return tune::GeometrySearch{{}, seed, {}, {}};
    });

    const std::size_t pos_stride = support_stride();
    const std::size_t coeff_stride = layout_.coeffs_size();
    bufs_.positions = device_.alloc_constant<unsigned char>(
        pos_stride * max_tenants_, "MtPositions");
    bufs_.exponents = device_.alloc_constant<unsigned char>(
        pos_stride * max_tenants_, "MtExponents");
    bufs_.coeffs = device_.alloc_global<C>(coeff_stride * max_tenants_, "MtCoeffs");
    bufs_.mons.allocate(device_, std::size_t{capacity_} * layout_.mons_size(),
                        "MtMons[batch]", *options_.interchange);
    bufs_.mons.fill_zero(device_);
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
    upload_tables();
    tenant_present_.assign(max_tenants_, 0);

    const detail::TenantIndexedTables tables{capacity_, tenant_ids_, pos_stride,
                                             coeff_stride};
    kernel_ = detail::build_fused_kernel<detail::FusedOutput::kFull>(
        layout_, bufs_, tables, x_, outputs_);
    values_kernel_ = detail::build_fused_kernel<detail::FusedOutput::kValues>(
        layout_, bufs_, tables, x_, values_);

    flat_.reserve(std::size_t{capacity_} * structure.n);
    host_outputs_.reserve(std::size_t{capacity_} * layout_.num_outputs());
    staged_tenants_.resize(capacity_);
  }

  /// Constant-memory bytes the tenant tables take: positions and kChar
  /// exponents of `max_tenants` systems of `structure`.  The service's
  /// admission rejects a structure whose tables exceed a device's
  /// constant budget, since the constructor would throw
  /// simt::ConstantMemoryOverflow from inside a service tick.
  [[nodiscard]] static std::uint64_t constant_bytes(
      const poly::UniformStructure& structure, unsigned max_tenants) {
    return std::uint64_t{max_tenants} *
           constant_bytes_required(ExponentEncoding::kChar,
                                   SystemLayout(structure).total_monomials(),
                                   structure.k);
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
  /// coefficient portions with the one fold, splice into the
  /// concatenated host mirrors at the tenant's stride and re-upload the
  /// three tables.  An admission-time cost, not a per-round one.
  void set_tenant(unsigned tenant, const poly::PolynomialSystem& system) {
    if (tenant >= max_tenants_)
      throw std::invalid_argument("MultiTenantFusedEvaluator: bad tenant");
    const PackedSystem packed = pack_system(system);
    if (!(packed.structure == layout_.structure()))
      throw std::invalid_argument(
          "MultiTenantFusedEvaluator: tenant structure mismatch");
    const auto encoded =
        encode_exponents(ExponentEncoding::kChar, packed.exponents);

    const std::size_t pos_stride = support_stride();
    std::copy(packed.positions.begin(), packed.positions.end(),
              host_positions_.begin() + tenant * pos_stride);
    std::copy(encoded.begin(), encoded.end(),
              host_exponents_.begin() + tenant * pos_stride);
    detail::fold_coefficients<S>(
        packed, layout_,
        std::span<C>(host_coeffs_)
            .subspan(std::size_t{tenant} * layout_.coeffs_size(),
                     layout_.coeffs_size()));

    upload_tables();
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

  void upload_tables() {
    device_.upload_constant(bufs_.positions,
                            std::span<const unsigned char>(host_positions_));
    device_.upload_constant(bufs_.exponents,
                            std::span<const unsigned char>(host_exponents_));
    device_.upload(bufs_.coeffs, std::span<const C>(host_coeffs_));
  }

  /// Check the range and its tenant binding, then upload the points and
  /// their tenant ids.  Throws before any device work; returns the
  /// batch size.
  unsigned stage_range(const std::vector<std::vector<C>>& points,
                       std::size_t first, std::size_t count,
                       std::size_t out_size, std::size_t out_needed) {
    const unsigned n = dimension();
    detail::check_range("MultiTenantFusedEvaluator", points, first, count,
                        capacity_, n, out_size, out_needed);
    if (bound_.size() < first + count)
      throw std::invalid_argument(
          "MultiTenantFusedEvaluator: bind_tenants span too short");
    for (std::size_t p = first; p < first + count; ++p) {
      const unsigned ten = bound_[p];
      if (ten >= max_tenants_ || !tenant_present_[ten])
        throw std::invalid_argument(
            "MultiTenantFusedEvaluator: point bound to absent tenant");
      staged_tenants_[p - first] = ten;
    }
    const auto batch = static_cast<unsigned>(count);
    detail::pack_points(points, first, count, n, flat_);
    device_.upload(x_, std::span<const C>(flat_));
    device_.upload(tenant_ids_, std::span<const unsigned>(staged_tenants_.data(),
                                                          batch));
    return batch;
  }

  void launch(const simt::Kernel& kernel, unsigned batch) {
    simt::LaunchConfig cfg{batch, options_.block_size,
                           detail::fused_shared_bytes<S>(layout_.structure())};
    cfg.detect_races = options_.detect_races;
    // Which tables each block reads is the staged tenant sequence: it
    // is the launch's footprint tag.
    (void)device_.launch(kernel, cfg,
                         simt::FootprintTag(staged_tenants_.data(), batch));
  }

  simt::Device& device_;
  SystemLayout layout_;
  unsigned max_tenants_;
  unsigned capacity_;
  Options options_;

  detail::FusedBuffers<S> bufs_;
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
