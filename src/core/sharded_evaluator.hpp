#pragma once

/// \file sharded_evaluator.hpp
/// Multi-device sharded evaluation: the manager/worker layout the
/// paper's lineage runs across accelerators (Verschelde & Yu's
/// GPU-accelerated Newton, the MPI path trackers it cites), in-process.
///
/// A batch of points is split into contiguous chunks of
/// `Options::chunk_points`.  A manager pool with exactly one
/// participant per shard claims chunks and evaluates them on the
/// participant's own `simt::Device` -- each with its own host worker
/// pool, memory spaces and persistent BlockScratch arenas -- through a
/// per-shard backend evaluator (`FusedGpuEvaluator` by default,
/// `BatchGpuEvaluator` for the three-kernel ablation).  Two schedules:
///
///   * kWorkStealing (default): chunks are claimed from a shared cursor,
///     so a shard that finishes early simply claims more -- the
///     manager/worker dynamic balance of the MPI implementations.  The
///     cursor is weight-aware: shard s claims round(weight_s /
///     weight_min) chunks per pull (clamped to [1, 8]), so on a
///     heterogeneous fleet a 2x-faster card claims two chunks for every
///     one the slow card takes; on a uniform fleet every quantum is 1,
///     the claim-for-claim schedule.
///   * kStatic: chunk c goes to shard c % shards -- deterministic
///     placement for reproducible per-device logs (scaling benches).
///   * kWeightedStatic: contiguous chunk quotas proportional to each
///     shard's throughput weight (weighted_split), fully deterministic
///     -- the static schedule a mixed fleet wants, where a half-speed
///     device is handed half the chunks up front.
///
/// Weights come from the registry's modeled clock x cores, refined to
/// 1 / measured-kernel-us when the global Autotuner holds a decision
/// for every shard's spec (the fused backend's own construction probes
/// put them there, once per DISTINCT spec since TuneKey carries the
/// full device geometry).
///
/// Determinism and parity: chunk ranges map straight onto slices of the
/// caller's result buffer, so merged values/Jacobians land in
/// point-index order no matter which shard computed them; and each
/// point's arithmetic is independent of its chunk and shard, so results
/// are BITWISE identical across shard counts 1/2/4/8, across all three
/// schedules, and across uniform vs. mixed fleets.
///
/// Zero allocation: every shard's backend owns persistent staging and
/// device buffers sized to the chunk capacity, the constructor
/// deterministically pre-warms every shard with a full-capacity launch
/// (so work stealing can never land a chunk on a cold shard mid-flight),
/// device logs are pre-reserved for the worst-case claim pattern, and
/// chunks are handed out through a stack-local atomic cursor over the
/// manager pool's zero-alloc range claims -- steady-state evaluate()
/// never touches the allocator.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/fused_evaluator.hpp"
#include "core/weighted_schedule.hpp"
#include "simt/device_registry.hpp"
#include "tune/autotuner.hpp"

namespace polyeval::core {

/// How a ShardedEvaluator places chunks on shards.
enum class ShardSchedule {
  kWorkStealing,    ///< shared claim cursor, weight-aware claim quanta
  kStatic,          ///< chunk c -> shard c % shards, reproducible placement
  kWeightedStatic,  ///< contiguous quotas proportional to throughput weight
};

template <prec::RealScalar S, class Backend = FusedGpuEvaluator<S>>
class ShardedEvaluator {
  using C = cplx::Complex<S>;

 public:
  struct Options {
    unsigned shards = 2;
    /// Device pool threads per shard; with the shard's manager thread
    /// participating in its device's drains, each shard occupies
    /// workers_per_shard + 1 host threads while evaluating.
    unsigned workers_per_shard = 1;
    /// Points per work item; also each shard's device batch capacity.
    /// More chunks than shards is what gives the cursor room to steal.
    unsigned chunk_points = 8;
    ShardSchedule schedule = ShardSchedule::kWorkStealing;
    simt::DeviceSpec spec = simt::DeviceSpec::tesla_c2050();
    /// Heterogeneous fleet: when non-empty, one shard per entry (this
    /// overrides `shards` and `spec`).  Mixed specs flow into the
    /// throughput weights the weighted schedules place by; they never
    /// change results (see the parity note above).
    std::vector<simt::DeviceSpec> specs;
    typename Backend::Options backend{};
  };

  ShardedEvaluator(const poly::PolynomialSystem& system, Options options = {})
      : options_(options),
        registry_(fleet_specs(options), options.workers_per_shard) {
    if (options_.chunk_points == 0)
      throw std::invalid_argument("ShardedEvaluator: zero chunk_points");
    options_.shards = registry_.size();
    structure_ = pack_system(system).structure;
    shard_eval_.reserve(registry_.size());
    for (unsigned i = 0; i < registry_.size(); ++i)
      shard_eval_.push_back(std::make_unique<Backend>(
          registry_.device(i), system, options_.chunk_points, options_.backend));
    if (registry_.size() > 1) manager_.emplace(registry_.size() - 1);
    refresh_weights();
    quota_.reserve(registry_.size());
    starts_.reserve(registry_.size() + 1);

    // Deterministic pre-warm: every shard runs two full-capacity
    // launches so the warm-up, not the steady state, pays every
    // allocation -- even on shards a stealing schedule leaves cold for
    // a while.  Two, not one: the first launch discovers the device's
    // collector shape, the second replays it onto every pool
    // participant's scratch (BlockScratch::warm), after which no claim
    // pattern can land a chunk on a cold participant.
    std::vector<std::vector<C>> warm_points(
        options_.chunk_points, std::vector<C>(dimension(), C{}));
    std::vector<poly::EvalResult<S>> warm_results(options_.chunk_points);
    for (unsigned i = 0; i < registry_.size(); ++i) {
      for (int pass = 0; pass < 2; ++pass)
        shard_eval_[i]->evaluate_range(warm_points, 0, warm_points.size(),
                                       std::span<poly::EvalResult<S>>(warm_results));
      registry_.device(i).clear_log();
    }
  }

  [[nodiscard]] unsigned dimension() const noexcept {
    return shard_eval_.front()->dimension();
  }
  [[nodiscard]] unsigned shard_count() const noexcept { return registry_.size(); }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] simt::DeviceRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] Backend& shard(unsigned i) { return *shard_eval_[i]; }

  /// The throughput weights the weighted schedules place by (fastest
  /// shard == 1.0): measured when available, modeled otherwise.
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }

  /// Re-derive the placement weights: start from the registry's modeled
  /// clock x cores, then -- for the fused backend, whose construction
  /// probes seed the cache -- replace the estimate with 1 / the
  /// autotuner's measured modeled-us when EVERY shard's spec has a
  /// memoized decision.  Weights shape placement only, so refreshing
  /// between evaluates never perturbs results.
  void refresh_weights() {
    weights_ = registry_.weights();
    if (!registry_.heterogeneous()) return;
    if constexpr (std::is_same_v<Backend, FusedGpuEvaluator<S>>) {
      std::vector<simt::DeviceSpec> specs;
      specs.reserve(registry_.size());
      for (unsigned i = 0; i < registry_.size(); ++i)
        specs.push_back(registry_.spec(i));
      const auto measured = tune::measured_fleet_weights(
          tune::Autotuner::global(), std::span<const simt::DeviceSpec>(specs),
          [&](const simt::DeviceSpec& spec) {
            return FusedGpuEvaluator<S>::tune_key(structure_,
                                                  options_.chunk_points, spec);
          });
      if (measured.has_value()) weights_ = *measured;
    }
  }

  /// Evaluate at any number of points, sharded over the devices; results
  /// are merged into `results` in point order.  Unlike the single-device
  /// evaluators there is no batch-capacity ceiling: the chunk cursor
  /// walks batches of any size through the fixed-capacity shards.
  void evaluate(const std::vector<std::vector<C>>& points,
                std::vector<poly::EvalResult<S>>& results) {
    const std::size_t batch = points.size();
    if (batch == 0) throw std::invalid_argument("ShardedEvaluator: empty batch");
    const unsigned n = dimension();
    for (const auto& p : points)
      if (p.size() != n)
        throw std::invalid_argument("ShardedEvaluator: point has wrong dimension");

    const std::size_t chunk = options_.chunk_points;
    const std::size_t chunks = (batch + chunk - 1) / chunk;
    results.resize(batch);
    for (unsigned i = 0; i < registry_.size(); ++i) {
      registry_.device(i).clear_log();
      // Worst case one shard claims every chunk; reserving for it keeps
      // the log's growth off the steady-state path however claims fall.
      // launches_per_batch is per instance: a pipelined backend issues
      // one launch per micro-chunk, not a pipeline-shape constant.
      registry_.device(i).reserve_log(chunks * shard_eval_[i]->launches_per_batch());
    }

    const std::span<poly::EvalResult<S>> out(results);
    const auto run_chunk = [&](unsigned shard, std::size_t c) {
      const std::size_t first = c * chunk;
      const std::size_t count = std::min(chunk, batch - first);
      shard_eval_[shard]->evaluate_range(points, first, count,
                                         out.subspan(first, count));
    };

    const unsigned shards = registry_.size();
    if (!manager_) {
      for (std::size_t c = 0; c < chunks; ++c) run_chunk(0, c);
    } else if (options_.schedule == ShardSchedule::kWorkStealing) {
      // Weight-aware stealing: shard s's claim quantum is its weight
      // relative to the slowest shard (a 2x-faster card pulls two
      // chunks per claim; 1 everywhere on a uniform fleet), clamped to 8
      // so no quantum outruns the balance the cursor exists to provide.
      // The pool only maps participants onto shards, each claimed once,
      // so every backend has one user at a time; the chunk cursor is ours.
      std::atomic<std::size_t> cursor{0};
      manager_->parallel_for_ranges(
          shards, 1, [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
              const std::size_t quantum = steal_quantum(static_cast<unsigned>(s));
              for (std::size_t base = cursor.fetch_add(quantum); base < chunks;
                   base = cursor.fetch_add(quantum)) {
                const std::size_t stop = std::min(base + quantum, chunks);
                for (std::size_t c = base; c < stop; ++c)
                  run_chunk(static_cast<unsigned>(s), c);
              }
            }
          });
    } else if (options_.schedule == ShardSchedule::kWeightedStatic) {
      // Deterministic proportional placement: shard s owns the
      // contiguous chunk range [starts_[s], starts_[s] + quota_[s]).
      // Member scratch keeps the steady state allocation-free.
      weighted_split_into(chunks, std::span<const double>(weights_), {}, quota_);
      starts_.assign(shards + 1, 0);
      for (unsigned s = 0; s < shards; ++s) starts_[s + 1] = starts_[s] + quota_[s];
      manager_->parallel_for_ranges(
          shards, 1, [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s)
              for (std::size_t c = starts_[s]; c < starts_[s + 1]; ++c)
                run_chunk(static_cast<unsigned>(s), c);
          });
    } else {
      // Static schedule: the claimed index IS the shard id; whichever
      // manager thread claims shard s walks s's strided chunk sequence.
      manager_->parallel_for_ranges(
          shards, 1, [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s)
              for (std::size_t c = s; c < chunks; c += shards)
                run_chunk(static_cast<unsigned>(s), c);
          });
    }

    merge_logs();
  }

  /// Merged launch log of the last evaluate() across every shard device
  /// (kernel entries concatenated shard-major, transfers summed).  For
  /// per-device logs -- modeled multi-device scaling wants the max, not
  /// the sum -- read registry().device(i).log() before the next call.
  [[nodiscard]] const simt::LaunchLog& last_log() const noexcept { return last_log_; }

 private:
  [[nodiscard]] static std::vector<simt::DeviceSpec> fleet_specs(
      const Options& options) {
    if (!options.specs.empty()) return options.specs;
    if (options.shards == 0)
      throw std::invalid_argument("ShardedEvaluator: zero shards");
    return std::vector<simt::DeviceSpec>(options.shards, options.spec);
  }

  /// Chunks shard s claims per steal: its weight over the slowest
  /// shard's, rounded, clamped to [1, 8].  Uniform fleets get 1
  /// everywhere -- the historical claim-for-claim cursor.
  [[nodiscard]] std::size_t steal_quantum(unsigned s) const {
    double w_min = weights_[0];
    for (double w : weights_) w_min = std::min(w_min, w);
    const double ratio = w_min > 0.0 ? weights_[s] / w_min : 1.0;
    const long long q = std::llround(ratio);
    return static_cast<std::size_t>(std::clamp(q, 1ll, 8ll));
  }

  void merge_logs() {
    std::size_t total = 0;
    for (unsigned i = 0; i < registry_.size(); ++i)
      total += registry_.device(i).log().kernels.size();
    last_log_.kernels.clear();
    last_log_.kernels.reserve(total);
    last_log_.transfers = {};
    for (unsigned i = 0; i < registry_.size(); ++i) {
      const auto& log = registry_.device(i).log();
      last_log_.kernels.insert(last_log_.kernels.end(), log.kernels.begin(),
                               log.kernels.end());
      last_log_.transfers.bytes_to_device += log.transfers.bytes_to_device;
      last_log_.transfers.bytes_from_device += log.transfers.bytes_from_device;
      last_log_.transfers.transfers_to_device += log.transfers.transfers_to_device;
      last_log_.transfers.transfers_from_device += log.transfers.transfers_from_device;
    }
  }

  Options options_;
  simt::DeviceRegistry registry_;
  poly::UniformStructure structure_;
  std::vector<double> weights_;  ///< placement weights, fastest == 1.0
  std::vector<std::unique_ptr<Backend>> shard_eval_;
  std::optional<simt::ThreadPool> manager_;  ///< shards - 1 workers + caller
  simt::LaunchLog last_log_;
  std::vector<std::size_t> quota_, starts_;  ///< kWeightedStatic scratch
};

}  // namespace polyeval::core
