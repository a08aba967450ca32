#pragma once

/// \file autotuner.hpp
/// Measured launch-geometry autotuning over the modeled clock.
///
/// The paper hand-picked its launch geometry for one device (B = 32 on
/// a Fermi C2050, section 3.3); our pick_block_size heuristic encodes
/// that choice and its widening rule, but a heuristic is still a guess.
/// The Autotuner replaces the guess with a measurement: for a TuneKey
/// (schedule x system structure x batch shape x scalar width x
/// DeviceSpec geometry), it launches every candidate geometry through a
/// scratch device, scores each by MODELED wall-clock -- the
/// deterministic clock the whole repo's perf claims live on, via
/// estimate_log_us / the stream pipeline's AsyncEngineClocks makespan
/// -- and memoizes the winner in a TuneCache.  pick_block_size is
/// demoted to the cache-miss seed: candidate zero is always the
/// heuristic's choice, so the winner is never modeled-slower than the
/// heuristic, and the decision records both scores.
///
/// The probing is a callback (`probe(candidate) -> optional<ProbeOutcome>`)
/// supplied by the evaluator being tuned, which keeps this header free
/// of evaluator types (no include cycle: evaluators include this file).
/// Evaluators reach the tuner only through resolve_geometry, whose probes
/// construct the evaluator with the candidate geometry pinned and
/// `TuningMode::kHeuristic`, so probing can never recurse into the
/// tuner.  Returning nullopt marks the candidate infeasible (e.g. the
/// batch pipeline's kernel-2 shared budget) -- skipped, not scored.
///
/// Ties on the modeled clock are broken by the memory-behaviour
/// profile: a compute-bound kernel prices AoS and SoA identically, and
/// the ProfileReport's global-transaction total is what picks the
/// layout (fewer transactions wins); remaining ties go to the earlier
/// candidate, so decisions are deterministic for a deterministic
/// candidate order.  Tuning changes timing only -- every candidate's
/// results are bitwise identical by the repo's layout/block-size/
/// stream invariants, pinned in tests/test_tune.cpp.

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simt/stats.hpp"
#include "tune/profile_report.hpp"
#include "tune/tune_cache.hpp"
#include "tune/tune_key.hpp"

namespace polyeval::tune {

/// What one candidate probe measured: the modeled score plus the launch
/// log the profile (tie-breaks, decision note, bench dumps) folds.
struct ProbeOutcome {
  double modeled_us = 0.0;
  simt::LaunchLog log;
};

/// Candidate list with the heuristic seed FIRST (candidate zero is the
/// heuristic_us reference the tuned-vs-heuristic gates divide by),
/// followed by the cross product stream_counts x {AoS, SoA} x blocks,
/// deduplicated against the seed and each other.  Order is
/// deterministic, so tuned decisions are too.
[[nodiscard]] std::vector<TuneCandidate> standard_candidates(
    unsigned seed_block, std::span<const unsigned> blocks,
    std::span<const unsigned> stream_counts);

class Autotuner {
 public:
  Autotuner() = default;
  Autotuner(const Autotuner&) = delete;
  Autotuner& operator=(const Autotuner&) = delete;

  /// The process-wide instance every evaluator's `block_size = 0` path
  /// routes through.  Its cache starts cold; load a persisted cache
  /// explicitly (`global().cache().load(path)`) to warm it -- nothing
  /// reads the working directory behind the caller's back.
  [[nodiscard]] static Autotuner& global();

  /// The decision for `key`: the cache hit, or a fresh measurement over
  /// `candidates` via `probe` (see the file comment for the contract).
  /// Throws std::runtime_error when no candidate is feasible.  Holds the
  /// tuner's lock across the probes, so concurrent first-touch of one
  /// key measures once.
  template <class Probe>
  TuneDecision tune(const TuneKey& key, std::span<const TuneCandidate> candidates,
                    Probe&& probe) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const TuneDecision* hit = cache_.find(key)) {
      ++hits_;
      return *hit;
    }
    ++misses_;

    TuneDecision best;
    ProfileReport best_report;
    bool have_best = false;
    double seed_us = 0.0;
    bool have_seed = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::optional<ProbeOutcome> outcome = probe(candidates[i]);
      if (!outcome.has_value()) continue;  // infeasible geometry
      ProfileReport report = ProfileReport::from_log(outcome->log);
      if (i == 0) {
        seed_us = outcome->modeled_us;
        have_seed = true;
      }
      // Modeled clock first; on an exact tie the profile decides
      // (fewer global transactions), then the earlier candidate.
      const bool wins =
          !have_best || outcome->modeled_us < best.modeled_us ||
          (outcome->modeled_us == best.modeled_us &&
           report.total_transactions() < best_report.total_transactions());
      if (wins) {
        best.choice = candidates[i];
        best.modeled_us = outcome->modeled_us;
        best_report = std::move(report);
        have_best = true;
      }
    }
    if (!have_best)
      throw std::runtime_error("Autotuner: no feasible candidate for key");
    // The heuristic seed is candidate zero by convention; if the caller
    // passed a list without it (or the seed itself was infeasible), the
    // winner doubles as the reference so speedup() stays meaningful.
    best.heuristic_us = have_seed ? seed_us : best.modeled_us;
    best.note = decision_note(best, best_report);

    cache_.insert(key, best);
    decisions_.push_back({key, best, std::move(best_report)});
    return best;
  }

  [[nodiscard]] TuneCache& cache() noexcept { return cache_; }
  [[nodiscard]] const TuneCache& cache() const noexcept { return cache_; }

  /// The memoized winner's modeled wall-clock for `key`, if a decision
  /// exists -- the measurement the heterogeneity-aware schedulers refine
  /// their clock-x-cores weight estimate with.  Never probes and never
  /// bumps the hit/miss counters: a missing entry means "fall back to
  /// the modeled estimate", not "go measure".
  [[nodiscard]] std::optional<double> cached_modeled_us(const TuneKey& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const TuneDecision* hit = cache_.find(key);
    if (hit == nullptr) return std::nullopt;
    return hit->modeled_us;
  }

  /// Cache-hit/miss counters since construction (test introspection).
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

  /// Human-readable dump of every decision measured by THIS instance
  /// (cache hits and loaded entries carry no profile): the key, the
  /// winner, both scores and the winning probe's folded ProfileReport.
  /// bench_autotune writes this as PROFILE_autotune.txt for CI triage.
  [[nodiscard]] std::string profile_dump() const;

  /// Fold the ProfileReports of measured decisions [from, count) into
  /// `registry` and return the new watermark (the decision count).
  /// Passing the previous return value back makes repeated polls --
  /// SolveService::metrics() calls this on every scrape -- additive
  /// without double-counting.
  std::size_t fold_profiles_into(obs::MetricsRegistry& registry,
                                 std::size_t from = 0) const;

 private:
  struct MeasuredDecision {
    TuneKey key;
    TuneDecision decision;
    ProfileReport report;
  };

  [[nodiscard]] static std::string decision_note(const TuneDecision& decision,
                                                 const ProfileReport& report);

  mutable std::mutex mutex_;
  TuneCache cache_;
  std::vector<MeasuredDecision> decisions_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// What a tuned evaluator searches when its geometry is auto: the cache
/// key, the heuristic block seed (candidate zero) and the candidate axes.
struct GeometrySearch {
  TuneKey key;
  unsigned seed_block = 0;
  std::span<const unsigned> blocks;
  std::span<const unsigned> stream_counts;
};

/// The one launch-geometry decision of every evaluator.  A knob is auto
/// when `block_size == 0`, `interchange == nullopt` or, on Options that
/// have it, `streams == 0`; with nothing auto, `options` come back as
/// they are.  Under kHeuristic (always, on Options without a `tuning`
/// field), or when any knob is pinned, every auto knob takes its seed:
/// `search().seed_block`, AoS and the first stream count (a half-pinned
/// key would poison the cache).  Otherwise the global Autotuner measures
/// `standard_candidates` over the search's axes: each candidate is
/// pinned into a copy of `options` with kHeuristic set, so probing can
/// never recurse, and `probe(pinned) -> optional<ProbeOutcome>` scores
/// it.  `search()` runs only when some knob is auto, so a fully pinned
/// construction -- every probe's -- pays nothing here.
template <class Options, class Search, class Probe = std::nullptr_t>
[[nodiscard]] Options resolve_geometry(Options options, Search&& search,
                                       Probe&& probe = nullptr) {
  constexpr bool kHasStreams = requires { options.streams; };
  constexpr bool kMeasurable = requires { options.tuning; };
  const bool auto_block = options.block_size == 0;
  const bool auto_layout = !options.interchange.has_value();
  bool auto_streams = false;
  if constexpr (kHasStreams) auto_streams = options.streams == 0;
  if (!auto_block && !auto_layout && !auto_streams) return options;

  const GeometrySearch s = search();
  if constexpr (kMeasurable) {
    const bool all_auto = auto_block && auto_layout && (auto_streams || !kHasStreams);
    if (all_auto && options.tuning == TuningMode::kMeasured) {
      const auto pin = [](Options& o, const TuneCandidate& c) {
        o.block_size = c.block_size;
        o.interchange = c.interchange;
        if constexpr (kHasStreams) o.streams = c.streams;
      };
      const auto candidates =
          standard_candidates(s.seed_block, s.blocks, s.stream_counts);
      const TuneDecision decision = Autotuner::global().tune(
          s.key, std::span<const TuneCandidate>(candidates),
          [&](const TuneCandidate& c) -> std::optional<ProbeOutcome> {
            Options pinned = options;
            pin(pinned, c);
            pinned.tuning = TuningMode::kHeuristic;
            return probe(pinned);
          });
      pin(options, decision.choice);
      return options;
    }
  }
  if (auto_block) options.block_size = s.seed_block;
  if (auto_layout) options.interchange = core::InterchangeLayout::kAoS;
  if constexpr (kHasStreams)
    if (auto_streams) options.streams = s.stream_counts.front();
  return options;
}

/// Measured throughput weights for a fleet of specs: `make_key(spec)`
/// names each device's kernel, and if EVERY spec has a memoized tuning
/// decision the weights are 1 / measured-modeled-us, normalized so the
/// fastest device weighs 1.0 (the same convention as the registry's
/// modeled weights, so callers can swap one vector for the other).
/// Returns nullopt when any spec is still unprobed -- a half-measured
/// fleet would bias placement toward whichever device happened to probe
/// first, so refinement is all-or-nothing.
template <class MakeKey>
[[nodiscard]] std::optional<std::vector<double>> measured_fleet_weights(
    const Autotuner& tuner, std::span<const simt::DeviceSpec> specs,
    MakeKey&& make_key) {
  std::vector<double> weights(specs.size(), 0.0);
  double max_w = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::optional<double> us = tuner.cached_modeled_us(make_key(specs[i]));
    if (!us.has_value() || !(*us > 0.0)) return std::nullopt;
    weights[i] = 1.0 / *us;
    max_w = std::max(max_w, weights[i]);
  }
  for (double& w : weights) w /= max_w;
  return weights;
}

}  // namespace polyeval::tune
