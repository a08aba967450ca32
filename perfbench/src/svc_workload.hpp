#pragma once

// Closed-loop solve-service workloads: one client thread keeps a fixed
// number of requests outstanding against one SolveService in sync mode
// and submits the next request as soon as one completes.
//
// A run is a fixed, seeded sequence of requests, sized from --seconds
// by the workload's nominal rate.  The service's schedule depends only
// on the tick sequence, so the whole run is the same work on every run
// of one seed: every count read from it (modeled clock, ticks, tracker
// and Newton counters, the endpoint digest) repeats exactly, and the
// wall and CPU clocks time exactly that work.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ad/cpu_evaluator.hpp"
#include "common.hpp"
#include "homotopy/homogenize.hpp"
#include "poly/random_system.hpp"
#include "probes.hpp"
#include "service/solve_service.hpp"

namespace perfbench {

using namespace polyeval;

struct SvcPlan {
  std::vector<poly::UniformStructure> structures;  ///< round-robin per request
  unsigned outstanding = 8;  ///< closed-loop clients
  unsigned paths_per_request = 6;
  double nominal_requests_per_s = 10.0;  ///< sizes the run from --seconds
  /// 0: a fresh seeded system per request.  Otherwise the run replays a
  /// fixed population of requests in an order drawn from --seed:
  /// request j cycles over this many systems and carries its own gamma,
  /// all from a constant seed, as the paper's benchmark systems are
  /// fixed.  Every run then tracks the same paths (a path's trajectory
  /// is schedule-independent), and only how requests share rounds
  /// varies with the seed.
  unsigned fixed_systems = 0;
  unsigned setup_reps = 15;
};

/// What the workload measured.
struct SvcOutcome {
  double solves_per_s = 0, latency_p50_ms = 0, latency_p90_ms = 0;
  std::size_t latency_samples = 0;
  double cpu_ms_per_path = 0, modeled_us_per_path = 0, wall_s = 0;
  std::uint64_t requests = 0, paths_attempted = 0, paths_failed = 0, check_failures = 0;
  std::uint64_t digest = 0;
};

template <prec::RealScalar S>
class SvcWorkload {
  using C = cplx::Complex<S>;
  using Service = service::SolveService<S>;

 public:
  SvcWorkload(SvcPlan plan, std::uint64_t seed) : plan_(std::move(plan)), seed_(seed) {
    for (unsigned j = 0; j < plan_.fixed_systems; ++j)
      fixed_.push_back(make_system(plan_.structures[j % plan_.structures.size()],
                                   mix(kFixedSystemsSeed, j)));
  }

  /// From a cold TuneCache, construct the service and finish one warm-up
  /// request per structure (per fixed system, so the SystemCache is
  /// warm too).  Warm-ups run two ticks and are then cancelled by their
  /// round budget: that builds the groups, runs the autotune probe and
  /// fills both caches without timing a whole path.
  SetupTime setup() {
    const auto teardown = [&] {
      svc_.reset();
      tune::Autotuner::global().cache().clear();
    };
    return time_setup(plan_.setup_reps, teardown, [&] {
      svc_ = std::make_unique<Service>();
      std::vector<service::SolveTicket<S>> warm;
      const auto warm_up = [&](const poly::PolynomialSystem& sys) {
        auto req = request(sys, 1);
        req.round_budget = 2;
        warm.push_back(svc_->submit(std::move(req)));
      };
      if (fixed_.empty()) {
        for (std::size_t s = 0; s < plan_.structures.size(); ++s)
          warm_up(make_system(plan_.structures[s], mix(seed_, 500 + s)));
      } else {
        for (const auto& sys : fixed_) warm_up(sys);
      }
      svc_->drain();
      for (const auto& t : warm)
        if (!t.done() || !t.admitted()) setup_ok_ = false;
    });
  }

  /// Run the closed loop over round(seconds x nominal rate) requests.
  SvcOutcome run(double seconds, double hard_stop_wall, SpanLog& spans) {
    const auto total = static_cast<unsigned>(
        std::max(1.0, std::round(seconds * plan_.nominal_requests_per_s)));
    // Inputs are generated before the clocks start.
    std::vector<unsigned> order(total);
    for (unsigned i = 0; i < total; ++i) order[i] = i;
    for (unsigned i = total; i-- > 1;)  // Fisher-Yates from the seed
      std::swap(order[i], order[mix(seed_, 4000 + i) % (i + 1)]);
    std::vector<std::shared_ptr<const poly::PolynomialSystem>> systems;
    for (unsigned i = 0; i < total; ++i) {
      if (!fixed_.empty()) {
        systems.push_back(std::make_shared<const poly::PolynomialSystem>(
            fixed_[order[i] % fixed_.size()]));
      } else {
        const auto& st = plan_.structures[i % plan_.structures.size()];
        systems.push_back(std::make_shared<const poly::PolynomialSystem>(
            make_system(st, mix(seed_, 2000 + i))));
      }
    }
    stats0_ = svc_->stats();
    scrape0_ = scrape();
    tune0_ = {tune::Autotuner::global().hits(), tune::Autotuner::global().misses()};

    struct Inflight {
      service::SolveTicket<S> ticket;
      double submitted = 0;
      std::size_t span = SpanLog::npos;
      unsigned index = 0;
    };
    std::vector<Inflight> inflight;
    std::vector<double> latencies;
    unsigned next = 0;
    bool cancelled = false;
    const double w0 = wall_s(), c0 = cpu_s();
    const auto submit_next = [&] {
      const unsigned i = next++;
      auto req = request(*systems[i], plan_.paths_per_request);
      if (!fixed_.empty()) req.options.gamma_seed = mix(kFixedSystemsSeed, 3000 + order[i]);
      Inflight f;
      f.index = i;
      f.span = spans.begin("request", "request", i);
      const auto s = spans.begin("submit", "client", i, f.span);
      f.submitted = wall_s();
      f.ticket = svc_->submit(std::move(req));
      submit_ms_.push_back(1e3 * (wall_s() - f.submitted));
      spans.end(s);
      spans.set_id(f.span, f.ticket.id());
      inflight.push_back(std::move(f));
    };
    while (next < total && inflight.size() < plan_.outstanding) submit_next();
    while (!inflight.empty()) {
      if (!cancelled && wall_s() >= hard_stop_wall) {
        // Out of time: stop feeding the loop and cancel what is in
        // flight; cancelled paths count as failed.
        for (auto& f : inflight) f.ticket.cancel();
        next = total;
        cancelled = true;
      }
      const auto s = spans.begin("step", "client", step_ms_.size());
      const double s0 = wall_s();
      const bool more = svc_->step();
      step_ms_.push_back(1e3 * (wall_s() - s0));
      spans.end(s);
      const double now = wall_s();
      for (std::size_t j = 0; j < inflight.size();) {
        if (!inflight[j].ticket.done()) {
          ++j;
          continue;
        }
        spans.end(inflight[j].span);
        latencies.push_back(1e3 * (now - inflight[j].submitted));
        completed_.push_back({inflight[j].ticket, systems[inflight[j].index]});
        inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(j));
        if (next < total) submit_next();
      }
      if (!more && !inflight.empty()) {
        // The service ran dry with requests still open: they count as
        // unfinished, hence failed.
        for (const auto& f : inflight) spans.end(f.span);
        unfinished_paths_ += inflight.size() * plan_.paths_per_request;
        inflight.clear();
      }
    }
    const double wall = wall_s() - w0, cpu = cpu_s() - c0;
    stats1_ = svc_->stats();
    scrape1_ = scrape();
    tune1_ = {tune::Autotuner::global().hits(), tune::Autotuner::global().misses()};

    SvcOutcome out;
    check(out);
    out.requests = completed_.size();
    const auto paths = static_cast<double>(out.paths_attempted);
    out.wall_s = wall;
    out.solves_per_s = safe_div(static_cast<double>(out.requests), wall);
    out.latency_samples = latencies.size();
    out.latency_p50_ms = quantile(latencies, 0.5);
    out.latency_p90_ms = quantile(latencies, 0.9);
    out.cpu_ms_per_path = safe_div(1e3 * cpu, paths);
    out.modeled_us_per_path =
        safe_div(stats1_.total_modeled_us - stats0_.total_modeled_us, paths);
    paths_ = out.paths_attempted;
    return out;
  }

  [[nodiscard]] bool setup_ok() const { return setup_ok_; }

  /// Per-layer metrics read from the service's public counters (deltas
  /// over the run) and from the client-side submit()/step() timers.
  void layer_metrics(MetricSink& sink) const {
    const auto d = [&](const std::string& key) { return scrape1_.delta(scrape0_, key); };
    const double ticks = static_cast<double>(stats1_.ticks - stats0_.ticks);
    const double rounds = static_cast<double>(stats1_.shard_rounds - stats0_.shard_rounds);
    sink.add("service.submit_us_p50", 1e3 * median(submit_ms_), "us");
    sink.add("service.step_ms_p50", median(step_ms_), "ms");
    double step_total = 0;
    for (const double s : step_ms_) step_total += s;
    sink.add("service.step_ms_total", step_total, "ms");
    sink.add("service.ticks", ticks, "count");
    sink.add("service.shard_rounds", rounds, "count");
    sink.add("service.coalesced_frac",
             safe_div(static_cast<double>(stats1_.coalesced_rounds - stats0_.coalesced_rounds),
                      rounds),
             "1");
    sink.add("service.max_tenants", stats1_.max_tenants_in_round, "count");
    sink.add("service.live_steals",
             static_cast<double>(stats1_.live_steals - stats0_.live_steals), "count");
    sink.add("service.queue_pulls",
             static_cast<double>(stats1_.queue_pulls - stats0_.queue_pulls), "count");
    double launches = 0;
    for (const char* k : {"mt_fused", "mt_fused_vals", "fused_eval"}) {
      const std::string key = std::string("{kernel=\"") + k + "\"}";
      const double n = d("polyeval_kernel_launches_total" + key);
      launches += n;
      sink.add(std::string("core.launches.") + k, n, "count");
      sink.add(std::string("simt.modeled_us.") + k,
               safe_div(d("polyeval_kernel_modeled_us_total" + key), n), "us");
    }
    sink.add("service.launches_per_tick", safe_div(launches, ticks), "count");
    std::vector<double> queue_ms;
    for (const auto& r : completed_)
      if (r.ticket.admitted()) queue_ms.push_back(r.ticket.report().timing.queue_wall_us / 1e3);
    sink.add("service.queue_wait_ms_p50", median(queue_ms), "ms");
    const double hits = static_cast<double>(stats1_.cache_hits - stats0_.cache_hits);
    const double misses = static_cast<double>(stats1_.cache_misses - stats0_.cache_misses);
    sink.add("service.system_cache_hit_frac", safe_div(hits, hits + misses), "1");

    const double acc = d("polyeval_tracker_steps_accepted_total");
    const double rej = d("polyeval_tracker_steps_rejected_total");
    sink.add("homotopy.rounds", d("polyeval_tracker_rounds_total"), "count");
    sink.add("homotopy.steps_accepted", acc, "count");
    sink.add("homotopy.steps_rejected", rej, "count");
    sink.add("homotopy.accept_frac", safe_div(acc, acc + rej), "1");
    sink.add("homotopy.steps_per_path", safe_div(acc, static_cast<double>(paths_)), "count");
    sink.add("homotopy.endgame_entries", d("polyeval_endgame_entries_total"), "count");
    sink.add("homotopy.endgame_retries", d("polyeval_endgame_retries_total"), "count");

    const double calls = d("polyeval_newton_calls_total");
    const double iters = d("polyeval_newton_iterations_total");
    sink.add("newton.calls", calls, "count");
    sink.add("newton.iterations", iters, "count");
    sink.add("newton.iterations_per_call", safe_div(iters, calls), "count");

    sink.add("simt.dma_bytes_h2d", d("polyeval_dma_bytes_total{direction=\"h2d\"}"), "B");
    sink.add("simt.dma_bytes_d2h", d("polyeval_dma_bytes_total{direction=\"d2h\"}"), "B");
    const double th = static_cast<double>(tune1_.first - tune0_.first);
    const double tm = static_cast<double>(tune1_.second - tune0_.second);
    sink.add("tune.cache_hit_frac", safe_div(th, th + tm), "1");
  }

  /// The probe shape: the largest structure of the mix, at the points
  /// one shard carries when every client's paths are in flight.
  [[nodiscard]] ProbeShape probe_shape() const {
    ProbeShape p;
    auto st = plan_.structures.front();
    for (const auto& s : plan_.structures)
      if (s.total_monomials() > st.total_monomials()) st = s;
    p.system = spec_for(st, mix(seed_, 9000));
    p.batch = std::max(1u, plan_.outstanding * plan_.paths_per_request / 2);  // 2 shards
    p.host_workers = 1;
    p.lu_dimension = st.n + 1;  // projective tracker dimension
    return p;
  }

  /// Output check of one endpoint: re-evaluate the target on the CPU at
  /// the affine chart x = z / z_n and form the tracker's row-scaled
  /// residual max_i |(z_n / m)^{d_i} f_i(x)| (m = max_j |z_j|, 1-norms),
  /// then hold it to the tracker's own acceptance tolerance.  Public so
  /// the self-test can feed it a corrupted endpoint.
  static bool endpoint_ok(const poly::PolynomialSystem& target,
                          const homotopy::TrackResult<S>& path,
                          const homotopy::TrackOptions& topt) {
    const unsigned n = target.dimension();
    const auto& z = path.solution;
    if (z.size() != n + 1) return false;
    S m = cplx::norm1(z[0]);
    for (const auto& c : z)
      if (cplx::norm1(c) > m) m = cplx::norm1(c);
    if (!(to_d(m) > 0.0) || !std::isfinite(to_d(m))) return false;
    const auto x = homotopy::dehomogenize<S>(std::span<const C>(z));
    ad::CpuEvaluator<S> f(target);
    std::vector<C> values(n);
    f.evaluate_values(std::span<const C>(x), std::span<C>(values));
    const auto degrees = target.degrees();
    const C w = z[n] * (S(1.0) / m);
    double residual = 0.0;
    for (unsigned i = 0; i < n; ++i) {
      C scale(S(1.0));
      for (unsigned e = 0; e < degrees[i]; ++e) scale = scale * w;
      residual = std::max(residual, to_d(cplx::norm1(scale * values[i])));
    }
    double accept = std::max(topt.end_tolerance, topt.corrector_tolerance);
    if (path.winding > 0) accept = std::max(accept, topt.endgame.corrector_tolerance);
    return std::isfinite(residual) && residual <= accept;
  }

  /// A regular converged endpoint of the run and its target (the
  /// self-test corrupts a copy).
  [[nodiscard]] std::optional<std::pair<poly::PolynomialSystem, homotopy::TrackResult<S>>>
  sample_endpoint() const {
    for (const auto& r : completed_) {
      if (!r.ticket.admitted()) continue;
      for (const auto& p : r.ticket.report().paths)
        if (p.status == homotopy::PathStatus::kConverged && p.winding == 0)
          return std::make_pair(*r.system, p);
    }
    return std::nullopt;
  }

 private:
  struct Completed {
    service::SolveTicket<S> ticket;
    std::shared_ptr<const poly::PolynomialSystem> system;
  };

  static constexpr std::uint64_t kFixedSystemsSeed = 20120102;

  static double to_d(const S& v) { return prec::ScalarTraits<S>::to_double(v); }

  static poly::SystemSpec spec_for(const poly::UniformStructure& st, std::uint64_t seed) {
    poly::SystemSpec spec;
    spec.dimension = st.n;
    spec.monomials_per_polynomial = st.m;
    spec.variables_per_monomial = st.k;
    spec.max_exponent = st.d;
    spec.seed = seed;
    return spec;
  }
  static poly::PolynomialSystem make_system(const poly::UniformStructure& st,
                                            std::uint64_t seed) {
    return poly::make_random_system(spec_for(st, seed));
  }

  /// Default projective options; only the path count is set.
  static service::SolveRequest<S> request(const poly::PolynomialSystem& sys, unsigned paths) {
    service::SolveRequest<S> req{sys, {}, {}, 0, 0.0};
    req.options.sharding.max_paths = paths;
    return req;
  }

  [[nodiscard]] Scrape scrape() const {
    std::ostringstream os;
    svc_->metrics().expose(os);
    return Scrape(parse_exposition(os.str()));
  }

  /// Output checks over every completed request, and the digest of
  /// every endpoint in request order.
  void check(SvcOutcome& out) const {
    Digest digest;
    const homotopy::TrackOptions topt;  // the requests run the defaults
    for (const auto& r : completed_) {
      out.paths_attempted += plan_.paths_per_request;
      if (!r.ticket.admitted()) {
        out.paths_failed += plan_.paths_per_request;
        continue;
      }
      for (const auto& p : r.ticket.report().paths) {
        digest.add(p.status);
        for (const auto& c : p.solution) digest.add(c);
        switch (p.status) {
          case homotopy::PathStatus::kConverged:
            if (!endpoint_ok(*r.system, p, topt)) {
              ++out.paths_failed;
              ++out.check_failures;
            }
            break;
          case homotopy::PathStatus::kAtInfinity:
            break;
          default:  // stalled, diverged or cancelled: unclassified
            ++out.paths_failed;
        }
      }
    }
    out.paths_attempted += unfinished_paths_;
    out.paths_failed += unfinished_paths_;
    out.digest = digest.value();
  }

  SvcPlan plan_;
  std::uint64_t seed_;
  std::vector<poly::PolynomialSystem> fixed_;
  std::unique_ptr<Service> svc_;
  bool setup_ok_ = true;
  std::vector<Completed> completed_;
  std::uint64_t unfinished_paths_ = 0, paths_ = 0;
  std::vector<double> submit_ms_, step_ms_;
  service::ServiceStats stats0_, stats1_;
  Scrape scrape0_, scrape1_;
  std::pair<std::size_t, std::size_t> tune0_, tune1_;
};

}  // namespace perfbench
