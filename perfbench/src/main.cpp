// The repository benchmark: workloads, checks and result printing.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out FILE]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that reports the per-layer metrics (counters read after the
// workload, spans around the calls into each layer, and unit-cost
// probes).  The last stdout line is the result object.  --smoke shrinks
// every workload to a handful of requests or batches.  --selftest
// proves the output checks fire on a corrupted endpoint and a corrupted
// evaluation.  See perfbench/README.md for the workloads and metrics.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.hpp"
#include "eval_workload.hpp"
#include "probes.hpp"
#include "svc_workload.hpp"

namespace {

using namespace perfbench;
using polyeval::prec::DoubleDouble;

/// Every run must exit well inside the 180 s budget: past this many
/// seconds since start, the loop stops feeding work and cancels what
/// is in flight (those paths count as failed).
constexpr double kHardStopS = 140.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string trace_out;
};

/// Unit of every per-layer metric, in the order BENCHMARK.json lists
/// them.  A layer a workload bypasses reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"service.submit_us_p50", "us"},
      {"service.step_ms_p50", "ms"},
      {"service.step_ms_total", "ms"},
      {"service.ticks", "count"},
      {"service.shard_rounds", "count"},
      {"service.coalesced_frac", "1"},
      {"service.max_tenants", "count"},
      {"service.live_steals", "count"},
      {"service.queue_pulls", "count"},
      {"service.launches_per_tick", "count"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.system_cache_hit_frac", "1"},
      {"homotopy.rounds", "count"},
      {"homotopy.steps_accepted", "count"},
      {"homotopy.steps_rejected", "count"},
      {"homotopy.accept_frac", "1"},
      {"homotopy.steps_per_path", "count"},
      {"homotopy.endgame_entries", "count"},
      {"homotopy.endgame_retries", "count"},
      {"newton.calls", "count"},
      {"newton.iterations", "count"},
      {"newton.iterations_per_call", "count"},
      {"linalg.lu_solve_us_per_path", "us"},
      {"core.eval_us_per_point", "us"},
      {"core.values_us_per_point", "us"},
      {"core.launches.mt_fused", "count"},
      {"core.launches.mt_fused_vals", "count"},
      {"core.launches.fused_eval", "count"},
      {"simt.empty_launch_us", "us"},
      {"simt.modeled_us.mt_fused", "us"},
      {"simt.modeled_us.mt_fused_vals", "us"},
      {"simt.modeled_us.fused_eval", "us"},
      {"simt.dma_bytes_h2d", "B"},
      {"simt.dma_bytes_d2h", "B"},
      {"simt.complex_ops_per_eval", "count"},
      {"simt.global_bytes_per_eval", "B"},
      {"simt.ops_per_byte", "1/B"},
      {"simt.tx_per_request", "count"},
      {"simt.shared_cycles_per_request", "count"},
      {"prec.dd_cmul_ns", "ns"},
      {"tune.probe_s", "s"},
      {"tune.cache_hit_frac", "1"},
      {"obs.trace_overhead_frac", "1"},
      {"check.failed_frac", "1"},
  };
  return kUnits;
}

// Nominal rates are what one run completes per second on a 4-core
// x86 host at the time the benchmark was defined; they turn --seconds
// into a fixed amount of work, so a run of one seed always does the
// same work and a faster program simply finishes sooner.

SvcPlan small_fresh_plan(bool smoke) {
  SvcPlan p;
  p.structures = {{3, 3, 2, 2}, {4, 4, 2, 2}, {6, 4, 3, 2}};
  p.outstanding = smoke ? 3 : 8;
  p.paths_per_request = smoke ? 2 : 6;
  p.nominal_requests_per_s = smoke ? 6.0 : 10.0;
  p.setup_reps = smoke ? 1 : 15;
  return p;
}

SvcPlan table1_plan(bool smoke) {
  SvcPlan p;
  p.structures = {{12, 22, 9, 2}};
  p.outstanding = smoke ? 2 : 4;
  p.paths_per_request = smoke ? 1 : 2;
  p.nominal_requests_per_s = smoke ? 2.0 : 1.0;
  p.fixed_systems = 2;
  p.setup_reps = smoke ? 1 : 7;
  return p;
}

EvalPlan table2_plan(bool smoke) {
  EvalPlan p;
  p.system.dimension = 32;
  p.system.monomials_per_polynomial = 22;  // 704 monomials
  p.system.variables_per_monomial = 16;
  p.system.max_exponent = 10;
  p.batch = smoke ? 8 : 64;
  p.pool_batches = smoke ? 2 : 8;
  p.nominal_batches_per_s = smoke ? 2.0 : 10.0;
  p.host_workers = 3;
  p.setup_reps = smoke ? 1 : 3;
  return p;
}

/// The probes shared by every workload's traced run.
template <class S>
void add_probes(MetricSink& sink, const ProbeShape& shape, std::uint64_t seed, SpanLog& spans) {
  spans.enable(true);
  const KernelProbe kp = probe_kernel<S>(shape, seed, spans);
  double lu_us = 0.0;
  if (shape.lu_dimension > 0) {
    const auto s = spans.begin("probe linalg.lu_solve_batch", "probe", 0);
    lu_us = probe_lu_us<S>(shape.lu_dimension, shape.batch, seed);
    spans.end(s);
  }
  const auto s = spans.begin("probe prec.dd_cmul", "probe", 0);
  const double dd_ns = probe_dd_cmul_ns();
  spans.end(s);
  spans.enable(false);
  sink.add("linalg.lu_solve_us_per_path", lu_us, "us");
  sink.add("core.eval_us_per_point", kp.eval_us_per_point, "us");
  sink.add("core.values_us_per_point", kp.values_us_per_point, "us");
  sink.add("simt.empty_launch_us", kp.empty_launch_us, "us");
  sink.add("simt.complex_ops_per_eval", kp.complex_ops_per_eval, "count");
  sink.add("simt.global_bytes_per_eval", kp.global_bytes_per_eval, "B");
  sink.add("simt.ops_per_byte", kp.ops_per_byte, "1/B");
  sink.add("simt.tx_per_request", kp.tx_per_request, "count");
  sink.add("simt.shared_cycles_per_request", kp.shared_cycles_per_request, "count");
  sink.add("prec.dd_cmul_ns", dd_ns, "ns");
  sink.add("tune.probe_s", kp.probe_s, "s");
}

/// Fill the per-layer metrics a workload does not exercise with 0, then
/// order the sink as BENCHMARK.json lists them.
MetricSink ordered_layers(const MetricSink& raw) {
  MetricSink out;
  for (const auto& [name, unit] : per_layer_units()) {
    const auto v = raw.value(name);
    out.add(name, v.value_or(0.0), unit);
  }
  return out;
}

/// Print the traced run's result (every per-layer metric, in order)
/// and write the spans.
int finish_traced(const Args& a, const MetricSink& notes, const MetricSink& raw,
                  const SpanLog& spans, bool correct, std::uint64_t attempted,
                  std::uint64_t failed) {
  MetricSink layers = ordered_layers(raw);
  layers.take_notes(notes);
  if (!a.trace_out.empty() && !spans.write(a.trace_out))
    std::cerr << "could not write " << a.trace_out << "\n";
  layers.print(std::cout, correct, attempted, failed);
  return 0;
}

/// The bounded end-to-end metrics: the host's steady clocks only.  Wall
/// figures swing with other tenants of a shared host, so they are
/// printed in the readable lines instead.
void add_end_to_end(MetricSink& sink, double cpu_ms, double modeled_us, const SetupTime& setup) {
  sink.add("cpu_ms_per_unit", cpu_ms, "ms");
  sink.add("modeled_us_per_unit", modeled_us, "us");
  sink.add("setup_s", setup.cpu_s, "s");
  sink.add("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

template <class S>
int run_service(const Args& a, const SvcPlan& plan, double hard_stop) {
  SpanLog spans;
  SvcWorkload<S> w(plan, a.seed);
  const SetupTime setup = w.setup();
  spans.enable(a.trace);
  const SvcOutcome o = w.run(a.seconds, hard_stop, spans);
  spans.enable(false);
  const double failed_frac =
      safe_div(static_cast<double>(o.paths_failed), static_cast<double>(o.paths_attempted));
  MetricSink sink;
  sink.note("workload " + a.workload + ": " + std::to_string(o.requests) + " requests, " +
            std::to_string(o.paths_attempted) + " paths, " + fmt(o.wall_s) +
            " s, check failures " + std::to_string(o.check_failures));
  sink.note("endpoint_digest " + hex(o.digest));
  sink.note("e2e solves_per_s = " + fmt(o.solves_per_s) + " 1/s (wall)");
  sink.note("e2e latency_p50_ms = " + fmt(o.latency_p50_ms) + " ms (" +
            std::to_string(o.latency_samples) + " samples)");
  if (o.latency_samples >= 100)
    sink.note("e2e latency_p90_ms = " + fmt(o.latency_p90_ms) + " ms (" +
              std::to_string(o.latency_samples) + " samples)");
  sink.note("e2e cpu_ms_per_path = " + fmt(o.cpu_ms_per_path) + " ms");
  sink.note("e2e modeled_us_per_path = " + fmt(o.modeled_us_per_path) + " us");
  sink.note("e2e failed_frac = " + fmt(failed_frac) + " 1");
  sink.note("e2e setup_s = " + fmt(setup.cpu_s) + " s CPU, " + fmt(setup.wall_s) + " s wall");
  sink.note("e2e peak_rss_mb = " + fmt(peak_rss_mb()) + " MB");
  const bool correct = o.check_failures == 0 && w.setup_ok();
  if (!a.trace) {
    add_end_to_end(sink, o.cpu_ms_per_path, o.modeled_us_per_path, setup);
    sink.print(std::cout, correct, o.paths_attempted, o.paths_failed);
    return 0;
  }
  MetricSink raw;
  w.layer_metrics(raw);
  raw.add("obs.trace_overhead_frac", safe_div(spans.recording_s(), o.wall_s), "1");
  raw.add("check.failed_frac", failed_frac, "1");
  add_probes<S>(raw, w.probe_shape(), a.seed, spans);
  return finish_traced(a, sink, raw, spans, correct, o.paths_attempted, o.paths_failed);
}

int run_eval(const Args& a, const EvalPlan& plan, double hard_stop) {
  SpanLog spans;
  EvalWorkload w(plan, a.seed);
  const SetupTime setup = w.setup();
  spans.enable(a.trace);
  const EvalOutcome o = w.run(a.seconds, hard_stop, spans);
  spans.enable(false);
  const double failed_frac =
      safe_div(static_cast<double>(o.failed), static_cast<double>(o.checked));
  MetricSink sink;
  sink.note("workload " + a.workload + ": " + std::to_string(o.evals) + " points evaluated, " +
            std::to_string(o.checked) + " checked, " + fmt(o.wall_s) + " s");
  sink.note("endpoint_digest " + hex(o.digest));
  sink.note("e2e evals_per_s = " + fmt(o.evals_per_s) + " 1/s (wall)");
  sink.note("e2e batch_latency_p50_ms = " + fmt(o.latency_p50_ms) + " ms");
  sink.note("e2e cpu_us_per_eval = " + fmt(o.cpu_us_per_eval) + " us");
  sink.note("e2e modeled_us_per_eval = " + fmt(o.modeled_us_per_eval) + " us");
  sink.note("e2e failed_frac = " + fmt(failed_frac) + " 1");
  sink.note("e2e setup_s = " + fmt(setup.cpu_s) + " s CPU, " + fmt(setup.wall_s) + " s wall");
  sink.note("e2e peak_rss_mb = " + fmt(peak_rss_mb()) + " MB");
  const bool correct = o.failed == 0;
  if (!a.trace) {
    add_end_to_end(sink, o.cpu_us_per_eval / 1e3, o.modeled_us_per_eval, setup);
    sink.print(std::cout, correct, o.checked, o.failed);
    return 0;
  }
  MetricSink raw;
  w.layer_metrics(raw);
  raw.add("obs.trace_overhead_frac", safe_div(spans.recording_s(), o.wall_s), "1");
  raw.add("check.failed_frac", failed_frac, "1");
  add_probes<DoubleDouble>(raw, w.probe_shape(), a.seed, spans);
  return finish_traced(a, sink, raw, spans, correct, o.checked, o.failed);
}

/// The output checks must fire: a converged endpoint moved off its root
/// and an evaluation with one Jacobian entry nudged are both caught.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  SpanLog spans;
  const double hard_stop = wall_s() + kHardStopS;

  SvcWorkload<double> svc(small_fresh_plan(true), 7);
  svc.setup();
  const SvcOutcome so = svc.run(1.0, hard_stop, spans);
  expect(so.check_failures == 0, "service endpoints pass the output check");
  const auto ep = svc.sample_endpoint();
  expect(ep.has_value(), "service run produced a regular converged endpoint");
  if (ep) {
    homotopy::TrackOptions topt;
    expect(SvcWorkload<double>::endpoint_ok(ep->first, ep->second, topt),
           "untouched endpoint accepted");
    // Move every affine coordinate: a single one can hide in the flat
    // neighbourhood of a singular endpoint.
    auto bad = ep->second;
    for (std::size_t j = 0; j + 1 < bad.solution.size(); ++j)
      bad.solution[j] += cplx::Complex<double>(1e-3, 0.0);
    expect(!SvcWorkload<double>::endpoint_ok(ep->first, bad, topt),
           "corrupted endpoint caught");
  }

  EvalWorkload ev(table2_plan(true), 7);
  ev.setup();
  const EvalOutcome eo = ev.run(1.0, hard_stop, spans);
  expect(eo.checked > 0 && eo.failed == 0, "evaluations pass the output check");
  const ad::CpuEvaluator<DoubleDouble> cpu(ev.system());
  const auto& [x, got] = ev.sample();
  expect(EvalWorkload::point_ok(cpu, x, got), "untouched evaluation accepted");
  auto bad = got;
  const double mag = prec::ScalarTraits<DoubleDouble>::to_double(cplx::norm1(bad.jacobian[5]));
  bad.jacobian[5] += cplx::Complex<DoubleDouble>::from_double({1e-20 * (1.0 + mag), 0.0});
  expect(!EvalWorkload::point_ok(cpu, x, bad), "corrupted evaluation caught");

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else {
      std::cerr << "unknown or incomplete argument: " << k << "\n";
      return false;
    }
  }
  return a.selftest || !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload <svc_small_fresh|svc_table1_dd|eval_table2_dd> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out FILE]\n"
                 "       perfbench --selftest\n";
    return 2;
  }
  try {
    if (a.selftest) return selftest();
    const double hard_stop = wall_s() + kHardStopS;
    if (a.workload == "svc_small_fresh")
      return run_service<double>(a, small_fresh_plan(a.smoke), hard_stop);
    if (a.workload == "svc_table1_dd")
      return run_service<DoubleDouble>(a, table1_plan(a.smoke), hard_stop);
    if (a.workload == "eval_table2_dd") return run_eval(a, table2_plan(a.smoke), hard_stop);
    std::cerr << "unknown workload: " << a.workload << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
