#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which pulls in the library through the repository's own
CMakeLists.txt) under $CARGO_TARGET_DIR, default .bench_build; later
calls rebuild incrementally.  Build output goes to stderr; the last line
of stdout is the result object printed by the benchmark executable.

--selftest runs every workload at smoke size, checks that each run
prints every metric BENCHMARK.json names with its unit, that two runs
of one seed agree bit for bit on endpoints and counts, and that the
output checks catch a corrupted endpoint and a corrupted evaluation.
"""

import argparse
import json
import os
import subprocess
import sys

# The seed a run uses when none is given.  perfbench/README.md names the
# hold-out seed for re-checking a claimed gain.
DEFAULT_SEED = 20120717

WORKLOADS = ("svc_small_fresh", "svc_table1_dd", "eval_table2_dd")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configure (once) and build; return the executable path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: build step failed: {err}")
            return None
        if proc.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def run_exe(exe, args):
    """Run the executable; return (returncode, stdout)."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def selftest(exe):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    code, out = run_exe(exe, ["--selftest"])
    sys.stdout.write(out)
    expect(code == 0, "output checks fire on corrupted outputs")

    for wl in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_exe(exe, ["--workload", wl, "--seed", str(DEFAULT_SEED),
                                      "--seconds", "1", "--trace", trace, "--smoke"])
            res = result_of(out) if code == 0 else None
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in (res or {}).get("metrics", {}).items()}
            expect(res is not None and res["correct"] and got == want,
                   f"{wl} --trace {trace}: correct, every {section} metric with its unit")

    # Two runs of one seed: identical endpoint digest and counts.
    runs = []
    for _ in range(2):
        code, out = run_exe(exe, ["--workload", "svc_small_fresh", "--seed", "3",
                                  "--seconds", "1", "--trace", "1", "--smoke"])
        digest = [l for l in out.splitlines() if l.startswith("endpoint_digest")]
        res = result_of(out) if code == 0 else None
        counts = {k: v["value"] for k, v in (res or {}).get("metrics", {}).items()
                  if v["unit"] == "count" or k.startswith("simt.dma")}
        runs.append((digest, counts))
    expect(runs[0] == runs[1] and runs[0][0], "two runs of one seed repeat endpoints and counts")

    print("selftest passed" if not failures else f"selftest FAILED: {failures}")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--smoke", action="store_true", help="a handful of requests or batches")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        return 1
    if args.selftest:
        return selftest(exe)

    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir(), f"spans_{args.workload}_{args.seed}.json")]
    code, out = run_exe(exe, cmd)
    if code != 0 or result_of(out) is None:
        log(f"perfbench: {args.workload} failed (exit {code})")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
