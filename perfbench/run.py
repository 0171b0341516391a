#!/usr/bin/env python3
"""The repository benchmark: build, generate inputs from a seed, run one
workload in its own process, check its outputs, print its metrics.

    python3 perfbench/run.py --workload baseline-100k --seed 1 --seconds 20 --trace 0

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics named in
BENCHMARK.json, `--trace 1` the per-layer ones. The exit code is nonzero
when the build fails, an output check fails, or a percentile rests on
fewer than ten samples beyond it.

Two more modes serve the benchmark itself:

    python3 perfbench/run.py --selftest
        inputs repeat for a seed and differ across seeds; traced runs
        reproduce untraced results; the percentile guard refuses a short run
    python3 perfbench/run.py --steadiness 10 [--seconds 20] [--first-seed 1]
        each workload N times (fresh seed per round, alternating order);
        prints every end-to-end metric's median, quartiles, spread and
        max/min, next to the bound BENCHMARK.json sets

Workloads, seeds and bounds are documented in perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ["baseline-100k", "churn-40k", "planner-10k"]
# The seed a plain run uses, and the seed held out for confirming a claim
# made on the default one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# A run is stopped if it takes longer than this (the benchmark must end
# within 180 s).
RUN_TIMEOUT_S = 170
# An earlier harness's runs of identical code moved these metrics by this
# much (second median over first); the steadiness report shows this
# harness's spread for the corresponding metric beside them.
# glibc malloc settings for the workload process, so that freed memory is
# reused the same way on every run: with a per-thread arena, which arena a
# worker thread landed on decided whether freed memory was reused, and the
# 2-thread workload's peak RSS flipped between 42 and 65 MB on identical
# runs; with the default mmap threshold every repeated set-up re-faulted
# its buffers from the kernel, and churn-40k's set-up time swung ±20%
# between runs.
MALLOC_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}
EARLIER_DRIFT = [
    ("rollout-churn-4k", "setup_s", 0.13, "churn-40k", "setup_s"),
    ("rollout-churn-4k", "peak_rss_mb", 0.09, "churn-40k", "peak_rss_mb"),
    ("baseline-100k", "query_p99_ms", 0.08, "baseline-100k", "op_tail_ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Build the workload program; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    return target_dir() / "release" / "perfbench"


def program(binary, args, timeout):
    """Run the workload program; returns its last stdout line as JSON."""
    env = dict(os.environ, **MALLOC_ENV)
    done = subprocess.run(
        [str(binary)] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(args[:1])} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return json.loads(lines[-1])


def inputs_dir(workload, seed):
    return target_dir() / "perfbench-inputs" / f"{workload}-s{seed}"


def ensure_inputs(binary, workload, seed):
    """Generate a workload's inputs for a seed once; returns (dir, digest)."""
    d = inputs_dir(workload, seed)
    marker = d / "inputs.digest"
    if not marker.exists():
        out = program(binary, ["gen", "--workload", workload, "--seed", str(seed), "--dir", str(d)], 120)
        marker.write_text(out["inputs_digest"] + "\n")
    return d, marker.read_text().strip()


def run_workload(binary, workload, seed, seconds, trace, timeout=RUN_TIMEOUT_S):
    d, digest = ensure_inputs(binary, workload, seed)
    args = ["run", "--workload", workload, "--seed", str(seed), "--dir", str(d),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    report = program(binary, args, timeout)
    report["inputs_digest"] = digest
    return report


def evaluate(report, names):
    """Check a report against the metric names it must carry; returns
    (problems, metrics by name)."""
    by_name = {m["name"]: m for m in report["metrics"]}
    problems = []
    for name in names:
        m = by_name.get(name)
        if m is None:
            problems.append(f"{name}: missing")
        elif not report["trace"] and (m["value"] <= 0 or m["note"].startswith("n/a")):
            problems.append(f"{name}: {m['note'] or 'not positive'}")
    if report["check_mismatches"]:
        problems.append(f"{report['check_mismatches']} of {report['checks']} output checks mismatched")
    if report["ops_failed"]:
        problems.append(f"{report['ops_failed']} of {report['ops']} operations failed")
    if report["ops"] < 1:
        problems.append("no operations ran")
    return problems, by_name


def print_table(report, names):
    by_name = {m["name"]: m for m in report["metrics"]}
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"inputs={report['inputs_digest']} results={report['results_digest']}")
    for m in report["metrics"]:
        mark = "" if m["name"] in names else "  (info)"
        note = f"  [{m['note']}]" if m["note"] else ""
        print(f"{m['name']:<30} {m['value']:>14.6g} {m['unit']:<6} samples={m['samples']}{note}{mark}")
    ops, failed = report["ops"], report["ops_failed"]
    print(f"{'failed_frac':<30} {failed / max(ops, 1):>14.6g} {'1':<6} ops={ops} ops_failed={failed} "
          f"checks={report['checks']} check_mismatches={report['check_mismatches']}")
    for n in report["notes"]:
        print(f"note: {n}")
    return by_name


def bench(args):
    spec = benchmark_spec()
    group = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[group]]
    binary = build()
    if binary is None:
        return 1
    try:
        report = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
    except Exception as e:  # noqa: BLE001 - any failure of the run fails the benchmark
        log(f"run failed: {e}")
        return 1
    problems, by_name = evaluate(report, names)
    print_table(report, names)
    for p in problems:
        log(f"FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": report["ops"],
        "failed": report["ops_failed"],
        "metrics": {
            n: {"value": by_name[n]["value"], "unit": by_name[n]["unit"]} for n in names if n in by_name
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    spec = benchmark_spec()
    e2e = spec["end_to_end"]
    binary = build()
    if binary is None:
        return 1
    values = {(w, m["name"]): [] for w in WORKLOADS for m in e2e}
    failures = 0
    for r in range(args.steadiness):
        seed = args.first_seed + r
        order = WORKLOADS if r % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            t = time.time()
            try:
                report = run_workload(binary, w, seed, args.seconds, False)
            except Exception as e:  # noqa: BLE001
                log(f"{w} seed {seed}: run failed: {e}")
                failures += 1
                continue
            problems, by_name = evaluate(report, [m["name"] for m in e2e])
            failures += bool(problems)
            for m in e2e:
                if m["name"] in by_name:
                    values[(w, m["name"])].append(by_name[m["name"]]["value"])
            log(f"{w} seed {seed}: {time.time() - t:.1f}s wall "
                + " ".join(f"{m['name']}={by_name.get(m['name'], {}).get('value', 0):.5g}" for m in e2e)
                + ("" if not problems else f"  FAILED {problems}"))
    print(f"# steadiness: {args.steadiness} runs per workload, seeds {args.first_seed}.."
          f"{args.first_seed + args.steadiness - 1}, {args.seconds} s each")
    print(f"{'workload':<14} {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'max/min':>8} {'bound':>6} {'verdict':>8}")
    spreads = {}
    for w in WORKLOADS:
        for m in e2e:
            vs = values[(w, m["name"])]
            if not vs:
                continue
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else float("inf")
            spreads[(w, m["name"])] = spread
            ratio = max(vs) / min(vs) if min(vs) > 0 else float("inf")
            verdict = "ok" if spread <= m["bound"] / 3 else ("within" if spread <= m["bound"] else "NOISY")
            if m["name"] == "setup_s" and spread > m["bound"] / 3:
                verdict += "*"
            print(f"{w:<14} {m['name']:<18} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.4f} {ratio:>8.4f} {m['bound']:>6.2f} {verdict:>8}")
    print("# an earlier harness moved these metrics between two runs of identical code; "
          "this harness's spread:")
    for old_w, old_m, moved, w, m in EARLIER_DRIFT:
        s = spreads.get((w, m))
        shown = f"{s:.4f}" if s is not None else "n/a"
        print(f"{old_w}/{old_m}: moved {moved:+.0%} there  ->  {w}/{m}: iqr/median {shown}")
    print(f"# runs failed: {failures}")
    return 0 if failures == 0 else 1


def selftest(args):
    binary = build()
    if binary is None:
        return 1
    ok = True

    def check(cond, what):
        nonlocal ok
        ok &= bool(cond)
        print(f"{'PASS' if cond else 'FAIL'}: {what}")

    scratch = target_dir() / "perfbench-selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    for w in WORKLOADS:
        digests = []
        for tag, seed in [("a", DEFAULT_SEED), ("b", DEFAULT_SEED), ("c", HELD_OUT_SEED)]:
            d = scratch / f"{w}-{tag}"
            digests.append(program(binary, ["gen", "--workload", w, "--seed", str(seed), "--dir", str(d)], 120)
                           ["inputs_digest"])
        check(digests[0] == digests[1], f"{w}: seed {DEFAULT_SEED} regenerates identical inputs ({digests[0]})")
        check(digests[0] != digests[2], f"{w}: seed {HELD_OUT_SEED} gives different inputs ({digests[2]})")
    shutil.rmtree(scratch, ignore_errors=True)

    for w in WORKLOADS:
        plain = run_workload(binary, w, DEFAULT_SEED, args.seconds, False)
        traced = run_workload(binary, w, DEFAULT_SEED, args.seconds, True)
        check(plain["results_digest"] == traced["results_digest"],
              f"{w}: traced results equal untraced results ({plain['results_digest']})")
        for r in (plain, traced):
            check(r["check_mismatches"] == 0 and r["ops_failed"] == 0,
                  f"{w}: trace={r['trace']} output checks pass ({r['checks']} checks, {r['ops']} ops)")
        coverage = {m["name"]: m["value"] for m in traced["metrics"]}.get("trace.coverage_frac", 0)
        check(coverage >= 0.9, f"{w}: layer spans cover {coverage:.3f} of the traced wall time")

    short = run_workload(binary, "planner-10k", DEFAULT_SEED, 0.05, False)
    problems, _ = evaluate(short, ["op_tail_ms"])
    check(any("beyond" in p for p in problems), "percentile guard refuses a p99 over a 0.05 s run")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    args = p.parse_args()
    if args.selftest:
        if "--seconds" not in sys.argv:
            args.seconds = 3
        return selftest(args)
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
