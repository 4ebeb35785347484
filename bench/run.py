"""autgeom benchmark: time to a checked verdict, end to end and per layer.

Run from the repository root (standard library only):

    python3 bench/run.py --workload algebra --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload algebra --seed 1 --seconds 45 --trace 1
    python3 bench/run.py --workload geometry --seed 1 --smoke

Workloads: ``algebra`` and ``geometry`` (see
``workloads.py`` and README.md).  One client sends the seeded requests
as argv to ``autgeom.cli.run`` in a closed loop, in a process of its
own, and every verdict is checked against the benchmark's own oracle.
Times are reported in reference seconds, which factor out the speed of
a shared machine (see ``speed.py``); the report shows wall seconds too.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  The lines before it are a readable report.  The
exit code is 0 when every verdict matched, 1 when one did not, and 3
when a metric is missing or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# Run as ``python -c SETUP_CODE <bench dir>``; prints the set-up time in
# wall and in reference seconds (see ``speed``).
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.append(sys.argv[1])\n"
    "import speed\n"
    "before = speed.sample()\n"
    "t = time.perf_counter()\n"
    "import autgeom.cli\n"
    "autgeom.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "print(t, speed.scale(t, before, speed.sample()))\n"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_fresh(argv, repeats, setup, cold):
    """Fresh-interpreter samples, one subprocess at a time, alternating
    between the set-up time (import ``autgeom.cli`` and build the parser,
    timed inside the interpreter) and the wall time of a cold
    ``python -m autgeom`` run of ``argv`` (timed around it, with the
    reference kernel run here before and after).  Each sample is a pair
    (wall seconds, reference seconds)."""
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], env=_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=60,
                             check=True)
        setup.append(tuple(map(float, out.stdout.split())))
        before = speed.sample(3)
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "autgeom", *argv], env=_env(),
                             cwd=ROOT, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        cold.append((wall, speed.scale(wall, before, speed.sample(3))))
        if out.returncode != 0 or json.loads(out.stdout)["passed"] is not True:
            raise RuntimeError(f"cold start of {argv} failed: {out.stderr[-300:]}")


def run_worker(job, timeout):
    out = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                         cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if out.returncode != 0:
        raise RuntimeError(f"worker failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout)


def tail(medians):
    """(percentile, value, samples beyond): the highest percentile with
    TAIL_BEYOND per-request medians beyond it."""
    ordered = sorted(medians)
    n = len(ordered)
    if n <= TAIL_BEYOND:  # smoke runs: too few requests for a tail
        return 100, ordered[-1], 0
    return 100 * (n - TAIL_BEYOND) // n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


def end_to_end(medians, setup, cold):
    """The timed end-to-end metrics ``name -> (value, unit)`` from the
    per-request medians and the fresh-interpreter samples, all in one
    kind of seconds."""
    return {
        "verdicts_per_s": (len(medians) / sum(medians), "1/s"),
        "latency_p50_ms": (statistics.median(medians) * 1e3, "ms"),
        "latency_tail_ms": (tail(medians)[1] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "cold_start_ms": (statistics.median(cold) * 1e3, "ms"),
    }


def machine():
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
            f"Python {platform.python_version()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over the cheapest request of each kind")
    args = parser.parse_args(argv)

    if not (SRC / "autgeom" / "cli.py").is_file():
        print(f"autgeom sources not found under {SRC}", file=sys.stderr)
        return 3
    out_dir = tempfile.mkdtemp(prefix=".bench_out-", dir=ROOT)
    try:
        return _measure(args, out_dir)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _measure(args, out_dir):
    requests = workloads.build(args.workload, args.seed, out_dir)
    seconds = args.seconds
    repeats = 8  # fresh-interpreter pairs before and again after the loop
    if args.smoke:
        requests, seconds, repeats = workloads.smoke(requests), 0, 2
    job = {"src": str(SRC), "requests": requests, "seconds": seconds,
           "trace": args.trace, "probe": workloads.probe(out_dir)}

    mix = Counter(r["kind"] for r in requests)
    print(f"autgeom benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={seconds} trace={args.trace}; closed loop, 1 client")
    print(f"machine: {machine()}")
    print("requests per pass: " + ", ".join(f"{k} {v}" for k, v in sorted(mix.items())))

    setup, cold = [], []
    cheapest = workloads.CHEAPEST[args.workload]
    if not args.trace:
        # One discarded run may compile bytecode; then sample on both
        # sides of the loop, so the medians do not rest on one moment.
        measure_fresh(cheapest, 1, [], [])
        measure_fresh(cheapest, repeats, setup, cold)
    res = run_worker(job, timeout=seconds + 120)
    if not args.trace:
        measure_fresh(cheapest, repeats, setup, cold)

    n = len(requests)
    attempted = res["attempted"]
    failed = res["failed"]
    print(f"passes: {min(map(len, res['samples']))}+ ({attempted} verdicts checked"
          f"{', each request also traced' if args.trace else ''})")
    print(f"failed_ratio: {(failed + res['known_defects']) / attempted:.6f} "
          f"({failed} failed, {res['known_defects']} known-defect crashes, "
          f"of {attempted} attempted)")
    for argv, problem in res["problems"].items():
        print(f"  FAILED {argv}: {problem}")

    if args.trace:
        metrics = {name: (value, unit) for name, (value, unit, _) in res["layers"].items()}
        metrics["cli.exit2_count"] = (res["exit2"], "count")
        metrics["cli.crash_count"] = (res["crashes"], "count")
        metrics["cli.error_reports_passed_true"] = (res["error_reports_passed_true"], "count")
        probed = [name for name, (_, _, src) in res["layers"].items() if src == "probe"]
        print("per-layer metrics (traced run of this workload):")
        for name, (value, unit) in metrics.items():
            if name not in probed:
                print(f"  {name:42s} {value:14.4f} {unit}")
        print("per-layer metrics from the layer probe (layers this workload never calls):")
        for name in probed:
            value, unit = metrics[name]
            print(f"  {name:42s} {value:14.4f} {unit}")
        print(json.dumps({"from_probe": probed}))
    else:
        medians = [statistics.median(r) for r in res["ref_samples"]]
        ref = end_to_end(medians, [r for _, r in setup], [r for _, r in cold])
        wall = end_to_end([statistics.median(w) for w in res["samples"]],
                          [w for w, _ in setup], [w for w, _ in cold])
        pct, _, beyond = tail(medians)
        metrics = {**ref, "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB")}
        print("end-to-end metrics (each request's time is the median of its "
              f"{attempted // n}+ runs), in reference seconds and, for comparison, "
              "in wall seconds:")
        for name, (value, unit) in metrics.items():
            also = f"  wall {wall[name][0]:12.4f}" if name in wall else ""
            print(f"  {name:16s} {value:12.4f} {unit:4s}{also}")
        print(f"  latency_tail_ms is p{pct} of {n} per-request medians "
              f"({beyond} beyond it)")
        print(f"  setup_s and cold_start_ms: medians of {len(cold)} fresh interpreters; "
              f"cold start runs python -m autgeom {' '.join(cheapest)}")
        print(f"  the machine ran at {metrics['verdicts_per_s'][0] / wall['verdicts_per_s'][0]:.3f}"
              " wall seconds per reference second")

    table = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in table["per_layer" if args.trace else "end_to_end"]}
    got = {k: u for k, (v, u) in metrics.items() if v is not None}
    if got != declared:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(got))}",
              file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
