"""Closed-loop client for one workload, run in its own process.

Reads a job (request list, run length, trace flag) as JSON on stdin and
writes the measurements as JSON on stdout.  One client sends each
request to ``autgeom.cli.run`` only after the previous verdict is back,
renders the report as the ``autgeom`` command does, and checks it
against the oracle outside the timed region; each timed request is
bracketed by two runs of the reference kernel (see ``speed``).
Passes over the request list repeat until the run length is used up;
every request runs at least once.

With tracing on, each request runs once untraced and once more with the
program's functions wrapped in spans (see ``tracing``); the spans become
the per-layer metrics, and the two timings give the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
from functools import partial
from time import perf_counter

import oracle
import speed


def _untraced(name, fn, *args, count=None):
    return fn(*args)


def execute(cli, argv, tr=None):
    """(exit code, rendered report, report dict) for one request.

    The exit code is None for an uncaught exception, whose message then
    takes the place of the report dict; argparse rejections have no report.
    """
    call = tr.call if tr else _untraced
    try:
        code, report = cli.run(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code, None, None
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to count
        return None, None, f"{type(exc).__name__}: {exc}"
    data = call("reports.to_dict", report.to_dict)
    dumps = partial(json.dumps, indent=1) if code != 2 else json.dumps
    text = call("reports.json_dumps", dumps, data,
                count=lambda args, out: {"bytes": len(out)})
    return code, text, data


def timed(cli, argv, tr=None):
    """``execute`` from a collected heap, as in a fresh process, instead
    of paying for garbage the previous request left; returns its result,
    its wall time and that time in reference seconds (see ``speed``)."""
    gc.collect()
    before = speed.sample()
    t0 = perf_counter()
    out = execute(cli, argv, tr)
    seconds = perf_counter() - t0
    return out, seconds, speed.scale(seconds, before, speed.sample())


def layer_metrics(spans, first_pass, probe_start, valid, untraced, traced):
    """Per-layer metrics ``name -> (value, unit, source)`` from the
    workload's spans, falling back to the probe's spans for layers this
    workload never calls.  ``valid`` holds the requests that reach
    the library (not the malformed ones), over which the CLI and tracing
    overheads are taken."""
    import tracing

    own, probe = spans[:probe_start], spans[probe_start:]
    out = {}
    for table, scope in ((tracing.LAYER_METRICS, own),
                         (tracing.COUNT_METRICS, spans[:first_pass])):
        for name, (unit, fn) in table.items():
            value, source = fn(scope), "workload"
            if value is None:
                value, source = fn(probe), "probe"
            out[name] = (value, unit, source)

    def median_of(name, scale):
        return statistics.median(s[4] - s[3] for s in own if s[0] == name) * scale

    def total(samples):
        return sum(statistics.median(samples[i]) for i in valid)

    out["reports.to_dict_us"] = (median_of("reports.to_dict", 1e6), "us", "workload")
    out["reports.json_dumps_us"] = (median_of("reports.json_dumps", 1e6), "us", "workload")
    out["reports.json_bytes"] = (
        sum(s[5]["bytes"] for s in spans[:first_pass] if s[0] == "reports.json_dumps"),
        "bytes", "workload")
    out["cli.build_parser_ms"] = (median_of("cli.build_parser", 1e3), "ms", "workload")
    out["cli.overhead_ms"] = (
        statistics.median(tracing.cli_overheads(own, valid)) * 1e3, "ms", "workload")
    out["trace.overhead_pct"] = (100.0 * (total(traced) / total(untraced) - 1.0),
                                 "%", "workload")
    return out


def run(job):
    sys.path.insert(0, job["src"])
    from autgeom import cli

    requests = job["requests"]
    tr = None
    if job["trace"]:
        import tracing

        tr = tracing.Tracer()
    n = len(requests)
    samples = [[] for _ in range(n)]
    ref_samples = [[] for _ in range(n)]
    traced = [[] for _ in range(n)]
    first_pass = None
    stats = {"attempted": 0, "failed": 0, "known_defects": 0}
    pass_counts = {"exit2": 0, "crashes": 0, "error_reports_passed_true": 0}
    problems = {}

    def check(req, code, text):
        stats["attempted"] += 1
        problem = oracle.check(req["expect"], code, text)
        if problem is not None:
            if req.get("known_defect") and code is None:
                stats["known_defects"] += 1
            else:
                stats["failed"] += 1
                problems.setdefault(" ".join(req["argv"])[:160], problem)

    def run_traced(i, req):
        tr.request = i
        tr.install()
        try:
            (code, text, _), seconds, _ = timed(cli, req["argv"], tr)
        finally:
            tr.uninstall()
        check(req, code, text)
        return seconds

    deadline = perf_counter() + job["seconds"]
    passes = 0
    done = False
    while not done:
        for i, req in enumerate(requests):
            (code, text, data), seconds, ref_seconds = timed(cli, req["argv"])
            samples[i].append(seconds)
            ref_samples[i].append(ref_seconds)
            check(req, code, text)
            if tr:
                traced[i].append(run_traced(i, req))
            if passes == 0:
                pass_counts["exit2"] += code == 2
                pass_counts["crashes"] += code is None
                if code == 2 and isinstance(data, dict) and data.get("passed") is True:
                    pass_counts["error_reports_passed_true"] += 1
            if passes > 0 and perf_counter() >= deadline:
                done = True
                break
        else:
            if passes == 0 and tr:
                first_pass = len(tr.spans)
            passes += 1
            done = done or perf_counter() >= deadline
    result = {
        **stats,
        **pass_counts,
        "samples": samples,
        "ref_samples": ref_samples,
        "problems": problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tr:
        probe_start = len(tr.spans)
        for req in job["probe"]:
            run_traced("probe", req)
        valid = {i for i, req in enumerate(requests) if req["kind"] != "error"}
        result["layers"] = layer_metrics(tr.spans, first_pass, probe_start, valid,
                                         samples, traced)
    return result


def main():
    job = json.load(sys.stdin)
    real_stderr = sys.stderr
    # argparse reports usage errors on stderr; they are expected outcomes.
    with open(os.devnull, "w") as devnull:
        sys.stderr = devnull
        try:
            result = run(job)
        finally:
            sys.stderr = real_stderr
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
