"""Tests of the benchmark harness itself.

Run from the repository root:  python -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    result = _smoke(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in table)
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_requests(tmp_path):
    for w in workloads.WORKLOADS:
        a = workloads.build(w, 5, str(tmp_path))
        b = workloads.build(w, 5, str(tmp_path))
        strip = [[r["argv"] for r in reqs if "--out" not in r["argv"]] for reqs in (a, b)]
        assert strip[0] == strip[1]


def _run_cli(argv):
    from autgeom.cli import run

    code, report = run(argv)
    return code, json.dumps(report.to_dict(), indent=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_the_cheapest_requests(workload, tmp_path):
    for req in workloads.smoke(workloads.build(workload, 3, str(tmp_path))):
        if req["kind"] == "error":
            continue
        code, text = _run_cli(req["argv"])
        assert oracle.check(req["expect"], code, text) is None, req["argv"]


def test_oracle_rejects_wrong_verdicts():
    code, text = _run_cli(["sanov", "--power", "2", "--max-len", "6"])
    good = {"kind": "sanov", "exit": 0, "failing": [],
            "mats": [[[1, 0], [2, 1]], [[1, 2], [0, 1]]]}
    assert oracle.check(good, code, text) is None
    # A verdict claimed the other way, a wrong payload, a wrong exit code
    # and a crash are all rejected.
    assert oracle.check({**good, "exit": 1, "failing": ["no-short-relation"]}, code, text)
    assert oracle.check({**good, "mats": [[[1, 0], [3, 1]], [[1, 3], [0, 1]]]}, code, text)
    tampered = json.loads(text)
    tampered["checks"][0]["passed"] = False
    assert oracle.check(good, 1, json.dumps(tampered))
    assert oracle.check(good, 0, json.dumps(tampered))
    assert oracle.check(good, None, None) == "uncaught exception"


def test_oracle_gl_rep_matches_hand_written_matrices():
    tokens = oracle.parse_tokens("L21 R12")
    m = oracle.mu_of(tokens)
    assert m == [[2, 1], [1, 1]]
    assert oracle.mu_of(tokens, 3) == oracle.mat2_mul(oracle.mat2_mul(m, m), m)
    images = oracle.expression_images(tokens, 1)
    assert [oracle.format_word(w) for w in images] == ["a1^2 a2", "a1 a2", "a3"]


def test_oracle_lattice_facts():
    cube = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert oracle.selling_zeros(cube) == 3
    assert oracle.selling_zeros(workloads.LATTICES["generic"]) == 0
    from fractions import Fraction
    fcc = [[Fraction(c) for c in v] for v in workloads.LATTICES["fcc"]]
    assert oracle.covolume(fcc + [[fcc[0][k] + fcc[1][k] for k in range(3)]]) == 2


def test_tracer_spans_the_programs_own_calls():
    from autgeom import automorphisms, cli, words

    compose, substitute = automorphisms.compose, words.substitute
    tr = tracing.Tracer()
    tr.request = 0
    tr.install()
    try:
        code, _ = cli.run(["inner-gpq", "--p", "1", "--q", "2"])
    finally:
        tr.uninstall()
    assert code == 0
    assert automorphisms.compose is compose and words.substitute is substitute
    names = [s[0] for s in tr.spans]
    assert names[0] == "cli.run" and tr.spans[0][2] is None
    # inner_gpq_check's own calls to compose, and through apply to
    # substitute, are spans nested under it.
    check = names.index("automorphisms.inner_gpq_check")
    nested = [s for s in tr.spans
              if s[0] == "automorphisms.compose" and s[2] is tr.spans[check]]
    assert nested and all(s[5]["letters"] > 0 for s in nested)
    assert any(s[2][0] == "automorphisms.apply" and s[2][2][0] == "automorphisms.compose"
               for s in tr.spans if s[0] == "words.substitute")
    assert all(0 <= s[3] <= s[4] for s in tr.spans)
    overhead = tracing.cli_overheads(tr.spans, {0})
    assert len(overhead) == 1 and 0 < overhead[0] < tr.spans[0][4] - tr.spans[0][3]
