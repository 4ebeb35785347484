"""The exit-code contract of ``cli.run``, fuzzed over every subcommand.

Each subcommand's argv is drawn from its grammar, with valid, boundary
and malformed values, options left out and an unknown flag now and
then.  Whatever the input, argparse refuses it with ``SystemExit(2)``
or ``cli.run`` returns exit code 0, 1, 2 or 3 and a report that renders
as JSON, where only exit code 0 says ``"passed": true``, within a time
budget.  The same argvs, the benchmark's requests and a list of edge
cases parse as the top-level ``parse_args`` parses them.
"""

import contextlib
import io
import json
import pathlib
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from autgeom import cli
from autgeom.automorphisms import MAX_GPQ_N
from autgeom.flats import MAX_COSETS, MAX_MULTIPLIER_DIGITS, MAX_SCALE_DIGITS
from autgeom.glrep import MAX_SEARCH_LEN
from autgeom.latgeom import MAX_PRECISION

BUDGET_S = 5.0
MALFORMED = st.sampled_from(["", "x", "1.5", "--", "9" * 5000])


def mostly(valid, boundary, malformed=MALFORMED):
    """Seven draws in ten from valid values, two from boundary values and
    one from malformed text."""
    return st.integers(0, 9).flatmap(
        lambda n: malformed if n == 0 else boundary if n < 3 else valid
    )


def ints(lo, hi, *boundary):
    """Integer option text in [lo, hi], or a boundary value."""
    return mostly(st.integers(lo, hi).map(str), st.sampled_from([str(b) for b in boundary]))


rational = mostly(
    st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-3/4", "5/2"]),
    st.sampled_from(["1e3", "1e37", "1e38", "1e1000000", "1/0"]),
)


def vectors(min_len, max_len):
    return st.lists(rational, min_size=min_len, max_size=max_len).map(",".join)


vec3 = mostly(vectors(3, 3), vectors(0, 4))
gens = st.lists(vec3, min_size=0, max_size=4).map(";".join)
exponent = mostly(st.sampled_from(["", "^-1", "^2", "^-3"]),
                  st.sampled_from(["^0", "^", "^2000000000"]))
words = st.lists(
    st.tuples(mostly(st.sampled_from(["a1", "a2", "a3"]),
                     st.sampled_from(["a6", "a0", "b2"])), exponent),
    max_size=6,
).map(lambda parts: " ".join(t + e for t, e in parts))
tokens = mostly(
    st.sampled_from(["L12", "L21", "L31", "R12", "R32", "E1", "E3", "P12"]),
    st.sampled_from(["P13", "L13", "1"]),
    st.sampled_from(["L11", "L45", "Q12", "E4", "--"]),
)
expressions = mostly(
    st.lists(st.tuples(tokens, exponent), max_size=6).map(
        lambda parts: " ".join(t + e for t, e in parts)),
    st.sampled_from(["L13 L31", "P12 L21 R12 P12", "L12 L21 " * 40]),
)
outs = st.sampled_from(["{out}/c.off", "{out}/missing/c.off"])
FLAG = None  # a store_true option, which takes no value

# subcommand -> (positional strategy or None, {option: (values, required)})
GRAMMAR = {
    "verify-relations": (None, {
        "--mode": (mostly(st.sampled_from(["aut", "out"]), st.just("bogus")), False),
        "--inject-fault": (st.just(FLAG), False),
    }),
    "gpq": (None, {
        "--n": (ints(1, 8, MAX_GPQ_N + 1, 10**8, -1), True),
        "--p": (ints(-20, 20, 2_000_000_000, -2_000_000_000), True),
        "--q": (ints(-20, 20, 2_000_000_000), True),
        "--w": (words, True),
    }),
    "inner-gpq": (None, {
        "--p": (ints(-20, 20, 2_000_000_000), True),
        "--q": (ints(-20, 20, -2_000_000_000), True),
    }),
    "gl-rep": (expressions, {
        "--power": (ints(-12, 12, 40, 100_000, 2_000_000_000, -2_000_000_000), False),
    }),
    "lk-basis": (None, {
        "--k": (ints(2, 40, -2, 0, 1, 316, 317, 10**6, "9" * 3000), True),
    }),
    "sanov": (None, {
        "--power": (ints(-4, 4, 50_000, 2_000_000_000), False),
        "--max-len": (ints(-1, 12, MAX_SEARCH_LEN, MAX_SEARCH_LEN + 1, 60), False),
    }),
    "voronoi": (None, {
        "--gens": (gens, True),
        "--out": (outs, False),
        "--precision": (ints(-2, 12, MAX_PRECISION, MAX_PRECISION + 1), False),
    }),
    "check-octo": (None, {
        "--u1": (vec3, True),
        "--u2": (vec3, True),
        "--v1": (vec3, True),
        "--v2": (vec3, True),
    }),
    "nielsen-flat": (None, {
        "--scale": (ints(-2, 6, "9" * MAX_SCALE_DIGITS, "9" * (MAX_SCALE_DIGITS + 1)),
                    True),
        "--out": (outs, False),
        "--precision": (ints(-2, 12, MAX_PRECISION + 1), False),
    }),
    "lemma-pq": (None, {
        "--tau": (vectors(0, 4), True),
        "--p": (ints(-20, 20, "9" * MAX_MULTIPLIER_DIGITS,
                     "9" * (MAX_MULTIPLIER_DIGITS + 1)), True),
        "--q": (ints(-20, 20, "-" + "9" * MAX_MULTIPLIER_DIGITS), True),
    }),
    "induce": (None, {
        "--d": (ints(-2, 50, MAX_COSETS + 1, 10**8), True),
        "--ell": (rational, True),
    }),
}


@st.composite
def argvs(draw, command):
    positional, options = GRAMMAR[command]
    argv = [command]
    if positional is not None and draw(st.integers(0, 9)):
        argv.append(draw(positional))
    for flag, (values, required) in options.items():
        # A required option is left out one time in ten, an optional one
        # half the time.
        if draw(st.integers(0, 9)) >= (1 if required else 5):
            value = draw(values)
            # --opt=value, since a value may start with a dash.
            argv.append(flag if value is FLAG else f"{flag}={value}")
    if not draw(st.integers(0, 19)):
        argv.append("--bogus")
    return argv


def test_grammar_covers_every_subcommand():
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_schema.json")
                        .read_text())
    assert sorted(GRAMMAR) == sorted(golden["payload_keys"])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=st.sampled_from(sorted(GRAMMAR)).flatmap(argvs))
# Composing 100,000 L21 factors took about 45 s before endo_of capped
# the letters it writes; 20,000 factors of L21 L31 took 2.5 s.
@example(argv=["gl-rep", "L21 " * 100_000])
@example(argv=["gl-rep", "L21 L31 " * 10_000])
@example(argv=["gl-rep", "L12 L21 " * 40, "--power=0"])
# argparse stored "--opt=--" as an empty list, which reached lk_basis.
@example(argv=["lk-basis", "--k=--"])
@example(argv=["gpq", "--n=4", "--p=1", "--q=2", "--w=--"])
def test_exit_code_contract(argv, out_dir):
    argv = [a.replace("{out}", str(out_dir)) for a in argv]
    start = time.perf_counter()
    try:
        code, report = cli.run(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    data = json.loads(json.dumps(report.to_dict()))
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 1, 2, 3)
    assert data["passed"] is (code == 0)
    if code >= 2:
        assert data["checks"] == [] and data["payload"]["error"]


def parse_args_reference(argv):
    """How ``cli._dispatch`` parsed every request before it went straight
    to the subcommand's parser: the top-level ``parse_args``, then the
    refusal of an option whose value was "--"."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


def dispatch_parse(argv):
    """The namespace ``cli._dispatch`` parses argv into, with every
    handler stubbed out."""
    stubs = {name: lambda args: ([], {}) for name in vars(cli) if name.startswith("cmd_")}
    with mock.patch.multiple(cli, **stubs):
        return cli._dispatch(argv)[0]


def parse_outcome(parse, argv):
    """The parsed arguments in order, or the exit code; with the bytes
    written to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(parse(list(argv))).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_parse_args(argv):
    assert parse_outcome(dispatch_parse, argv) == parse_outcome(parse_args_reference, argv)


OCTO = ["--u1=0,2,2", "--u2=0,-2,2", "--v1=2,0,2", "--v2=-2,0,2"]
GPQ = ["--n", "4", "--p", "1", "--q", "2", "--w", "a1"]
PARSE_EDGE_CASES = [
    [], ["-h"], ["--help"], ["--he"], ["gpq", "-h"], ["gpq", "--he"],
    ["--pretty", "check-octo", *OCTO], ["check-octo", *OCTO, "--pretty"],
    ["--", "gpq", *GPQ], ["gpq", "--", *GPQ], ["bogus"], ["Gpq", *GPQ],
    ["gpq", *GPQ, "--bogus", "x"], ["check-octo", *OCTO, "--bogus", "1"],
    ["gpq", *GPQ, "a2"], ["gl-rep"], ["gl-rep", "L12", "L21"],
    ["sanov", "--max", "8"], ["sanov", "--p", "3"], ["gpq", "--p", "1"],
    ["lemma-pq", "--tau=--", "--p", "1", "--q", "2"], ["lemma-pq", "--tau", "-1,0"],
    ["induce", "--d", "x", "--ell", "1"], ["verify-relations", "--mode", "bogus"],
    ["verify-relations", "--inject-fault=1"],
]


@pytest.mark.parametrize("argv", PARSE_EDGE_CASES, ids=" ".join)
def test_edge_cases_parse_as_parse_args(argv):
    assert_parses_as_parse_args(argv)


def test_benchmark_requests_parse_as_parse_args(tmp_path):
    bench = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    argvs = [req["argv"] for seed in range(1, 6) for workload in workloads.WORKLOADS
             for req in workloads.build(workload, seed, str(tmp_path))]
    assert len(argvs) == 770
    for argv in argvs:
        assert_parses_as_parse_args(argv)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=st.sampled_from(sorted(GRAMMAR)).flatmap(argvs))
def test_grammar_parses_as_parse_args(argv):
    assert_parses_as_parse_args(argv)


@pytest.mark.parametrize("given", [True, False], ids=["argv", "sys.argv"])
def test_subcommand_request_skips_the_top_level_parse(given):
    argv = ["check-octo", *OCTO]
    top = mock.patch.object(cli.build_parser(), "parse_args",
                            side_effect=AssertionError("parsed by the top-level parser"))
    with top, mock.patch.object(sys, "argv", ["autgeom", *argv]):
        code, report = cli.run(argv if given else None)
    assert (code, report.command) == (0, "check-octo")
