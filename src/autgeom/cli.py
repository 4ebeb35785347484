"""Command-line entry point.

One subcommand per verification suite or geometry pipeline, each
emitting a JSON report on stdout (``--pretty`` renders a table
instead).  Exit codes: 0 every check passed, 1 at least one
verification failed, 2 usage, parse, or precondition error (the
library's ``ValueError``) or an unwritable ``--out`` path, 3 an internal
gate or self-check failed (a ``RuntimeError``, named in the report).
Every report names its subcommand and echoes the parsed arguments
except ``--pretty``.  Error reports go to stderr, have no checks and
carry ``"passed": false``.
A process builds one parser and parses each request once: a request
that names a subcommand goes straight to that subcommand's parser.
Subcommand ``x-y`` runs ``cmd_x_y``, found by that name when the
request runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import automorphisms as aut
from . import flats, glrep, latgeom
from .reports import Check, Report, fraction_str, parse_fraction, ratio_str
from .words import MAX_WORD_LETTERS, ab_vector, format_word, parse_word

USAGE_ERROR = 2
INTERNAL_ERROR = 3
_parser: argparse.ArgumentParser | None = None  # see build_parser
_commands: dict[str, argparse.ArgumentParser] = {}  # subcommand -> its parser


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_fraction(part) for part in text.split(","))


def _parse_vec3(text: str) -> latgeom.Vec3:
    coords = _parse_vector(text)
    if len(coords) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(coords)}")
    return latgeom.Vec3(*coords)


# ---------------------------------------------------------------------------
# Subcommand implementations; each returns (checks, payload), and
# _dispatch makes the report.
# ---------------------------------------------------------------------------


def cmd_verify_relations(args: argparse.Namespace) -> tuple[list[Check], dict]:
    checks = aut.identity_suite(mode=args.mode)
    if args.inject_fault:
        # Negative-control hook for the test suite: an intentionally
        # false identity that must drag the overall verdict down.
        checks = checks + [
            aut._relation_check(
                "injected-fault",
                "L21 = R21 (intentionally false)",
                aut.nielsen_left(2, 1),
                aut.nielsen_right(2, 1),
            )
        ]
    return checks, {}


def cmd_gpq(args: argparse.Namespace) -> tuple[list[Check], dict]:
    w = parse_word(args.w, aut.gpq_word_rank(args.n))
    return aut.gpq_check(args.n, args.p, args.q, w), {}


def cmd_inner_gpq(args: argparse.Namespace) -> tuple[list[Check], dict]:
    return aut.inner_gpq_check(args.p, args.q), {}


def cmd_gl_rep(args: argparse.Namespace) -> tuple[list[Check], dict]:
    """The cover action ab5 and its eigenplane restriction mu of X^p.

    The unit U = X^(sign p) is built from its factors, and the images of
    X^p by squaring U's images (a single-factor X^p is one factor, with
    closed-form images).  Only where a square's length bound is over the
    letter cap does endo_of apply the factors of X^p one at a time, in
    closed form, as it does for any expression.  When U stabilizes the
    subgroup, ab5(X^p) is taken as ab5(U)^|p| by squaring: only the
    short images of U are rewritten.  Otherwise (P13 does not stabilize,
    P13^2 does) ab5 rewrites the images of X^p, and refuses them if X^p
    does not stabilize either.  For p = 0 the unit is X^0 itself, so no
    image of X is built.
    """
    expr = aut.parse_autexpr(args.expr)
    # expr_power refuses X^p of more than MAX_WORD_LETTERS factors.
    power = aut.expr_power(expr, args.power)
    unit_expr = aut.expr_power(expr, (args.power > 0) - (args.power < 0))
    if len(expr) == 1:
        endo = aut.endo_of(power)
        unit = aut.endo_of(unit_expr)
    else:
        unit = aut.endo_of(unit_expr)
        try:
            endo = aut.endo_power(unit, abs(args.power))
        except ValueError:
            # A square's length bound counts letters that cancel; the
            # factors taken one at a time decide, under endo_of's caps.
            endo = aut.endo_of(power)
    if glrep.stabilizes(unit):
        m5 = glrep.mat_power(glrep.ab5(unit), abs(args.power))
    else:
        m5 = glrep.ab5(endo)
    m2 = glrep.restrict_to_eigenplane(m5)
    checks = [
        Check(
            "stabilizes",
            "the automorphism preserves the even-a3 subgroup",
            True,
            {"images": {f"a{i+1}": format_word(im) for i, im in enumerate(endo.images)}},
        ),
        Check(
            "mu-unimodular",
            "det mu = +-1",
            glrep.mat2_det(m2) in (1, -1),
            {"det": glrep.mat2_det(m2)},
        ),
    ]
    return checks, {
        "expr": args.expr,
        "power": args.power,
        "stabilizes": True,
        "ab5": m5,
        "mu": m2,
    }


def cmd_lk_basis(args: argparse.Namespace) -> tuple[list[Check], dict]:
    words = glrep.lk_basis(args.k)
    total_a = sum(ab_vector(w, 2)[0] for w in words)
    checks = [
        Check("count", "the basis has exactly k words", len(words) == args.k, None),
        Check(
            "a-exponent-total",
            "total exponent of the first generator is k-1",
            total_a == args.k - 1,
            {"total": total_a},
        ),
    ]
    return checks, {"words": [format_word(w) for w in words]}


def cmd_sanov(args: argparse.Namespace) -> tuple[list[Check], dict]:
    if args.power == 0:
        raise ValueError("power must be nonzero")
    # The images of L12^p and L21^p have |p| + 1 letters; the same cap as
    # for any image keeps every matrix entry short.
    if abs(args.power) >= MAX_WORD_LETTERS:
        raise ValueError(
            f"L12^{args.power} makes an image over {MAX_WORD_LETTERS} letters"
        )
    # mu(X^p) = mu(X^(sign p))^|p|, so no long image is built or rewritten.
    sign = 1 if args.power > 0 else -1
    m1, m2 = (
        glrep.mat_power(glrep.mu(aut.endo_of(aut.expr_power(x, sign))), abs(args.power))
        for x in (aut.nielsen_left(1, 2), aut.nielsen_left(2, 1))
    )
    free = glrep.no_short_relation(m1, m2, args.max_len)
    checks = [
        Check(
            "no-short-relation",
            f"no reduced word of length <= {args.max_len} in the two matrices "
            "evaluates to the identity",
            free,
            {"m1": m1, "m2": m2},
        )
    ]
    return checks, {"mu_L12_power": m1, "mu_L21_power": m2}


def _cell_report(lattice: latgeom.Lattice, cell: latgeom.Polytope, cls: dict,
                 out: str | None, precision: int) -> tuple[list[Check], dict]:
    """The report of a cell that passed the gates of ``voronoi_cell``."""
    # --precision is refused whether or not --out asks for the OFF file.
    latgeom.check_precision(precision)
    # Gate 2 of voronoi_cell raises unless the cell's volume is the
    # covolume, so the report states the volume without measuring again.
    volume = fraction_str(latgeom.covolume(lattice))
    payload = {
        "rank": lattice.rank,
        "basis": [[ratio_str(x, lattice.den) for x in row]
                  for row in lattice.rows],
        "covolume": volume,
        "volume": volume,
        "classification": cls,
        "off_path": None,
        "sidecar_path": None,
    }
    # cell-tiles records gate 2, which with the Euler gate forces the
    # polytope to be the cell.  It is the one cell check: a report with
    # no checks does not pass, and the Euler gate is not restated.
    checks = [
        Check(
            "cell-tiles",
            "cell volume equals |det basis|",
            True,
            {"volume": volume},
        ),
    ]
    if out is not None:
        payload["off_path"], payload["sidecar_path"] = latgeom.export_off(
            cell, out, precision)
    return checks, payload


def cmd_voronoi(args: argparse.Namespace) -> tuple[list[Check], dict]:
    gens = [_parse_vec3(part) for part in args.gens.split(";")]
    lattice = latgeom.lattice_from(gens)
    cell = latgeom.voronoi_cell(lattice)
    return _cell_report(lattice, cell, latgeom.classify(cell), args.out, args.precision)


def cmd_check_octo(args: argparse.Namespace) -> tuple[list[Check], dict]:
    vectors = [_parse_vec3(t) for t in (args.u1, args.u2, args.v1, args.v2)]
    checks = latgeom.octo_check(*vectors)
    return checks, checks[0].witness


def cmd_nielsen_flat(args: argparse.Namespace) -> tuple[list[Check], dict]:
    lattice, cell, cls, model_checks, model_payload = flats.nielsen_flat(args.scale)
    checks, payload = _cell_report(lattice, cell, cls, args.out, args.precision)
    return checks + model_checks, {**payload, **model_payload}


def cmd_lemma_pq(args: argparse.Namespace) -> tuple[list[Check], dict]:
    tau = _parse_vector(args.tau)
    checks = flats.equidistant_forces_zero(tau, args.p, args.q)
    return checks, {
        "tau": [fraction_str(c) for c in tau],
        "p": args.p,
        "q": args.q,
        "eliminant_coefficient": checks[0].witness["eliminant"],
        "conclusion": "a = 0",
    }


def cmd_induce(args: argparse.Namespace) -> tuple[list[Check], dict]:
    ell = parse_fraction(args.ell)
    iso = flats.cyclic_induced(args.d, ell)
    length_sq, min_point, den = flats.trans_length_sq(iso)
    expected = ell * ell / args.d
    # The d-th power must be exactly the translation by (ell, ..., ell).
    # Both are in lowest terms, so equal isometries have equal fields.
    power = iso.power(args.d)
    diagonal = flats.AffineIsometry(1, tuple(range(args.d)), (1,) * args.d,
                                    (ell.numerator,) * args.d, ell.denominator)
    witness = {"power_length_sq": ratio_str(
        sum(x * x for x in power.translation), power.den ** 2)}
    if power != diagonal:
        # A power of iso has d blocks of one coordinate each, so some
        # block's source, sign or translation over power.den differs.
        blocks = zip(power.source, power.signs, power.translation)
        witness["first_differing_block"] = next(
            i for i, (src, sign, t) in enumerate(blocks)
            if (src, sign, t * ell.denominator) != (i, 1, ell.numerator * power.den))
    checks = [
        Check(
            "induced-length",
            "the induced generator has squared translation length ell^2 / d",
            length_sq == expected,
            {
                "length_sq": fraction_str(length_sq),
                "expected": fraction_str(expected),
            },
        ),
        Check(
            "power-is-diagonal",
            "the d-th power translates diagonally with squared length d * ell^2",
            power == diagonal,
            witness,
        ),
    ]
    return checks, {
        "d": args.d,
        "ell": fraction_str(ell),
        "length_sq": fraction_str(length_sq),
        "min_point": [ratio_str(w, den) for w in min_point],
    }


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: built on the first call, then reused.
    It holds no handlers; ``_dispatch`` finds them by subcommand name.
    The first call also records each subcommand's parser in
    ``_commands``, where ``_dispatch`` picks it by the request's first
    word."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="autgeom",
        description="Exact verification of free-group automorphism identities "
        "and the lattice geometry of their commuting families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty",
        action="store_true",
        help="render a human-readable table instead of JSON",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("verify-relations", help="run the full identity suite")
    p.add_argument("--mode", choices=["aut", "out"], default="aut")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    p = add_parser("gpq", help="check the three two-parameter relations "
                       "under the right-multiplier assignment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--w", required=True, help="word in a1..a(n-2), e.g. 'a1 a2^-1'")

    p = add_parser("inner-gpq", help="check the same relations under the "
                       "rank-3 inner assignment")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add_parser("gl-rep", help="abelianized cover action and 2x2 "
                       "representation of an automorphism expression")
    p.add_argument("expr", help="e.g. 'L12' or 'L21^2 R12'")
    p.add_argument("--power", type=int, default=1)

    p = add_parser("lk-basis", help="free basis of the index-(k-1) "
                       "subgroup generated by conjugates of powers")
    p.add_argument("--k", type=int, required=True)

    p = add_parser("sanov", help="search for short relations between the "
                       "two 2x2 representation matrices")
    p.add_argument("--power", type=int, default=2)
    p.add_argument("--max-len", type=int, default=8)

    p = add_parser("voronoi", help="exact Voronoi cell of a rank-3 lattice")
    p.add_argument(
        "--gens",
        required=True,
        help="semicolon-separated rational vectors, e.g. '1,1,0;1,-1,0;1,0,1;1,0,-1'",
    )
    p.add_argument("--out", help="write the cell as an OFF file plus JSON sidecar")
    p.add_argument("--precision", type=int, default=6)

    p = add_parser("check-octo", help="check the four-vector conditions")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)

    p = add_parser("nielsen-flat", help="canonical flat model for the "
                       "commuting Nielsen family, with Dirichlet report")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--out", help="write the Dirichlet domain as an OFF file")
    p.add_argument("--precision", type=int, default=6)

    p = add_parser("lemma-pq", help="certificate that equidistant "
                       "collinear translates force the zero vector")
    p.add_argument("--tau", required=True, help="rational vector, e.g. '1,0'")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add_parser("induce", help="cyclic induced action of the integers "
                       "through an index-d subgroup translating by ell")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", required=True, help="rational translation length")
    _commands.update(sub.choices)
    _parser = parser
    return parser


def _render_pretty(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for key, value in report.args.items():
        lines.append(f"  {key} = {value}")
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(f"  [{verdict}] {c.name.ljust(width)}  {c.claim}")
    for key, value in report.payload.items():
        lines.append(f"  {key}: {value}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _dispatch(argv: list[str] | None) -> tuple[argparse.Namespace, int, Report]:
    """The one error boundary: parse argv, run the subcommand, map outcomes.

    A request whose first word names a subcommand is parsed once, by
    that subcommand's parser from ``build_parser``, as the top-level
    parser would hand it on; arguments it leaves over get the top-level
    "unrecognized arguments" error that ``parse_args`` gives.  Any other
    argv (empty, ``-h``, an option before the subcommand, ``--`` or an
    unknown name) goes through the top-level ``parse_args``, which only
    ever prints help or a usage error for it.  The request then runs
    ``cmd_<subcommand>`` as the module binds it when the request runs.
    The handler returns its checks and payload; the report names the
    subcommand and echoes every parsed argument except ``--pretty``.  A
    ``ValueError`` (bad input the library refused) or an ``OSError`` (an
    unwritable ``--out``) gives exit code 2; a ``RuntimeError`` (an
    internal gate or self-check failed) gives exit code 3.  Either way
    the report has no checks, so it does not pass; its
    ``payload["error"]`` carries the message.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = _commands.get(argv[0]) if argv else None
    if command is None:
        # No subcommand first: this ends in help or a usage error.
        args = parser.parse_args(argv)
    else:
        # The top-level parser hands argv[1:] on to the subcommand's
        # parser whole; seeding the namespace keeps vars(args) in order.
        args, extras = command.parse_known_args(
            argv[1:], argparse.Namespace(subcommand=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    for dest, value in vars(args).items():
        # argparse strips the "--" of "--opt=--" and stores what is left,
        # an empty list, without converting it.
        if value == []:
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    code = 0
    try:
        checks, payload = globals()["cmd_" + args.subcommand.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        code, checks, payload = USAGE_ERROR, (), {"error": str(exc)}
    except RuntimeError as exc:
        code, checks = INTERNAL_ERROR, ()
        payload = {"error": f"internal failure: {type(exc).__name__}: {exc}"}
    echoed = {k: v for k, v in vars(args).items() if k not in ("subcommand", "pretty")}
    report = Report(args.subcommand, echoed, tuple(checks), payload)
    if code == 0 and not report.passed:
        code = 1
    return args, code, report


def run(argv: list[str] | None = None) -> tuple[int, Report]:
    """Parse arguments and execute; returns (exit code, report)."""
    _, code, report = _dispatch(argv)
    return code, report


def main(argv: list[str] | None = None) -> int:
    args, code, report = _dispatch(argv)
    if code >= USAGE_ERROR:
        text, stream = json.dumps(report.to_dict()), sys.stderr
    elif args.pretty:
        text, stream = _render_pretty(report), sys.stdout
    else:
        text, stream = json.dumps(report.to_dict(), indent=1), sys.stdout
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader went away.  Point the stream at devnull so that the
        # interpreter's flush at exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    return code
