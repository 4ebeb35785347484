import ast
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from autgeom import automorphisms as aut
from autgeom import cli, flats, latgeom, linalg
from autgeom.cli import INTERNAL_ERROR, USAGE_ERROR
from autgeom import reports
from autgeom.reports import MAX_LITERAL_SIZE, fraction_str, parse_fraction, ratio_str
from autgeom.words import parse_word

from conftest import run_cli

# Golden schema: stable report structure and payload keys per subcommand.
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_schema.json").read_text()
)
GOLDEN_SCHEMA = GOLDEN["payload_keys"]

FCC_GENS = "1,1,0;1,-1,0;1,0,1;1,0,-1"
NINES = "9" * 5000
GPQ = ["gpq", "--n", "5", "--p", "1", "--q", "2"]  # words of rank 3

SMOKE_ARGS = {
    "verify-relations": ["verify-relations"],
    "gpq": ["gpq", "--n", "4", "--p", "1", "--q", "2", "--w", "a1"],
    "inner-gpq": ["inner-gpq", "--p", "1", "--q", "2"],
    "gl-rep": ["gl-rep", "L12"],
    "lk-basis": ["lk-basis", "--k", "3"],
    "sanov": ["sanov"],
    "voronoi": ["voronoi", "--gens", FCC_GENS],
    "check-octo": [
        "check-octo", "--u1", "1,1,0", "--u2", "1,-1,0",
        "--v1", "1,0,1", "--v2", "1,0,-1",
    ],
    "nielsen-flat": ["nielsen-flat", "--scale", "1"],
    "lemma-pq": ["lemma-pq", "--tau", "1,0", "--p", "1", "--q", "2"],
    "induce": ["induce", "--d", "3", "--ell", "5/2"],
}


@pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
def test_subcommand_passes_and_matches_schema(command):
    code, report = run_cli(SMOKE_ARGS[command])
    assert code == 0
    assert report.passed
    d = report.to_dict()
    assert sorted(d.keys()) == GOLDEN["report"]
    for check in d["checks"]:
        assert sorted(check.keys()) == GOLDEN["check"]
    assert sorted(d["payload"].keys()) == GOLDEN_SCHEMA[command]
    # The report survives a JSON round trip exactly.
    assert json.loads(json.dumps(d)) == d


class TestExitCodes:
    def test_verification_failure_is_one(self):
        code, report = run_cli(["verify-relations", "--inject-fault"])
        assert code == 1
        assert not report.passed
        assert any(c.name == "injected-fault" and not c.passed for c in report.checks)

    def test_octo_failure_is_one(self):
        # A repeated pair fails difference orthogonality; four equal
        # vectors fail pair orthogonality, and their lattice has rank 1.
        for argv, failing, rank in (
            (["check-octo", "--u1", "1,0,0", "--u2", "0,1,0",
              "--v1", "1,0,0", "--v2", "0,1,0"], "difference-orthogonality", 2),
            (["check-octo", "--u1=1,1,0", "--u2=1,1,0", "--v1=1,1,0", "--v2=1,1,0"],
             "pair-orthogonality", 1),
        ):
            code, report = run_cli(argv)
            assert code == 1
            assert [c.name for c in report.checks if not c.passed] == [failing]
            assert report.checks[0].witness["lattice_rank"] == rank

    @pytest.mark.parametrize(
        "argv",
        [
            ["gpq", "--n", "4", "--p", "1", "--q", "2", "--w", "a7"],
            ["gpq", "--n", "4", "--p", "0", "--q", "2", "--w", "a1"],
            ["gpq", "--n", "4", "--p", "1", "--q", "2", "--w", "zz"],
            ["inner-gpq", "--p", "0", "--q", "1"],
            ["gl-rep", "L13"],
            ["gl-rep", "bogus"],
            ["lk-basis", "--k", "1"],
            ["lemma-pq", "--tau", "1,0", "--p", "2", "--q", "2"],
            ["lemma-pq", "--tau", "x", "--p", "1", "--q", "2"],
            ["voronoi", "--gens", "1,0,0;0,1,0"],
            ["nielsen-flat", "--scale", "0"],
            ["induce", "--d", "0", "--ell", "1"],
            ["voronoi", "--gens", "0,0,0"],
            ["voronoi", "--gens", FCC_GENS, "--precision", "-3",
             "--out", "{tmp}/neg.off"],
            ["voronoi", "--gens", FCC_GENS + ";1,1,1"],
            ["sanov", "--power", "0"],
            ["gpq", "--n", "2", "--p", "1", "--q", "2", "--w", "a1"],
            ["voronoi", "--gens", FCC_GENS, "--out", "{tmp}/missing/c.off"],
            ["sanov", "--max-len", "-5"],
            ["sanov", "--max-len", "0"],
            ["lk-basis", "--k", "300000"],
            ["lk-basis", "--k", "1000000"],
        ],
    )
    def test_precondition_violations_are_two(self, argv, tmp_path):
        code, report = run_cli([a.format(tmp=tmp_path) for a in argv])
        assert code == USAGE_ERROR
        assert "error" in report.payload
        assert report.to_dict()["passed"] is False
        assert not (tmp_path / "neg.off").exists()

    def test_huge_exponent_is_two_at_once(self):
        start = time.perf_counter()
        code, report = run_cli(
            ["gpq", "--n", "3", "--p", "1", "--q", "1", "--w", "a1^2000000000"]
        )
        assert time.perf_counter() - start < 0.5
        assert code == USAGE_ERROR
        assert "longer than 100000 letters" in report.payload["error"]

    def test_internal_gate_failure_is_three(self, monkeypatch):
        monkeypatch.setattr(latgeom, "covolume", lambda lat: 0)
        code, report = run_cli(["voronoi", "--gens", FCC_GENS])
        assert code == INTERNAL_ERROR
        assert "volume gate" in report.payload["error"]
        assert report.to_dict()["passed"] is False

    def test_unsolvable_witness_is_three(self, monkeypatch):
        monkeypatch.setattr(linalg, "solve", lambda a, b: None)
        code, report = run_cli(["induce", "--d", "3", "--ell", "5/2"])
        assert code == INTERNAL_ERROR
        assert report.payload["error"].startswith("internal failure: RuntimeError")

    @pytest.mark.parametrize("power,length_sq", [
        # The generator itself, which translates by (3, 0, 0, 0, 0).
        (lambda self, k: self, "9"),
        # The generator's rotation with ell on every block: squared
        # length d * ell^2, as claimed, so only the rotation fails.
        (lambda self, k: flats.AffineIsometry(
            1, self.source, self.signs, (3,) * self.blocks, 1), "45"),
    ])
    def test_power_that_keeps_a_rotation_fails_the_check(self, power, length_sq,
                                                         monkeypatch):
        # A d-th power whose rotation is not the identity is not read as
        # a pure translation: power-is-diagonal fails with the squared
        # norm of its translation, at block 0, which block 4 feeds.
        monkeypatch.setattr(flats.AffineIsometry, "power", power)
        code, report = run_cli(["induce", "--d", "5", "--ell", "3"])
        assert code == 1
        checks = {c.name: c for c in report.checks}
        assert checks["induced-length"].passed
        assert not checks["power-is-diagonal"].passed
        assert checks["power-is-diagonal"].witness == {
            "power_length_sq": length_sq, "first_differing_block": 0}
        assert report.to_dict()["passed"] is False

    def test_power_off_the_diagonal_fails_the_check(self, monkeypatch):
        # The translation by (ell, -ell, ell, -ell) has squared length
        # d * ell^2 and the identity rotation, but is not diagonal.
        def power(self, k):
            return flats.AffineIsometry(
                1, tuple(range(k)), (1,) * k, (7, -7) * (k // 2), 3)

        monkeypatch.setattr(flats.AffineIsometry, "power", power)
        code, report = run_cli(["induce", "--d", "4", "--ell", "7/3"])
        assert code == 1
        checks = {c.name: c for c in report.checks}
        assert checks["induced-length"].passed
        assert not checks["power-is-diagonal"].passed
        assert checks["power-is-diagonal"].witness == {
            "power_length_sq": "196/9", "first_differing_block": 1}

    def test_error_report_echoes_arguments(self, tmp_path):
        out = str(tmp_path / "c.off")
        code, report = run_cli(
            ["voronoi", "--gens", "0,0,0", "--out", out, "--pretty"]
        )
        assert code == USAGE_ERROR
        assert report.args == {"gens": "0,0,0", "out": out, "precision": 6}
        _, report = run_cli(["gpq", "--n", "2", "--p", "1", "--q", "2", "--w", "a1"])
        assert report.args == {"n": 2, "p": 1, "q": 2, "w": "a1"}
        d = report.to_dict()
        assert sorted(d.keys()) == GOLDEN["report"]
        assert json.loads(json.dumps(d)) == d

    def test_unknown_subcommand_is_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == 2

    def test_leftover_arguments_get_the_top_level_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["check-octo", "--u1=0,2,2", "--u2=0,-2,2", "--v1=2,0,2", "--v2=-2,0,2",
                     "--bogus", "1"])
        assert err.value.code == 2
        assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err


class TestInputCaps:
    # A literal's size is its digits plus |exponent|, so 1e37 and 1e-37
    # have size 3 + 37 = 40, the cap.
    @pytest.mark.parametrize("ell", [
        "9" * MAX_LITERAL_SIZE, "1e37", "1e-37", "-1.5e36",
        "3/" + "7" * (MAX_LITERAL_SIZE - 1),
    ])
    def test_literal_at_the_cap_renders(self, ell):
        code, report = run_cli(["induce", "--d", "3", f"--ell={ell}"])
        assert code == 0
        assert report.payload["ell"] == fraction_str(Fraction(ell))
        json.dumps(report.to_dict())

    @pytest.mark.parametrize("ell", [
        "9" * (MAX_LITERAL_SIZE + 1), "1e38", "1e-38", "-1.5e37",
        "3/" + "7" * MAX_LITERAL_SIZE,
        "1e" + "9" * 5000,
    ])
    def test_literal_over_the_cap_is_two(self, ell):
        code, report = run_cli(["induce", "--d", "3", f"--ell={ell}"])
        assert code == USAGE_ERROR
        assert report.payload["error"].startswith("rational literal too large")

    def test_voronoi_at_both_caps_renders(self, tmp_path):
        # Nine literals of size 40 with nearly coprime denominators give
        # the largest numbers a report builds from literals.
        gens = ";".join(
            ",".join(f"1/{10**38 + 2 * (3 * i + j) + 1}" for j in range(3))
            for i in range(3)
        )
        out = str(tmp_path / "c.off")
        code, report = run_cli([
            "voronoi", "--gens", gens, "--out", out,
            "--precision", str(latgeom.MAX_PRECISION),
        ])
        assert code == 0
        json.dumps(report.to_dict(), indent=1)
        coords = open(out).read().splitlines()[2].split()
        assert {len(c.split(".")[1]) for c in coords} == {latgeom.MAX_PRECISION}

    def test_precision_over_the_cap_is_two(self, tmp_path):
        out = tmp_path / "c.off"
        code, report = run_cli([
            "voronoi", "--gens", FCC_GENS, "--out", str(out),
            "--precision", str(latgeom.MAX_PRECISION + 1),
        ])
        assert code == USAGE_ERROR
        assert f"precision must be <= {latgeom.MAX_PRECISION}" in report.payload["error"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,error", [
        (["voronoi", "--gens", "1,0,0;0,1,0;0,0,1", "--precision=-3"],
         "precision must be >= 0, got -3"),
        (["nielsen-flat", "--scale", "1", "--precision=100000000"],
         f"precision must be <= {latgeom.MAX_PRECISION}, got 100000000"),
    ])
    def test_precision_refused_without_out(self, argv, error):
        code, report = run_cli(argv)
        assert (code, report.payload["error"]) == (USAGE_ERROR, error)

    @pytest.mark.parametrize("argv,error", [
        # A bad lattice or scale is reported before a bad precision, and a
        # bad precision before an unwritable --out.
        (["voronoi", "--gens", "0,0,0", "--precision=-3"], "all generators are zero"),
        (["nielsen-flat", "--scale", "0", "--precision=-3"],
         "scale must be a positive integer, got 0"),
        (["voronoi", "--gens", FCC_GENS, "--precision=-3"],
         "precision must be >= 0, got -3"),
    ])
    def test_precision_error_precedence_with_out(self, argv, error, tmp_path):
        out = str(tmp_path / "missing" / "c.off")
        code, report = run_cli(argv + ["--out", out])
        assert (code, report.payload["error"]) == (USAGE_ERROR, error)

    # An exponent with more significant digits than MAX_WORD_LETTERS
    # (six), or a word's index with more than the rank, is refused before
    # int() would meet CPython's limit of 4,300 digits; words keep the
    # messages of the caps the value is over.
    @pytest.mark.parametrize("argv,error", [
        (["gl-rep", "L12^" + NINES], "char 0: exponent of 5000 digits is over 100000"),
        (["gl-rep", "L21 E1^-" + NINES], "char 4: exponent of 5000 digits is over 100000"),
        (["gl-rep", "L12^1000000"], "char 0: exponent of 7 digits is over 100000"),
        (["gl-rep", "E1^1000000"], "char 0: exponent of 7 digits is over 100000"),
        (["gl-rep", "L12^999999"], "L12^999999 makes an image over 100000 letters"),
        (GPQ + ["--w", "a1^" + NINES], "char 0: word longer than 100000 letters"),
        (GPQ + ["--w", "a2 A3^-" + NINES], "char 3: word longer than 100000 letters"),
        (GPQ + ["--w", "a" + NINES],
         f"char 0: generator a{NINES} out of range for rank 3"),
    ])
    def test_long_digit_strings_are_refused_before_int(self, argv, error):
        code, report = run_cli(argv)
        assert (code, report.payload["error"]) == (USAGE_ERROR, error)

    @pytest.mark.parametrize("argv,same_as", [
        (["gl-rep", "L12^0000001"], ["gl-rep", "L12"]),
        (["gl-rep", "L21^-" + "0" * 5000 + "3 E1^999999"], ["gl-rep", "L21^-3 E1"]),
        (GPQ + ["--w", "a0001^0000002 A" + "0" * 5000 + "3"], GPQ + ["--w", "a1^2 A3"]),
    ])
    def test_leading_zeros_do_not_count(self, argv, same_as):
        code, report = run_cli(argv)
        assert code == 0
        _, expected = run_cli(same_as)
        assert report.checks == expected.checks

    # endo_of's factor cap refuses the single factor L12^4000000; the
    # squares of (L12 L21) and then its 80 factors one at a time are
    # over the letter cap.
    @pytest.mark.parametrize("expr,error", [
        ("L12^100000", "L12^4000000 makes an image over 100000 letters"),
        ("L12 L21", "images would exceed 100000 letters"),
    ])
    def test_endo_caps_keep_their_reports(self, expr, error):
        code, report = run_cli(["gl-rep", expr, "--power", "40"])
        assert code == USAGE_ERROR
        assert json.dumps(report.to_dict()) == json.dumps({
            "command": "gl-rep", "args": {"expr": expr, "power": 40},
            "checks": [], "passed": False, "payload": {"error": error},
        })


class TestPayloads:
    def test_gl_rep_matrices(self):
        code, report = run_cli(["gl-rep", "L12"])
        assert code == 0
        assert report.payload["mu"] == [[1, 0], [1, 1]]
        assert len(report.payload["ab5"]) == 5

    def test_gl_rep_power(self):
        _, report = run_cli(["gl-rep", "L21", "--power", "4"])
        assert report.payload["mu"] == [[1, 4], [0, 1]]

    def test_lk_basis_words(self):
        _, report = run_cli(["lk-basis", "--k", "3"])
        assert report.payload["words"] == ["a2", "a1 a2 a1^-1", "a1^2"]

    def test_voronoi_fcc_classification(self):
        _, report = run_cli(SMOKE_ARGS["voronoi"])
        cls = report.payload["classification"]
        assert cls["f_vector"] == [14, 24, 12]
        assert cls["is_rhombic_dodecahedron"] is True
        assert set(cls["diag_ratios_sq"]) == {"2"}
        assert report.payload["volume"] == "2"

    def test_nielsen_flat_writes_off(self, tmp_path):
        for scale in ("1", "2"):
            out = str(tmp_path / f"cell{scale}.off")
            code, report = run_cli(["nielsen-flat", "--scale", scale, "--out", out])
            assert code == 0
            assert report.payload["off_path"] == out
            header = open(out).read().splitlines()
            assert header[0] == "OFF" and header[1] == "14 12 24"
            sidecar = json.loads(open(report.payload["sidecar_path"]).read())
            assert len(sidecar["vertices"]) == 14

    @pytest.mark.parametrize("argv", [
        SMOKE_ARGS["voronoi"],
        ["voronoi", "--gens", "1,0,0;0,1,0;0,0,1;2,-1,0"],
        ["nielsen-flat", "--scale", "1"],
        ["nielsen-flat", "--scale", "3"],
    ])
    def test_cell_report_has_one_cell_check(self, argv):
        # voronoi_cell's gates decide the cell; the report restates only
        # gate 2, as cell-tiles.  nielsen-flat adds the flat's own checks.
        code, report = run_cli(argv)
        assert code == 0
        flat = ([c.name for c in flats.nielsen_flat(int(argv[2]))[3]]
                if argv[0] == "nielsen-flat" else [])
        assert [c.name for c in report.checks] == ["cell-tiles", *flat]
        assert report.checks[0].witness == {"volume": report.payload["covolume"]}

    def test_lemma_pq_eliminant_coefficient(self, rng):
        cap = 10**flats.MAX_MULTIPLIER_DIGITS - 1
        pairs = [(cap, -cap), (-cap, cap - 1), (1, cap), (-1, -2)]
        while len(pairs) < 40:
            p, q = (rng.choice((rng.randint(-9, 9), rng.randint(-cap, cap)))
                    for _ in range(2))
            if p and q and p != q:
                pairs.append((p, q))
        for p, q in pairs:
            code, report = run_cli(["lemma-pq", "--tau=1/2,-3", f"--p={p}", f"--q={q}"])
            assert code == 0
            assert report.payload["eliminant_coefficient"] == p * q * (p - q)
            by_name = {c.name: c for c in report.checks}
            assert by_name["elimination-identity"].witness["eliminant"] == p * q * (p - q)

    def test_induce_values(self):
        _, report = run_cli(["induce", "--d", "3", "--ell", "5/2"])
        assert report.payload["length_sq"] == "25/12"

    def test_induce_many_cosets(self):
        code, report = run_cli(["induce", "--d", "200", "--ell", "7/3"])
        assert code == 0
        assert report.payload["length_sq"] == "49/1800"
        assert len(report.payload["min_point"]) == 200

    def test_induce_at_the_coset_cap(self):
        # The cycles are walked in integers; a return to seconds fails.
        start = time.perf_counter()
        code, report = run_cli(["induce", "--d", "100000", "--ell", "7/3"])
        json.dumps(report.to_dict(), indent=1)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert report.payload["length_sq"] == "49/900000"
        assert len(report.payload["min_point"]) == 100_000
        for d in ("100001", "100000000"):
            code, report = run_cli(["induce", "--d", d, "--ell=7/3"])
            assert code == USAGE_ERROR
            assert report.payload["error"] == f"need d <= 100000, got {d}"

    @pytest.mark.parametrize(
        "power,max_len,expected",
        [(1, 5, 0), (1, 6, 1), (-1, 5, 0), (-1, 6, 1), (1, 3000, 1), (2, 16, 0)],
    )
    def test_sanov_search_bounds(self, power, max_len, expected):
        # Power +-1 first fails at the braid relation (length 6); a long
        # bound must not exhaust the stack, and power 2 to length 16 must
        # finish in well under a second.
        code, report = run_cli(
            ["sanov", "--power", str(power), "--max-len", str(max_len)]
        )
        assert code == expected
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ([] if expected == 0 else ["no-short-relation"])

    def test_verify_relations_out_mode(self):
        code, report = run_cli(["verify-relations", "--mode", "out"])
        assert code == 0
        assert any("mod-inner" in c.name for c in report.checks)
        names = [c.name for c in report.checks]
        assert len(set(names)) == len(names)


# SHA-256 of the report, rendered as JSON with indent 1, for one request
# per algebra subcommand, recorded before the word kernel moved to signed
# ints.  A kernel change that alters an image, a verdict, a witness or an
# error message shows up here.  The out-mode digest was recorded again
# when z4-product-vanishes-mod-inner, which repeated
# z4-product-trivial-mod-inner, left the suite.  Each test's id is its
# argv, so a re-recorded digest keeps its test's name.
PINNED_ALGEBRA = [
    (["verify-relations", "--mode", "aut"], 0,
     "282f80def1ec6bae61bb1f1ba3a5326f8e32c40d2333243085897da28f977794"),
    (["verify-relations", "--mode", "out", "--inject-fault"], 1,
     "a53018edfbe10773fd7cd66bd6cfa4bc2c4881cf874cfe0d01c73181155373a9"),
    (["gpq", "--n", "5", "--p", "2", "--q", "-3", "--w", "a1 a2^-1 a3^2"], 0,
     "b57c7bdff069d4ae15e890560eb1b8f7267717a8d7ed0fa4e9da16c13b89c422"),
    (["gpq", "--n", "4", "--p", "1", "--q", "2", "--w", "a1 a3"], 2,
     "d63bd6233f123d48fe71b8e2a8ccefcf8c8a26eb3f6e86833fcd4835ce6766b4"),
    (["inner-gpq", "--p", "3", "--q", "-2"], 0,
     "298b1300f92dee2d67dd7661224ec929468974cd64225b0b3cf2833edcb9c556"),
    (["gl-rep", "L21 R12 E3", "--power", "-3"], 0,
     "fde09d2af50154fcf3a7754dca9d380ef636652a292d0f584ecedcbf0b5b6628"),
    # Images of about 4.2k letters.
    (["gl-rep", "P12 L21 R12 P12", "--power", "8"], 0,
     "3b4ddfa72155f8d252986af066d1346b43e49fccd34328073f72d235be5fd4cc"),
    (["lk-basis", "--k", "7"], 0,
     "5b69034092ef66c94e4867ee9610bad8aa1040789cf452e04c23cc5880dcf53b"),
    (["sanov", "--power", "2", "--max-len", "8"], 0,
     "21dddec78bbe4f937b0f9be723f3da15c9680b9729358e6c02e373a20a443c98"),
    (["sanov", "--power", "-1", "--max-len", "6"], 1,
     "86cf419a8f08dd4a6983c24408cfc076cd573aa2f63cce86afa48d340bd296ce"),
    # Error reports whose messages come from the range checks on n (made
    # before the word is parsed), input letters and generator indices.
    (["gpq", "--n", "2", "--p", "1", "--q", "2", "--w", "1"], 2,
     "09a81726b071b0e29d1a491575ba450b462395d5f2131be8411a2fed7af51437"),
    (["gpq", "--n", "5", "--p", "1", "--q", "2", "--w", "a4"], 2,
     "18c8bb9bf5caacc32ac064320a303da1377ac5c840d74946f85c40915d5593cf"),
    (["gl-rep", "L45"], 2,
     "9bf6bf7122fb74e9c0305902c62fb9fd6ecb663f1ee34926862c1c6bf6272055"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_ALGEBRA,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_ALGEBRA])
def test_algebra_output_pinned(argv, code, digest):
    got, report = run_cli(argv)
    text = json.dumps(report.to_dict(), indent=1)
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest)


# SHA-256 of the report, rendered as JSON with indent 1, followed by the
# OFF file and its sidecar where the request writes them, for Voronoi
# cells of the benchmark's five lattice types (each once rotated by the
# quaternion (1, 1, 1, 0) and scaled by 3/7, and once with a redundant
# fourth generator), the Nielsen flat, a passing and two failing
# four-vector checks, and two equidistance certificates.  They were
# recorded with the Voronoi kernel that read the cell off plane triples;
# a kernel change that alters a vertex, a face cycle, a halfspace or
# their order shows up here.  The voronoi and nielsen-flat digests were
# recorded again when their reports began to echo --out and --precision;
# nothing but the echoed arguments moved.  They and the lemma-pq digests
# were recorded once more when the euler and eliminant-nonzero checks
# left the reports, and the eliminant moved into the witness of
# elimination-identity.  The lemma-pq digests were recorded a third time
# when the zero-passes check, which held for every input, left them.
PINNED_GEOMETRY = [
    # fcc: rotated and scaled.
    (["voronoi", "--gens=3/7,3/7,0;-1/7,1/7,-4/7;3/7,0,-3/7",
      "--out", "cell.off"], 0,
     "deb90aa7a727949a42b02b69f36f01700c134aa2eb95240065a461daff4089dd"),
    # fcc: a redundant fourth generator.
    (["voronoi", "--gens=1,1,0;1,-1,0;1,0,1;1,3,0"], 0,
     "587ef024fa43017445619d6c12e3990c5a0b50e9b6f88f9e19c3a79090b5ac7e"),
    # cube: rotated and scaled.
    (["voronoi", "--gens=1/7,2/7,-2/7;2/7,1/7,2/7;2/7,-2/7,-1/7",
      "--out", "cell.off"], 0,
     "ea35eb9693529f2dc5202192b9a36d994b92ca4169033f7cf99fd1ed653981fd"),
    # cube: a redundant fourth generator.
    (["voronoi", "--gens=1,0,0;0,1,0;0,0,1;2,-1,0"], 0,
     "a224ce6da7b0533f1ec45c540aa40de7c94dfbf23cb4a8cf14f5f3f65ad86110"),
    # bcc: rotated and scaled.
    (["voronoi", "--gens=5/7,1/7,-1/7;-3/7,3/7,-3/7;-1/7,1/7,5/7",
      "--out", "cell.off"], 0,
     "8c34ad15207f7c0d4fe6377162eabbff47f33de243b19ec360b8e0994dcf0801"),
    # bcc: a redundant fourth generator.
    (["voronoi", "--gens=1,1,1;1,-1,-1;-1,1,-1;1,3,3"], 0,
     "81edc12cd7cc8a72b72a26b465dd57229b4bd7bd9b7b35995f71618dd8a25852"),
    # hexagonal: rotated and scaled.
    (["voronoi", "--gens=-1/7,1/7,-4/7;0,3/7,3/7;10/7,2/7,-2/7",
      "--out", "cell.off"], 0,
     "ce71711f80b6717c0a0e91446e7182c724fe036092a55a02b39b388f17e36d70"),
    # hexagonal: a redundant fourth generator.
    (["voronoi", "--gens=1,-1,0;0,1,-1;2,2,2;2,-3,1"], 0,
     "1c74451e1b296e54c0f4fe0faa45665f169ece13fe634b11560c0e170aabcb3d"),
    # generic: rotated and scaled.
    (["voronoi", "--gens=31/7,2/7,-5/7;-3,18/7,-15/7;-1,10/7,29/7",
      "--out", "cell.off"], 0,
     "af100f0c2732540758258b5f1c87bce2c24bbc8bcfe18a4a8aec36d23f034b50"),
    # generic: a redundant fourth generator.
    (["voronoi", "--gens=5,6,7;5,-6,-7;-5,6,-7;5,18,21"], 0,
     "c01de1e0430c36ef6d606ff8284ad7e69cee08c90a5dce4a71e6df6b786a12c5"),
    (["nielsen-flat", "--scale", "3",
      "--out", "cell.off"], 0,
     "ae8e1fd91c73052f4b1986922c12bc321ef7ade4048970d1f3f15ed48ef4d2a6"),
    (["check-octo", "--u1=0,2,2", "--u2=0,-2,2", "--v1=2,0,2", "--v2=-2,0,2"], 0,
     "027e334da42aa842b41ffdcb1b7cf430b478aa968aba3bf7e519e5c8058c5ed8"),
    (["check-octo", "--u1=1,0,0", "--u2=0,1,0", "--v1=1,0,0", "--v2=0,1,0"], 1,
     "9f14f39c28953ea72a93a0d710acc06e9cee646b7229d757287bbc37076b9a2c"),
    # induce: integer, 7/3, -5/12 and zero ell, from one coset to the cap.
    (["induce", "--d", "1", "--ell=5"], 0,
     "c758e97ce998963c070c72f8bff7cd3f0cf80d70b58c99fd4e2e6c59f06958a8"),
    (["induce", "--d", "1", "--ell=7/3"], 0,
     "59ea60ff30604350975d7968d65c4097fda4929c005b0a6f8e5c8c21829eb014"),
    (["induce", "--d", "1", "--ell=-5/12"], 0,
     "204ead6c1a229bef57ab34de42fe8c4fc8ac7db599144a3ff221d9f93f9fd433"),
    (["induce", "--d", "1", "--ell=0"], 0,
     "b85975c0811734f0a079e905574a7c7b59980453442d4bdcda61d97bebd2a34b"),
    (["induce", "--d", "2", "--ell=5"], 0,
     "179dd30b589685314d5353d87f6ac267f0776986c694656d5acd9f2cc294ead3"),
    (["induce", "--d", "2", "--ell=7/3"], 0,
     "4db10d734759b9b085f0c0abde1e98517b434f738fbbc94027bac5b012906fce"),
    (["induce", "--d", "2", "--ell=-5/12"], 0,
     "934b533953f72d6a64e2440aa30f64273ac9fcded14c3a3ce1bb398afb8cb738"),
    (["induce", "--d", "2", "--ell=0"], 0,
     "b86450fe7e178302ba258471376e2c3fbd19d01b86d4bdb533613de2d6c2184d"),
    (["induce", "--d", "34", "--ell=5"], 0,
     "214e1970c8add00c5e7c26e92429db46a280e3261e3d26146bbc20acc61c21f4"),
    (["induce", "--d", "34", "--ell=7/3"], 0,
     "a007df0699fddd0668a89e1000dfb418d0da4d2e669ab77588abf7968a0a70fd"),
    (["induce", "--d", "34", "--ell=-5/12"], 0,
     "4fb42322883f6f3ac9dcfc20174755ea6e3cb6b31bd8d2e4bf5697fa2dfb5dfb"),
    (["induce", "--d", "34", "--ell=0"], 0,
     "84983dc206f4c3f38edd18566b597bd68d96fcfb8ee6b533b09e0c0b6f9344f2"),
    (["induce", "--d", "48", "--ell=5"], 0,
     "1c91bcc0d9edbdb3ba66b53ab441c73bb798761c3050b979ccc0c32f3d32bec4"),
    (["induce", "--d", "48", "--ell=7/3"], 0,
     "53588bde62bffa48798948b1327fa3d84cfbd105f66ecee729243c17cb44d00e"),
    (["induce", "--d", "48", "--ell=-5/12"], 0,
     "e0752607dbbd6439fec9428c6b5a3563b1a1894fd3e48c4c8c5bf4ffaebed6d2"),
    (["induce", "--d", "48", "--ell=0"], 0,
     "beb6a09e9bb30247306137abc98baba9f82b594a758067493853f30be8794f2b"),
    (["induce", "--d", "1000", "--ell=5"], 0,
     "eaed183f8d885ec1bb82059db8b1ae814b36551444caa46dd2e6ac73287a1d32"),
    (["induce", "--d", "1000", "--ell=7/3"], 0,
     "75a3a54a52b2ce4f841e45a3ac8646281d3ecb44fa6a285f6a34fe51695a7d1d"),
    (["induce", "--d", "1000", "--ell=-5/12"], 0,
     "a83004de0de622260c24fda4e49881f93cbc92b09a93a673feb1a9adc41f1ba4"),
    (["induce", "--d", "1000", "--ell=0"], 0,
     "0968931cc6c1f1b2ff9f349804184adbbb91d9d839b04a84f7daf10fac82bb85"),
    # All four vectors zero: every norm is 0 and the lattice rank is 0.
    (["check-octo", "--u1=0,0,0", "--u2=0,0,0", "--v1=0,0,0", "--v2=0,0,0"], 1,
     "9303278c4fb6144b0947617c4c46e831e31fab4888380ac0f284e28b6df47fda"),
    (["nielsen-flat", "--scale", "1"], 0,
     "75dcb9809b1e8674cd99e3ad12cef9c392abdf75b7771b61087b1225909f82ec"),
    (["lemma-pq", "--tau", "1,0", "--p", "1", "--q", "2"], 0,
     "838e976f689dada8a039b357da6a4135068d55495bc7e0381aa37ad8ddd7273d"),
    (["lemma-pq", "--tau=1/2,-3,0", "--p", "-4", "--q", "7"], 0,
     "b8a44ed61ada2f7575484f6d7a81ba74adb487b9bcdaf416b66a2f79f3de4082"),
    # fcc from three generators, with its OFF file and sidecar.
    (["voronoi", "--gens", "1,1,0;1,-1,0;1,0,1", "--out", "cell.off"], 0,
     "67cce0d5b80636e5e90ad0d4d0df76cab68d3325050e80bfb3c87d5f7eb71d1e"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_GEOMETRY,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_GEOMETRY])
def test_geometry_output_pinned(argv, code, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, report = run_cli(argv)
    h = hashlib.sha256(json.dumps(report.to_dict(), indent=1).encode())
    if "--out" in argv:
        for name in ("cell.off", "cell.off.json"):
            h.update((tmp_path / name).read_bytes())
    assert (got, h.hexdigest()) == (code, digest)


# Usage errors that end a request with SystemExit: an unknown flag that
# argparse refuses, "--opt=--" that _dispatch refuses through
# parser.error, and --help, which exits 0.
USAGE_EXITS = [
    (["gl-rep", "L12", "--bogus"], 2),
    (["lk-basis", "--k=--"], 2),
    (["--help"], 0),
]


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("bad,exit_code", USAGE_EXITS)
    def test_request_after_usage_error_matches_fresh_process(self, bad, exit_code,
                                                             capsys):
        argv = ["gl-rep", "L21 R12 E3", "--power", "-3"]
        with pytest.raises(SystemExit) as err:
            cli.run(bad)
        assert err.value.code == exit_code
        capsys.readouterr()
        code, report = cli.run(argv)
        fresh = subprocess.run([sys.executable, "-m", "autgeom", *argv],
                               capture_output=True, text=True)
        assert (code, json.dumps(report.to_dict(), indent=1) + "\n") == (
            fresh.returncode, fresh.stdout)

    @pytest.mark.parametrize("pinned", [
        PINNED_ALGEBRA[0], PINNED_ALGEBRA[6], PINNED_ALGEBRA[-1], PINNED_GEOMETRY[0],
    ])
    def test_pinned_digests_after_usage_errors(self, pinned, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        argv, code, digest = pinned
        for bad, exit_code in USAGE_EXITS:
            with pytest.raises(SystemExit) as err:
                cli.run(bad)
            assert err.value.code == exit_code
            got, report = cli.run(argv)
            h = hashlib.sha256(json.dumps(report.to_dict(), indent=1).encode())
            if "--out" in argv:
                for name in ("cell.off", "cell.off.json"):
                    h.update((tmp_path / name).read_bytes())
            assert (got, h.hexdigest()) == (code, digest)
        capsys.readouterr()


def test_handler_is_looked_up_when_the_request_runs(monkeypatch):
    # bench/tracing.py rebinds cli.cmd_* to span-recording wrappers after
    # the parser is built, and its per-layer metrics need their spans
    # (automorphisms.endo_of_ms takes the endo_of spans under
    # cli.cmd_gl_rep): a parser that stored the handler would keep
    # calling the unwrapped function.
    cli.build_parser()
    calls = []

    def stub(args):
        calls.append((args.p, args.q))
        return [], {}

    monkeypatch.setattr(cli, "cmd_inner_gpq", stub)
    code, report = cli.run(["inner-gpq", "--p", "3", "--q", "-2"])
    assert calls == [(3, -2)]
    # A report with no checks verified nothing, so it does not pass.
    assert code == 1 and report.checks == ()
    assert report.command == "inner-gpq" and report.args == {"p": 3, "q": -2}


# A passing request of every subcommand, the failing ones where a
# request can fail, and an error report: each report names its
# subcommand and echoes every parsed argument but --pretty, in order.
ECHO_REQUESTS = [(argv, 0) for argv in SMOKE_ARGS.values()] + [
    (["check-octo", "--u1=1,0,0", "--u2=0,2,0", "--v1=1,0,1", "--v2=1,0,-1"], 1),
    (["sanov", "--power", "1", "--max-len", "6"], 1),
    (["verify-relations", "--inject-fault"], 1),
    (["voronoi", "--gens", "1,2", "--precision", "3", "--pretty"], USAGE_ERROR),
    (["voronoi", "--gens", "1,1,0;1,-1,0;1,0,1", "--precision", "3"], 0),
    (["lemma-pq", "--tau=1/2,-3/4,5", "--p", "3", "--q", "-2"], 0),
]


@pytest.mark.parametrize("argv,code", ECHO_REQUESTS)
def test_report_names_subcommand_and_echoes_parsed_arguments(argv, code):
    got, report = run_cli(argv)
    parsed = cli.build_parser().parse_args(argv)
    echoed = {k: v for k, v in vars(parsed).items() if k not in ("subcommand", "pretty")}
    assert got == code
    assert report.command == argv[0]
    assert list(report.args.items()) == list(echoed.items())


def test_src_modules_use_every_import():
    # An import left behind when the last code that used it goes.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "autgeom"
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


class TestEndToEnd:
    def test_import_loads_no_dataclasses_machinery(self):
        # Every check is one fresh process, so each module that
        # ``import autgeom.cli`` and a request pull in is paid for on
        # every request.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = ("import sys; before = set(sys.modules); import autgeom.cli; "
                "code = autgeom.cli.main(['check-octo', '--u1=0,2,2', '--u2=0,-2,2', "
                "'--v1=2,0,2', '--v2=-2,0,2']); "
                "print(*sorted(set(sys.modules) - before)); sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        )
        added = set(proc.stdout.splitlines()[-1].split())
        assert "autgeom.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
        # Integers in the inner loops: the word kernel and the (O - I)
        # solver load no Fraction.
        code = "import sys, autgeom.linalg, autgeom.words; print('fractions' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout == "False\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "autgeom", "sanov"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["passed"] is True

    def test_pretty_output(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "autgeom", "inner-gpq", "--p", "1", "--q", "2",
             "--pretty"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "overall: PASS" in proc.stdout
        assert "[PASS]" in proc.stdout
        # The README's example.
        assert cli.main(["nielsen-flat", "--scale", "1", "--pretty"]) == 0
        assert capsys.readouterr().out.endswith("\noverall: PASS\n")

    def test_error_goes_to_stderr(self):
        proc = subprocess.run(
            [sys.executable, "-m", "autgeom", "lemma-pq", "--tau", "1,0",
             "--p", "2", "--q", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["voronoi", "--gens", "0,0,0"],
            ["voronoi", "--gens", FCC_GENS, "--precision", "-3",
             "--out", "{tmp}/c.off"],
        ],
    )
    def test_former_crashers_exit_two_without_traceback(self, argv, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "autgeom", *(a.format(tmp=tmp_path) for a in argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["passed"] is False

    def test_closed_stdout_prints_no_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "autgeom", "voronoi", "--gens", "1,1,0;1,-1,0;1,0,1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # Close the read end before the child has imported anything, so
        # its report meets a closed pipe.
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in stderr


def _limit_address_space():
    # A missing guard then fails fast with MemoryError instead of taking
    # the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ["gl-rep", "L12^2000000000"],
        ["sanov", "--power", "2000000000"],
        ["gl-rep", "L12", "--power", "2000000000"],
        ["gl-rep", "L12 L21", "--power", "2000000000"],
        ["gl-rep", "L12 L21", "--power", "40"],
        ["gpq", "--n", "3", "--p", "2000000000", "--q", "1", "--w", "a1"],
        ["inner-gpq", "--p", "2000000000", "--q", "1"],
        ["sanov", "--power", "2", "--max-len", "60"],
        ["induce", "--d", "100000000", "--ell", "1"],
        ["induce", "--d", "3", "--ell", "1e1000000"],
        ["voronoi", "--gens", "1e1000000,0,0;0,1,0;0,0,1"],
        ["voronoi", "--gens", "1,0,0;0,1,0;0,0,1", "--precision", "100000000",
         "--out", "{tmp}/p.off"],
        # Integers whose report would need more than the 4,300 digits
        # CPython converts to a string.
        ["lemma-pq", "--tau", "1", "--p", "9" * 2200, "--q", "1"],
        ["nielsen-flat", "--scale", "9" * 1500],
        ["lk-basis", "--k", "9" * 3000],
        ["gpq", "--n", "1", "--p", "1", "--q", "2", "--w", "a1"],
        ["gpq", "--n", "100000000", "--p", "1", "--q", "2", "--w", "a1"],
        # Images that stay short but take quadratic work to compose: the
        # largest run of L21 factors that fits in one argument (Linux caps
        # one at 131,072 bytes); 100,000 factors are run in-process in
        # test_contract.py.
        ["gl-rep", "L21 " * 32_000],
    ],
)
def test_oversize_request_is_two_at_once(argv, tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "autgeom", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == USAGE_ERROR
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stderr)
    assert report["passed"] is False
    # autgeom's own message, not CPython's refusal to convert an integer.
    assert "Exceeds the limit" not in report["payload"]["error"]


NINES_AT_CAP = "9" * flats.MAX_MULTIPLIER_DIGITS


@pytest.mark.parametrize(
    "argv",
    [
        # The eliminant p q (p - q) = -2 p^3 has 4,201 digits.
        ["lemma-pq", "--tau", "1", "--p", NINES_AT_CAP, "--q", "-" + NINES_AT_CAP],
        # The covolume 2 s^3 has 4,201 digits.
        ["nielsen-flat", "--scale", "9" * flats.MAX_SCALE_DIGITS],
        ["gpq", "--n", str(aut.MAX_GPQ_N), "--p", "1", "--q", "2", "--w", "a1"],
    ],
)
def test_request_at_the_cap_renders(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "autgeom", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["passed"] is True


def _image_lengths(report):
    images = {c.name: c for c in report.checks}["stabilizes"].witness["images"]
    return [len(parse_word(images[k], 3)) for k in ("a1", "a2", "a3")]


# Large requests that pass within a bound on the seconds they take to
# run and render, and what their reports show beyond passing:
# argv, seconds, a reading of the report and its expected value.
TIMED_REQUESTS = {
    # A skewed lattice with 38- and 39-digit entries gets its exact,
    # gated cell, a truncated octahedron.
    "skewed-voronoi": (
        ["voronoi", "--gens", "1,0,12345678901234567890123456789012345678;"
         "0,1,31415926535897932384626433832795028841;"
         "0,0,100000000000000000000000000000000000007"],
        5, lambda report: report.payload["classification"]["f_vector"], [24, 36, 14]),
    # 4,000 L21 factors write 8,014,000 letters, under the work cap.
    "gl-rep-4000-factors": (["gl-rep", "L21 " * 4000], 20, None, None),
    # Powers are built by squaring: 80,000 factors with images of
    # 40,001 letters.
    "gl-rep-power-40000": (["gl-rep", "L21 R31", "--power", "40000"], 20, None, None),
    # The images of power 11, the largest under the letter cap, render
    # through bytes and parse back to 28,657, 46,368 and 1 letters.
    "gl-rep-power-11": (["gl-rep", "P12 L21 R12 P12", "--power", "11"],
                        10, _image_lengths, [28_657, 46_368, 1]),
    "sanov-power-99999": (["sanov", "--power", "99999", "--max-len", "4"], 20, None, None),
    # gpq pays for the letters that move: a 40,000-letter word of two
    # repeated tokens, and 10,001 images of which each relation moves one.
    "gpq-long-word": (["gpq", "--n", "4", "--p", "2", "--q", "-2", "--w", "a1 a2 " * 20_000],
                      20, None, None),
    "gpq-n-10000": (["gpq", "--n", "10000", "--p", "1", "--q", "1", "--w", "a1"],
                    20, None, None),
    # Letters wider than one byte take the renderer's run loop.
    "gpq-wide-letters": (["gpq", "--n", "300", "--p", "2", "--q", "1",
                          "--w", " ".join(f"a{i}" for i in range(1, 299))], 10, None, None),
}


@pytest.mark.parametrize("name", TIMED_REQUESTS)
def test_large_request_passes_in_time(name):
    argv, seconds, reading, expected = TIMED_REQUESTS[name]
    start = time.perf_counter()
    code, report = run_cli(argv)
    json.dumps(report.to_dict(), indent=1)
    assert time.perf_counter() - start < seconds
    assert (code, report.passed) == (0, True)
    if reading is not None:
        assert reading(report) == expected


def _count_calls(monkeypatch, names):
    """Count calls of latgeom functions, also where flats imported them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(latgeom, name)

        def counted(*args, _fn=original, _name=name):
            counts[_name] += 1
            return _fn(*args)

        for module in (latgeom, flats):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_nielsen_flat_builds_one_cell(monkeypatch):
    counts = _count_calls(monkeypatch, ["voronoi_cell", "classify"])
    code, _ = run_cli(["nielsen-flat", "--scale", "2"])
    assert code == 0
    assert counts == {"voronoi_cell": 1, "classify": 1}


def test_voronoi_computes_covolume_twice(monkeypatch):
    # Once in the volume gate of voronoi_cell, once in the report; only
    # the gate measures the cell's volume.
    counts = _count_calls(
        monkeypatch, ["covolume", "polytope_volume", "voronoi_cell", "classify"]
    )
    code, _ = run_cli(["voronoi", "--gens", FCC_GENS])
    assert code == 0
    assert counts == {
        "covolume": 2, "polytope_volume": 1, "voronoi_cell": 1, "classify": 1
    }


def test_induce_takes_one_translation_length(monkeypatch):
    # The d-th power is compared with the diagonal translation, so only
    # the generator's length is solved for.
    calls = []
    original = flats.trans_length_sq

    def counted(g):
        calls.append(g.blocks)
        return original(g)

    monkeypatch.setattr(flats, "trans_length_sq", counted)
    for d in (1, 2, 34, 1000):
        calls.clear()
        code, _ = run_cli(["induce", "--d", str(d), "--ell=-5/12"])
        assert (code, calls) == (0, [d])


def test_dth_power_is_the_diagonal_translation(rng):
    for _ in range(60):
        d = rng.randint(1, 300)
        ell = rng.choice((Fraction(0), Fraction(-rng.randint(1, 50), rng.randint(1, 9)),
                          Fraction(rng.randint(1, 50), rng.randint(2, 9))))
        power = flats.cyclic_induced(d, ell).power(d)
        assert (power.block_dim, power.source, power.signs) == (1, tuple(range(d)), (1,) * d)
        assert [Fraction(t, power.den) for t in power.translation] == [ell] * d


def test_ratio_str_renders_as_fraction_str(rng):
    # Reports render every rational through ratio_str: from integers over
    # one denominator, or from a Fraction by fraction_str.  The reference
    # is Fraction's own lowest terms.
    for _ in range(500):
        num, den = rng.randint(-10**6, 10**6), rng.choice((1, 2, 6, rng.randint(1, 10**4)))
        f = Fraction(num, den)
        expected = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        assert ratio_str(num, den) == fraction_str(f) == expected
    assert fraction_str(-4) == "-4"
    assert [ratio_str(0, 7), ratio_str(-6, 3), ratio_str(6, 4)] == ["0", "-2", "3/2"]


def parse_fraction_reference(text):
    """``parse_fraction`` before integer literals were read by ``int``:
    the size cap, then every literal through ``Fraction``'s parser."""
    size = sum(map(str.isdigit, text))
    exponent = reports._EXPONENT.search(text) if size <= MAX_LITERAL_SIZE else None
    if exponent:
        size += abs(int(exponent[1].replace("_", "")))
    if size > MAX_LITERAL_SIZE:
        raise ValueError(f"rational literal too large: digits plus |exponent| "
                         f"come to {size}, over the cap of {MAX_LITERAL_SIZE}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def literal_outcome(parse, text):
    try:
        value = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(value), type(value.numerator), value.numerator, value.denominator


LITERAL_EDGE_CASES = [
    "0", "-0", "+0", "007", "-007", " 12\t", "\n-5 ", "\u2003+4\u2003", "+-3", "--3",
    "-+3", "+", "-", "", " ", "\u0663", "-\u0663\u0664", "\u00b2", "1\u00b2", "1_0",
    "-1_000", "_1", "1e3", "1e38", "-1.5e36", "1/0", "-3/4", "1/2", " 1 / 2", "1.", ".5",
    "0x10", "1 2",
    "9" * MAX_LITERAL_SIZE, "-" + "9" * MAX_LITERAL_SIZE, "9" * (MAX_LITERAL_SIZE + 1),
    "+" + "0" * (MAX_LITERAL_SIZE + 1), "1e" + "9" * 5000, "9" * 5000,
]


def test_integer_literals_parse_as_fraction_parses_them(rng):
    # Random literals from signs, digits (ASCII and not), separators and
    # whitespace, and random integers of up to 41 digits with leading
    # zeros, signs and surrounding whitespace.
    pieces = ["", "+", "-", "0", "7", "12", "\u0663", "\u00b2", "_", "/", ".", "e", " ", "\t"]
    texts = ["".join(rng.choices(pieces, k=rng.randint(1, 6))) for _ in range(3000)]
    for _ in range(3000):
        digits = "0" * rng.choice((0, 0, 1, 3)) + str(rng.randint(0, 10 ** rng.randint(0, 41)))
        texts.append(rng.choice(("", " ", "\t")) + rng.choice(("", "+", "-")) + digits
                     + rng.choice(("", " ", "\n")))
    for text in LITERAL_EDGE_CASES + texts:
        assert literal_outcome(parse_fraction, text) == literal_outcome(
            parse_fraction_reference, text), text
