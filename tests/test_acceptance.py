"""Acceptance suite: one test per criterion, each printing a verdict line.

Every comparison in this module is exact (integer or rational equality);
there are no numeric tolerances anywhere.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

from fractions import Fraction

from autgeom import automorphisms as aut
from autgeom import flats, glrep
from autgeom import latgeom as lg
from autgeom import words as fw
from autgeom.automorphisms import nielsen_left as L

from conftest import (
    FCC_GENS, apply_matrix, fraction_equidistant_check, mat2_mul, octo_flags,
    random_a3_even_word, random_raw, random_rotation, random_stabilizing_endo,
    random_word, run_cli,
)


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {description}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_identity_suite():
    code, report = run_cli(["verify-relations", "--mode", "out"])
    by_name = {c.name: c for c in report.checks}
    required = [
        "commutator-left-nielsen",
        "commutator-right-nielsen",
        "inversion-swaps-left-to-right",
        "z4-product-is-inner-a1",
    ]
    commutations = [c for c in report.checks if c.name.startswith("commute-")]
    sign = by_name["z4-product-is-inner-a1"].witness["inner_power_of_a1"]
    ok = (
        code == 0
        and report.passed
        and all(by_name[n].passed for n in required)
        and len(commutations) == 6
        and all(c.passed for c in commutations)
        and sign in (1, -1)
    )
    criterion(
        1,
        f"verify-relations passes; inner product identity sign recorded ({sign:+d})",
        ok,
    )


def test_criterion_2_gpq_embeddings(rng):
    params = [(1, 2), (2, 3), (-1, 3)]
    failures = []
    for n in (3, 4, 5, 6):
        words = [fw.gen(1)] + [
            random_word(rng, n - 2, 6) for _ in range(10)
        ]
        for p, q in params:
            for w in words:
                code, _ = run_cli(
                    ["gpq", "--n", str(n), "--p", str(p), "--q", str(q),
                     "--w", fw.format_word(w)]
                )
                if code != 0:
                    failures.append((n, p, q, fw.format_word(w)))
    for p, q in params:
        code, _ = run_cli(["inner-gpq", "--p", str(p), "--q", str(q)])
        if code != 0:
            failures.append(("inner", p, q))
    criterion(
        2,
        "gpq relations hold for n in {3..6}, three (p,q) pairs, 10 random "
        "words each; inner-gpq passes for the same pairs",
        not failures,
        str(failures),
    )


def test_criterion_3_representation(rng):
    ok_elementary = all(
        glrep.mu(aut.endo_of(aut.expr_power(L(1, 2), p))) == [[1, 0], [p, 1]]
        and glrep.mu(aut.endo_of(aut.expr_power(L(2, 1), p))) == [[1, p], [0, 1]]
        for p in range(1, 6)
    )
    ok_mult = all(
        glrep.mu(aut.compose(e1, e2)) == mat2_mul(glrep.mu(e1), glrep.mu(e2))
        for e1, e2 in (
            (random_stabilizing_endo(rng), random_stabilizing_endo(rng))
            for _ in range(100)
        )
    )
    ok_roundtrip = all(
        glrep.expand(glrep.rewrite(w)) == w
        for w in (random_a3_even_word(rng, 40) for _ in range(500))
    )
    code, report = run_cli(["sanov"])
    ok_sanov = code == 0 and report.payload["mu_L12_power"] == [[1, 0], [2, 1]]
    criterion(
        3,
        "mu of Nielsen powers are elementary matrices (p = 1..5) through the "
        "rewriting pipeline; mu multiplicative on 100 pairs; 500 rewrite "
        "round-trips; sanov finds no relation of length <= 8",
        ok_elementary and ok_mult and ok_roundtrip and ok_sanov,
    )


def test_criterion_4_geometry(rng):
    fcc = lg.lattice_from(FCC_GENS)
    cell = lg.voronoi_cell(fcc)
    cls = lg.classify(cell)
    ok_fcc = (
        cls["f_vector"] == [14, 24, 12]
        and cls["rhombic_faces"] == 12
        and cls["diag_ratios_sq"] == ["2"] * 12
        and lg.polytope_volume(cell) == 2 == lg.covolume(fcc)
    )
    ok_rotations = True
    rotations = [random_rotation(rng) for _ in range(20)]
    quads = [FCC_GENS] + [
        tuple(apply_matrix(rot, v) for v in FCC_GENS) for rot in rotations
    ]
    for quad in quads:
        checks = lg.octo_check(*quad)
        verdict = lg.classify(lg.voronoi_cell(lg.lattice_from(quad)))
        if not (all(octo_flags(checks)) and checks[0].witness["lattice_rank"] == 3
                and verdict["is_rhombic_dodecahedron"]):
            ok_rotations = False
            break
    criterion(
        4,
        "FCC cell has f-vector (14,24,12), twelve rhombi of squared diagonal "
        "ratio 2, volume 2; four-vector conditions imply the rhombic "
        "dodecahedron on the canonical quadruple and 20 rational rotations",
        ok_fcc and ok_rotations,
    )


def test_criterion_5_flat_model():
    failures = []
    for s in (1, 2, 3):
        code, report = run_cli(["nielsen-flat", "--scale", str(s)])
        by_name = {c.name: c for c in report.checks}
        if not (
            code == 0
            and report.payload["rank"] == 3
            and report.payload["classification"]["is_rhombic_dodecahedron"]
            and by_name["kernel-maps-to-zero"].passed
        ):
            failures.append(s)
    criterion(
        5,
        "nielsen-flat for s = 1..3 yields a rank-3 lattice with a rhombic "
        "dodecahedron Dirichlet domain and (-1,1,-1,1) in the kernel",
        not failures,
        str(failures),
    )


def test_criterion_6_equidistance(rng):
    ok_random = True
    for _ in range(100):
        k = rng.randint(1, 3)
        tau = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        p = rng.choice([x for x in range(-5, 6) if x != 0])
        q = rng.choice([x for x in range(-5, 6) if x not in (0, p)])
        tau_text = ",".join(str(t) for t in tau)
        code, _ = run_cli(
            ["lemma-pq", f"--tau={tau_text}", "--p", str(p), "--q", str(q)]
        )
        if code != 0:
            ok_random = False
            break
        grid = [Fraction(n, 2) for n in range(-4, 5)]
        points = [[x] for x in grid] if k == 1 else None
        if k == 2:
            points = [[x, y] for x in grid for y in grid]
        if k == 3:
            coarse = [Fraction(n) for n in range(-2, 3)]
            points = [[x, y, z] for x in coarse for y in coarse for z in coarse]
        for a in points:
            if fraction_equidistant_check(tau, p, q, a) and any(a):
                ok_random = False
                break
    refusal_code, _ = run_cli(["lemma-pq", "--tau", "1,0", "--p", "2", "--q", "2"])
    criterion(
        6,
        "lemma-pq certificate validates on 100 random (tau, p != q) with no "
        "nonzero grid solutions; p = q is refused",
        ok_random and refusal_code == 2,
    )


def test_criterion_7_induction(rng):
    ok = True
    for d in (2, 3, 4):
        for _ in range(5):
            ell = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            iso = flats.cyclic_induced(d, ell)
            if flats.trans_length_sq(iso)[0] != ell * ell / d:
                ok = False
    code, report = run_cli(["induce", "--d", "3", "--ell", "5/2"])
    ok = ok and code == 0 and report.payload["length_sq"] == "25/12"
    criterion(
        7,
        "induced cyclic-block isometries have squared translation length "
        "ell^2/d for d in {2,3,4}, exactly in rationals",
        ok,
    )


def test_criterion_8_word_algebra(rng):
    from conftest import naive_reduce

    ok_idempotent = True
    for _ in range(1000):
        raw = random_raw(rng, 4, rng.randint(0, 30))
        w = fw.reduce(4, raw)
        if fw.reduce(4, w) != w or w != naive_reduce(raw):
            ok_idempotent = False
            break

    ok_assoc = all(
        fw.mul(fw.mul(u, v), w) == fw.mul(u, fw.mul(v, w))
        for u, v, w in (
            (random_word(rng, 3, 12), random_word(rng, 3, 12), random_word(rng, 3, 12))
            for _ in range(1000)
        )
    )

    ok_inverse = True
    for _ in range(1000):
        w = random_word(rng, 3, 16)
        if fw.mul(w, fw.inv(w)) != fw.empty() or fw.mul(fw.inv(w), w) != fw.empty():
            ok_inverse = False
            break

    ok_ab = True
    for _ in range(1000):
        u, v = random_word(rng, 3, 16), random_word(rng, 3, 16)
        expected = tuple(
            a + b for a, b in zip(fw.ab_vector(u, 3), fw.ab_vector(v, 3))
        )
        if fw.ab_vector(fw.mul(u, v), 3) != expected:
            ok_ab = False
            break

    criterion(
        8,
        "reduction idempotence, associativity, inverse laws, and the "
        "abelianization homomorphism hold on 1000 randomized cases each",
        ok_idempotent and ok_assoc and ok_inverse and ok_ab,
    )
