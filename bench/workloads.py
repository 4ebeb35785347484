"""Seeded request lists for the three benchmark workloads.

A request is a dict with the CLI ``argv`` and the known answer
``expect`` (from ``oracle``, never from autgeom).  Each workload has a fixed template of request slots:
the seed chooses every parameter inside a slot (signs, words, lattice
bases, rotations, scalings, order), while the slot's size class stays
fixed, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

WORKLOADS = ("algebra", "geometry")

# The cheapest request of each workload, timed as a cold ``python -m autgeom``.
CHEAPEST = {
    "algebra": ["inner-gpq", "--p", "1", "--q", "2"],
    "geometry": ["check-octo", "--u1", "1,1,0", "--u2", "1,-1,0",
                 "--v1", "1,0,1", "--v2", "1,0,-1"],
}


def _req(kind, argv, expect, size=0, **extra):
    """``size`` orders requests of one kind by cost, for the smoke mode."""
    expect = {"kind": kind, "exit": 0, **expect}
    return {"kind": kind, "argv": [str(a) for a in argv], "expect": expect,
            "size": size, **extra}


def _error(argv, **extra):
    """A malformed request: exit 2, from argparse or a precondition."""
    return _req("error", argv, {"exit": 2}, **extra)


# ---------------------------------------------------------------------------
# algebra: words, automorphisms, the cover representation and the Sanov
# short-relation search.
# ---------------------------------------------------------------------------

# Hyperbolic products conjugated by one involution; at power k they all
# have the same image length (1598, 4182, 10947 and 28658 letters for
# k = 7..10).  The seed picks product and conjugator for powers 7 and 9.
# The two largest requests, which dominate the time of a pass, keep one
# fixed expression so that throughput compares across seeds, and so do
# the three at power 8, which hold the p90 of the request times: with a
# seeded expression their time varies by a quarter from seed to seed.
GL_BASES = ("L21 R12", "R12 L21", "L21^-1 R12^-1", "R21^-1 L12^-1", "L21 R12 E3")
GL_CONJUGATORS = ("E1", "E2", "P12")
GL_POWERS = (7,) * 8 + (9,) * 2
GL_FIXED = ("P12 L21 R12 P12", (8, 8, 8, 10, 10))


def _random_word(rng, rank, length):
    word = []
    while len(word) < length:
        x = rng.randint(1, rank) * rng.choice((1, -1))
        if not word or word[-1] != -x:
            word.append(x)
    return word


def _word_text(rng, word):
    """Render a word in the grammar, mixing ``A2`` and ``a2^-1`` forms
    and splitting runs at random."""
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j + 1 < len(word) and word[j + 1] == word[i] and rng.random() < 0.7:
            j += 1
        n = (j - i + 1) * (1 if word[i] > 0 else -1)
        g = abs(word[i])
        if n == 1:
            parts.append(f"a{g}")
        elif n == -1:
            parts.append(rng.choice((f"A{g}", f"a{g}^-1")))
        else:
            parts.append(f"a{g}^{n}")
        i = j + 1
    return " ".join(parts)


def _gpq(rng, length, pm, qm):
    n = rng.randint(4, 8)
    p, q = pm * rng.choice((1, -1)), qm * rng.choice((1, -1))
    w = _random_word(rng, n - 2, length)
    text = _word_text(rng, w)

    def power(word, k):
        return oracle.reduce_word((word if k > 0 else oracle.invert(word)) * abs(k))

    t = {
        f"a{n - 1}": oracle.format_word(oracle.reduce_word([n - 1] + power(w, p))),
        f"a{n}": oracle.format_word(oracle.reduce_word([n] + power(w, q))),
    }
    return _req("gpq", ["gpq", "--n", n, "--p", p, "--q", q, "--w", text],
                {"t": t, "check": "t-commutes-with-alpha", "failing": []},
                size=length * (pm + qm))


def _inner_gpq(rng):
    p = rng.randint(1, 20) * rng.choice((1, -1))
    q = rng.randint(1, 20) * rng.choice((1, -1))
    t = {
        "a2": oracle.format_word(oracle.reduce_word([2] + [1 if p > 0 else -1] * abs(p))),
        "a3": oracle.format_word(oracle.reduce_word([3] + [1 if q > 0 else -1] * abs(q))),
    }
    return _req("inner-gpq", ["inner-gpq", "--p", p, "--q", q],
                {"t": t, "check": "t-commutes-with-inner-a1", "failing": []})


def _lk_basis(rng):
    k = rng.randint(2, 40)
    words = [oracle.format_word(oracle.reduce_word([1] * i + [2] + [-1] * i))
             for i in range(k - 1)]
    words.append(oracle.format_word([1] * (k - 1)))
    return _req("lk-basis", ["lk-basis", "--k", k], {"words": words, "failing": []})


def _gl_rep(rng, power, expr=None):
    if expr is None:
        sigma = rng.choice(GL_CONJUGATORS)
        expr = f"{sigma} {rng.choice(GL_BASES)} {sigma}"
    tokens = oracle.parse_tokens(expr)
    images = oracle.expression_images(tokens, power)
    assert oracle.stabilizes(images)
    digest = oracle.images_digest(oracle.format_word(w) for w in images)
    return _req("gl-rep", ["gl-rep", expr, "--power", power],
                {"mu": oracle.mu_of(tokens, power), "images": digest, "failing": []},
                size=power)


def _verify_relations(mode, inject):
    argv = ["verify-relations", "--mode", mode] + (["--inject-fault"] if inject else [])
    expect = {"exit": 1, "failing": ["injected-fault"]} if inject else {"failing": []}
    return _req("verify-relations", argv, expect)


ALGEBRA_ERRORS = (
    ["gpq", "--n", "4", "--p", "1", "--q", "2", "--w", "a1 b2"],
    ["gpq", "--n", "2", "--p", "1", "--q", "2", "--w", "a1"],
    ["gl-rep", "L13"],
    ["gl-rep", "L21 Q12"],
    ["inner-gpq", "--p", "3"],
    ["lk-basis", "--k", "1"],
    ["inner-gpq", "--p", "0", "--q", "1"],
    ["sanov", "--power", "0"],
    ["sanov", "--max-len", "ten"],
    ["sanov", "--power", "2", "--depth", "3"],
)


def algebra(rng):
    reqs = [_verify_relations(mode, False) for mode in ("aut", "out") * 6]
    reqs += [_verify_relations(mode, True) for mode in ("aut", "out", "out")]
    for length in range(20, 300, 14):
        # |p|, |q| <= 20, smaller for long words, so every gpq request
        # stays cheaper than the smallest gl-rep class.
        cap = max(1, min(20, 1000 // length))
        reqs.append(_gpq(rng, length, rng.randint(1, cap), rng.randint(1, cap)))
    reqs += [_inner_gpq(rng) for _ in range(12)]
    reqs += [_lk_basis(rng) for _ in range(12)]
    reqs += [_gl_rep(rng, k) for k in GL_POWERS]
    reqs += [_gl_rep(rng, k, GL_FIXED[0]) for k in GL_FIXED[1]]
    reqs += sanov_search(rng)
    reqs += [_error(argv) for argv in rng.sample(ALGEBRA_ERRORS, 5)]
    return reqs


# ---------------------------------------------------------------------------
# geometry: lattices, Voronoi cells and the flat model.
# ---------------------------------------------------------------------------

LATTICES = {
    "fcc": [(1, 1, 0), (1, -1, 0), (1, 0, 1)],
    "cube": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "bcc": [(1, 1, 1), (1, -1, -1), (-1, 1, -1)],
    # A triangular layer in the plane x + y + z = 0 stacked along (1,1,1).
    "hexagonal": [(1, -1, 0), (0, 1, -1), (2, 2, 2)],
    # Body-centred orthorhombic with axes 5 : 6 : 7, which keeps all six
    # Selling parameters positive.
    "generic": [(5, 6, 7), (5, -6, -7), (-5, 6, -7)],
}
# Primitive integer quaternions grouped by norm; the norm fixes the
# denominator of the rotation, so it is the slot's size class.
QUATERNIONS = {
    3: [(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)],
    11: [(3, 1, 1, 0), (1, 3, 0, 1), (1, 1, 3, 0), (0, 1, 1, 3)],
}
VORONOI_SLOTS = [(t, n) for t in LATTICES for n in QUATERNIONS]


def _unimodular(rng):
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _voronoi(rng, ltype, qnorm, out_dir):
    base = LATTICES[ltype]
    if ltype == "generic":
        assert oracle.selling_zeros(base) == 0
    u = _unimodular(rng)
    gens = [[sum(u[i][k] * base[k][c] for k in range(3)) for c in range(3)]
            for i in range(3)]
    if rng.random() < 0.5:  # a redundant fourth generator
        x, y = rng.randint(-2, 2), rng.randint(-2, 2)
        gens.append([x * a + y * b for a, b in zip(gens[0], gens[1])])
    rot = oracle.rotation(rng.choice(QUATERNIONS[qnorm]))
    scale = Fraction(rng.choice((2, 3, 5, 7)), rng.choice((3, 4, 5, 7)))
    vecs = [[scale * sum(rot[r][c] * g[c] for c in range(3)) for r in range(3)]
            for g in gens]
    text = ";".join(",".join(oracle.fraction_text(c) for c in v) for v in vecs)
    expect = {
        "f_vector": oracle.F_VECTORS[ltype],
        "volume": oracle.fraction_text(oracle.covolume(vecs)),
        "failing": [],
    }
    if ltype == "fcc":
        expect["is_rhombic_dodecahedron"] = True
    if ltype == "cube":
        expect["is_cube"] = True
    argv = ["voronoi", f"--gens={text}"]
    if out_dir is not None:
        path = f"{out_dir}/cell-{rng.randrange(10 ** 6)}.off"
        argv += ["--out", path]
        expect["off"] = path
    return _req("cell", argv, expect, size=qnorm)


def _nielsen_flat(rng):
    s = rng.randint(1, 6)
    expect = {"f_vector": oracle.F_VECTORS["fcc"], "is_rhombic_dodecahedron": True,
              "volume": oracle.fraction_text(oracle.covolume(
                  [[Fraction(c * s) for c in v] for v in LATTICES["fcc"]])),
              "failing": []}
    return _req("cell", ["nielsen-flat", "--scale", s], expect, size=20)


def _octo(rng, passing):
    s = rng.randint(1, 4)
    # Rhombic-dodecahedral quadruples: signed permutations of
    # (s,s,0)-type vectors satisfying the three conditions.
    perm = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]

    def place(v):
        return [signs[k] * v[perm[k]] for k in range(3)]

    quad = [place(v) for v in ((s, s, 0), (s, -s, 0), (s, 0, s), (s, 0, -s))]
    if not passing:
        k = rng.randrange(4)
        quad[k] = [c * 2 for c in quad[k]] if rng.random() < 0.5 else place((s, 0, 0))
    u1, u2, v1, v2 = quad

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    norms = [dot(v, v) for v in quad]
    verdicts = {
        "equal-nonzero-norms": len(set(norms)) == 1 and norms[0] != 0,
        "sum-condition": [a + b for a, b in zip(u1, u2)] == [a + b for a, b in zip(v1, v2)],
        "pair-orthogonality": dot(u1, u2) == 0 and dot(v1, v2) == 0,
        "difference-orthogonality": dot([a - b for a, b in zip(u1, u2)],
                                        [a - b for a, b in zip(v1, v2)]) == 0,
    }
    failing = sorted(k for k, ok in verdicts.items() if not ok)
    names = ("--u1", "--u2", "--v1", "--v2")
    argv = ["check-octo"]
    for name, v in zip(names, quad):
        argv.append(f"{name}=" + ",".join(map(str, v)))
    return _req("check-octo", argv, {"exit": 1 if failing else 0, "failing": failing})


def _lemma_pq(rng):
    dim = rng.randint(1, 4)
    tau = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
    p, q = rng.sample([k for k in range(-9, 10) if k], 2)
    text = ",".join(oracle.fraction_text(c) for c in tau)
    return _req("lemma-pq", ["lemma-pq", f"--tau={text}", "--p", p, "--q", q],
                {"eliminant": p * q * (p - q), "failing": []})


# The time of ``induce`` depends on d alone.  The three requests at d 34
# hold the p80 of the request times; without them it falls among cells
# whose seeded bases make their time vary from seed to seed.
INDUCE_DS = (2, 6, 12, 18, 24, 34, 34, 34, 36, 42, 48)


def _induce(rng, d):
    ell = Fraction(rng.randint(1, 99), rng.randint(1, 12))
    return _req("induce", ["induce", "--d", d, "--ell", oracle.fraction_text(ell)],
                {"length_sq": oracle.fraction_text(ell * ell / d), "failing": []},
                size=d)


GEOMETRY_ERRORS = (
    ["voronoi", "--gens", "1,2"],
    ["induce", "--d", "0", "--ell", "1"],
    ["nielsen-flat", "--scale", "0"],
    ["lemma-pq", "--tau", "1,0", "--p", "2", "--q", "2"],
    ["check-octo", "--u1", "1,1,0", "--u2", "1,-1,0", "--v1", "1,0,1"],
)


def known_crashers(out_dir):
    """Inputs the CLI contract maps to exit 2 that crash today instead."""
    return [
        _error(["voronoi", "--gens", "0,0,0"], known_defect=True),
        _error(["voronoi", "--gens", "1,1,0;1,-1,0;1,0,1;1,0,-1",
                "--precision", "-3", "--out", f"{out_dir}/crash.off"],
               known_defect=True),
    ]


def geometry(rng, out_dir):
    with_out = set(rng.sample(range(len(VORONOI_SLOTS)), 3))
    reqs = [_voronoi(rng, t, n, out_dir if i in with_out else None)
            for i, (t, n) in enumerate(VORONOI_SLOTS)]
    reqs += [_nielsen_flat(rng) for _ in range(3)]
    reqs += [_induce(rng, d) for d in INDUCE_DS]
    # Enough cheap requests that the median falls among them, away from
    # the spread-out costs of the cells.
    reqs += [_octo(rng, i < 9) for i in range(14)]
    reqs += [_lemma_pq(rng) for _ in range(10)]
    reqs += [_error(argv) for argv in rng.sample(GEOMETRY_ERRORS, 2)]
    reqs += known_crashers(out_dir)
    return reqs


# ---------------------------------------------------------------------------
# The Sanov short-relation search, the only exponential path.
# ---------------------------------------------------------------------------

# max-len -> count.  Powers with |p| >= 2 search all 2 (3^L - 1) reduced
# words; powers +-1 stop at the length-6 braid relation.
EXHAUSTIVE = {8: 3, 9: 3, 10: 3, 11: 2}
EARLY_EXIT = {8: 2, 9: 2, 10: 2, 11: 2, 12: 2, 13: 2}


def _sanov(rng, power, max_len):
    exhaustive = abs(power) >= 2
    mats = [[[1, 0], [power, 1]], [[1, power], [0, 1]]]
    return _req("sanov", ["sanov", f"--power={power}", "--max-len", max_len],
                {"exit": 0 if exhaustive else 1, "mats": mats,
                 "failing": [] if exhaustive else ["no-short-relation"]},
                size=max_len)


def sanov_search(rng):
    reqs = []
    for max_len, count in EXHAUSTIVE.items():
        reqs += [_sanov(rng, (2 + i % 2) * rng.choice((1, -1)), max_len)
                 for i in range(count)]
    for max_len, count in EARLY_EXIT.items():
        reqs += [_sanov(rng, rng.choice((1, -1)), max_len) for _ in range(count)]
    return reqs


def probe(out_dir: str) -> list[dict]:
    """One small request per layer entry point, for the per-layer metrics
    of layers a workload never calls.  Run traced only, never timed end
    to end."""
    rng = random.Random("probe")
    return [
        _verify_relations("aut", False),
        _gpq(rng, 20, 1, 2),
        _inner_gpq(rng),
        _lk_basis(rng),
        _gl_rep(rng, 5),
        _sanov(rng, 2, 8),
        _sanov(rng, 1, 8),
        _voronoi(rng, "fcc", 3, out_dir),
        _nielsen_flat(rng),
        _octo(rng, True),
        _lemma_pq(rng),
        _induce(rng, 4),
        _induce(rng, 8),
    ]


def smoke(requests: list[dict]) -> list[dict]:
    """The cheapest request of each kind and expected exit code."""
    best = {}
    for req in requests:
        key = (req["kind"], req["expect"]["exit"], req.get("known_defect", False))
        if key not in best or req["size"] < best[key]["size"]:
            best[key] = req
    return list(best.values())


def build(workload: str, seed: int, out_dir: str) -> list[dict]:
    """The shuffled request list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "algebra":
        reqs = algebra(rng)
    elif workload == "geometry":
        reqs = geometry(rng, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs
