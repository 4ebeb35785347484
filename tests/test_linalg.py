from collections import namedtuple
from fractions import Fraction

from autgeom import linalg


def F(x):
    return Fraction(x)


def dot(u, v):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


# Dense reference: textbook Gauss-Jordan on full Fraction rows, the
# oracle for the cycle walks behind kernel and solve.


def dense_rref(a):
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = 1 / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_kernel(a):
    cols = len(a[0]) if a else 0
    m, pivots = dense_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        basis.append(v)
    return basis


def dense_solve(a, b):
    cols = len(a[0]) if a else 0
    m, pivots = dense_rref([row + [F(y)] for row, y in zip(a, b)])
    if cols in pivots:
        return None
    x = [F(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols]
    return x


# kernel and solve read only these three fields of a flats.AffineIsometry.
Perm = namedtuple("Perm", "block_dim source signs")


def random_perm(rng):
    """A signed block permutation of 1 to 8 blocks of 1 to 3 coordinates:
    fixed blocks of either sign, and cycles of either sign product."""
    blocks = rng.randint(1, 8)
    source = list(range(blocks))
    rng.shuffle(source)
    return Perm(rng.randint(1, 3), tuple(source),
                tuple(rng.choice((1, -1)) for _ in range(blocks)))


def o_minus_i(g):
    """The dense rows of O - I: output block i is signs[i] times input
    block source[i]."""
    k = g.block_dim
    n = k * len(g.source)
    a = [[F(0)] * n for _ in range(n)]
    for i, (src, sign) in enumerate(zip(g.source, g.signs)):
        for j in range(k):
            a[i * k + j][src * k + j] += sign
            a[i * k + j][i * k + j] -= 1
    return a


def cycles(g):
    """Each block cycle as (blocks, sign product)."""
    out, seen = [], set()
    for start in range(len(g.source)):
        blocks, product, i = [], 1, start
        while i not in seen:
            seen.add(i)
            blocks.append(i)
            product *= g.signs[i]
            i = g.source[i]
        if blocks:
            out.append((blocks, product))
    return out


def half_integer_coordinates(g):
    """The coordinates on cycles of sign product -1."""
    k = g.block_dim
    return {i * k + j for blocks, product in cycles(g) if product == -1
            for i in blocks for j in range(k)}


def kernel_vectors(g):
    """The entries of linalg.kernel as {coordinate: +-1} vectors, one per
    cycle of sign product +1 and block coordinate."""
    k = g.block_dim
    return [{i * k + j: s for i, s in zip(blocks, sigmas)}
            for blocks, sigmas in linalg.kernel(g) for j in range(k)]


def dense(u, n):
    return [u.get(c, 0) for c in range(n)]


def doubled(x):
    """Twice a dense solution, as solve returns it; None stays None."""
    return None if x is None else [2 * v for v in x]


def check_entries(g, y):
    """y, twice a solution, is all ints, and odd only on the cycles of
    sign product -1, where the solution may have halves."""
    halves = half_integer_coordinates(g)
    assert all(type(v) is int and (v % 2 == 0 or c in halves) for c, v in enumerate(y))


class TestSolveKernel:
    def test_unique_solution(self):
        # A 2-cycle of sign product -1 fixes only 0: O - I is invertible.
        g = Perm(1, (1, 0), (1, -1))
        assert linalg.kernel(g) == []
        assert linalg.solve(g, [4, 9]) == [-13, -5]
        assert dense_solve(o_minus_i(g), [4, 9]) == [Fraction(-13, 2), Fraction(-5, 2)]

    def test_inconsistent(self):
        # On a cycle of sign product +1 the signed sum of b must vanish.
        g = Perm(1, (1, 2, 0), (1, -1, -1))
        assert linalg.solve(g, [1, 0, 0]) is None
        assert linalg.solve(Perm(1, (0,), (1,)), [1]) is None

    def test_underdetermined(self):
        g = Perm(1, (1, 2, 0), (1, -1, -1))
        a = o_minus_i(g)
        b = [int(dot(row, [3, -1, 4])) for row in a]
        y = linalg.solve(g, b)
        assert all(type(v) is int for v in y)
        assert [dot(row, y) for row in a] == doubled(b)
        assert y[2] == 0  # the largest block of the cycle

    def test_kernel_of_projection(self):
        # O reflects the first two coordinates: O - I is -2 times the
        # projection onto them.
        assert linalg.kernel(Perm(1, (0, 1, 2), (-1, -1, 1))) == [([2], (1,))]
        assert kernel_vectors(Perm(1, (0, 1, 2), (-1, -1, 1))) == [{2: 1}]

    def test_kernel_orthogonal_to_rows(self, rng):
        for _ in range(100):
            g = random_perm(rng)
            a = o_minus_i(g)
            for u in kernel_vectors(g):
                v = dense(u, len(a))
                for row in a:
                    assert dot(row, v) == 0


class TestAgainstDenseReference:
    CASES = 300

    def test_kernel(self, rng):
        seen = set()
        for _ in range(self.CASES):
            g = random_perm(rng)
            a = o_minus_i(g)
            kern = kernel_vectors(g)
            assert {tuple(dense(u, len(a))) for u in kern} == {
                tuple(v) for v in dense_kernel(a)}
            assert len(kern) == len(dense_kernel(a))
            # Disjoint supports of +-1 entries.
            support = [c for u in kern for c in u]
            assert len(support) == len(set(support))
            assert all(x in (1, -1) for u in kern for x in u.values())
            seen |= {(len(blocks) > 1, product) for blocks, product in cycles(g)}
        assert seen == {(False, 1), (False, -1), (True, 1), (True, -1)}

    def test_solve(self, rng):
        outcomes = set()
        for _ in range(self.CASES):
            g = random_perm(rng)
            a = o_minus_i(g)
            if rng.random() < 0.5:
                # b in the image of O - I: always consistent.
                x = [rng.randint(-5, 5) for _ in a]
                b = [int(dot(row, x)) for row in a]
            else:
                b = [rng.randint(-5, 5) for _ in a]
            expected = dense_solve(a, b)
            outcomes.add(expected is None)
            y = linalg.solve(g, b)
            assert y == doubled(expected)
            assert y is None or all(type(v) is int for v in y)
        assert outcomes == {True, False}

    def test_integer_input(self, rng):
        # Integer right-hand sides give ints: twice the solution, whose
        # entries on cycles of sign product -1, closing on a pivot of 2,
        # can be halves.  No float or Fraction may appear in any result.
        halves = 0
        for _ in range(self.CASES):
            g = random_perm(rng)
            a = o_minus_i(g)
            for u in kernel_vectors(g):
                assert all(type(x) is int for x in u.values())
            x = [rng.randint(-4, 4) for _ in a]
            b = [int(dot(row, x)) for row in a] if rng.random() < 0.5 else [
                rng.randint(-4, 4) for _ in a]
            sol = linalg.solve(g, b)
            assert sol == doubled(dense_solve(a, b))
            if sol is not None:
                check_entries(g, sol)
                halves += any(v % 2 for v in sol)
        assert halves > 0


class TestIntegerEntries:
    def test_fixed_non_unit_pivots(self):
        # A block that O negates: (O - I) x = -2 x.
        # The solutions are -1/2 and (-1/2, -2); solve returns them doubled.
        assert linalg.solve(Perm(1, (0,), (-1,)), [1]) == [-1]
        assert linalg.solve(Perm(2, (0,), (-1,)), [1, 4]) == [-1, -4]
        # A 3-cycle of sign product -1 closes on a pivot of 2 as well.
        g = Perm(1, (1, 2, 0), (1, 1, -1))
        assert linalg.kernel(g) == []
        assert dense_solve(o_minus_i(g), [1, 0, 0]) == [
            Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)]
        assert linalg.solve(g, [1, 0, 0]) == [-1, 1, 1]

    def test_unit_pivots_keep_integers(self, rng):
        # O - I for a signed permutation whose cycles all have sign
        # product +1: every pivot is +-1, so kernel and solution stay ints.
        for _ in range(50):
            g = random_perm(rng)
            signs = list(g.signs)
            for blocks, product in cycles(g):
                if product == -1:
                    signs[blocks[0]] = -signs[blocks[0]]
            g = g._replace(signs=tuple(signs))
            a = o_minus_i(g)
            kern = kernel_vectors(g)
            assert all(type(x) is int for u in kern for x in u.values())
            assert {tuple(dense(u, len(a))) for u in kern} == {
                tuple(v) for v in dense_kernel(a)}
            x = [rng.randint(-4, 4) for _ in a]
            b = [int(dot(row, x)) for row in a]
            sol = linalg.solve(g, b)
            assert all(type(y) is int for y in sol)
            assert sol == doubled(dense_solve(a, b))
