from fractions import Fraction

from autgeom import linalg


def F(x):
    return Fraction(x)


def dot(u, v):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


# Dense reference: textbook Gauss-Jordan on full Fraction rows, the
# oracle for the sparse elimination behind kernel and solve.


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


def random_rational(rng):
    if rng.random() < 0.5:
        return F(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def random_matrix(rng):
    """A random rational matrix, often sparse, rank-deficient, or with
    zero rows and zero columns."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    m = [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        # A combination of two other rows keeps the rank down.
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = random_rational(rng), random_rational(rng)
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [F(0)] * cols
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = F(0)
    return m


def exact(values):
    """True when every entry is an int or a Fraction, never a float."""
    return all(type(x) in (int, Fraction) for x in values)


class TestSolveKernel:
    def test_unique_solution(self):
        a = frac_matrix([[2, 0], [0, 3]])
        assert linalg.solve(a, [4, 9]) == [F(2), F(3)]

    def test_inconsistent(self):
        a = frac_matrix([[1, 1], [1, 1]])
        assert linalg.solve(a, [0, 1]) is None

    def test_underdetermined(self):
        a = frac_matrix([[1, 1, 0]])
        x = linalg.solve(a, [5])
        assert x is not None and dot(a[0], x) == 5

    def test_kernel_of_projection(self):
        a = frac_matrix([[1, 0, 0], [0, 1, 0]])
        k = linalg.kernel(a)
        assert k == [[F(0), F(0), F(1)]]

    def test_kernel_orthogonal_to_rows(self):
        a = frac_matrix([[1, 2, 3], [4, 5, 6]])
        for v in linalg.kernel(a):
            for row in a:
                assert dot(row, v) == 0


class TestAgainstDenseReference:
    CASES = 300

    def test_kernel(self, rng):
        for _ in range(self.CASES):
            a = random_matrix(rng)
            assert linalg.kernel(a) == dense_kernel(a)

    def test_solve(self, rng):
        inconsistent = 0
        for _ in range(self.CASES):
            a = random_matrix(rng)
            if rng.random() < 0.5:
                # b in the column space: always consistent.
                x = [random_rational(rng) for _ in a[0]]
                b = [dot(row, x) for row in a]
            else:
                b = [random_rational(rng) for _ in a]
            expected = dense_solve(a, b)
            inconsistent += expected is None
            assert linalg.solve(a, b) == expected
        assert inconsistent > 0

    def test_integer_input(self, rng):
        # Pivots of 2 and 3, not only units, so that elimination has to
        # scale by a Fraction; no float may appear in any result.
        for _ in range(self.CASES):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3, -3)) for _ in range(cols)]
                 for _ in range(rows)]
            fa = frac_matrix(a)
            kern = linalg.kernel(a)
            assert kern == dense_kernel(fa)
            assert all(exact(v) for v in kern)
            x = [rng.randint(-4, 4) for _ in range(cols)]
            b = [dot(row, x) for row in a] if rng.random() < 0.5 else [
                rng.randint(-4, 4) for _ in a]
            sol = linalg.solve(a, b)
            assert sol == dense_solve(fa, b)
            assert sol is None or exact(sol)


class TestIntegerEntries:
    def test_fixed_non_unit_pivots(self):
        a = [[2, 1, 0], [0, 3, 1]]
        assert linalg.kernel(a) == [[Fraction(1, 6), Fraction(-1, 3), 1]]
        assert linalg.solve(a, [1, 1]) == [Fraction(1, 3), Fraction(1, 3), 0]
        assert linalg.solve([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]

    def test_unit_pivots_keep_integers(self, rng):
        # O - I for a signed permutation whose cycles all have sign
        # product +1: every pivot is +-1, so kernel and solution stay ints.
        for _ in range(50):
            n = rng.randint(1, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            for start in range(n):
                cycle, i = [start], perm[start]
                while i != start:
                    cycle.append(i)
                    i = perm[i]
                if min(cycle) == start and sum(signs[j] < 0 for j in cycle) % 2:
                    signs[start] = -signs[start]
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                a[i][perm[i]] += signs[i]
                a[i][i] -= 1
            kern = linalg.kernel(a)
            assert all(type(x) is int for v in kern for x in v)
            assert kern == dense_kernel(frac_matrix(a))
            x = [rng.randint(-4, 4) for _ in range(n)]
            b = [sum(y * z for y, z in zip(row, x)) for row in a]
            sol = linalg.solve(a, b)
            assert all(type(y) is int for y in sol)
            assert sol == dense_solve(frac_matrix(a), b)

