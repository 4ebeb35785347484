from fractions import Fraction

import pytest

from autgeom import linalg


def F(x):
    return Fraction(x)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


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
        assert x is not None and linalg.dot(a[0], x) == 5

    def test_kernel_of_projection(self):
        a = frac_matrix([[1, 0, 0], [0, 1, 0]])
        k = linalg.kernel(a)
        assert k == [[F(0), F(0), F(1)]]

    def test_kernel_orthogonal_to_rows(self):
        a = frac_matrix([[1, 2, 3], [4, 5, 6]])
        for v in linalg.kernel(a):
            for row in a:
                assert linalg.dot(row, v) == 0


class TestProjection:
    def test_onto_diagonal(self):
        p = linalg.project_onto_span([[1, 1, 1]], [1, 0, 0])
        assert p == [Fraction(1, 3)] * 3

    def test_empty_basis(self):
        assert linalg.project_onto_span([], [1, 2]) == [F(0), F(0)]

    def test_idempotent_and_orthogonal(self):
        basis = [[1, 0, 1], [0, 2, 0]]
        t = [3, 5, 7]
        p = linalg.project_onto_span(basis, t)
        again = linalg.project_onto_span(basis, p)
        assert again == p
        residual = [F(a) - b for a, b in zip(t, p)]
        for u in basis:
            assert linalg.dot(u, residual) == 0


class TestPrimitiveInteger:
    def test_clears_denominators(self):
        assert linalg.primitive_integer([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]

    def test_divides_gcd_and_fixes_sign(self):
        assert linalg.primitive_integer([F(-4), F(-6)]) == [2, 3]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            linalg.primitive_integer([F(0), F(0)])
