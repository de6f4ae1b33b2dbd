import random
from fractions import Fraction

import numpy as np
import pytest

from hodgkin import cartan, flagk, laurent, oracles
from hodgkin.laurent import LaurentPoly


def test_geometric_series_coefficients():
    # 1/(1+u) = 1 - u + u^2 - ...
    assert oracles._binomial_series(-1, 4) == [1, -1, 1, -1, 1]
    # (1+u)^2, truncated past its degree
    assert oracles._binomial_series(2, 4) == [1, 2, 1, 0, 0]
    # 1/(1+u)^2 = 1 - 2u + 3u^2 - ...
    assert oracles._binomial_series(-2, 3) == [1, -2, 3, -4]


def test_laurent_series_of_inverse_monomial():
    f = LaurentPoly.monomial((-1,))
    series = oracles.laurent_series(f, 3)
    assert series == {(0,): 1, (1,): -1, (2,): 1, (3,): -1}


def test_laurent_series_is_multiplicative():
    rng = random.Random(51)
    cutoff = 4
    for _ in range(15):
        f = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(2)),
                                 rng.randint(-4, 4))
        g = LaurentPoly.monomial(tuple(rng.randint(-2, 2) for _ in range(2)),
                                 rng.randint(-4, 4))
        lhs = oracles.laurent_series(f * g, cutoff)
        rhs = oracles._series_multiply(oracles.laurent_series(f, cutoff),
                                       oracles.laurent_series(g, cutoff),
                                       cutoff)
        assert lhs == rhs


def test_row_reduce_finds_pivots():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    reduced, pivots = oracles._row_reduce(rows)
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(2)]


def test_quotient_by_single_shifted_relator():
    # t - 2 + 1/t expands to u^2/(1+u): the quotient is rank 2
    rel = (LaurentPoly.monomial((1,)) - 2) + LaurentPoly.monomial((-1,))
    quo = oracles.truncated_quotient([rel], 1, cutoff=2)
    assert quo.dim == 2
    assert oracles.charpoly(quo.mult_ops[0]) == \
        (Fraction(1), Fraction(-2), Fraction(1))


def test_quotient_dimension_matches_weyl_order():
    for name in ("A1", "A2", "A1xA1"):
        datum = cartan.build_root_datum(cartan.parse_type(name))
        weyl = cartan.generate_weyl(datum)
        chars = laurent.fundamental_characters(datum, weyl)
        cutoff = len(cartan.positive_roots(datum))
        quo = oracles.truncated_quotient(chars.relators, datum.rank, cutoff)
        assert quo.dim == weyl.order, name


def test_quotient_multiplication_matches_module(pipeline):
    # same operators, two very different constructions
    run = pipeline("A2")
    cutoff = len(cartan.positive_roots(run.datum))
    quo = oracles.truncated_quotient(run.chars.relators, 2, cutoff)
    for series_op, matrix in zip(quo.mult_ops, run.module.mult_matrices):
        assert oracles.charpoly(series_op) == \
            oracles.charpoly(np.array(matrix, dtype=object))


def test_charpoly_goldens():
    ident = np.eye(3, dtype=object)
    assert oracles.charpoly(ident) == \
        (Fraction(1), Fraction(-3), Fraction(3), Fraction(-1))
    companion = np.array([[0, 1], [1, 1]], dtype=object)
    assert oracles.charpoly(companion) == \
        (Fraction(1), Fraction(-1), Fraction(-1))
    with pytest.raises(ValueError):
        oracles.charpoly(np.zeros((2, 3), dtype=object))


def test_charpoly_constant_term_is_signed_determinant():
    rng = random.Random(52)
    from hodgkin import linalg
    for _ in range(10):
        n = rng.randint(1, 4)
        a = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)], dtype=object)
        coeffs = oracles.charpoly(a)
        assert coeffs[-1] == Fraction((-1) ** n * linalg.det_exact(a))


def _fraction_charpoly(matrix):
    """Faddeev–LeVerrier over Fractions, the reference for the integer
    recursion."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        shifted = [[mk[r][c] + (coeffs[-1] if r == c else 0) for c in range(n)]
                   for r in range(n)]
        mk = [[sum(a[r][t] * shifted[t][c] for t in range(n)) for c in range(n)]
              for r in range(n)]
        coeffs.append(-sum(mk[r][r] for r in range(n)) / k)
    return tuple(coeffs)


def test_charpoly_matches_fraction_recursion():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 5)
        mixed = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
                  for _ in range(n)] for _ in range(n)]
        assert oracles.charpoly(mixed) == _fraction_charpoly(mixed)
        huge = np.array([[rng.choice((1, -1)) * rng.randint(2 ** 63, 2 ** 70)
                          for _ in range(n)] for _ in range(n)], dtype=object)
        assert oracles.charpoly(huge) == _fraction_charpoly(huge.tolist())
    assert oracles.charpoly(np.zeros((0, 0), dtype=object)) == (Fraction(1),)
    assert oracles.charpoly([]) == _fraction_charpoly([]) == (Fraction(1),)
    with pytest.raises(ValueError, match="square"):
        oracles.charpoly([[Fraction(1, 2), 3]])
