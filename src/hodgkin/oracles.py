"""Independent rational cross-checks for low-rank runs.

The main engine builds the flag module out of a certified monomial
basis, exact integer inverses, and Demazure pairings.  The oracle here
takes none of that machinery on trust: it substitutes ``t_j = 1 + u_j``,
works in rational power series truncated past a fixed total degree (the
number of positive roots), carves the relator ideal out by plain row
reduction over Fractions, and reads the quotient dimension and the
multiplication-by-``t_i`` operators directly off the series algebra.
Quotient dimension and characteristic polynomials are then comparable
with the integer engine's operators, exactly, over the rationals.

Everything is stdlib: dense lists of Fractions, and of Python integers
for the characteristic polynomial, no shared linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from math import comb, lcm
from operator import mul

from .errors import DefectError
from .laurent import LaurentPoly


def _monomials(nvars: int, cutoff: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= cutoff, by (degree, lex)."""
    out = [exps for exps in cartesian_product(range(cutoff + 1), repeat=nvars)
           if sum(exps) <= cutoff]
    out.sort(key=lambda exps: (sum(exps), exps))
    return out


def _binomial_series(power: int, cutoff: int) -> list[int]:
    """Coefficients of (1 + u)^power up to u^cutoff, negative powers included."""
    if power >= 0:
        return [comb(power, r) if r <= power else 0 for r in range(cutoff + 1)]
    k = -power
    return [(-1) ** r * comb(k + r - 1, r) for r in range(cutoff + 1)]


def _series_multiply(a: dict, b: dict, cutoff: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            if sum(key) > cutoff:
                continue
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def laurent_series(f: LaurentPoly, cutoff: int) -> dict:
    """Power-series expansion of a Laurent polynomial at t_j = 1 + u_j,
    truncated past total degree ``cutoff``.  Integer coefficients."""
    n = f.nvars
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.sorted_terms():
        term = {tuple(0 for _ in range(n)): coeff}
        for j, power in enumerate(exps):
            if power == 0:
                continue
            col = _binomial_series(power, cutoff)
            factor = {}
            for r, c in enumerate(col):
                if c:
                    key = tuple(r if jj == j else 0 for jj in range(n))
                    factor[key] = c
            term = _series_multiply(term, factor, cutoff)
        for key, val in term.items():
            total = out.get(key, 0) + val
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return out


@dataclass(eq=False)
class SeriesQuotient:
    """The truncated series algebra modulo the relator ideal.

    ``basis`` is the quotient's monomial basis (the non-pivot columns of
    the reduced ideal span); ``mult_ops[i]`` is multiplication by
    ``t_i = 1 + u_i`` on that basis, a square matrix of Fractions stored
    as nested lists, column per basis element.
    """

    basis: list[tuple[int, ...]]
    mult_ops: list[list[list[Fraction]]]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns surviving rows and pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    reduced: list[list[Fraction]] = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        hit = None
        for idx, row in enumerate(rows):
            if row[col] != 0:
                hit = idx
                break
        if hit is None:
            continue
        row = rows.pop(hit)
        inv = Fraction(1, 1) / row[col]
        row = [x * inv for x in row]
        for other in rows:
            if other[col] != 0:
                f = other[col]
                for j in range(col, width):
                    other[j] -= f * row[j]
        for other in reduced:
            if other[col] != 0:
                f = other[col]
                for j in range(col, width):
                    other[j] -= f * row[j]
        reduced.append(row)
        pivots.append(col)
        rows = [r for r in rows if any(x != 0 for x in r)]
    return reduced, pivots


def truncated_quotient(relators, nvars: int, cutoff: int) -> SeriesQuotient:
    """Quotient of the truncated series algebra by the relator ideal.

    The ideal's image in the truncation is spanned by every product of a
    relator series with a monomial of degree <= cutoff; row reduction
    over the rationals finds that span, the complement of its pivot
    monomials is the quotient basis, and multiplication operators come
    from reducing ``(1 + u_i) * basis monomial`` against the span.
    """
    monomials = _monomials(nvars, cutoff)
    index = {mono: k for k, mono in enumerate(monomials)}
    width = len(monomials)

    def densify(series: dict) -> list[Fraction]:
        row = [Fraction(0)] * width
        for exps, coeff in series.items():
            row[index[exps]] = Fraction(coeff)
        return row

    rel_series = [laurent_series(rel, cutoff) for rel in relators]
    rows = []
    for series in rel_series:
        for mono in monomials:
            shifted = _series_multiply(series, {mono: 1}, cutoff)
            if shifted:
                rows.append(densify(shifted))
    reduced, pivots = _row_reduce(rows)
    pivot_set = set(pivots)
    basis = [mono for k, mono in enumerate(monomials) if k not in pivot_set]
    basis_index = {mono: k for k, mono in enumerate(basis)}

    def reduce_vector(row: list[Fraction]) -> list[Fraction]:
        row = list(row)
        for prow, pcol in zip(reduced, pivots):
            if row[pcol] != 0:
                f = row[pcol]
                for j in range(pcol, width):
                    row[j] -= f * prow[j]
        coords = [Fraction(0)] * len(basis)
        for k, val in enumerate(row):
            if val != 0:
                coords[basis_index[monomials[k]]] = val
        return coords

    mult_ops = []
    for i in range(nvars):
        unit_shift = {tuple(0 for _ in range(nvars)): 1,
                      tuple(int(j == i) for j in range(nvars)): 1}
        columns = []
        for mono in basis:
            product = _series_multiply(unit_shift, {mono: 1}, cutoff)
            columns.append(reduce_vector(densify(product)))
        op = [[columns[c][r] for c in range(len(basis))] for r in range(len(basis))]
        mult_ops.append(op)
    return SeriesQuotient(basis=basis, mult_ops=mult_ops)


def charpoly(matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial, highest power first, exact.

    Accepts any square array-like of integers or rationals (numpy arrays
    included).  A = B / d, d the lcm of the denominators; Faddeev–LeVerrier
    runs on the integer B, N_k = B (N_{k-1} + e_{k-1} I) and e_k =
    -tr(N_k) / k with each division checked exact, and c_k = e_k / d^k.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    d = lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    coeffs = [1]
    nk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # nk <- b @ (nk + e_{k-1} I)
        for r in range(n):
            nk[r][r] += coeffs[-1]
        cols = list(zip(*nk))
        nk = [[sum(map(mul, row, col)) for col in cols] for row in b]
        ek, rem = divmod(-sum(nk[r][r] for r in range(n)), k)
        if rem:
            raise DefectError(f"Faddeev-LeVerrier trace not divisible by {k}")
        coeffs.append(ek)
    return tuple(Fraction(e, d ** k) for k, e in enumerate(coeffs))
