"""Sparse integer Laurent polynomials on the weight lattice.

A polynomial is a finite integer combination of monomials ``e^lambda``
with ``lambda`` a weight in fundamental-weight coordinates; the i-th
variable ``t_i = e^{omega_i}`` corresponds to the i-th fundamental
weight.  On top of the ring arithmetic this module provides the Weyl
action, Demazure (divided-difference) operators, characters of dominant
weights via the Demazure character formula, and the rewriting of
augmentation-zero elements in terms of ``t_j - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub

import numpy as np

from . import cartan, linalg
from .cartan import Matrix, RootDatum, Vector, WeylGroup
from .errors import DefectError


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples to nonzero integer coefficients.  The
    zero polynomial has an empty table.

    >>> f = LaurentPoly.monomial((1,)) - LaurentPoly.monomial((-1,))
    >>> f.render()
    't1 - t1^-1'
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Vector, int] | None = None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exponents, coeff: int = 1) -> "LaurentPoly":
        exponents = tuple(int(x) for x in exponents)
        return cls(len(exponents), {exponents: int(coeff)})

    # -- ring structure -------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("mixed numbers of variables")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(self.nvars, {(0,) * self.nvars: other})
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return LaurentPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {k: v * other for k, v in self.terms.items()})
        self._check(other)
        # iterate over the smaller factor
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Vector, int] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + va * vb
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {(0,) * self.nvars: other})
        return isinstance(other, LaurentPoly) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Vector, int]]:
        """Terms in canonical (lexicographic) order."""
        return sorted(self.terms.items())

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Canonical human-readable form, stable across runs."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"t{j + 1}" + (f"^{e}" if e != 1 else "")
                for j, e in enumerate(exps) if e != 0
            ]
            body = "*".join(factors)
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, text))
        sign, text = pieces[0]
        out = ("-" if sign == "-" else "") + text
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    __repr__ = render
    __str__ = render


def augmentation(f: LaurentPoly) -> int:
    """Sum of coefficients: the ring map sending every ``t_i`` to 1."""
    return sum(f.terms.values())


def weyl_act(w: Matrix, f: LaurentPoly) -> LaurentPoly:
    """Ring automorphism induced by ``lambda -> w(lambda)`` on exponents."""
    # w is a bijection on exponents, so no two terms collide
    return LaurentPoly(f.nvars, {cartan.mat_vec(w, k): c for k, c in f.terms.items()})


# --- Demazure operators -----------------------------------------------------

def demazure(datum: RootDatum, i: int, f: LaurentPoly) -> LaurentPoly:
    """Divided-difference operator for the i-th simple root (0-based).

    Computes ``(f - e^{-alpha_i} s_i(f)) / (1 - e^{-alpha_i})``; on a
    single monomial the quotient is the geometric string

        e^lambda + e^{lambda-alpha} + ... + e^{s_i(lambda)}      (k >= 0)
        0                                                        (k = -1)
        -(e^{lambda+alpha} + ... + e^{s_i(lambda)-alpha})        (k <= -2)

    where ``k = <lambda, alpha_i^vee>`` is the i-th coordinate.  Each
    string is walked down by -alpha, and every call certifies the
    division exactly in one pass (:func:`_check_demazure_division`).
    """
    alpha = datum.simple_roots[i]
    out: dict[Vector, int] = {}
    for exps, coeff in f.terms.items():
        steps = exps[i] + 1
        if steps < 0:  # the negated string, from its top e^{s_i(lambda)-alpha}
            exps = tuple(x - steps * a for x, a in zip(exps, alpha))
            steps, coeff = -steps, -coeff
        for _ in range(steps):
            out[exps] = out.get(exps, 0) + coeff
            exps = tuple(map(sub, exps, alpha))
    result = LaurentPoly(f.nvars, out)
    _check_demazure_division(datum, i, f, result)
    return result


def _check_demazure_division(datum: RootDatum, i: int, f: LaurentPoly,
                             q: LaurentPoly) -> None:
    """Certify q * (1 - e^{-alpha_i}) == f - e^{-alpha_i} s_i(f).

    One table sums q - e^{-alpha} q - f + e^{-alpha} s_i(f) term by term
    and must end all zero: e^{-alpha} s_i(e^lambda) is
    e^{lambda - (lambda_i + 1) alpha}.
    """
    alpha = datum.simple_roots[i]
    acc: dict[Vector, int] = {}
    for key, coeff in q.terms.items():
        acc[key] = acc.get(key, 0) + coeff
        key = tuple(map(sub, key, alpha))
        acc[key] = acc.get(key, 0) - coeff
    for key, coeff in f.terms.items():
        shift = key[i] + 1
        acc[key] = acc.get(key, 0) - coeff
        key = tuple(x - shift * a for x, a in zip(key, alpha))
        acc[key] = acc.get(key, 0) + coeff
    if any(acc.values()):
        raise DefectError(
            f"inexact divided-difference division for generator {i}"
        )


def demazure_word(datum: RootDatum, word, f: LaurentPoly) -> LaurentPoly:
    """Composite of Demazure operators: the word acts as a composition,
    so the last letter is applied first."""
    for i in reversed(tuple(word)):
        f = demazure(datum, i, f)
    return f


# --- characters -------------------------------------------------------------

def character(datum: RootDatum, weyl: WeylGroup, weight: Vector) -> LaurentPoly:
    """Character of the irreducible with dominant highest weight ``weight``,
    by the Demazure character formula along a reduced word for the longest
    element."""
    if not cartan.is_dominant(weight):
        raise ValueError(f"weight {weight} is not dominant")
    return demazure_word(datum, weyl.longest_word, LaurentPoly.monomial(weight))


@dataclass(frozen=True)
class CharacterSet:
    """Fundamental characters with their dimensions and the shifted
    relators ``chi_i - dim_i`` that cut out the augmentation fiber."""

    chars: tuple[LaurentPoly, ...]
    dims: tuple[int, ...]

    @property
    def relators(self) -> tuple[LaurentPoly, ...]:
        return tuple(chi - d for chi, d in zip(self.chars, self.dims))


def fundamental_characters(datum: RootDatum, weyl: WeylGroup) -> CharacterSet:
    """Characters of all fundamental weights, cross-checked against the
    Weyl dimension formula."""
    chars = []
    dims = []
    n = datum.rank
    for i in range(n):
        omega = tuple(int(j == i) for j in range(n))
        chi = character(datum, weyl, omega)
        d = augmentation(chi)
        expected = weyl_dimension(datum, omega)
        if d != expected:
            raise DefectError(
                f"character dimension mismatch at fundamental weight {i}: "
                f"augmentation {d} vs dimension formula {expected}"
            )
        chars.append(chi)
        dims.append(d)
    return CharacterSet(tuple(chars), tuple(dims))


# --- dimension polynomial ---------------------------------------------------

@lru_cache(maxsize=None)
def _coroot_data(datum: RootDatum):
    coroots = cartan.positive_coroots(datum)
    denominator = 1
    for c in coroots:
        denominator *= sum(c)  # <rho, alpha^vee> = height of the coroot
    return coroots, denominator


def weyl_dimension(datum: RootDatum, weight: Vector) -> int:
    """Dimension of the irreducible with dominant highest weight ``weight``."""
    if not cartan.is_dominant(weight):
        raise ValueError(f"weight {weight} is not dominant")
    return signed_weight_dimension(datum, weight)


@lru_cache(maxsize=1 << 20)
def signed_weight_dimension(datum: RootDatum, weight: Vector) -> int:
    """The Weyl dimension polynomial at an arbitrary (integral) weight:

        prod_{alpha^vee > 0} <weight + rho, alpha^vee> / <rho, alpha^vee>

    For dominant weights this is the irreducible dimension; in general it
    is the signed virtual dimension, vanishing whenever ``weight + rho``
    lies on a wall.  Always an exact integer.
    """
    coroots, denominator = _coroot_data(datum)
    numerator = 1
    for c in coroots:
        factor = sum((x + 1) * cj for x, cj in zip(weight, c))
        if factor == 0:
            return 0
        numerator *= factor
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise DefectError(
            f"dimension polynomial not integral at weight {weight}"
        )
    return quotient


def weight_dimension_grid(datum: RootDatum, left, right) -> np.ndarray:
    """``signed_weight_dimension(datum, left[i] + right[j])`` for all i, j.

    Each factor of the closed form splits as
    <l + r + rho, alpha^vee> = <l + rho, alpha^vee> + <r, alpha^vee>, so
    the linear forms of the left weights (shifted by the coroot heights)
    and of the right ones are taken once, and the product is streamed
    one coroot at a time into a single len(left) x len(right)
    accumulator; no tensor of all the factors is formed.

    Exact guard: max|left form| + max|right form| bounds each factor.
    The coroots are taken in runs whose bounds multiply to below 2^62,
    and each run's product accumulates in int64; int64 arithmetic is
    exact modulo 2^64, so a product that ends below 2^62 is exact
    whatever its partial products did.  When the forms are small enough
    there is one run and no Python integer is formed; otherwise the
    runs' products are multiplied together in Python integers.  Every
    quotient by the denominator is checked to leave no remainder.
    """
    coroots, denominator = _coroot_data(datum)
    c = np.array(coroots, dtype=np.int64).reshape(-1, datum.rank)
    lforms = np.asarray(left, dtype=np.int64).reshape(-1, datum.rank) @ c.T + c.sum(axis=1)
    rforms = np.asarray(right, dtype=np.int64).reshape(-1, datum.rank) @ c.T
    runs: list[list[int]] = [[]]
    bound = 1
    for k, (lmax, rmax) in enumerate(zip(np.abs(lforms).max(axis=0, initial=0),
                                         np.abs(rforms).max(axis=0, initial=0))):
        factor = int(lmax) + int(rmax)
        if bound * factor >= 1 << 62 and runs[-1]:
            runs.append([])
            bound = 1
        runs[-1].append(k)
        bound *= factor
    num = None
    for run in runs:
        part = np.ones((len(lforms), len(rforms)), dtype=np.int64)
        for k in run:
            part *= lforms[:, k, None] + rforms[None, :, k]
        num = part if num is None else num * part.astype(object)
    quotient = num // denominator
    if np.any(num - quotient * denominator):
        raise DefectError("dimension polynomial not integral on a weight grid")
    return linalg._shrink(quotient)


# --- augmentation ideal -----------------------------------------------------

def decompose_augmentation_ideal(f: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """Write an augmentation-zero ``f`` as ``sum_j c_j * (t_j - 1)``.

    Each monomial is telescoped coordinate-by-coordinate in index order,
    e^lambda - 1 = sum_j (t_{j+1}^{lambda_{j+1}} ... t_n^{lambda_n})
    (t_j^{lambda_j} - 1), and t_j^k - 1 is (1 + ... + t_j^{k-1}) (t_j - 1),
    or -(t_j^k + ... + t_j^-1) (t_j - 1) for negative k; the cofactors'
    terms are summed directly, in sorted term order.  Raises
    ``ValueError`` when the augmentation of ``f`` is nonzero (no such
    decomposition exists).
    """
    if augmentation(f) != 0:
        raise ValueError("augmentation is nonzero; not in the ideal")
    cofactors: list[dict[Vector, int]] = [{} for _ in range(f.nvars)]
    for exps, coeff in f.sorted_terms():
        for j, k in enumerate(exps):
            powers, c = (range(k), coeff) if k > 0 else (range(k, 0), -coeff)
            for e in powers:
                key = (0,) * j + (e,) + exps[j + 1:]
                cofactors[j][key] = cofactors[j].get(key, 0) + c
    return tuple(LaurentPoly(f.nvars, terms) for terms in cofactors)
