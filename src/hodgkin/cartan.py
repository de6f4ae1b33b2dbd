"""Root data and Weyl groups for the simple Cartan families A--G.

Every weight in this package is written in fundamental-weight coordinates
(the basis dual to the simple coroots).  In that basis the j-th simple
root is column j of the Cartan matrix, the i-th simple reflection is the
integer matrix ``I - alpha_i * e_i^T``, and the whole Weyl group acts by
unimodular integer matrices.  Each positive root also carries its
integer coefficients in the simple roots, found by the same reflection
closure that finds the roots, so deciding positivity needs no rational
arithmetic.  Product types concatenate their factors
block-diagonally, so a single code path covers semisimple groups.

Numbering of nodes follows Bourbaki throughout (for B the last root is
short, for C the last root is long, for G2 the first root is short).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .errors import ResourceGuardError, UsageError

#: Hard ceiling on |W| for group enumeration unless the caller raises it.
DEFAULT_WEYL_GUARD = 250_000

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

_TYPE_TOKEN = re.compile(r"([A-Ga-g])(\d+)$")

# family -> (min rank, max rank or None)
RANK_WINDOW = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class CartanType:
    """A product of simple factors, e.g. ``A2xA1``."""

    factors: tuple[tuple[str, int], ...]

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)


def parse_type(text: str) -> CartanType:
    """Parse a type string like ``"B3"`` or ``"A2xA1"``.

    The family letter is case-insensitive and factors are separated by
    ``x`` (or ``X``).  Rank windows are enforced per family: A needs
    rank >= 1, B and C >= 2, D >= 3, E in {6,7,8}, F4 and G2 only.

    >>> str(parse_type("a2xA1"))
    'A2xA1'
    """
    if not isinstance(text, str) or not text.strip():
        raise UsageError("empty Cartan type string")
    factors = []
    for token in re.split(r"[xX]", text.strip()):
        m = _TYPE_TOKEN.fullmatch(token.strip())
        if m is None:
            raise UsageError(f"cannot parse Cartan factor {token!r}")
        family = m.group(1).upper()
        rank = int(m.group(2))
        lo, hi = RANK_WINDOW[family]
        if rank < lo or (hi is not None and rank > hi):
            window = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise UsageError(f"family {family} needs rank {window}, got {rank}")
        factors.append((family, rank))
    return CartanType(tuple(factors))


def _order_factors(ctype: CartanType):
    """|W| as a product of small integers, by the classical closed forms:
    (n+1)! for A_n, 2^n n! for B_n and C_n, 2^(n-1) n! for D_n."""
    for family, n in ctype.factors:
        if family == "A":
            yield from range(2, n + 2)
        elif family in ("B", "C"):
            yield from range(2, 2 * n + 1, 2)
        elif family == "D":
            yield from range(4, 2 * n + 1, 2)
        else:
            yield {"E6": 51840, "E7": 2903040, "E8": 696729600,
                   "F4": 1152, "G2": 12}[f"{family}{n}"]


def weyl_order(ctype: CartanType) -> int:
    """Order of the Weyl group, by the classical closed forms."""
    return prod(_order_factors(ctype))


def guarded_weyl_order(ctype: CartanType, max_order: int) -> int:
    """|W| when it is at most ``max_order``, else :class:`ResourceGuardError`.

    The closed form's factors are multiplied only until the product
    passes the guard, so a type far above it costs a few factors.  The
    error reports |W| as the required bound when the product was
    complete, and a lower bound on it otherwise.
    """
    order = 1
    factors = _order_factors(ctype)
    for factor in factors:
        order *= factor
        if order > max_order:
            # the product is |W| only when no factor is left
            required = order if next(factors, None) is None else None
            size = f"order {order}" if required else f"order more than {order}"
            raise ResourceGuardError(
                f"Weyl group of {ctype} has {size}, above the guard {max_order};"
                " raise --max-weyl-order to proceed", required=required)
    return order


def positive_root_count(ctype: CartanType) -> int:
    """Number of positive roots, by the classical closed forms."""
    total = 0
    for family, n in ctype.factors:
        if family == "A":
            total += n * (n + 1) // 2
        elif family in ("B", "C"):
            total += n * n
        elif family == "D":
            total += n * (n - 1)
        elif family == "E":
            total += {6: 36, 7: 63, 8: 120}[n]
        elif family == "F":
            total += 24
        else:  # G
            total += 6
    return total


# --- Cartan matrices -------------------------------------------------------

def _cartan_block(family: str, n: int) -> list[list[int]]:
    """Cartan matrix of one simple factor in Bourbaki numbering."""
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, down=-1, up=-1):
        # a[i][j] = <alpha_j, alpha_i^vee>; column j holds the root alpha_j.
        a[i][j] = down
        a[j][i] = up

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if family == "B" and n >= 2:
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            a[n - 1][n - 2] = -2
        if family == "C" and n >= 2:
            # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
            a[n - 2][n - 1] = -2
    elif family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif family == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)]
        if n >= 7:
            chain.append((5, 6))
        if n == 8:
            chain.append((6, 7))
        for i, j in chain:
            edge(i, j)
        edge(1, 3)  # branch node
    elif family == "F":
        for i in range(3):
            edge(i, i + 1)
        a[2][1] = -2  # alpha_3 short: <alpha_2, alpha_3^vee> = -2
    elif family == "G":
        a[0][1] = -3  # alpha_1 short, alpha_2 long
        a[1][0] = -1
    else:  # pragma: no cover - parse_type filters families
        raise UsageError(f"unknown family {family!r}")
    return a


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix plus the derived data every other module consumes."""

    ctype: CartanType
    cartan_matrix: Matrix

    @property
    def rank(self) -> int:
        return len(self.cartan_matrix)

    @property
    def simple_roots(self) -> tuple[Vector, ...]:
        """Simple roots in fundamental-weight coordinates (matrix columns)."""
        c = self.cartan_matrix
        n = self.rank
        return tuple(tuple(c[i][j] for i in range(n)) for j in range(n))


def build_root_datum(ctype: CartanType) -> RootDatum:
    """Assemble the (block-diagonal) Cartan matrix for a product type."""
    blocks = [_cartan_block(f, r) for f, r in ctype.factors]
    n = sum(len(b) for b in blocks)
    mat = [[0] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        k = len(block)
        for i in range(k):
            for j in range(k):
                mat[offset + i][offset + j] = block[i][j]
        offset += k
    return RootDatum(ctype, tuple(tuple(row) for row in mat))


# --- small exact matrix helpers (tuple matrices) ---------------------------

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# --- reflections and the Weyl group ----------------------------------------

def simple_reflection(datum: RootDatum, i: int) -> Matrix:
    """Matrix of s_i on weight coordinates: lambda -> lambda - lambda_i alpha_i."""
    n = datum.rank
    alpha = datum.simple_roots[i]
    return tuple(
        tuple(int(r == c) - (alpha[r] if c == i else 0) for c in range(n))
        for r in range(n)
    )


@dataclass(frozen=True)
class WeylGroup:
    """A fully enumerated Weyl group acting on weight coordinates.

    ``elements`` is canonically ordered (lexicographic on the matrix
    entries) so that everything derived from it is reproducible.
    ``longest_word`` is a reduced word for the longest element, as a
    tuple of 0-based generator indices.
    """

    datum: RootDatum
    elements: tuple[Matrix, ...]
    simple_reflections: tuple[Matrix, ...]
    longest_word: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def longest_element(self) -> Matrix:
        w = identity_matrix(self.datum.rank)
        for i in self.longest_word:
            w = mat_mul(w, self.simple_reflections[i])
        return w


def generate_weyl(datum: RootDatum, max_order: int = DEFAULT_WEYL_GUARD) -> WeylGroup:
    """Enumerate the Weyl group by closure under the simple reflections.

    Raises :class:`ResourceGuardError` (before doing any work) when the
    closed-form order exceeds ``max_order``, see :func:`guarded_weyl_order`.
    """
    expected = guarded_weyl_order(datum.ctype, max_order)
    gens = tuple(simple_reflection(datum, i) for i in range(datum.rank))
    seen = {identity_matrix(datum.rank)}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                ws = mat_mul(s, w)
                if ws not in seen:
                    seen.add(ws)
                    new.append(ws)
        frontier = new
    if len(seen) != expected:
        raise AssertionError(
            f"enumerated {len(seen)} Weyl elements for {datum.ctype}, expected {expected}"
        )
    elements = tuple(sorted(seen))
    longest = _longest_word(datum, gens)
    return WeylGroup(datum, elements, gens, longest)


def _longest_word(datum: RootDatum, gens: tuple[Matrix, ...]) -> tuple[int, ...]:
    """Greedy reduced word for w0: keep appending the smallest ascent."""
    n = datum.rank
    w = identity_matrix(n)
    word: list[int] = []
    alphas = datum.simple_roots
    while True:
        for i in range(n):
            # ell(w s_i) > ell(w) iff w(alpha_i) is still positive
            if _root_sign(datum, mat_vec(w, alphas[i])) > 0:
                word.append(i)
                w = mat_mul(w, gens[i])
                break
        else:
            break
    return tuple(word)


@lru_cache(maxsize=None)
def _positive_root_coefficients(datum: RootDatum) -> dict[Vector, Vector]:
    """Every positive root, mapped to its simple-root coefficients.

    Closure of the simple roots under the simple reflections.  s_i sends
    a root beta to beta - k alpha_i with k = beta_i, its i-th weight
    coordinate, so it lowers coefficient i by k and keeps the others.
    The image is a new positive root exactly when that coefficient stays
    >= 0; the only positive root s_i makes negative is alpha_i itself.
    """
    n = datum.rank
    alphas = datum.simple_roots
    coeffs = {alpha: tuple(int(j == i) for j in range(n)) for i, alpha in enumerate(alphas)}
    frontier = list(coeffs)
    while frontier:
        new = []
        for beta in frontier:
            c = coeffs[beta]
            for i, alpha in enumerate(alphas):
                k = beta[i]
                if c[i] < k:
                    continue
                image = tuple(b - k * a for b, a in zip(beta, alpha))
                if image not in coeffs:
                    coeffs[image] = c[:i] + (c[i] - k,) + c[i + 1:]
                    new.append(image)
        frontier = new
    return coeffs


def _root_sign(datum: RootDatum, weight: Vector) -> int:
    """+1 / -1 for a positive / negative root, 0 otherwise."""
    roots = _positive_root_coefficients(datum)
    if weight in roots:
        return 1
    return -1 if tuple(-x for x in weight) in roots else 0


def positive_roots(datum: RootDatum) -> tuple[Vector, ...]:
    """All positive roots in weight coordinates, sorted by height then lex."""
    coeffs = _positive_root_coefficients(datum)
    return tuple(sorted(coeffs, key=lambda beta: (sum(coeffs[beta]), beta)))


@lru_cache(maxsize=None)
def positive_coroots(datum: RootDatum) -> tuple[Vector, ...]:
    """Positive coroots as coefficient vectors in the simple-coroot basis.

    The coroots of a root system are the roots of the dual system, whose
    Cartan matrix is the transpose; a root's simple-root coefficients in
    the dual system are exactly the coroot's simple-coroot coefficients.
    """
    dual = RootDatum(datum.ctype, tuple(zip(*datum.cartan_matrix)))
    coeffs = _positive_root_coefficients(dual)
    return tuple(coeffs[beta] for beta in positive_roots(dual))


def is_dominant(weight: Vector) -> bool:
    return all(x >= 0 for x in weight)


# --- reduced words ----------------------------------------------------------

def reduced_words(weyl: WeylGroup) -> list[tuple[int, ...]]:
    """All reduced words for the longest element.

    Recursion on right descents: i is a right descent of w exactly when
    w(alpha_i) is a negative root, and then every reduced word of w with
    final letter i extends one of w*s_i.  Exponential in general; meant
    for small-rank verification (A3 already has 16 words for w0).
    """
    datum = weyl.datum
    alphas = datum.simple_roots
    memo: dict[Matrix, list[tuple[int, ...]]] = {identity_matrix(datum.rank): [()]}

    def walk(w: Matrix) -> list[tuple[int, ...]]:
        if w in memo:
            return memo[w]
        words = []
        for i in range(datum.rank):
            if _root_sign(datum, mat_vec(w, alphas[i])) < 0:
                shorter = mat_mul(w, weyl.simple_reflections[i])
                words.extend(word + (i,) for word in walk(shorter))
        memo[w] = words
        return words

    return walk(weyl.longest_element)
