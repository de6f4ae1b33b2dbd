"""Root data and Weyl groups for the simple Cartan families A--G.

Every weight in this package is written in fundamental-weight coordinates
(the basis dual to the simple coroots).  In that basis the j-th simple
root is column j of the Cartan matrix, the i-th simple reflection is the
integer matrix ``I - alpha_i * e_i^T``, and the whole Weyl group acts by
unimodular integer matrices.  Product types concatenate their factors
block-diagonally, so a single code path covers semisimple groups.

Numbering of nodes follows Bourbaki throughout (for B the last root is
short, for C the last root is long, for G2 the first root is short).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceGuardError, UsageError

#: Hard ceiling on |W| for group enumeration unless the caller raises it.
DEFAULT_WEYL_GUARD = 250_000

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

_TYPE_TOKEN = re.compile(r"([A-Ga-g])(\d+)$")

# family -> (min rank, max rank or None)
_RANK_WINDOW = {
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
        lo, hi = _RANK_WINDOW[family]
        if rank < lo or (hi is not None and rank > hi):
            window = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise UsageError(f"family {family} needs rank {window}, got {rank}")
        factors.append((family, rank))
    return CartanType(tuple(factors))


def weyl_order(ctype: CartanType) -> int:
    """Order of the Weyl group, by the classical closed forms."""
    total = 1
    for family, n in ctype.factors:
        if family == "A":
            order = _factorial(n + 1)
        elif family in ("B", "C"):
            order = 2**n * _factorial(n)
        elif family == "D":
            order = 2 ** (n - 1) * _factorial(n)
        elif family == "E":
            order = {6: 51840, 7: 2903040, 8: 696729600}[n]
        elif family == "F":
            order = 1152
        else:  # G
            order = 12
        total *= order
    return total


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


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


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
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def _cartan_inverse(datum: RootDatum) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of the Cartan matrix (rational)."""
    n = datum.rank
    a = datum.cartan_matrix
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(aug[i][n + j] for j in range(n)) for i in range(n))


def root_coordinates(datum: RootDatum, weight: Vector) -> tuple[Fraction, ...]:
    """Coordinates of a weight in the simple-root basis (rational)."""
    cinv = _cartan_inverse(datum)
    return tuple(sum(row[j] * weight[j] for j in range(datum.rank)) for row in cinv)


def _root_sign(datum: RootDatum, weight: Vector) -> int:
    """+1 / -1 for a positive / negative root, 0 otherwise."""
    coords = root_coordinates(datum, weight)
    if all(x >= 0 for x in coords) and any(x > 0 for x in coords):
        return 1
    if all(x <= 0 for x in coords) and any(x < 0 for x in coords):
        return -1
    return 0


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
    closed-form order already exceeds ``max_order``; the error reports the
    bound that would be required.
    """
    expected = weyl_order(datum.ctype)
    if expected > max_order:
        raise ResourceGuardError(
            f"Weyl group of {datum.ctype} has order {expected}, "
            f"above the guard {max_order}; raise --max-weyl-order to proceed",
            required=expected,
        )
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
        if len(seen) > max_order:  # backstop; the precheck makes this dead code
            raise ResourceGuardError(
                f"Weyl enumeration exceeded the guard {max_order}",
                required=len(seen),
            )
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


def positive_roots(datum: RootDatum) -> tuple[Vector, ...]:
    """All positive roots in weight coordinates, sorted by height then lex.

    Generated as the closure of the simple roots under simple
    reflections, keeping the positive ones.
    """
    roots: set[Vector] = set()
    frontier = list(datum.simple_roots)
    gens = [simple_reflection(datum, i) for i in range(datum.rank)]
    while frontier:
        new = []
        for beta in frontier:
            if beta in roots:
                continue
            roots.add(beta)
            for s in gens:
                image = mat_vec(s, beta)
                if image not in roots and _root_sign(datum, image) > 0:
                    new.append(image)
        frontier = new

    def height(beta: Vector):
        coords = root_coordinates(datum, beta)
        return sum(coords)

    return tuple(sorted(roots, key=lambda b: (height(b), b)))


@lru_cache(maxsize=None)
def positive_coroots(datum: RootDatum) -> tuple[Vector, ...]:
    """Positive coroots as coefficient vectors in the simple-coroot basis.

    The coroots of a root system are the roots of the dual system, whose
    Cartan matrix is the transpose; a root's simple-root coordinates in
    the dual system are exactly the coroot's simple-coroot coefficients.
    All coefficients are integers.
    """
    n = datum.rank
    transposed = tuple(zip(*datum.cartan_matrix))
    dual = RootDatum(datum.ctype, tuple(tuple(row) for row in transposed))
    out = []
    for beta in positive_roots(dual):
        coords = root_coordinates(dual, beta)
        if any(x.denominator != 1 for x in coords):
            raise AssertionError("coroot with non-integer coefficients")
        out.append(tuple(int(x) for x in coords))
    return tuple(out)


def is_dominant(weight: Vector) -> bool:
    return all(x >= 0 for x in weight)


# --- reduced words ----------------------------------------------------------

def reduced_words(weyl: WeylGroup, element: Matrix | None = None) -> list[tuple[int, ...]]:
    """All reduced words for ``element`` (default: the longest element).

    Recursion on right descents: i is a right descent of w exactly when
    w(alpha_i) is a negative root, and then every reduced word of w with
    final letter i extends one of w*s_i.  Exponential in general; meant
    for small-rank verification (A3 already has 16 words for w0).
    """
    datum = weyl.datum
    if element is None:
        element = weyl.longest_element
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

    return walk(element)
