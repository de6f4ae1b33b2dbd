"""A free integer model of the K-module of the flag variety.

The module is spanned by |W| monomial classes ``e^{lambda_w}``; the
bilinear pairing ``<f, g> = augmentation(D_{w0}(f g))`` (push-pull along
the flag bundle) is exactly computable, and a basis is certified by a
unimodular Gram matrix — the freeness certificate that everything
downstream leans on.  Multiplication by each variable ``t_i`` then
becomes an integer matrix, turning the whole representation-ring quotient
into finite exact linear algebra.

Two routes compute the pairing: the contractual composite of Demazure
operators (:func:`pairing`), and an internal closed form used for bulk
construction work — on monomials the pairing is the Weyl dimension
polynomial evaluated at the summed exponents,

    <e^a, e^b> = prod_{alpha^vee > 0} <a + b + rho, alpha^vee> / <rho, alpha^vee>,

which the property suite cross-checks against the Demazure route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cartan, laurent, linalg
from .cartan import RootDatum, Vector, WeylGroup
from .errors import CertificationError, DefectError, ResourceGuardError
from .laurent import CharacterSet, LaurentPoly

#: Above this many basis elements the full multiplication table is not
#: materialized; products walk the multiplication matrices instead.
TABLE_LIMIT = 200


# --- the pairing ------------------------------------------------------------

def pairing(datum: RootDatum, weyl: WeylGroup, f: LaurentPoly, g: LaurentPoly) -> int:
    """Integral pairing ``augmentation(demazure_word(longest_word, f*g))``.

    Symmetric, biadditive, and invariant under multiplying either
    argument by a Weyl-invariant element of augmentation d (which scales
    the value by d) — that is what lets it descend to the quotient.
    """
    return laurent.augmentation(
        laurent.demazure_word(datum, weyl.longest_word, f * g)
    )


def pairing_bilinear(datum: RootDatum, f: LaurentPoly, g: LaurentPoly) -> int:
    """Same value through the closed form, without Demazure operators."""
    total = 0
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            total += ca * cb * laurent.signed_weight_dimension(datum, key)
    return total


# --- basis selection --------------------------------------------------------

def steinberg_weights(datum: RootDatum, weyl: WeylGroup) -> tuple[Vector, ...]:
    """Descent-twisted weights ``w(-sum of omega_i over descents of w)``.

    One weight per Weyl element; for every supported family their Gram
    matrix turns out unimodular, which :func:`select_basis` certifies.
    """
    n = datum.rank
    out = []
    for w in weyl.elements:
        descents = [
            i for i in range(n)
            if cartan._root_sign(datum, cartan.mat_vec(w, datum.simple_roots[i])) < 0
        ]
        s = tuple(-1 if i in descents else 0 for i in range(n))
        out.append(cartan.mat_vec(w, s))
    return tuple(out)


def _ball_weights(rank: int, radius: int):
    """All weights with sup-norm <= radius, canonically ordered."""
    from itertools import product
    weights = list(product(range(-radius, radius + 1), repeat=rank))
    weights.sort(key=lambda v: (max(abs(x) for x in v) if v else 0, v))
    return weights


def _gram_matrix(datum: RootDatum, weights) -> np.ndarray:
    rows = [
        [laurent.signed_weight_dimension(datum, tuple(x + y for x, y in zip(a, b)))
         for b in weights]
        for a in weights
    ]
    return linalg._shrink(np.array(rows, dtype=object))


def _certify_gram(datum: RootDatum, weights):
    """(gram, det, gram_inv) when the Gram matrix is unimodular, else None.

    Unimodularity is certified through the exact integer inverse: an
    integer X with G @ X == I forces det(G) * det(X) == 1 over the
    integers, hence det(G) in {+1, -1}; the sign is then read off one
    modular determinant.
    """
    gram = _gram_matrix(datum, weights)
    try:
        gram_inv = linalg.inverse_unimodular(gram)
    except ValueError:
        return None
    p = linalg.crt_primes(1)[0]
    residue = linalg.det_mod(gram, p)
    det = 1 if residue == 1 else -1
    if residue not in (1, p - 1):
        raise DefectError("unimodular Gram with determinant residue != +-1")
    return gram, det, gram_inv


def _select_certified(datum: RootDatum, weyl: WeylGroup, max_radius: int = 3):
    """(weights, source, certificate) — the certificate from :func:`_certify_gram`."""
    m = weyl.order
    seeds = steinberg_weights(datum, weyl)
    if len(set(seeds)) == m:
        basis = tuple(sorted(set(seeds)))
        cert = _certify_gram(datum, basis)
        if cert is not None:
            return basis, "descent-twisted", cert
    basis, source = _greedy_ball_basis(datum, weyl, max_radius)
    cert = _certify_gram(datum, basis)
    if cert is None:
        raise DefectError("basis with determinant +-1 failed the inverse certificate")
    return basis, source, cert


def select_basis(datum: RootDatum, weyl: WeylGroup,
                 max_radius: int = 3) -> tuple[tuple[Vector, ...], str]:
    """Choose |W| monomial weights with unimodular Gram matrix.

    The descent-twisted candidates are tried first and accepted once
    their Gram matrix is certified unimodular.  If that certificate
    fails, a greedy search over growing sup-norm balls takes over:
    candidates are accepted while they increase the rank (checked modulo
    a large prime), then local swaps try to push |det| down to 1.
    Exhausting the ball raises :class:`ResourceGuardError`.

    Returns the weights in canonical (lexicographic) order together with
    a label recording which strategy produced them.
    """
    weights, source, _ = _select_certified(datum, weyl, max_radius)
    return weights, source


def _greedy_ball_basis(datum: RootDatum, weyl: WeylGroup,
                       max_radius: int) -> tuple[tuple[Vector, ...], str]:
    m = weyl.order
    p = 1_073_741_789  # < 2^30 so modular row operations stay in int64
    for radius in range(1, max_radius + 1):
        pool = _ball_weights(datum.rank, radius)
        selected: list[Vector] = []
        # greedy rank growth on the pairing matrix against the whole pool
        echelon: list[np.ndarray] = []
        pivots: list[int] = []
        for cand in pool:
            if len(selected) == m:
                break
            row = np.array(
                [laurent.signed_weight_dimension(
                    datum, tuple(x + y for x, y in zip(cand, other))) % p
                 for other in pool],
                dtype=np.int64)
            for erow, piv in zip(echelon, pivots):
                factor = row[piv]
                if factor:
                    row = (row - factor * erow) % p
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            piv = int(nz[0])
            row = (row * pow(int(row[piv]), p - 2, p)) % p
            echelon.append(row)
            pivots.append(piv)
            selected.append(cand)
        if len(selected) < m:
            continue
        basis = sorted(selected)
        det = linalg.det_exact(_gram_matrix(datum, basis))
        if det in (1, -1):
            return tuple(basis), f"greedy-ball-r{radius}"
        # local improvement: swap one member for one outsider when that
        # strictly shrinks |det|
        outsiders = [wt for wt in pool if wt not in set(basis)]
        improved = True
        while abs(det) != 1 and improved:
            improved = False
            for pos in range(m):
                for cand in outsiders:
                    trial = list(basis)
                    trial[pos] = cand
                    trial_det = linalg.det_exact(_gram_matrix(datum, sorted(trial)))
                    if trial_det != 0 and abs(trial_det) < abs(det):
                        basis = sorted(trial)
                        det = trial_det
                        improved = True
                        break
                if improved:
                    break
        if det in (1, -1):
            return tuple(basis), f"greedy-ball-r{radius}"
    raise ResourceGuardError(
        f"no unimodular monomial basis found within sup-norm radius {max_radius}",
        required=max_radius + 1,
    )


# --- the module -------------------------------------------------------------

@dataclass
class FlagKModule:
    """Exact data of the finite free model.

    ``basis_weights`` are canonically ordered; ``gram`` is the pairing
    matrix with determinant ``gram_det`` in {+1, -1}; ``gram_inv`` is its
    exact integer inverse.  ``mult_matrices[i]`` is multiplication by
    ``t_i`` in basis coordinates (with ``mult_matrices_inv[i]`` its
    inverse).  The module is cyclic on ``unit_coords``: the basis class
    of weight lambda is M^lambda applied to the unit, where
    M^lambda = prod_i mult_matrices[i]^lambda_i.  ``mult_table`` — when
    materialized — stacks those operators M^lambda, one per basis class,
    so every product is a polynomial in the multiplication matrices.
    """

    datum: RootDatum
    weyl: WeylGroup
    chars: CharacterSet
    basis_weights: tuple[Vector, ...]
    basis_source: str
    gram: np.ndarray
    gram_det: int
    gram_inv: np.ndarray
    mult_matrices: tuple[np.ndarray, ...]
    mult_matrices_inv: tuple[np.ndarray, ...]
    unit_coords: np.ndarray
    mult_table: np.ndarray | None
    _rhs_cache: dict = field(default_factory=dict, repr=False)
    _coords_cache: dict = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return len(self.basis_weights)

    # -- coordinates ----------------------------------------------------

    def _rhs_vector(self, exps: Vector) -> np.ndarray:
        """Pairings of ``e^exps`` against every basis monomial."""
        cached = self._rhs_cache.get(exps)
        if cached is None:
            cached = linalg.as_int_array(
                [laurent.signed_weight_dimension(
                    self.datum, tuple(x + y for x, y in zip(exps, b)))
                 for b in self.basis_weights])
            self._rhs_cache[exps] = cached
        return cached

    def monomial_coords(self, exps: Vector) -> np.ndarray:
        cached = self._coords_cache.get(exps)
        if cached is None:
            cached = linalg.dot_exact(self.gram_inv, self._rhs_vector(exps))
            self._coords_cache[exps] = cached
        return cached

    def coords(self, f: LaurentPoly) -> np.ndarray:
        """Coordinates of the class of ``f`` in the chosen basis.

        Exact by construction: the Gram matrix is unimodular, so the
        normal-equation solve has a unique integer solution.
        """
        out = np.zeros(self.rank, dtype=object)
        for exps, coeff in f.terms.items():
            out = out + coeff * self.monomial_coords(exps).astype(object)
        return linalg._shrink(out)

    # -- multiplication -------------------------------------------------

    def monomial_operator(self, exps: Vector) -> np.ndarray:
        """Matrix of multiplication by ``e^exps``, solved from the pairing."""
        rhs = np.stack([self._rhs_vector(tuple(int(x) + y for x, y in zip(exps, b)))
                        for b in self.basis_weights], axis=1)
        return linalg.dot_exact(self.gram_inv, rhs)

    def _walk(self, start: np.ndarray, weights) -> list[np.ndarray]:
        """``M^lambda @ start`` for every weight lambda in ``weights``.

        The weights are walked as a prefix trie over their coordinates:
        children that share a prefix share its product, and each edge is
        one exact product by M_i or M_i^-1.  ``start`` is a coordinate
        vector or a matrix.
        """
        out: list = [None] * len(weights)

        def descend(vec: np.ndarray, depth: int, members: list[int]) -> None:
            if depth == self.datum.rank:
                for idx in members:
                    out[idx] = vec
                return
            groups: dict[int, list[int]] = {}
            for idx in members:
                groups.setdefault(int(weights[idx][depth]), []).append(idx)
            if 0 in groups:
                descend(vec, depth + 1, groups[0])
            for sign, op in ((1, self.mult_matrices[depth]),
                             (-1, self.mult_matrices_inv[depth])):
                cur = vec
                for steps in range(1, max(sign * v for v in groups) + 1):
                    cur = linalg.dot_exact(op, cur)
                    if sign * steps in groups:
                        descend(cur, depth + 1, groups[sign * steps])

        descend(start, 0, list(range(len(weights))))
        return out

    def left_multiplier(self, coords_vec: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by the class with those coordinates.

        Without the table, column v is M^lambda_v applied to the class:
        multiplication by x sends the basis class M^lambda_v u to
        M^lambda_v x, because the multiplication matrices commute.
        """
        vec = linalg.as_int_array(coords_vec)
        if self.mult_table is not None:
            flat = self.mult_table.reshape(self.rank, -1)
            return linalg.dot_exact(vec, flat).reshape(self.rank, self.rank)
        return linalg._shrink(np.stack(self._walk(vec, self.basis_weights), axis=1))

    def multiply_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return linalg.dot_exact(self.left_multiplier(x), np.asarray(y))


def build_module(datum: RootDatum, weyl: WeylGroup, chars: CharacterSet,
                 *, audit: bool = True,
                 basis_weights: tuple[Vector, ...] | None = None,
                 basis_source: str = "cached") -> FlagKModule:
    """Assemble the free model and certify its structure.

    Always certified: the Gram determinant is +-1 and the inverse is
    exact; each multiplication matrix composed with its inverse gives the
    identity.  With ``audit=True`` :func:`_audit_module` also certifies
    that the unit generates the module and that the module satisfies the
    defining relations of the quotient.  The multiplication table, when
    materialized, is the walk of the basis weights from the identity.
    """
    if basis_weights is None:
        basis_weights, basis_source, cert = _select_certified(datum, weyl)
    else:
        cert = _certify_gram(datum, basis_weights)
        if cert is None:
            witness_det = linalg.det_exact(_gram_matrix(datum, basis_weights))
            raise CertificationError("gram-unimodular",
                                     witness={"determinant": witness_det})
    m = len(basis_weights)
    gram, det, gram_inv = cert

    module = FlagKModule(
        datum=datum, weyl=weyl, chars=chars,
        basis_weights=tuple(basis_weights), basis_source=basis_source,
        gram=gram, gram_det=int(det), gram_inv=gram_inv,
        mult_matrices=(), mult_matrices_inv=(),
        unit_coords=np.zeros(m, dtype=np.int64), mult_table=None,
    )

    n = datum.rank
    unit = tuple(0 for _ in range(n))
    module.unit_coords = module.monomial_coords(unit)

    mult, mult_inv = [], []
    for i in range(n):
        step = tuple(int(j == i) for j in range(n))
        neg = tuple(-int(j == i) for j in range(n))
        m_i = module.monomial_operator(step)
        m_i_inv = module.monomial_operator(neg)
        if not np.array_equal(linalg.dot_exact(m_i, m_i_inv), np.eye(m, dtype=np.int64)):
            raise CertificationError("mult-matrix-invertible", witness={"generator": i})
        mult.append(m_i)
        mult_inv.append(m_i_inv)
    module.mult_matrices = tuple(mult)
    module.mult_matrices_inv = tuple(mult_inv)

    if m <= TABLE_LIMIT:
        module.mult_table = np.stack(
            module._walk(np.eye(m, dtype=np.int64), module.basis_weights))

    if audit:
        _audit_module(module)
    return module


def _audit_module(module: FlagKModule) -> None:
    """Certify the module structure through its cyclic unit u.

    1. ``unit-generates``: M^lambda_b u is the basis vector e_b for every
       basis weight lambda_b, so u generates the module over the M_i.
    2. ``mult-matrices-commute``: M_i M_j = M_j M_i for every pair.
    3. Each relation P(M) = 0 of the quotient is checked on u alone:
       ``character-relation`` chi_j(M) u = dim_j u for every fundamental
       character, and ``augmentation-nilpotent`` (M_i - I)^N u = 0 with
       N = |positive roots| + 1.  Since the M_i commute and u generates,
       P(M) e_b = M^lambda_b P(M) u, so P(M) = 0 exactly when P(M) u = 0.

    The multiplication table and every product are polynomials in these
    commuting operators, so their commutativity, unit and associativity
    follow exactly.
    """
    datum = module.datum
    m = module.rank
    u = module.unit_coords

    for b, vec in enumerate(module._walk(u, module.basis_weights)):
        if vec[b] != 1 or np.count_nonzero(vec) != 1:
            raise CertificationError("unit-generates", witness={
                "basis_index": b, "weight": module.basis_weights[b]})

    for i in range(datum.rank):
        for j in range(i + 1, datum.rank):
            ab = linalg.dot_exact(module.mult_matrices[i], module.mult_matrices[j])
            ba = linalg.dot_exact(module.mult_matrices[j], module.mult_matrices[i])
            if not np.array_equal(ab, ba):
                raise CertificationError("mult-matrices-commute",
                                         witness={"generators": (i, j)})

    # each fundamental character acts as dim times the identity
    for j, (chi, dim) in enumerate(zip(module.chars.chars, module.chars.dims)):
        terms = chi.sorted_terms()
        images = module._walk(u, [exps for exps, _ in terms])
        acc = linalg.dot_exact(np.stack(images, axis=1),
                               np.array([coeff for _, coeff in terms], dtype=object))
        if not np.array_equal(acc, dim * u.astype(object)):
            raise CertificationError("character-relation",
                                     witness={"fundamental": j})

    # (t_i - 1) is nilpotent of index at most |positive roots| + 1
    nil_bound = len(cartan.positive_roots(datum)) + 1
    eye = np.eye(m, dtype=np.int64)
    for i, op in enumerate(module.mult_matrices):
        x = op - eye
        power = u
        for _ in range(nil_bound):
            power = linalg.dot_exact(x, power)
        if np.any(power):
            raise CertificationError("augmentation-nilpotent",
                                     witness={"generator": i, "bound": nil_bound})
