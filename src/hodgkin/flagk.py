"""A free integer model of the K-module of the flag variety.

The module is spanned by |W| monomial classes ``e^{lambda_w}``, one per
Steinberg descent-twisted weight; the bilinear pairing
``<f, g> = augmentation(D_{w0}(f g))`` (push-pull along the flag bundle)
is exactly computable, and the basis is certified by a unimodular Gram
matrix — the freeness certificate that everything downstream leans on.
Multiplication by each variable ``t_i`` then becomes an integer matrix,
turning the whole representation-ring quotient into finite exact linear
algebra.  The unit generates the module over these commuting matrices,
so every product is a walk of the basis weights by them.  The walk goes
one coordinate at a time over the whole trie of weights: each step by
M_i (or M_i^-1) is one exact product with every vector that takes it
stacked as columns.

Every M_i is solved through the certified Gram inverse, except its
columns that shift a basis weight onto another one: those are unit
vectors, since their right-hand sides are columns of the Gram matrix.

The pairing has one definition, the composite of Demazure operators
(:func:`pairing`), and one route the module is built from: on
monomials it is the Weyl dimension polynomial evaluated at the summed
exponents,

    <e^a, e^b> = prod_{alpha^vee > 0} <a + b + rho, alpha^vee> / <rho, alpha^vee>,

evaluated over whole grids of weights (:func:`laurent.weight_dimension_grid`),
one coroot at a time.  The Gram matrix, the right-hand sides of every
multiplication operator and of every coordinate solve are such grids;
the property suite checks that grid against the Demazure definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import cartan, laurent, linalg
from .cartan import RootDatum, Vector, WeylGroup
from .errors import CertificationError
from .laurent import CharacterSet, LaurentPoly


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


# --- the basis -------------------------------------------------------------

def steinberg_weights(datum: RootDatum, weyl: WeylGroup) -> tuple[Vector, ...]:
    """Descent-twisted weights ``w(-sum of omega_i over descents of w)``.

    One weight per Weyl element.  For simply connected G they give a
    basis of the module (Steinberg, Topology 14, 1975), so their Gram
    matrix is unimodular; :func:`build_module` certifies that exactly.
    """
    positive = set(cartan.positive_roots(datum))
    out = []
    for w in weyl.elements:
        # w(alpha_i) is a root: i is a descent when it is not positive
        s = tuple(0 if cartan.mat_vec(w, alpha) in positive else -1
                  for alpha in datum.simple_roots)
        out.append(cartan.mat_vec(w, s))
    return tuple(out)


def _certify_gram(datum: RootDatum, weights):
    """(gram, det, gram_inv) for a Gram matrix certified unimodular.

    Unimodularity is certified through the exact integer inverse: an
    integer X with G @ X == I forces det(G) * det(X) == 1 over the
    integers, hence det(G) in {+1, -1}.  The sign is the determinant
    residue, 1 or p - 1, of the one modular elimination that inverse is
    lifted from; no separate determinant is computed.
    Otherwise ``gram-unimodular`` fails with the exact determinant as
    witness.
    """
    gram = laurent.weight_dimension_grid(datum, weights, weights)
    try:
        gram_inv, det = linalg.inverse_unimodular(gram)
    except ValueError:
        witness = {"determinant": linalg.det_exact(gram)}
        raise CertificationError("gram-unimodular", witness=witness) from None
    return gram, det, gram_inv


# --- the module -------------------------------------------------------------

@dataclass
class FlagKModule:
    """Exact data of the finite free model.

    ``basis_weights`` are the Steinberg weights in sorted order (the
    ``descent-twisted`` basis); ``gram`` is the pairing
    matrix with determinant ``gram_det`` in {+1, -1}; ``gram_inv`` is its
    exact integer inverse.  ``mult_matrices[i]`` is multiplication by
    ``t_i`` in basis coordinates (with ``mult_matrices_inv[i]`` its
    inverse).  The module is cyclic on ``unit_coords``: the basis class
    of weight lambda is M^lambda applied to the unit, where
    M^lambda = prod_i mult_matrices[i]^lambda_i.  Products are therefore
    polynomials in the multiplication matrices, computed by
    :meth:`products` from a walk of the basis weights.
    """

    datum: RootDatum
    weyl: WeylGroup
    chars: CharacterSet
    basis_weights: tuple[Vector, ...]
    gram: np.ndarray
    gram_det: int
    gram_inv: np.ndarray
    mult_matrices: tuple[np.ndarray, ...]
    mult_matrices_inv: tuple[np.ndarray, ...]
    unit_coords: np.ndarray
    basis_source: ClassVar[str] = "descent-twisted"

    @property
    def rank(self) -> int:
        return len(self.basis_weights)

    # -- coordinates ----------------------------------------------------

    def coords(self, f: LaurentPoly) -> np.ndarray:
        """Coordinates of the class of ``f`` in the chosen basis.

        One solve, as in :meth:`monomial_operator`: G^-1 times the
        pairings of ``f`` with every basis monomial, which are the
        pairing grid of the basis weights with f's monomials applied to
        f's coefficients.  Exact by construction: the Gram matrix is
        unimodular, so the normal-equation solve has a unique integer
        solution.
        """
        grid = laurent.weight_dimension_grid(self.datum, self.basis_weights, list(f.terms))
        rhs = linalg.dot_exact(grid, linalg.as_int_array(list(f.terms.values())))
        return linalg.dot_exact(self.gram_inv, rhs)

    # -- multiplication -------------------------------------------------

    def monomial_operator(self, exps: Vector) -> np.ndarray:
        """Matrix of multiplication by ``e^exps``, solved from the pairing.

        Column b is G^-1 times the pairings of e^(lambda_b + exps) with
        every basis monomial.  When lambda_b + exps is itself a basis
        weight lambda_c, those pairings are column c of the Gram matrix
        G, and G^-1 G = I was certified with the inverse (a square
        integer matrix's right inverse is its left inverse), so column b
        is e_c with no solve.  Only the other columns go through
        ``gram_inv``.
        """
        m = self.rank
        weights = np.array(self.basis_weights, dtype=np.int64)
        shifted = weights + exps
        where = {w: c for c, w in enumerate(self.basis_weights)}
        targets = [where.get(tuple(w)) for w in shifted.tolist()]
        units = [b for b, c in enumerate(targets) if c is not None]
        solve = [b for b, c in enumerate(targets) if c is None]
        rhs = laurent.weight_dimension_grid(self.datum, weights, shifted[solve])
        solved = linalg.dot_exact(self.gram_inv, rhs)
        out = np.zeros((m, m), dtype=solved.dtype)
        out[:, solve] = solved
        out[[targets[b] for b in units], units] = 1
        return out

    def _walk(self, start: np.ndarray, weights) -> list[np.ndarray]:
        """``M^lambda @ start`` for every weight lambda in ``weights``.

        The weights are walked as a prefix trie over their coordinates,
        one coordinate at a time.  At coordinate d each frontier node
        groups its weights by lambda_d, and the k-th step by M_d (or by
        M_d^-1) of every node with a group k or more steps away is one
        exact product: M_d times those nodes' vectors stacked as columns,
        split back into columns afterwards.  Coordinate d so costs
        max lambda_d^+ + max lambda_d^- products, however many nodes
        there are.  Each split column is shrunk on its own, so every
        result has the value and dtype that one product per vector would
        give.  ``start`` is a coordinate vector or a matrix; the result
        is in the order of ``weights``.
        """
        shape = start.shape
        width = shape[1] if start.ndim == 2 else 1
        frontier = [(start, list(range(len(weights))))]
        for d in range(self.datum.rank):
            nodes, children = [], []
            for vec, members in frontier:
                groups: dict[int, list[int]] = {}
                for idx in members:
                    groups.setdefault(int(weights[idx][d]), []).append(idx)
                if 0 in groups:
                    children.append((vec, groups[0]))
                nodes.append((vec, groups))
            for sign, op in ((1, self.mult_matrices[d]), (-1, self.mult_matrices_inv[d])):
                moving = [(vec, groups, reach) for vec, groups in nodes
                          if (reach := max(sign * v for v in groups)) > 0]
                steps = 0
                while moving:
                    steps += 1
                    block = np.concatenate([vec.reshape(-1, width) for vec, _, _ in moving],
                                           axis=1)
                    cols = np.hsplit(linalg.dot_exact(op, block), len(moving))
                    ahead = []
                    for col, (_, groups, reach) in zip(cols, moving):
                        # a copy, so that no result keeps the whole block alive
                        vec = linalg._shrink(col.reshape(shape).copy())
                        if sign * steps in groups:
                            children.append((vec, groups[sign * steps]))
                        if reach > steps:
                            ahead.append((vec, groups, reach))
                    moving = ahead
            frontier = children
        out: list = [None] * len(weights)
        for vec, members in frontier:
            for idx in members:
                out[idx] = vec
        return out

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """All products of the columns of ``xs`` with those of ``ys``.

        ``xs`` is m x kx and ``ys`` is m x ky; entry ``[:, i, j]`` of the
        m x kx x ky result holds the coordinates of x_i * y_j.  The basis
        class b is M^lambda_b u and the M_i commute, so
        x * y = sum_b y_b M^lambda_b x: one walk of the basis weights
        from all columns of ``xs`` at once (one stacked product per
        coordinate step, see :meth:`_walk`), then one exact product with
        ``ys``.
        """
        kx, ky = xs.shape[1], ys.shape[1]
        walked = np.stack(self._walk(xs, self.basis_weights))  # b, row, i
        flat = walked.reshape(self.rank, -1).T                 # (row, i), b
        return linalg.dot_exact(flat, ys).reshape(self.rank, kx, ky)


def build_module(datum: RootDatum, weyl: WeylGroup, chars: CharacterSet,
                 *, audit: bool = True) -> FlagKModule:
    """Assemble the free model and certify its structure.

    The basis is always the sorted Steinberg weights, and nothing is
    cached.  Always certified: the Gram determinant is +-1 and the
    inverse is exact (else ``gram-unimodular`` fails, with the
    determinant as witness); each multiplication matrix composed with
    its inverse gives the identity.  With ``audit=True``
    :func:`_audit_module` also certifies that the unit generates the
    module, that the M_i commute and that the module satisfies the
    defining relations of the quotient; :func:`homology.koszul_complex`
    does not check commutativity again.
    """
    basis_weights = tuple(sorted(steinberg_weights(datum, weyl)))
    m = len(basis_weights)
    gram, det, gram_inv = _certify_gram(datum, basis_weights)

    module = FlagKModule(
        datum=datum, weyl=weyl, chars=chars,
        basis_weights=basis_weights,
        gram=gram, gram_det=int(det), gram_inv=gram_inv,
        mult_matrices=(), mult_matrices_inv=(),
        unit_coords=np.zeros(m, dtype=np.int64),
    )

    n = datum.rank
    module.unit_coords = module.coords(LaurentPoly.monomial((0,) * n))

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

    if audit:
        _audit_module(module)
    return module


def _audit_module(module: FlagKModule) -> None:
    """Certify the module structure through its cyclic unit u.

    1. ``unit-generates``: M^lambda_b u is the basis vector e_b for every
       basis weight lambda_b, so u generates the module over the M_i.
    2. ``mult-matrices-commute``: M_i M_j = M_j M_i for every pair.  This
       is the pipeline's one commutativity check; it is what makes the
       Koszul complex of the M_i - I a complex, and
       :func:`homology.homology_of` meets d∘d = 0 again, exactly, as a
       by-product of its reduction.
    3. Each relation P(M) = 0 of the quotient is checked on u alone:
       ``character-relation`` chi_j(M) u = dim_j u for every fundamental
       character, and ``augmentation-nilpotent`` (M_i - I)^N u = 0 with
       N = |positive roots| + 1.  Since the M_i commute and u generates,
       P(M) e_b = M^lambda_b P(M) u, so P(M) = 0 exactly when P(M) u = 0.

    Every product is a polynomial in these commuting operators, so its
    commutativity, unit and associativity follow exactly.
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
