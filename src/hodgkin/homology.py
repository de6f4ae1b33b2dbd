"""Exact homology of finite complexes of free abelian groups.

A complex is a chain ``C_0 <- C_1 <- ... <- C_L`` of integer matrices
whose consecutive products vanish.  Homology at each degree, with
explicit cycles, is split off two Smith decompositions: one for the
outgoing boundary (cutting out the kernel), one for the incoming
boundaries rewritten in kernel coordinates (reading off invariant
factors).  The Betti numbers and torsion found that way must agree with
the rank and invariant factors of each boundary map, read off the first
of those forms.  All arithmetic is exact, and every audit exact and
deterministic; what :func:`homology_of` audits, and why that suffices,
is set out there.

The one builder needed downstream is the Koszul complex of a family of
commuting operators: degree p is one copy of the underlying module per
p-subset of operator indices, and the boundary contracts one index at a
time with alternating signs.

Each fact is checked once.  Neither builder multiplies boundaries
together: :func:`homology_of` tests d∘d = 0 exactly while it reduces a
complex, and the flag module's audit certifies that the pipeline's
operators commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .errors import DefectError


def wedge_basis(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Sorted p-element subsets of range(n), lexicographically ordered.

    Fixes the block order used by :func:`koszul_complex`: the degree-p
    module is one block per subset, in exactly this order.
    """
    return tuple(combinations(range(n), p))


@dataclass(eq=False)
class ChainComplex:
    """``C_0 <- C_1 <- ... <- C_L`` with ``maps[p]`` sending C_{p+1} to C_p.

    The constructor checks shapes only.  That consecutive maps compose
    to zero is checked exactly by :func:`homology_of`, which forms every
    ``V d_in`` anyway, and by ``verify --level full``.
    """

    ranks: tuple[int, ...]
    maps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.ranks = tuple(int(r) for r in self.ranks)
        self.maps = tuple(linalg.as_int_array(m) for m in self.maps)
        if len(self.maps) != max(len(self.ranks) - 1, 0):
            raise ValueError("need exactly one boundary map per adjacent degree pair")
        for p, mat in enumerate(self.maps):
            expected = (self.ranks[p], self.ranks[p + 1])
            if mat.shape != expected:
                raise ValueError(
                    f"boundary into degree {p} has shape {mat.shape}, expected {expected}")

    @property
    def length(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, p: int) -> np.ndarray:
        """d_p : C_p -> C_{p-1}, with zero maps of the right shape off the ends."""
        if 1 <= p <= self.length:
            return self.maps[p - 1]
        if p == 0:
            return np.zeros((0, self.ranks[0]), dtype=np.int64)
        if p == self.length + 1:
            return np.zeros((self.ranks[self.length], 0), dtype=np.int64)
        raise ValueError(f"degree {p} is outside the complex")


def koszul_complex(operators) -> ChainComplex:
    """Koszul complex of pairwise commuting integer operators on Z^m.

    Degree p holds one copy of Z^m per p-subset S of operator indices
    (ordered as in :func:`wedge_basis`); the boundary removes one index
    at a time with alternating signs,

        d(e_S (x) v) = sum_k (-1)^k e_{S minus S[k]} (x) operators[S[k]] v,

    k counted from zero.  Commutativity is exactly what makes the square
    of this vanish.  It is not checked here: the pipeline's operators
    come certified commuting from the module audit, and
    :func:`homology_of` rejects any complex whose square does not vanish.
    """
    ops = [linalg.as_int_array(b) for b in operators]
    n = len(ops)
    if n == 0:
        raise ValueError("need at least one operator")
    m = ops[0].shape[0] if ops[0].ndim == 2 else -1
    for b in ops:
        if b.ndim != 2 or b.shape != (m, m):
            raise ValueError("operators must be square matrices of one common size")
    use_object = any(b.dtype == object for b in ops)
    ranks = tuple(comb(n, p) * m for p in range(n + 1))
    maps = []
    for p in range(1, n + 1):
        row_index = {s: i for i, s in enumerate(wedge_basis(n, p - 1))}
        cols = wedge_basis(n, p)
        d = np.zeros((comb(n, p - 1) * m, comb(n, p) * m),
                     dtype=object if use_object else np.int64)
        for cb, subset in enumerate(cols):
            for k, i in enumerate(subset):
                rb = row_index[subset[:k] + subset[k + 1:]]
                block = ops[i] if k % 2 == 0 else -ops[i]
                d[rb * m:(rb + 1) * m, cb * m:(cb + 1) * m] = block
        maps.append(d)
    return ChainComplex(ranks=ranks, maps=tuple(maps))


@dataclass(eq=False)
class DegreeHomology:
    """Homology at one degree: free rank, invariant factors, explicit cycles.

    ``cycle_basis`` columns are cycles representing the free generators;
    ``reduce_matrix`` is a left inverse on those columns, so
    :meth:`reduce` projects any cycle onto the free generators' classes.
    """

    degree: int
    betti: int
    torsion: tuple[int, ...]
    cycle_basis: np.ndarray
    reduce_matrix: np.ndarray
    boundary_out: np.ndarray

    def reduce(self, vec) -> np.ndarray:
        """Coordinates of a cycle's class on the free generators.

        ``vec`` is one chain, or a matrix whose columns are chains; the
        result has the same shape, coordinates in place of chains.
        Raises ValueError when a column is not a cycle of this degree.
        Torsion components are projected away, so cycles differing by a
        torsion class reduce identically.
        """
        x = linalg.as_int_array(vec)
        if x.ndim not in (1, 2) or x.shape[0] != self.boundary_out.shape[1]:
            raise ValueError("vector does not live in this degree")
        if np.any(linalg.dot_exact(self.boundary_out, x)):
            raise ValueError("vector is not a cycle")
        return linalg.dot_exact(self.reduce_matrix, x)


def _canonical_free_basis(basis: np.ndarray, reducer: np.ndarray):
    """Hermite-canonicalize the generator columns; fix the reducer to match.

    For independent generators H = T basis^T and T are unique, so the basis
    H^T does not depend on the elimination; R' = T^-T R keeps R' H^T = I.
    """
    h, _, t_inv = linalg.hermite_rows(basis.T)
    return h.T, linalg.dot_exact(t_inv.T, reducer)


def homology_of(cx: ChainComplex) -> tuple[DegreeHomology, ...]:
    """Homology of the complex in every degree, lowest first.

    Per degree p: the Smith form of d_p cuts out the kernel Z_p; d_{p+1}
    is rewritten in kernel coordinates, and a second Smith form, of
    these relations, yields free generators z and a reducer R; z is put
    in Hermite form and R follows by the inverse that form co-tracks.
    Four exact checks, each raising ``DefectError``, certify the result:

    1. the leading rank-r blocks of d_p's Smith form pass
       :func:`linalg.audit_smith`, which certifies r_p = rank d_p and
       its invariant factors; as U[:, :r] D_r is injective, the rows
       V[:r] d_{p+1} of the fold vanish exactly when d_p d_{p+1} = 0;
    2. d_p z = 0, R z = I and R d_{p+1} = 0;
    3. b_p = rank C_p - r_p - r_{p+1};
    4. the torsion is the invariant factors of d_{p+1} above 1.

    The relations' Smith form needs no audit.  R maps Z_p onto Z^b, split
    by z, and vanishes on B_p, so its kernel on Z_p has rank r_{p+1} =
    rank B_p; modulo B_p that kernel is the torsion of H_p, which is the
    torsion of coker d_{p+1}, as C_p / Z_p is free.

    This stays on dense Smith forms: their pivots choose the complement
    of the boundaries in the cycles, the canonicalization keeps that
    choice, and the signs of the exterior determinants follow from it.
    Another elimination order would give an equally valid basis and
    different reported signs.
    """
    out, factors = [], []
    for p in range(cx.length + 1):
        d_out = cx.boundary(p)
        d_in = cx.boundary(p + 1)
        sm_out = linalg.smith(d_out)
        r = sm_out.rank
        linalg.audit_smith(d_out, linalg.SmithResult(
            diag=sm_out.diag[:r], u=sm_out.u[:, :r], u_inv=sm_out.u_inv[:r],
            v=sm_out.v[:r], v_inv=sm_out.v_inv[:, :r]))
        factors.append(sm_out.diag[:r])
        folded = linalg.dot_exact(sm_out.v, d_in)
        if np.any(folded[:r, :]):
            raise DefectError(f"boundaries escape the kernel at degree {p}")
        relations = folded[r:, :]
        sm_rel = linalg.smith(relations, _columns=False)
        s = sm_rel.rank
        torsion = tuple(int(d) for d in sm_rel.diag[:s] if d > 1)
        betti = cx.ranks[p] - r - s
        basis = linalg.dot_exact(sm_out.v_inv[:, r:], sm_rel.u[:, s:])
        reducer = linalg.dot_exact(sm_rel.u_inv[s:, :], sm_out.v[r:, :])
        basis, reducer = _canonical_free_basis(basis, reducer)
        if np.any(linalg.dot_exact(d_out, basis)):
            raise DefectError(f"a free generator fails the cycle test at degree {p}")
        if not np.array_equal(linalg.dot_exact(reducer, basis),
                              np.eye(betti, dtype=np.int64)):
            raise DefectError(f"reduction is not a retraction at degree {p}")
        if np.any(linalg.dot_exact(reducer, d_in)):
            raise DefectError(f"the reduction does not vanish on boundaries at degree {p}")
        out.append(DegreeHomology(
            degree=p, betti=betti, torsion=torsion,
            cycle_basis=basis, reduce_matrix=reducer, boundary_out=d_out))
        # the next degree's Smith forms must not start while these transforms
        # are still bound: they would set the peak memory
        del sm_out, folded, relations, sm_rel
    factors.append([])  # d_{length+1} is zero
    for p, h in enumerate(out):
        betti = cx.ranks[p] - len(factors[p]) - len(factors[p + 1])
        torsion = tuple(int(x) for x in factors[p + 1] if x > 1)
        if (h.betti, h.torsion) != (betti, torsion):
            raise DefectError(f"homology disagrees with boundary factors at degree {p}")
    return tuple(out)
