"""Ring structure on Koszul homology, its exterior certification, and
the final K-theory report.

Chains multiply by wedging exterior slots and multiplying coordinate
blocks in the flag module; the product of cycles is again a cycle, so
homology inherits a graded-commutative ring.  A class is its chain:
homology coordinates are read only by the certificate, with one
reduction per degree.  One degree-1 generator arises per fundamental
character: its relator (character minus dimension) decomposes over the
ideal generated by the ``t_j - 1``, and the cofactor blocks assemble a
cycle.  Certification then checks that ordered products of these
generators hit a homology basis in every degree with change-of-basis
determinant +-1 — the computable content of "this ring is an exterior
algebra on n odd generators".

The report at the end converts the graded ranks into the two K-group
ranks by parity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb

import numpy as np

from . import homology, laurent, linalg
from .errors import CertificationError, DefectError
from .flagk import FlagKModule
from .homology import DegreeHomology
from .laurent import CharacterSet

#: Version stamp for the serialized report schema.
FORMAT_VERSION = 1


@dataclass(eq=False)
class TorClass:
    """A homology class carried by an explicit cycle.

    ``chain`` lives in degree ``degree`` of the Koszul complex (one
    block of module coordinates per sorted index subset, blocks in
    lexicographic subset order).  Its homology coordinates are
    :meth:`DegreeHomology.reduce` of the chain.
    """

    degree: int
    chain: np.ndarray


def _merge_sign(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign of sorting the concatenation of two disjoint index tuples."""
    inversions = sum(1 for a in s for b in t if a > b)
    return (-1 if inversions % 2 else 1), tuple(sorted(s + t))


def _nonzero_blocks(chain: np.ndarray, subsets, m: int) -> list:
    """(subset, block) for every block of ``chain`` that is not zero."""
    blocks = ((s, chain[i * m:(i + 1) * m]) for i, s in enumerate(subsets))
    return [(s, blk) for s, blk in blocks if np.any(blk)]


def chain_product(a: TorClass, b: TorClass, module: FlagKModule) -> TorClass:
    """Product of two classes on their chain representatives.

    Block (S, T) of the inputs contributes to block S-union-T of the
    output when S and T are disjoint, with the sign that sorts the
    concatenation and the module product on coordinates.  The nonzero
    blocks of each factor are stacked as columns, so one call to
    :meth:`FlagKModule.products` gives every block product.  Degrees past
    the number of generators carry the zero module, so those products
    come back as the empty class of the summed degree.
    """
    n = module.datum.rank
    m = module.rank
    deg = a.degree + b.degree
    if deg > n:
        return TorClass(degree=deg, chain=np.zeros(0, dtype=np.int64))
    subsets_a = homology.wedge_basis(n, a.degree)
    subsets_b = homology.wedge_basis(n, b.degree)
    if a.chain.shape != (len(subsets_a) * m,):
        raise ValueError("left chain does not match the module's complex")
    if b.chain.shape != (len(subsets_b) * m,):
        raise ValueError("right chain does not match the module's complex")
    blocks_a = _nonzero_blocks(a.chain, subsets_a, m)
    blocks_b = _nonzero_blocks(b.chain, subsets_b, m)
    out_index = {s: i for i, s in enumerate(homology.wedge_basis(n, deg))}
    out = np.zeros(len(out_index) * m, dtype=object)
    if blocks_a and blocks_b:
        prods = module.products(np.stack([blk for _, blk in blocks_a], axis=1),
                                np.stack([blk for _, blk in blocks_b], axis=1))
        for i, (s, _) in enumerate(blocks_a):
            for j, (t, _) in enumerate(blocks_b):
                if set(s) & set(t):
                    continue
                sign, merged = _merge_sign(s, t)
                k = out_index[merged]
                out[k * m:(k + 1) * m] += sign * prods[:, i, j].astype(object)
    return TorClass(degree=deg, chain=linalg._shrink(out))


def change_of_rings_generators(chars: CharacterSet, module: FlagKModule,
                               cx: homology.ChainComplex) -> tuple[TorClass, ...]:
    """One degree-1 cycle per fundamental character.

    Each relator (character minus its dimension) has augmentation zero
    and decomposes as ``sum_j c_j (t_j - 1)``; the blocks coords(c_j)
    assemble a 1-chain whose boundary is the relator's class — zero in
    the quotient because the character acts as its dimension.  That
    boundary is taken with d_1 of ``cx``, the module's Koszul complex,
    and must vanish exactly.
    """
    n = module.datum.rank
    m = module.rank
    out = []
    for i, relator in enumerate(chars.relators):
        cofactors = laurent.decompose_augmentation_ideal(relator)
        chain = np.zeros(n * m, dtype=object)
        for j, cof in enumerate(cofactors):
            chain[j * m:(j + 1) * m] = module.coords(cof).astype(object)
        chain = linalg._shrink(chain)
        if np.any(linalg.dot_exact(cx.boundary(1), chain)):
            raise DefectError(f"relator {i} fails the cycle condition")
        out.append(TorClass(degree=1, chain=chain))
    return tuple(out)


@dataclass(frozen=True)
class ExteriorCertificate:
    """Outcome of :func:`certify_exterior`: one determinant per degree."""

    dets: tuple[int, ...]


def certify_exterior(module: FlagKModule, homres: tuple[DegreeHomology, ...],
                     generators: tuple[TorClass, ...]) -> ExteriorCertificate:
    """Certify the exterior-algebra structure, or raise with a witness.

    Checks, all exact: every generator squares to zero and generators
    anticommute (element-wise on chains); each degree p is torsion-free
    of rank (n choose p); the C(n, p) ordered generator products of
    degree p, reduced to homology coordinates in one call, form a square
    matrix of determinant +-1.  Degree 0 is the unit and degree 1 the
    generators themselves: ``module`` must have passed
    :func:`flagk._audit_module`, whose ``unit-generates`` check proves
    u x = x through the walk that :meth:`FlagKModule.products` uses.
    """
    n = module.datum.rank

    for i, gen in enumerate(generators):
        square = chain_product(gen, gen, module)
        if np.any(square.chain):
            raise CertificationError("generator-square-zero",
                                     witness={"generator": i})
    classes: dict[tuple[int, ...], TorClass] = {(): TorClass(0, module.unit_coords)}
    classes.update(((i,), gen) for i, gen in enumerate(generators))
    for i in range(n):
        for j in range(i + 1, n):
            ij = chain_product(generators[i], generators[j], module)
            ji = chain_product(generators[j], generators[i], module)
            if np.any(ij.chain + ji.chain):
                raise CertificationError("generator-anticommute",
                                         witness={"pair": (i, j)})
            classes[(i, j)] = ij

    dets = []
    for p in range(n + 1):
        chains = []
        for subset in homology.wedge_basis(n, p):
            if subset not in classes:
                classes[subset] = chain_product(classes[subset[:-1]],
                                                generators[subset[-1]], module)
            chains.append(classes[subset].chain)
        h = homres[p]
        if h.torsion:
            raise CertificationError("tor-torsion-free",
                                     witness={"degree": p, "torsion": list(h.torsion)})
        if h.betti != len(chains):
            raise CertificationError("tor-rank",
                                     witness={"degree": p, "betti": h.betti,
                                              "expected": comb(n, p)})
        det = int(linalg.det_exact(h.reduce(np.stack(chains, axis=1))))
        if det not in (1, -1):
            raise CertificationError("exterior-change-of-basis",
                                     witness={"degree": p, "determinant": det})
        dets.append(det)
    return ExteriorCertificate(dets=tuple(dets))


@dataclass(eq=False)
class KReport:
    """Everything the command line serializes for one group."""

    cartan_type: str
    rank: int
    weyl_order: int
    gram_determinant: int
    tor_table: list[dict]
    e2_table: list[dict]
    k0_rank: int
    k1_rank: int
    exterior_certified: bool
    checks: list[dict]
    timings_ms: dict
    versions: dict

    def to_dict(self) -> dict:
        return asdict(self)


def assemble_report(cartan_type: str, module: FlagKModule,
                    homres: tuple[DegreeHomology, ...],
                    certificate: ExteriorCertificate | None,
                    checks: list[dict], timings_ms: dict,
                    engine_version: str) -> KReport:
    """Fold the pipeline results into the serializable report.

    K-group ranks are the even/odd sums of the homology ranks; the
    second-page table re-indexes those ranks by the dual filtration
    degree n - p.  ``checks`` is the caller's pass/fail trail and is
    stored as given.
    """
    n = module.datum.rank
    betti = [h.betti for h in homres]
    tor_table = [
        {"degree": h.degree, "rank": h.betti, "torsion": list(h.torsion)}
        for h in homres
    ]
    e2_table = [{"p": p, "rank": betti[n - p]} for p in range(n + 1)]
    return KReport(
        cartan_type=cartan_type,
        rank=n,
        weyl_order=module.weyl.order,
        gram_determinant=module.gram_det,
        tor_table=tor_table,
        e2_table=e2_table,
        k0_rank=sum(b for p, b in enumerate(betti) if p % 2 == 0),
        k1_rank=sum(b for p, b in enumerate(betti) if p % 2 == 1),
        exterior_certified=certificate is not None,
        checks=checks,
        timings_ms=timings_ms,
        versions={"engine": engine_version, "format": FORMAT_VERSION},
    )
