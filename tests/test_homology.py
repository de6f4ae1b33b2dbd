import hashlib
import random
import tracemalloc
import weakref
from math import comb

import numpy as np
import pytest

from hodgkin import homology, linalg
from hodgkin.errors import DefectError
from hodgkin.homology import ChainComplex, koszul_complex


def test_wedge_basis_counts_and_order():
    assert homology.wedge_basis(3, 0) == ((),)
    assert homology.wedge_basis(3, 1) == ((0,), (1,), (2,))
    assert homology.wedge_basis(3, 2) == ((0, 1), (0, 2), (1, 2))
    for n in range(5):
        for p in range(n + 2):
            assert len(homology.wedge_basis(n, p)) == comb(n, p)


def test_complex_constructor_validates():
    good = ChainComplex(ranks=(1, 1), maps=(np.array([[2]]),))
    assert good.length == 1
    with pytest.raises(ValueError):
        ChainComplex(ranks=(1, 1), maps=())
    with pytest.raises(ValueError):
        ChainComplex(ranks=(1, 1), maps=(np.array([[2, 0]]),))
    # d @ d != 0 is not the constructor's to check: homology_of meets it
    bad = ChainComplex(ranks=(1, 1, 1), maps=(np.array([[1]]), np.array([[1]])))
    with pytest.raises(DefectError, match="^boundaries escape the kernel at degree 1$"):
        homology.homology_of(bad)


def test_betti_zero_degrees_have_empty_bases():
    # multiplication by 2 on Z: both degrees have betti 0, and the
    # canonical basis of no generators is N x 0 with a 0 x N reducer
    res = homology.homology_of(ChainComplex(ranks=(1, 1), maps=(np.array([[2]]),)))
    assert [h.betti for h in res] == [0, 0]
    for h in res:
        assert h.cycle_basis.shape == (1, 0)
        assert h.reduce_matrix.shape == (0, 1)


def test_boundary_outside_range_is_zero_shaped():
    cx = ChainComplex(ranks=(2, 3), maps=(np.zeros((2, 3), dtype=np.int64),))
    assert cx.boundary(0).shape == (0, 2)
    assert cx.boundary(2).shape == (3, 0)


def test_koszul_rejects_bad_operators():
    with pytest.raises(ValueError):
        koszul_complex([])
    with pytest.raises(ValueError):
        koszul_complex([np.array([[1, 0]])])
    a = np.array([[0, 1], [0, 0]])
    b = np.array([[1, 0], [0, 2]])
    # ab != ba: the complex is built, and homology_of finds d @ d != 0
    with pytest.raises(DefectError, match="^boundaries escape the kernel at degree 1$"):
        homology.homology_of(koszul_complex([a, b]))


def test_koszul_of_zero_operators_has_binomial_homology():
    rank = 3
    ops = [np.zeros((rank, rank), dtype=np.int64) for _ in range(2)]
    res = homology.homology_of(koszul_complex(ops))
    assert [h.betti for h in res] == [rank * comb(2, p) for p in range(3)]
    assert all(h.torsion == () for h in res)


def test_homology_of_frees_each_degree_before_the_next(monkeypatch):
    # a degree's transforms are dead when the next degree's first Smith
    # form starts, so they do not add to that degree's peak memory
    results, alive_at_start = [], []
    original = linalg.smith

    def tracking(a, *args, **kwargs):
        if len(results) % 2 == 0:  # the first of a degree's two Smith forms
            alive_at_start.append([ref() is not None for ref in results])
        sm = original(a, *args, **kwargs)
        results.append(weakref.ref(sm))
        return sm

    monkeypatch.setattr(linalg, "smith", tracking)
    rng = random.Random(7)
    res = homology.homology_of(koszul_complex(_commuting_family(rng, 4, 3)))
    assert len(results) == 2 * len(res) == 8
    assert alive_at_start == [[False] * (2 * p) for p in range(len(res))]


def test_koszul_build_makes_no_products(pipeline, monkeypatch):
    # d @ d = 0 and commutativity are not re-checked while building: the
    # module audit certifies the operators, and homology_of meets d @ d
    module = pipeline("B2").module
    eye = np.eye(module.rank, dtype=np.int64)
    families = [[m - eye for m in module.mult_matrices],
                _commuting_family(random.Random(3), 4, 3)]
    calls = []
    original = linalg.dot_exact

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return original(a, b)

    monkeypatch.setattr(linalg, "dot_exact", counting)
    for ops in families:
        cx = koszul_complex(ops)
        ChainComplex(ranks=cx.ranks, maps=cx.maps)
    assert calls == []
    monkeypatch.undo()
    for ops in families:
        homology.homology_of(koszul_complex(ops))  # and they are complexes


# sha256 over every degree's cycle basis and reducer (dtype, shape and
# entries), recorded when the canonical basis came from a list-based
# Hermite form and a CRT inverse of its transform
_BASIS_DIGESTS = {
    "A3": "fd766c92b0631b77b79f2061da7ed3aec2dc014e6d6db0daa8c8884f8553c075",
    "B3": "a1d164845535a45211f33f1a3c52642a2af775a3120c6b08399d28e696b214ba",
    "A4": "5c85d938930792804ecefc96bf9331995da0003b73aaa09c55cdf059e3a0d799",
}


def test_canonical_bases_are_pinned(pipeline):
    # the determinants are read in these bases: a drift in any cycle or
    # reducer shows here before it can reach a sign
    for name, digest in _BASIS_DIGESTS.items():
        h = hashlib.sha256()
        for deg in pipeline(name).homology:
            for mat in (deg.cycle_basis, deg.reduce_matrix):
                h.update(f"|{mat.dtype}:{mat.shape}:".encode())
                h.update(",".join(str(int(x)) for x in mat.flat).encode())
        assert h.hexdigest() == digest, name


def test_canonical_basis_needs_no_crt_inverse(pipeline, monkeypatch):
    # the Hermite form co-tracks the inverse of its transform
    calls = []
    real = linalg.inverse_unimodular

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "inverse_unimodular", counted)
    homology.homology_of(pipeline("A4").chain_complex)
    assert len(calls) == 0


def test_certification_draws_no_random_numbers(pipeline, monkeypatch):
    # A4's boundaries reach 720 rows or columns: every audit behind the
    # certificate is exact at that size, with no random probe
    def refuse(*args, **kwargs):
        raise AssertionError("the homology certificate drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    res = homology.homology_of(pipeline("A4").chain_complex)
    assert [h.betti for h in res] == [comb(4, p) for p in range(5)]


def test_homology_of_a4_peak_allocation(pipeline):
    # 33.8 MiB when dot_exact made its digit products over whole operands
    # and smith copied U and V^-1 out of their transposes
    cx = pipeline("A4").chain_complex
    tracemalloc.start()
    try:
        homology.homology_of(cx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26 << 20, peak / (1 << 20)


def test_reducer_must_vanish_on_boundaries(pipeline, monkeypatch):
    # w = y - (y z) R keeps R z = I and the cycle test, but w d_in != 0:
    # only the check that R vanishes on boundaries can catch it
    cx = pipeline("B3").chain_complex
    original = homology._canonical_free_basis
    degrees = iter(range(cx.length + 1))

    def tampered(basis, reducer):
        basis, reducer = original(basis, reducer)
        if next(degrees) == 1:
            d_in = cx.boundary(2)
            y = np.zeros(d_in.shape[0], dtype=np.int64)
            y[np.flatnonzero(np.any(d_in, axis=1))[0]] = 1
            w = y - linalg.dot_exact(linalg.dot_exact(y, basis), reducer)
            assert not np.any(linalg.dot_exact(w, basis))
            assert np.any(linalg.dot_exact(w, d_in))
            reducer = reducer.copy()
            reducer[0] += w
        return basis, reducer

    monkeypatch.setattr(homology, "_canonical_free_basis", tampered)
    with pytest.raises(DefectError, match="^the reduction does not vanish on boundaries "
                                          "at degree 1$"):
        homology.homology_of(cx)


def test_reducer_must_be_a_retraction(pipeline, monkeypatch):
    cx = pipeline("A2").chain_complex
    original = homology._canonical_free_basis

    def tampered(basis, reducer):
        basis, reducer = original(basis, reducer)
        return basis, reducer + reducer

    monkeypatch.setattr(homology, "_canonical_free_basis", tampered)
    with pytest.raises(DefectError, match="^reduction is not a retraction at degree 0$"):
        homology.homology_of(cx)


def test_torsion_must_match_the_boundary_factors(monkeypatch):
    # the relations' Smith form is not audited: a wrong invariant factor
    # there passes every per-degree check and is caught against d_1's
    original = linalg.smith
    calls = []

    def tampered(a, *args, **kwargs):
        sm = original(a, *args, **kwargs)
        calls.append(a)
        if len(calls) == 2:  # degree 0's relations, [[2]]
            sm.diag = [4]
        return sm

    monkeypatch.setattr(linalg, "smith", tampered)
    with pytest.raises(DefectError, match="^homology disagrees with boundary factors "
                                          "at degree 0$"):
        homology.homology_of(koszul_complex([np.array([[2]])]))


def test_koszul_single_operator_torsion():
    # multiplication by 2 on one copy of the integers
    res = homology.homology_of(koszul_complex([np.array([[2]])]))
    assert [h.betti for h in res] == [0, 0]
    assert res[0].torsion == (2,)
    assert res[1].torsion == ()


def test_koszul_coprime_pair_is_exact():
    res = homology.homology_of(
        koszul_complex([np.array([[2]]), np.array([[3]])]))
    assert [h.betti for h in res] == [0, 0, 0]
    assert [h.torsion for h in res] == [(), (), ()]


def test_homology_of_a1_pipeline(pipeline):
    run = pipeline("A1")
    res = run.homology
    assert [h.betti for h in res] == [1, 1]
    assert all(h.torsion == () for h in res)
    # the reduction is a retraction of the chosen cycle basis
    for h in res:
        for j in range(h.betti):
            coords = h.reduce(h.cycle_basis[:, j])
            assert coords.tolist() == [int(i == j) for i in range(h.betti)]
        # and on the whole basis at once, as columns
        assert h.reduce(h.cycle_basis).tolist() == \
            np.eye(h.betti, dtype=np.int64).tolist()


def test_reduce_ignores_boundaries(pipeline):
    run = pipeline("A2")
    res = run.homology
    rng = random.Random(42)
    for p in range(len(res) - 1):
        h = res[p]
        d_in = run.chain_complex.boundary(p + 1)
        cycle = h.cycle_basis[:, 0]
        fuzz = np.array([rng.randint(-2, 2) for _ in range(d_in.shape[1])])
        moved = cycle + linalg.dot_exact(d_in, fuzz)
        assert h.reduce(moved).tolist() == h.reduce(cycle).tolist()


def test_reduce_rejects_non_cycles(pipeline):
    run = pipeline("A1")
    h = run.homology[1]
    vec = np.ones(run.chain_complex.ranks[1], dtype=np.int64)
    if not np.any(linalg.dot_exact(run.chain_complex.boundary(1), vec)):
        vec[0] += 1  # make sure it really fails the cycle test
    with pytest.raises(ValueError):
        h.reduce(vec)
    with pytest.raises(ValueError):
        h.reduce(np.ones(run.chain_complex.ranks[1] + 1, dtype=np.int64))
    # as columns: one non-cycle column fails the matrix, and so does a
    # matrix whose row count is not this degree's rank
    with pytest.raises(ValueError):
        h.reduce(np.stack([h.cycle_basis[:, 0], vec], axis=1))
    with pytest.raises(ValueError):
        h.reduce(np.ones((run.chain_complex.ranks[1] + 1, 2), dtype=np.int64))


def _commuting_family(rng, size, count):
    """Integer polynomials in one random matrix: they pairwise commute."""
    base = np.array([[rng.randint(-2, 2) for _ in range(size)]
                     for _ in range(size)], dtype=np.int64)
    eye = np.eye(size, dtype=np.int64)
    family = []
    for _ in range(count):
        op = rng.randint(-3, 3) * eye + rng.randint(-2, 2) * base
        if rng.random() < 0.5:
            op = op + linalg.dot_exact(base, base)
        family.append(op)
    return family


def _table_of(hom):
    return [(h.degree, h.betti, h.torsion) for h in hom]


def test_homology_of_edge_complex_tables():
    # one operator with elementary divisors 1 and 4
    torsion = koszul_complex([np.array([[2, 1], [0, 2]])])
    assert _table_of(homology.homology_of(torsion)) == [(0, 0, (4,)), (1, 0, ())]
    zero_map = ChainComplex(ranks=(2, 3, 1), maps=(
        np.zeros((2, 3), dtype=np.int64), np.array([[2], [0], [4]])))
    assert _table_of(homology.homology_of(zero_map)) == \
        [(0, 2, ()), (1, 2, (2,)), (2, 0, ())]
    empty_degree = ChainComplex(ranks=(2, 0, 3), maps=(
        np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)))
    assert _table_of(homology.homology_of(empty_degree)) == \
        [(0, 2, ()), (1, 0, ()), (2, 3, ())]
