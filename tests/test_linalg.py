import hashlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hodgkin import linalg
from hodgkin.errors import DefectError


def _fraction_det(rows):
    """Plain Gaussian elimination over Fractions, used as the oracle."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def _random_matrix(rng, rows, cols, span=9):
    return np.array([[rng.randint(-span, span) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


def test_det_exact_goldens():
    assert linalg.det_exact(np.array([[1, 2], [2, 3]])) == -1
    assert linalg.det_exact(np.array([[2, 0], [0, 3]])) == 6
    assert linalg.det_exact(np.array([[1, 2], [2, 4]])) == 0
    assert linalg.det_exact(np.zeros((0, 0), dtype=np.int64)) == 1


def test_det_exact_against_fraction_elimination():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 6)
        a = _random_matrix(rng, n, n)
        assert linalg.det_exact(a) == _fraction_det(a.tolist())


def test_det_exact_huge_entries():
    # far past int64: the answer must still be exact
    big = 10 ** 30
    a = np.array([[big, 1], [1, 1]], dtype=object)
    assert linalg.det_exact(a) == big - 1


@pytest.mark.parametrize("n", range(1, 21))
def test_det_exact_against_fraction_elimination_by_size(n):
    # one modular path for every size: random, singular, negated and
    # object-dtype matrices with entries past 2^63
    rng = np.random.default_rng(300 + n)
    a = rng.integers(-9, 10, size=(n, n))
    singular = a.copy()
    singular[-1] = singular[0] * 3 if n > 1 else 0
    negated = a.copy()
    negated[[0, -1]] = negated[[-1, 0]]
    if n == 1:
        negated = -negated
    wide = a.astype(object) * (1 << 64) + 1
    for case in (a, singular, negated, wide):
        expected = _fraction_det(case.tolist())
        assert linalg.det_exact(case) == expected
    assert linalg.det_exact(singular) == 0
    assert linalg.det_exact(negated) == -_fraction_det(a.tolist())


def test_det_exact_of_the_crt_primes_themselves():
    # both residues are 0 on the first two primes
    p1, p2 = linalg.crt_primes(2)
    assert linalg.det_exact(np.diag([p1, p2])) == p1 * p2
    assert linalg.det_exact(np.diag([-p1, p2])) == -p1 * p2


def test_crt_primes_are_pinned():
    assert linalg.crt_primes(30) == [
        1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447, 1048433,
        1048423, 1048391, 1048387, 1048367, 1048361, 1048357, 1048343, 1048309,
        1048291, 1048273, 1048261, 1048219, 1048217, 1048213, 1048193, 1048189,
        1048139, 1048129, 1048127, 1048123, 1048063, 1048051]


def _reference_dot(a, b):
    """Schoolbook product over Python integers, with np.dot's shapes."""
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    out = [[sum(int(a2[i, t]) * int(b2[t, j]) for t in range(a2.shape[1]))
            for j in range(b2.shape[1])] for i in range(a2.shape[0])]
    if b.ndim == 1:
        out = [row[0] for row in out]
    return out[0] if a.ndim == 1 else out


# float64 exactness (2^53), int64 headroom (2^62) and two narrower widths
_EDGES = (1 << 26, 1 << 31, 1 << 53, 1 << 62)


def _edge_operand(rng, shape, edge):
    """Entries of both signs just below, at and just above ``edge``,
    with small values and zeros mixed in; int64 or object at random."""
    size = int(np.prod(shape))
    vals = [rng.choice((-1, 1)) * rng.choice((edge - 1, edge, edge + 1,
                                               rng.randint(0, 9)))
            for _ in range(size)]
    arr = np.array(vals, dtype=object).reshape(shape)
    return arr if rng.random() < 0.4 else linalg._shrink(arr)


def _assert_matches_reference(a, b):
    got = linalg.dot_exact(a, b)
    want = _reference_dot(a, b)
    assert np.shape(got) == a.shape[:-1] + b.shape[1:]
    assert np.asarray(got).tolist() == want
    flat = np.asarray(want, dtype=object).ravel()
    fits = all(abs(x) < 1 << 62 for x in flat)
    if isinstance(got, np.ndarray):
        assert got.dtype == (np.int64 if fits else object)
    else:  # 1-D times 1-D: a scalar
        assert isinstance(got, np.int64 if fits else int)


def test_dot_exact_matches_python_integer_reference():
    rng = random.Random(28)
    for _ in range(300):
        m, k, n = (rng.randint(0, 5) for _ in range(3))
        left = (m, k) if rng.random() < 0.7 else (k,)
        right = (k, n) if rng.random() < 0.7 else (k,)
        a = _edge_operand(rng, left, rng.choice(_EDGES))
        b = _edge_operand(rng, right, rng.choice(_EDGES))
        _assert_matches_reference(a, b)


def test_dot_exact_wide_inner_dimension_and_big_integers():
    rng = random.Random(29)
    huge = np.array([[rng.randint(-(1 << 200), 1 << 200) for _ in range(40)]
                     for _ in range(3)], dtype=object)
    small = _random_matrix(rng, 40, 4)
    _assert_matches_reference(huge, small)
    _assert_matches_reference(small.T, huge.T)
    _assert_matches_reference(huge, huge.T)
    # all-zero and empty operands give int64 zeros, whatever the other side
    zeros = np.zeros((4, 40), dtype=np.int64)
    assert linalg.dot_exact(zeros, huge.T).tolist() == [[0] * 3] * 4
    assert linalg.dot_exact(zeros, huge.T).dtype == np.int64
    assert linalg.dot_exact(np.zeros((2, 0), dtype=np.int64),
                            np.zeros((0, 3), dtype=object)).tolist() == [[0] * 3] * 2
    # int64 results that must come back as Python integers
    top = np.full((2, 2), (1 << 62) + 1, dtype=np.int64)
    _assert_matches_reference(top, top)
    _assert_matches_reference(np.array([-(1 << 63)]), np.array([-1]))


def _count_products(monkeypatch) -> list[int]:
    """Digit products of each dot_exact call, by wrapping the helper that
    takes them."""
    counts = []
    add = linalg._add_products

    def counted(out, a, b, groups):
        counts.append(sum(plan[0] * plan[2] for _, plan in groups))
        return add(out, a, b, groups)

    monkeypatch.setattr(linalg, "_add_products", counted)
    return counts


def _one_split_products(a, b) -> int:
    """Digit products of one split over the whole inner dimension."""
    na, _, nb, _ = linalg._plan(linalg._maxabs(a), linalg._maxabs(b), a.shape[-1])
    return na * nb


def test_dot_exact_cancelling_wide_operands_stay_int64(monkeypatch):
    # the shape of the C4 normal-equation solve: a 28-bit operand times a
    # 27-bit one over k = 384, whose products cancel to a small result
    counts = _count_products(monkeypatch)
    rng = np.random.default_rng(30)
    p = rng.integers(-(1 << 27), 1 << 27, size=(48, 190))
    q = rng.integers(-(1 << 26), 1 << 26, size=(190, 40))
    s = rng.integers(-9, 10, size=(48, 4))
    t = rng.integers(-9, 10, size=(4, 40))
    a = np.hstack([p, p, s])
    b = np.vstack([q, -q, t])
    assert a.shape[1] == 384
    got = linalg.dot_exact(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, s @ t)
    assert np.asarray(got).tolist() == _reference_dot(a, b)
    # uniform widths: grouping the inner indices takes no more products
    assert counts == [_one_split_products(a, b)] == [2]


def _wide_inner_operands(rng, m, k, n, wide, sides):
    """a (m x k) and b (k x n) with entries of at most 10 bits, except at
    the inner indices ``wide``: there the columns of a (if "a" in sides)
    and the rows of b (if "b" in sides) hold entries of up to 200 bits.
    Each comes back int64 when it fits."""
    a = np.array([[rng.randint(-1023, 1023) for _ in range(k)] for _ in range(m)],
                 dtype=object)
    b = np.array([[rng.randint(-1023, 1023) for _ in range(n)] for _ in range(k)],
                 dtype=object)
    for t in wide:
        if "a" in sides:
            a[:, t] = [rng.choice((-1, 1)) * rng.getrandbits(200) for _ in range(m)]
        if "b" in sides:
            b[t, :] = [rng.choice((-1, 1)) * rng.getrandbits(200) for _ in range(n)]
    return linalg._shrink(a), linalg._shrink(b)


def test_dot_exact_groups_wide_inner_indices(monkeypatch):
    # a few 200-bit inner indices among <= 10-bit ones, the shape of the
    # Smith transforms of A4's degree-2 relations
    counts = _count_products(monkeypatch)
    rng = random.Random(42)
    wide = (3, 17, 41)
    for sides in ("ab", "a", "b"):
        a, b = _wide_inner_operands(rng, 40, 60, 30, wide, sides)
        # both orientations, 1-D operands, and int64 with object operands
        for x, y in ((a, b), (b.T, a.T), (a[5], b), (a, b[:, 7]), (a[5], b[:, 7])):
            counts.clear()
            _assert_matches_reference(x, y)
            assert counts[0] <= _one_split_products(x, y), (sides, x.shape, y.shape)
    # wide on both sides of an index: the wide group alone is cut into
    # digits, over 3 indices rather than 60
    a, b = _wide_inner_operands(rng, 40, 60, 30, wide, "ab")
    counts.clear()
    linalg.dot_exact(a, b)
    assert counts == [65] and _one_split_products(a, b) == 80
    # 200-bit terms that cancel: an int64 result
    s, t = _wide_inner_operands(rng, 40, 20, 30, (), "")
    x, y = np.hstack([a, a, s]), np.vstack([b, -b, t])
    counts.clear()
    got = linalg.dot_exact(x, y)
    assert got.dtype == np.int64 and np.array_equal(got, s @ t)
    assert got.tolist() == _reference_dot(x, y)
    assert counts[0] < _one_split_products(x, y)
    # an index whose other side is zero adds nothing, however wide: it
    # must not reach a float64 product (2^1100 does not fit one)
    x, y = s.astype(object), t.copy()
    x[:, 4], y[4, :] = 1 << 1100, 0
    counts.clear()
    _assert_matches_reference(x, y)
    _assert_matches_reference(y.T, x.T)
    assert counts == [1, 1]


def test_dot_exact_sizes_its_output_by_the_per_index_bound(monkeypatch):
    # the shape of C4's monomial_operator solves: the 28-bit columns of
    # gram_inv meet small rows of the right-hand sides and the 27-bit rows
    # meet small columns, so max|a| * max|b| * k passes 2^62 while every
    # inner index is narrow and the plan is one float64 product
    rng = np.random.default_rng(34)
    k = 384
    a = rng.integers(-9, 10, size=(40, k))
    a[:, :k // 2] = rng.integers(-(1 << 28), 1 << 28, size=(40, k // 2))
    b = rng.integers(-9, 10, size=(k, 30))
    b[k // 2:] = rng.integers(-(1 << 27), 1 << 27, size=(k // 2, 30))
    assert linalg._maxabs(a) * linalg._maxabs(b) * k >= 1 << 62
    seen = []
    add = linalg._add_products

    def recording(out, a, b, groups):
        seen.append((out.dtype, sum(plan[0] * plan[2] for _, plan in groups)))
        return add(out, a, b, groups)

    monkeypatch.setattr(linalg, "_add_products", recording)
    got = linalg.dot_exact(a, b)
    assert seen == [(np.int64, 1)]
    assert got.dtype == np.int64
    assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()


def test_dot_exact_runs_in_row_panels(monkeypatch):
    # the shape of audit_smith's reconstruction of A4's d_3: U[:, :r] D with
    # 45-bit entries by V[:r] with 6-bit ones, a 2 x 1 plan into int64.
    # Over whole operands its digit temporaries took 18.0 MiB.
    counts = _count_products(monkeypatch)
    rng = np.random.default_rng(31)
    a = rng.integers(-(1 << 45), 1 << 45, size=(720, 357))
    b = rng.integers(-63, 64, size=(357, 480))
    tracemalloc.start()
    try:
        got = linalg.dot_exact(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [2] and got.dtype == np.int64
    assert np.array_equal(got, a @ b)  # int64 matmul: exact below 2^62
    assert peak <= got.nbytes + (4 << 20), peak / (1 << 20)
    # rows around the panel edges, a 1-D left operand and no rows, with
    # digit products into int64 (24 bits) and into Python integers (40 bits)
    pyrng = random.Random(33)
    k = 1 << 12
    h = linalg._PRODUCT_CELLS // k
    assert h == 8
    for bits in (24, 40):
        b = np.array([[pyrng.randint(-(1 << bits), 1 << bits) for _ in range(2)]
                      for _ in range(k)], dtype=np.int64)
        for rows in (1, h - 1, h, h + 1, 2 * h + 3, 0):
            a = np.array([[pyrng.randint(-(1 << bits), 1 << bits) for _ in range(k)]
                          for _ in range(rows)], dtype=np.int64).reshape(rows, k)
            _assert_matches_reference(a, b)
        _assert_matches_reference(b[:, 0], b)
    assert len(counts) == 13 and min(counts) == 2  # no rows: no products


def test_inverse_unimodular_roundtrip():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 5)
        # build a unimodular matrix from random elementary row operations
        a = np.eye(n, dtype=np.int64)
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                a[i] += rng.randint(-3, 3) * a[j]
        inv, det = linalg.inverse_unimodular(a)
        assert np.array_equal(linalg.dot_exact(a, inv), np.eye(n, dtype=np.int64))
        assert det == linalg.det_exact(a)


def test_inverse_unimodular_rejects_non_units():
    with pytest.raises(ValueError):
        linalg.inverse_unimodular(np.array([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        linalg.inverse_unimodular(np.array([[1, 1], [1, 1]]))


def _seeded_unimodular(rng, n, span):
    """L U with unit lower L and upper U of diagonal +-1: determinant +-1,
    and an inverse whose entries grow with ``span``."""
    lower = np.tril(rng.integers(-span, span + 1, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(-span, span + 1, size=(n, n)), 1) \
        + np.diag(rng.choice([-1, 1], size=n))
    return linalg.dot_exact(lower, upper)


def test_inverse_unimodular_lifts_past_int64(monkeypatch):
    p = linalg.crt_primes(1)[0]
    products = []
    original = linalg.dot_exact

    def counting(a, b):
        products.append(1)
        return original(a, b)

    monkeypatch.setattr(linalg, "dot_exact", counting)
    dtypes = set()
    for seed, n, span in ((0, 12, 9), (1, 8, 99), (2, 10, 999)):
        a = _seeded_unimodular(np.random.default_rng(seed), n, span)
        products.clear()
        inv, det = linalg.inverse_unimodular(a)
        calls = len(products)
        assert np.array_equal(linalg.dot_exact(a, inv), np.eye(n, dtype=np.int64))
        assert det == linalg.det_exact(a)
        # the least p^k above twice every entry; one lift per step past p
        least = next(k for k in range(1, 99) if 2 * linalg._maxabs(inv) < p ** k)
        assert least >= 3
        assert calls == 2 * least - 1  # each step: its A X check, then a lift
        dtypes.add(inv.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_inverse_unimodular_rejects_what_one_prime_cannot_tell():
    p = linalg.crt_primes(1)[0]
    for diag in ((1 + p, 1), (p, 1), (2, 1), (1 - p, -1)):
        with pytest.raises(ValueError):
            linalg.inverse_unimodular(np.diag(diag))


def test_inverse_unimodular_rejects_a_wrong_modular_inverse(monkeypatch):
    # a residual that does not divide exactly means C is not A^-1 mod p
    original = linalg._inverse_mod

    def off_by_one(a, p):
        inv, det = original(a, p)
        return (inv + 1) % p, det

    monkeypatch.setattr(linalg, "_inverse_mod", off_by_one)
    a = _seeded_unimodular(np.random.default_rng(1), 8, 99)
    with pytest.raises(ValueError, match="not divisible"):
        linalg.inverse_unimodular(a)


def test_smith_goldens():
    sm = linalg.smith(np.array([[2, 0], [0, 3]]))
    assert [d for d in sm.diag if d] == [1, 6]
    sm = linalg.smith(np.array([[2, 4], [4, 8]]))
    assert [d for d in sm.diag if d] == [2]
    sm = linalg.smith(np.zeros((3, 2), dtype=np.int64))
    assert sm.rank == 0


def test_smith_empty_shapes():
    for shape in ((0, 4), (4, 0), (0, 0)):
        sm = linalg.smith(np.zeros(shape, dtype=np.int64))
        assert sm.rank == 0
        assert sm.u.shape == (shape[0], shape[0])
        assert sm.v.shape == (shape[1], shape[1])


def test_smith_without_columns_makes_one_side(monkeypatch):
    # _columns=False makes no column side, and U, U^-1 and D are unchanged
    made = []
    init = linalg._Side.__init__

    def counted(self, n):
        made.append(n)
        init(self, n)

    monkeypatch.setattr(linalg._Side, "__init__", counted)
    rng = np.random.default_rng(8)
    cases = [np.zeros(shape, dtype=np.int64) for shape in ((0, 4), (4, 0), (0, 0), (3, 2))]
    cases += [rng.integers(-9, 10, size=(5, 7)), rng.integers(-9, 10, size=(6, 1)),
              rng.integers(-20, 21, size=(6, 6)) * 10 ** 14]
    for a in cases:
        rows, cols = a.shape
        made.clear()
        full = linalg.smith(a)
        assert made == [rows, cols]
        made.clear()
        part = linalg.smith(a, _columns=False)
        assert made == [rows]
        assert part.diag == full.diag
        for name in ("u", "u_inv"):
            got, want = getattr(part, name), getattr(full, name)
            assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())
        assert (part.v.shape, part.v_inv.shape) == ((0, cols), (cols, 0))


def test_smith_reconstruction_and_divisibility_random():
    rng = random.Random(23)
    for k in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols)
        if k % 5 == 2:
            a = a * 10 ** 14  # push the bookkeeping into big-integer range
        sm = linalg.smith(a)
        d = np.zeros(a.shape, dtype=object)
        d[range(len(sm.diag)), range(len(sm.diag))] = sm.diag
        recon = linalg.dot_exact(linalg.dot_exact(sm.u, d), sm.v)
        assert np.array_equal(recon, a)
        live = [x for x in sm.diag if x]
        assert all(x > 0 for x in live)
        for x, y in zip(live, live[1:]):
            assert y % x == 0
        for t, t_inv in ((sm.u, sm.u_inv), (sm.v, sm.v_inv)):
            n = t.shape[0]
            assert np.array_equal(linalg.dot_exact(t, t_inv),
                                  np.eye(n, dtype=np.int64))


def _reference_pivot(sub) -> int | None:
    """Least nonzero |x|, first in row-major order, by a Python loop."""
    best = None
    for flat, x in enumerate(sub.ravel().tolist()):
        if x and (best is None or abs(x) < best[0]):
            best = (abs(x), flat)
    return None if best is None else best[1]


def _pivot_cases():
    """Seeded matrices up to 40 x 60: a unit in row 0, units only in a
    later row or only in the last, only -1s, no unit (least entry 2 or
    3), all zeros, int64 extremes, and object entries past 2^64."""
    rng = np.random.default_rng(41)
    for k in range(64):
        rows, cols = int(rng.integers(1, 41)), int(rng.integers(1, 61))
        kind = k % 8
        a = rng.choice([0, 0, 0, 2, -2, 3, -3, 5, -7, 9], size=(rows, cols))
        if kind == 3:
            a[rng.random(a.shape) < 0.2] = 0
            yield a
            continue
        if kind == 4:
            yield np.zeros((rows, cols), dtype=np.int64)
            continue
        if kind == 6:   # int64 extremes: |-2^63| wraps in int64
            a = a * ((1 << 62) // 9)
            a.flat[int(rng.integers(a.size))] = -(1 << 63)
        units = int(rng.integers(1, 4))
        row = {0: 0, 5: rows - 1}.get(kind, int(rng.integers(min(1, rows - 1), rows)))
        for _ in range(units):
            sign = -1 if kind == 2 else int(rng.choice((-1, 1)))
            a[int(rng.integers(row, rows)), int(rng.integers(cols))] = sign
        if kind == 7:   # past 2^64, with and without a unit left
            a = a.astype(object) * (1 << 64)
            if k % 16 == 7:
                a[a == 1 << 64] = 1
        yield a


def test_pivot_search_takes_first_least_nonzero_magnitude():
    rng = random.Random(29)
    cases = []
    for k in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), span=3)
        if k % 4 == 1:
            a = a.astype(object)
        elif k % 4 == 3:
            a = a.astype(object) * 2 ** 64  # past int64
        cases.append(a)
    kinds = {"unit": 0, "no unit": 0, "zero": 0, "object": 0}
    for a in cases + list(_pivot_cases()):
        want = _reference_pivot(a)
        assert linalg._pivot_index(a) == want, a
        if a.dtype == object:
            kinds["object"] += 1
        if want is None:
            kinds["zero"] += 1
        elif abs(int(a.flat[want])) == 1:
            kinds["unit"] += 1
        else:
            kinds["no unit"] += 1
    assert all(kinds.values()), kinds


def test_pivot_index_matches_the_reference_inside_smith(pipeline, monkeypatch):
    # every pivot search of a real Smith form, checked as it happens
    search = linalg._pivot_index
    calls = 0

    def checked(sub):
        nonlocal calls
        got = search(sub)
        assert got == _reference_pivot(sub)
        calls += 1
        return got

    monkeypatch.setattr(linalg, "_pivot_index", checked)
    for name in ("A3", "B3"):
        for d in pipeline(name).chain_complex.maps:
            linalg.smith(d)
    assert calls > 200


def test_growth_bounds_match_python_loops():
    # the escalation caps depend on max|q| and sum|q| being exact, also
    # where the int64 sum of |q| would wrap
    rng = random.Random(31)
    for k in range(60):
        span = rng.choice((3, 1 << 40, (1 << 61) + 5, 1 << 70))
        vals = [rng.randint(-span, span) for _ in range(rng.randint(1, 9))]
        qvec = np.array(vals, dtype=object) if span > 1 << 62 else np.array(vals)
        if k % 3 == 0:
            qvec = vals  # a plain list, as row_add passes
        _, qmax, qsum = linalg._growth(qvec)
        assert qmax == max(abs(v) for v in vals)
        assert qsum == sum(abs(v) for v in vals)


def _digest(sm) -> str:
    """sha256 over the diagonal and, entry by entry, the four transforms
    (with their dtypes and shapes)."""
    h = hashlib.sha256()
    h.update(",".join(str(int(d)) for d in sm.diag).encode())
    for name in ("u", "u_inv", "v", "v_inv"):
        mat = getattr(sm, name)
        h.update(f"|{name}:{mat.dtype}:{mat.shape}:".encode())
        h.update(",".join(str(int(x)) for x in mat.flat).encode())
    return h.hexdigest()


def _smith_digest(a) -> str:
    return _digest(linalg.smith(a))


# Digests of the pivot sequence the golden exterior determinants were
# computed with: a different (equally valid) Smith form changes their signs.
# ("A4", p) is the boundary d_p, ("A4T", p) its transpose (a boundary of
# the dual complex) and ("A4rel", p) the relation matrix of homology_of at
# degree p; ("battery", 0) covers every matrix of _battery().
_SMITH_DIGESTS = {
    ("A3", 1): "aa915beb1744fb590c32e4b4797532e3d5f273bb1d6de02e96017f0b1413866f",
    ("A3", 2): "365c89460526fb569201fe37ad28d82de3c2a0d8ecf23465d3b0fafdc3b55ce8",
    ("A3", 3): "dc5110d1f35d12da5711c7ad7f52e297983b4c64e4bf3b655511057c534cd806",
    ("B2", 1): "9eaef84fbbdb88aed4996f8066c5b73611f7d8e2493f09d8892434d4b3343476",
    ("B2", 2): "78cf0855a20bc184f9dabefcee760a798e576a3d14c37314f7ebce04641460c0",
    ("scaled", 0): "5b56de7d520c9756e08ddcfd60ed37589d628fd5e5490ad223b1bfbdaa0903cf",
    ("A4", 1): "83edd605c44d3a6971c394b4e1aa9efd16226124b80fbdfc7264f530f1fee5c3",
    ("A4", 2): "6c9700008222d5058ec530c9e054946a2279e47142d93aeb1ca6adbfd48ed7f2",
    ("A4", 3): "f0f972bb08e7044e48efd9fe7a9e2c82a428a5aa5dba6fda868bb1c8479e25d0",
    ("A4", 4): "2d3aafce6a769346f62e98baa4844e8c1dc438d40346908363e527209a073b35",
    ("A4T", 1): "46c77518813d3c1b36181db58e3e29edbb5f8601d8964bc26016bf7a3ee0c2b7",
    ("A4T", 2): "b235da26a191e87794ddcb9422f2ce4a6f380f60e027f1f517b1a266c239c02a",
    ("A4T", 3): "a4be6b133eb682eec3732989fbfad4ad1ff7329c84077cbdb9a13d2b81e5cee3",
    ("A4T", 4): "9dee0cfc047b62751ed2abcc52fc8e40baa12de3100cbc64d86586cd92bd4c9e",
    ("A4rel", 1): "9b51a24dab7d488bf2433e373d03c564c50e61791919b3d1484bb9807ba32a53",
    ("A4rel", 2): "486fc24f59a9625ad36559d53a49816b1abbf263dcfefd4d2e56c681c5e611e7",
    ("A4rel", 3): "67dc3ab672c3f76199101fbdc7ed4b92ecec3c8dd4d51ce3ea5a2cd49ff1374d",
    ("battery", 0): "3b4341fa929bea380568539e36b8930d1ee91eaacafda94804f9e9b31be18abc",
}


def test_smith_transforms_are_pinned(pipeline):
    for name in ("A3", "B2"):
        for p, d in enumerate(pipeline(name).chain_complex.maps, 1):
            assert _smith_digest(d) == _SMITH_DIGESTS[name, p], (name, p)
    # entries near 2^60 drive the working matrix and the transforms to object
    rng = np.random.default_rng(3)
    a = rng.integers(-20, 21, size=(8, 8)).astype(np.int64) * 10 ** 14
    sm = linalg.smith(a)
    assert [m.dtype for m in (sm.u, sm.u_inv, sm.v, sm.v_inv)] == \
        [object, object, np.int64, object]
    assert _smith_digest(a) == _SMITH_DIGESTS["scaled", 0]


def _bits(mat) -> int:
    return max((abs(int(x)) for x in mat.flat), default=0).bit_length()


def test_smith_transforms_are_pinned_on_a4(pipeline):
    maps = pipeline("A4").chain_complex.maps
    for p, d in enumerate(maps, 1):
        sm = linalg.smith(d)
        assert _digest(sm) == _SMITH_DIGESTS["A4", p], p
        smt = linalg.smith(d.T)
        assert _digest(smt) == _SMITH_DIGESTS["A4T", p], p
        if p == 2:  # the transforms leave int64 on the way
            assert (_bits(smt.u), _bits(smt.v_inv)) == (272, 274)
        if p < len(maps):
            r = sm.rank
            relations = linalg.dot_exact(sm.v, maps[p])[r:, :]
            assert _smith_digest(relations) == _SMITH_DIGESTS["A4rel", p], p


def _battery() -> list[np.ndarray]:
    """Seeded matrices that reach every branch of the Smith loop: empty
    and zero shapes, remainder swaps, non-divisible pivots, escalation to
    object part-way through, and wide sparse matrices whose transforms
    collect many dirty rows."""
    rng = np.random.default_rng(2024)
    mats = [np.zeros(shape, dtype=np.int64) for shape in ((0, 4), (4, 0), (0, 0), (3, 2))]
    for k in range(36):
        shape = tuple(int(x) for x in rng.integers(1, 10, size=2))
        kind = k % 6
        if kind == 0:
            a = rng.integers(-20, 21, size=shape)
        elif kind == 1:   # least entries 2 and 3: remainders and non-divisible pivots
            a = rng.choice([0, 0, 2, -2, 3, -3, 4, 6, 9, -10], size=shape)
        elif kind == 2:
            a = rng.integers(-20, 21, size=shape) * 10 ** 14
        elif kind == 3:   # entries near 2^40
            a = rng.integers(-3, 4, size=shape) + \
                rng.choice([0, 1 << 40, -(1 << 40)], size=shape)
        elif kind == 4:
            a = rng.integers(-6, 7, size=(shape[0] + 12, shape[1] + 18))
            a[rng.random(a.shape) < 0.7] = 0
        else:
            a = rng.integers(-2, 3, size=shape) * rng.choice([1, 2, 6, 30], size=shape)
        mats.append(a.astype(np.int64))
    return mats


def _count_paths(monkeypatch) -> dict:
    """Count remainder swaps (rounds of _reduce_once that end in one),
    non-divisible row adds (each follows an entry _find_nondivisible
    finds) and escalations to object made by updates (a cap that
    _Capped.grow drops), by wrapping those three."""
    seen = {"remainder_swap": 0, "row_add": 0, "escalation": 0}
    reduce_once, find, grow = linalg._reduce_once, linalg._find_nondivisible, \
        linalg._Capped.grow

    def counted_reduce(*args):
        swapped = reduce_once(*args)
        seen["remainder_swap"] += swapped
        return swapped

    def counted_find(*args):
        bad = find(*args)
        seen["row_add"] += bad is not None
        return bad

    def counted_grow(self, growth):
        grow(self, growth)
        seen["escalation"] += self.cap is None

    monkeypatch.setattr(linalg, "_reduce_once", counted_reduce)
    monkeypatch.setattr(linalg, "_find_nondivisible", counted_find)
    monkeypatch.setattr(linalg._Capped, "grow", counted_grow)
    return seen


def test_smith_battery_is_pinned_and_reaches_every_path(monkeypatch):
    seen = _count_paths(monkeypatch)
    h = hashlib.sha256()
    for a in _battery():
        sm = linalg.smith(a)
        h.update(_digest(sm).encode())
        linalg.audit_smith(a, sm)  # exact at every shape and entry size
    assert h.hexdigest() == _SMITH_DIGESTS["battery", 0]
    assert all(count > 0 for count in seen.values()), seen


def test_int64_caps_bound_every_entry(monkeypatch):
    # an under-estimated cap would let an int64 update wrap silently; the
    # caps must bound the entries after every batch update, and the result
    # must equal a run with every working matrix in Python integers
    battery = _battery()
    rng = np.random.default_rng(5)
    battery += [rng.integers(-20, 21, size=(7, 9)) * 10 ** 14,
                rng.integers(-3, 4, size=(9, 7)) + (1 << 40),
                rng.integers(-(1 << 40), 1 << 40, size=(6, 6))]
    init = linalg._Capped.__init__

    def all_object(self, m):
        init(self, m.astype(object))

    monkeypatch.setattr(linalg._Capped, "__init__", all_object)
    forced = [_smith_digest(a) for a in battery]
    monkeypatch.setattr(linalg._Capped, "__init__", init)

    checked = 0
    axpy = linalg._Tracked.axpy

    def audited(self, *args, **kwargs):
        nonlocal checked
        axpy(self, *args, **kwargs)
        for mat in [self.a] + [m for side in self.sides for m in (side.fwd, side.inv)]:
            if mat.m.dtype == np.int64:
                assert mat.cap >= linalg._maxabs(mat.m)
                checked += 1

    monkeypatch.setattr(linalg._Tracked, "axpy", audited)
    assert [_smith_digest(a) for a in battery] == forced
    assert checked


def _reference_sub(lines, dst, src, q, lo):
    """lines[dst] -= q (x) lines[src] from entry lo on, in Python integers."""
    lines = [[int(x) for x in row] for row in lines]
    for i, qi in zip(dst, q):
        for j in range(lo, len(lines[src])):
            lines[i][j] -= int(qi) * lines[src][j]
    return lines


def test_capped_sub_matches_a_python_integer_loop():
    rng = np.random.default_rng(35)
    base = rng.integers(-50, 51, size=(6, 20))
    single, dense, spread = np.zeros(20, dtype=np.int64), rng.integers(1, 9, size=20), \
        np.zeros(20, dtype=np.int64)
    single[7] = 3
    spread[[2, 19]] = (5, -4)   # two nonzeros over a span of 18: updated by index
    dst, q = np.array([0, 3, 5]), np.array([2, -1, 7])
    for source, lo in ((single, 0), (dense, 0), (spread, 0), (dense, 6), (spread, 3)):
        for dtype in (np.int64, object):
            for axis in (0, 1):
                lines = base.copy()
                lines[1] = source
                lines = lines.astype(dtype)
                capped = linalg._Capped(np.ascontiguousarray(lines.T) if axis else lines.copy())
                capped.sub(axis, dst, 1, q.astype(dtype), 7, lo)
                got = capped.lines(axis)
                assert got.tolist() == _reference_sub(lines, dst, 1, q, lo), (lo, dtype, axis)
                # rows outside dst, and columns where the source is zero
                # or that lie left of lo, stay as they were
                rest = [i for i in range(6) if i not in dst]
                assert got[rest].tolist() == lines[rest].tolist()
                off = sorted(set(np.flatnonzero(source == 0).tolist()) | set(range(lo)))
                assert got[:, off].tolist() == lines[:, off].tolist()
    # updates that escalate part-way: the int64 matrix takes one update,
    # turns object on the next and runs the last on Python integers
    m = base.copy()
    m[1] = 0
    m[1, 4:9] = (1 << 60, 0, 3, -(1 << 59), 1)
    capped, want = linalg._Capped(m.copy()), m.tolist()
    for rows, qs, lo, dtype in (([0], [1], 0, np.int64), ([0, 2], [8, -3], 0, object),
                                ([4], [1 << 70], 5, object)):
        want = _reference_sub(want, rows, 1, qs, lo)
        capped.sub(0, np.array(rows), 1, np.array(qs), max(map(abs, qs)), lo)
        assert capped.m.dtype == dtype and (capped.cap is None) == (dtype == object)
        assert capped.m.tolist() == want


def test_mirrored_cap_is_summed_row_by_row():
    # one dirty row of inv near 2^60 with multiplier 1, narrow dirty rows
    # and a clean row with multiplier 8: sum|q| times the widest row would
    # pass 2^62, the row-by-row sum does not
    side = linalg._Side(6)
    side.inv.m[1] = (0, 1 << 60, 0, 5, 0, 0)
    side.inv.m[2] = (1, 0, 3, 0, -2, 0)
    side.inv.m[3] = (0, -6, 0, 1, 0, 4)
    side.unit[1:4] = -1
    side.inv.cap = linalg._maxabs(side.inv.m)
    before = side.inv.m.tolist()
    dst, src = np.array([1, 2, 3, 5]), 0
    qarr, qmax, qsum = linalg._growth([1, 8, 8, 8])
    assert qsum * (1 << 60) >= 1 << 62
    side.axpy(dst, src, qarr, qmax, qsum)
    assert side.inv.m.dtype == np.int64 and side.inv.cap is not None
    assert side.inv.cap >= linalg._maxabs(side.inv.m)
    want = [x + sum(int(qi) * before[i][j] for i, qi in zip(dst, qarr))
            for j, x in enumerate(before[src])]
    assert side.inv.m.tolist() == [want] + before[1:]


def test_smith_diag_matches_determinant():
    rng = random.Random(24)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        det = linalg.det_exact(a)
        sm = linalg.smith(a)
        prod = 1
        for x in sm.diag:
            prod *= x
        assert prod == abs(det)


def test_audit_catches_tampered_decomposition():
    a = np.array([[2, 1], [0, 3]])
    sm = linalg.smith(a)
    linalg.audit_smith(a, sm)  # the honest result passes
    bad = linalg.SmithResult(diag=[d + 1 for d in sm.diag], u=sm.u,
                             u_inv=sm.u_inv, v=sm.v, v_inv=sm.v_inv)
    with pytest.raises(DefectError):
        linalg.audit_smith(a, bad)
    # the leading rank-r blocks of a rank-deficient decomposition are a
    # valid input, and a changed entry in U[:, :r] or V[:r] is caught
    a = np.array([[2, 4, 0], [1, 2, 3], [3, 6, 3]])
    sm = linalg.smith(a)
    r = sm.rank
    assert r == 2
    blocks = dict(diag=sm.diag[:r], u=sm.u[:, :r], u_inv=sm.u_inv[:r],
                  v=sm.v[:r], v_inv=sm.v_inv[:, :r])
    linalg.audit_smith(a, linalg.SmithResult(**blocks))
    for name in ("u", "v"):
        for i, j in np.ndindex(blocks[name].shape):
            bad = blocks[name].copy()
            bad[i, j] += 1
            with pytest.raises(DefectError):
                linalg.audit_smith(a, linalg.SmithResult(**{**blocks, name: bad}))


def test_audit_rejects_a_tampered_wide_transform_entry(pipeline, monkeypatch):
    # A4's degree-2 relations: U and V^-1 reach 185 and 190 bits in a few
    # columns, which the audit's products take as a separate wide group of
    # inner indices; a changed entry there must not slip through
    maps = pipeline("A4").chain_complex.maps
    sm_out = linalg.smith(maps[1])
    relations = linalg.dot_exact(sm_out.v, maps[2])[sm_out.rank:, :]
    sm = linalg.smith(relations)
    groups = linalg._inner_groups
    split = []

    def seen(a, b, amax, bmax):
        out = groups(a, b, amax, bmax)
        split.append(len(out[0]))
        return out

    monkeypatch.setattr(linalg, "_inner_groups", seen)
    linalg.audit_smith(relations, sm)  # the honest result passes
    assert 2 in split
    for name in ("u", "v_inv"):
        mat = getattr(sm, name)
        i, j = next(ij for ij, x in np.ndenumerate(mat) if abs(x) >> 100)
        bad = mat.copy()
        bad[i, j] += 1
        fields = {f: getattr(sm, f) for f in ("diag", "u", "u_inv", "v", "v_inv")}
        fields[name] = bad
        with pytest.raises(DefectError):
            linalg.audit_smith(relations, linalg.SmithResult(**fields))


def test_audit_probe_path_on_wide_matrix():
    # a 401-column matrix, past the size where the audit once switched
    # to randomized probes, is audited by the same exact products
    rng = random.Random(25)
    a = np.zeros((3, 401), dtype=np.int64)
    for _ in range(60):
        a[rng.randrange(3), rng.randrange(401)] = rng.randint(-9, 9)
    sm = linalg.smith(a)
    linalg.audit_smith(a, sm)
    bad = linalg.SmithResult(diag=list(sm.diag), u=sm.u, u_inv=sm.u_inv,
                             v=sm.v.copy(), v_inv=sm.v_inv)
    bad.v[0, :] = bad.v[0, :] + 1
    with pytest.raises(DefectError):
        linalg.audit_smith(a, bad)


def test_hermite_rows_canonical_form():
    h, t, t_inv = linalg.hermite_rows(np.array([[4, 6], [2, 5]]))
    assert np.array_equal(linalg.dot_exact(
        t, np.array([[4, 6], [2, 5]], dtype=object)), h)
    assert abs(linalg.det_exact(t)) == 1
    assert np.array_equal(linalg.dot_exact(t_inv, t), np.eye(2, dtype=np.int64))
    # pivots positive, entries above a pivot reduced below it
    assert h.tolist() == [[2, 1], [0, 4]]


def test_hermite_rows_is_idempotent_on_its_output():
    rng = random.Random(26)
    for _ in range(15):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=5)
        h, t, t_inv = linalg.hermite_rows(a)
        h2, t2, t2_inv = linalg.hermite_rows(h)
        assert np.array_equal(np.asarray(h2, dtype=object), np.asarray(h, dtype=object))


def _hermite_battery() -> list[np.ndarray]:
    """Seeded sparse b x N matrices, b <= 6 and N <= 40, the shapes the
    homology canonicalization sees: plain, with columns scaled past 2^63,
    with a row that is a combination of two others, and with zero rows."""
    rng = np.random.default_rng(1515)
    mats = []
    for k in range(48):
        b, n = int(rng.integers(1, 7)), int(rng.integers(1, 41))
        a = (rng.integers(-9, 10, size=(b, n)) * (rng.random((b, n)) < 0.3)).astype(object)
        kind = k % 4
        if kind == 1:
            a[:, ::2] *= (1 << 63) + int(rng.integers(1, 1000))
        elif kind == 2 and b > 2:
            a[-1] = 2 * a[0] - a[1]
        elif kind == 3:
            a[rng.integers(0, b, size=2)] = 0
        mats.append(linalg.as_int_array(a.tolist()).reshape(b, n))
    return mats


def _assert_hermite_form(h: np.ndarray) -> int:
    """Nonzero rows first; each with a positive pivot right of the pivot
    above it, zeros below it and entries above it in [0, pivot).  Returns
    the number of nonzero rows."""
    rows = [[int(x) for x in row] for row in h]
    last = -1
    rank = 0
    for i, row in enumerate(rows):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            assert all(not any(r) for r in rows[i:])
            break
        c = nz[0]
        assert c > last and row[c] > 0
        assert all(rows[k][c] == 0 for k in range(i + 1, len(rows)))
        assert all(0 <= rows[k][c] < row[c] for k in range(i))
        last, rank = c, rank + 1
    return rank


def _update(h, name: str, mat: np.ndarray) -> None:
    """Feed a named matrix to ``h`` as :func:`_digest` feeds a transform."""
    h.update(f"|{name}:{mat.dtype}:{mat.shape}:".encode())
    h.update(",".join(str(int(x)) for x in mat.flat).encode())


# sha256 of (H, T) on the full-row-rank members of _hermite_battery, as the
# list-based elimination computed them: for such input both are unique
_HERMITE_DIGEST = "8d29851683101ced637083510508beffd5961c58e60969243bf7e1abb8c641bd"


def test_hermite_rows_battery(monkeypatch):
    made = []
    init = linalg._Side.__init__

    def counted(self, n):
        made.append(n)
        init(self, n)

    # a reduction by rows: the column side, V and V^-1, is never made
    monkeypatch.setattr(linalg._Side, "__init__", counted)
    full = hashlib.sha256()
    kinds = {"wide": 0, "deficient": 0, "zero_row": 0}
    for a in _hermite_battery():
        made.clear()
        h, t, t_inv = linalg.hermite_rows(a)
        b = a.shape[0]
        assert made == [b]
        rank = _assert_hermite_form(h)
        assert np.array_equal(linalg.dot_exact(t, a), h)
        assert np.array_equal(linalg.dot_exact(t, t_inv), np.eye(b, dtype=np.int64))
        kinds["wide"] += _bits(a) > 63
        kinds["deficient"] += 0 < rank < b
        kinds["zero_row"] += not all(np.any(a, axis=1))
        if rank == b:
            _update(full, "h", h)
            _update(full, "t", t)
    assert all(count > 0 for count in kinds.values()), kinds
    assert full.hexdigest() == _HERMITE_DIGEST


_B = linalg._PANEL


def _swapping_matrix(rng, n):
    """Row-permuted upper triangular: each pivot is the one nonzero left
    in its column, in the row the permutation moved it to."""
    upper = np.triu(rng.integers(-9, 10, size=(n, n)), 1)
    upper += np.diag(rng.choice([-3, -2, -1, 1, 2, 3], size=n))
    return upper[rng.permutation(n)]


def _leading_zeros_matrix(rng, n):
    a = rng.integers(-9, 10, size=(n, n))
    a[:n - 1, 0] = 0  # the first pivot is the last row
    a[: n // 2, 1: n // 2] = 0
    return a


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("shape", [_swapping_matrix, _leading_zeros_matrix])
@pytest.mark.parametrize("reduce_every", [linalg._EXACT_COLUMNS, 2 * _B])
def test_modular_kernel_inverse_and_det(n, shape, reduce_every, monkeypatch):
    # reduce_every = 2b makes the columns right of a panel reduce every other panel
    monkeypatch.setattr(linalg, "_EXACT_COLUMNS", reduce_every)
    rng = np.random.default_rng(1000 + n)
    a = shape(rng, n) if n else np.zeros((0, 0), dtype=np.int64)
    det_a = _fraction_det(a.tolist())
    for p in linalg.crt_primes(2) + [2, 1_000_003]:
        expected = det_a % p
        assert linalg.det_mod(a, p) == expected
        solved = linalg._inverse_mod(a, p)
        if expected == 0:
            assert solved is None
            continue
        inv, det = solved
        assert det == expected
        assert inv.dtype == np.int64 and inv.min(initial=0) >= 0 and inv.max(initial=0) < p
        assert np.array_equal(linalg.dot_exact(a, inv) % p, np.eye(n, dtype=np.int64))


def test_modular_kernel_rejects_singular_and_wide_moduli():
    p = linalg.crt_primes(1)[0]
    rng = np.random.default_rng(7)
    a = rng.integers(-9, 10, size=(2 * _B + 3, 2 * _B + 3))
    a[:, _B + 1] = 2 * a[:, 3] - a[:, _B + 2]
    assert linalg._inverse_mod(a, p) is None
    assert linalg.det_mod(a, p) == 0
    with pytest.raises(ValueError):
        linalg.inverse_unimodular(a)
    singular_mod_p = np.eye(3, dtype=np.int64)
    singular_mod_p[2, 2] = p
    assert linalg._inverse_mod(singular_mod_p, p) is None
    with pytest.raises(ValueError):
        linalg.inverse_unimodular(singular_mod_p)
    with pytest.raises(ValueError):
        linalg.det_mod(np.eye(2, dtype=np.int64), 1 << 20)


def test_unimodular_inverse_reports_the_determinant():
    for a, det in (([[1, 2], [2, 3]], -1), ([[2, 1], [1, 1]], 1)):
        a = np.array(a)
        inv, got = linalg.inverse_unimodular(a)
        assert got == det
        assert np.array_equal(linalg.dot_exact(a, inv), np.eye(2, dtype=np.int64))


def test_det_mod_agrees_with_exact():
    rng = random.Random(27)
    for _ in range(10):
        a = _random_matrix(rng, 4, 4)
        p = 1_000_003
        assert linalg.det_mod(a, p) == linalg.det_exact(a) % p


def _rank_mod2_reference(a):
    """Rank over F_2 with each row a Python integer bit mask, reduced by
    its leading bit against an echelon basis."""
    basis = {}
    for row in a.tolist():
        v = sum(1 << j for j, x in enumerate(row) if x % 2)
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def test_rank_mod2_matches_python_reference():
    for shape in ((0, 0), (0, 5), (5, 0), (4, 7)):
        assert linalg.rank_mod2(np.zeros(shape, dtype=np.int64)) == 0
    rng = np.random.default_rng(31)
    cases = []
    # columns on both sides of the 64-bit word boundaries; low-rank
    # products make dependent rows, entries are negative and odd
    for cols in (63, 64, 65, 129):
        for rows, inner in ((1, 1), (7, 3), (70, 40), (130, 65)):
            a = rng.integers(-5, 6, size=(rows, inner)) @ rng.integers(-5, 6, size=(inner, cols))
            cases += [a, a.T]
    ranks = []
    for a in cases:
        ranks.append(linalg.rank_mod2(a))
        assert ranks[-1] == _rank_mod2_reference(a), a.shape
    assert max(ranks) > 64 and min(ranks) < 5
    # entries past 2^63 in an object matrix: only their parity counts
    a = cases[-2]
    big = a.astype(object) + (1 << 70) * rng.integers(-3, 4, size=a.shape).astype(object)
    assert big.dtype == object and max(abs(x) for x in big.flat) > 1 << 63
    assert linalg.rank_mod2(big) == _rank_mod2_reference(a)


def test_rank_mod2_audit_rejects_an_extra_pivot(monkeypatch):
    a = np.array([[1, 1, 0], [3, -1, 0]])
    assert linalg.rank_mod2(a) == 1
    monkeypatch.setattr(linalg, "_pivots_mod2", lambda a: ([0, 1], [0, 1]))
    with pytest.raises(DefectError, match="singular mod 2"):
        linalg.rank_mod2(a)
