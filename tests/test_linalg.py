import hashlib
import random
import sys
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


def test_dot_exact_cancelling_wide_operands_stay_int64():
    # the shape of the C4 normal-equation solve: a 28-bit operand times a
    # 27-bit one over k = 384, whose products cancel to a small result
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


def test_pivot_search_takes_first_least_nonzero_magnitude():
    rng = random.Random(29)
    for k in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), span=3)
        if k % 4 == 1:
            a = a.astype(object)
        elif k % 4 == 3:
            a = a.astype(object) * 2 ** 64  # past int64
        live = [(abs(int(x)), i) for i, x in enumerate(a.flat) if x]
        want = min(live)[1] if live else None
        assert linalg._pivot_index(a) == want, a


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
    """Count remainder swaps, row_add calls and escalations to object
    made by batch updates, by wrapping the _Tracked methods."""
    seen = {"remainder_swap": 0, "row_add": 0, "escalation": 0}
    tracked = linalg._Tracked

    def swap(orig):
        def wrapper(self, i, j):
            caller = sys._getframe(1).f_code.co_name
            if i != j and caller in ("_clear_column", "_clear_row_once"):
                seen["remainder_swap"] += 1
            return orig(self, i, j)
        return wrapper

    def row_add(orig):
        def wrapper(self, *args, **kwargs):
            seen["row_add"] += 1
            return orig(self, *args, **kwargs)
        return wrapper

    def batch(orig):
        def wrapper(self, *args, **kwargs):
            before = {name: m.dtype for name, m in self.mats.items()}
            orig(self, *args, **kwargs)
            if any(before[name] != object and m.dtype == object
                   for name, m in self.mats.items()):
                seen["escalation"] += 1
        return wrapper

    for name, wrap in (("row_swap", swap), ("col_swap", swap), ("row_add", row_add),
                       ("row_axpy_batch", batch), ("col_axpy_batch", batch)):
        monkeypatch.setattr(tracked, name, wrap(getattr(tracked, name)))
    return seen


def test_smith_battery_is_pinned_and_reaches_every_path(monkeypatch):
    seen = _count_paths(monkeypatch)
    h = hashlib.sha256()
    for a in _battery():
        h.update(_smith_digest(a).encode())
    assert h.hexdigest() == _SMITH_DIGESTS["battery", 0]
    assert all(count > 0 for count in seen.values()), seen


def test_int64_caps_bound_every_entry(monkeypatch):
    # an under-estimated cap would let an int64 update wrap silently; the
    # caps must bound the entries after every batch update, and the result
    # must equal a run with every working matrix in Python integers
    tracked = linalg._Tracked
    battery = _battery()
    rng = np.random.default_rng(5)
    battery += [rng.integers(-20, 21, size=(7, 9)) * 10 ** 14,
                rng.integers(-3, 4, size=(9, 7)) + (1 << 40),
                rng.integers(-(1 << 40), 1 << 40, size=(6, 6))]
    init = tracked.__init__

    def all_object(self, a):
        init(self, a)
        self.mats = {name: m.astype(object) for name, m in self.mats.items()}
        self.caps = dict.fromkeys(self.mats)

    monkeypatch.setattr(tracked, "__init__", all_object)
    forced = [_smith_digest(a) for a in battery]
    monkeypatch.setattr(tracked, "__init__", init)

    checked = 0

    def audited(orig):
        def wrapper(self, *args, **kwargs):
            nonlocal checked
            orig(self, *args, **kwargs)
            for name, m in self.mats.items():
                if m.dtype == np.int64:
                    assert self.caps[name] >= linalg._maxabs(m), name
                    checked += 1
        return wrapper

    for name in ("row_axpy_batch", "col_axpy_batch"):
        monkeypatch.setattr(tracked, name, audited(getattr(tracked, name)))
    assert [_smith_digest(a) for a in battery] == forced
    assert checked


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


def test_audit_probe_path_on_wide_matrix():
    # above the exact-reconstruction cutoff the audit switches to
    # randomized probes; build a 401-column matrix to cross it
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
    h, t = linalg.hermite_rows(np.array([[4, 6], [2, 5]]))
    assert np.array_equal(linalg.dot_exact(
        t, np.array([[4, 6], [2, 5]], dtype=object)), h)
    assert abs(linalg.det_exact(t)) == 1
    # pivots positive, entries above a pivot reduced below it
    assert h.tolist() == [[2, 1], [0, 4]]


def test_hermite_rows_is_idempotent_on_its_output():
    rng = random.Random(26)
    for _ in range(15):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=5)
        h, t = linalg.hermite_rows(a)
        h2, t2 = linalg.hermite_rows(h)
        assert np.array_equal(np.asarray(h2, dtype=object), np.asarray(h, dtype=object))


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
