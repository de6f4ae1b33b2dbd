"""Exact integer linear algebra on dense numpy arrays.

Everything here is exact.  Arrays live in int64 while entries provably
fit and escalate to dtype=object — arbitrary-precision Python integers —
the moment they might not.  In the Smith form a cap per matrix bounds
its entries; each update raises it by what that update can add, from the
multipliers and the source row or column it reads, and a cap that would
reach 2^62 is re-measured before the matrix escalates.  Escalation is per
matrix, so a reduction whose transforms swell keeps its main matrix on
the fast path.

Every matrix product goes through :func:`dot_exact`, which runs on
float64 BLAS and is still exact: float64 holds every integer below 2^53,
and an integer product whose entries, factors and partial sums all stay
below 2^53 is computed without rounding, in whatever order the sums are
taken.  Wider operands are cut into digits narrow enough for that bound.

Modular elimination (inverses and determinants over F_p) is one
Gauss–Jordan kernel on float64, run in column panels.  Inside a panel
the pivots and updates touch the panel alone, while the row operations
are gathered into one n x b matrix Y; the columns right of the panel
then take them in one BLAS product, T <- T + Y T[panel rows].  It is
exact for the same reason: p < 2^20 keeps every entry and factor below
2^20, so a panel product with b <= 2^12 terms sums to below 2^52, and
every reduction x - floor(x/p) p is corrected into [0, p) exactly.
Every exact determinant and every exact inverse goes through that one
kernel: residues modulo primes below 2^20, each lifted into the last by
one CRT step, then read off as the symmetric representative.

The Smith normal form keeps four transforms (U, U^-1, V, V^-1 with
A = U D V) because downstream homology needs kernels *and* kernel
coordinates; co-tracking inverses through elementary operations is far
cheaper than inverting afterwards.  The two transforms that elementary
operations would touch column by column (U and V^-1) are stored
transposed, so every transform update runs over contiguous rows.  Rows
of U^T and V that are still rows of the identity are known by the column
of their 1, so adding them is a scatter rather than a product, and every
other update skips the columns where its source is zero.  The pivot
policy, and with it every transform entry, is independent of that
storage and of which provably unchanged entries an update skips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectError

# Above this, an int64 slot is considered at risk for the next operation.
_LIMIT = 1 << 62

# float64 represents every integer of absolute value up to 2^53.
_FLOAT_EXACT_BITS = 53

# Modular elimination: with moduli below 2^20, a sum of 2^12 products of
# residues stays below 2^52.  Panels are narrower than that.
_MODULUS_LIMIT = 1 << 20
_EXACT_COLUMNS = 1 << 12
_PANEL = 32


# --- array plumbing ---------------------------------------------------------

def as_int_array(data) -> np.ndarray:
    """Dense integer array; int64 when every entry fits, object otherwise."""
    if isinstance(data, np.ndarray) and data.dtype in (np.int64, object):
        return data
    try:
        return np.array(data, dtype=np.int64)
    except OverflowError:
        return np.array(data, dtype=object)


def _shrink(arr: np.ndarray) -> np.ndarray:
    """Downcast an object array back to int64 when its entries allow."""
    if arr.dtype != object:
        return arr
    if arr.size and _maxabs(arr) >= _LIMIT:
        return arr
    return arr.astype(np.int64)


def _maxabs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    return max(int(arr.max()), -int(arr.min()))


def _digits(arr: np.ndarray, width: int, count: int):
    """float64 digits d_j with ``arr == sum(d_j * 2^(width*j))``.

    The digits are signed: each carries the sign of its entry and has
    absolute value below 2^width, so the magnitudes of the digits sum,
    weighted, to the magnitude of the entry.
    """
    if count == 1:
        yield arr.astype(np.float64)
        return
    mag = np.abs(arr)
    if mag.dtype == np.int64:
        mag = mag.view(np.uint64)  # |-2^63| wraps in int64, not in uint64
    negative = arr < 0
    mask = (1 << width) - 1
    for j in range(count):
        digit = ((mag >> (width * j)) & mask).astype(np.int64)
        yield np.where(negative, -digit, digit).astype(np.float64)


def _split(abits: int, bbits: int, room: int) -> tuple[int, int]:
    """Digit counts (na, nb) with the fewest products such that
    ceil(abits / na) + ceil(bbits / nb) <= room."""
    best = None
    for na in range(1, abits + 1):
        width = -(-abits // na)
        if width >= room:
            continue
        nb = -(-bbits // (room - width))
        if best is None or na * nb < best[0] * best[1]:
            best = (na, nb)
    return best


def dot_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of 1-D or 2-D integer arrays, with ``np.dot`` shapes.

    With k the inner dimension, max|a| * max|b| * k bounds every partial
    sum.  Below 2^53 one float64 matmul is exact, whatever order BLAS
    sums in.  Otherwise one operand or both are cut into signed digits
    of a base 2^s chosen so that each digit product passes the same bound
    with the fewest products.  These are shifted and added on the output
    alone: in int64 when the bound is below 2^62, in Python integers
    otherwise.  The result is int64 when its entries fit and dtype=object
    when they do not.
    """
    a = as_int_array(a)
    b = as_int_array(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ValueError("dot_exact takes 1-D or 2-D operands")
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    inner = a2.shape[1]
    if b2.shape[0] != inner:
        raise ValueError(f"dot_exact: shapes {a.shape} and {b.shape} not aligned")
    amax, bmax = _maxabs(a2), _maxabs(b2)
    bound = amax * bmax * inner
    out = np.zeros((a2.shape[0], b2.shape[1]),
                   dtype=np.int64 if bound < _LIMIT else object)
    if bound:
        abits, bbits = amax.bit_length(), bmax.bit_length()
        na, nb = (1, 1) if bound < 1 << _FLOAT_EXACT_BITS else \
            _split(abits, bbits, _FLOAT_EXACT_BITS - inner.bit_length())
        wa, wb = -(-abits // na), -(-bbits // nb)
        b_digits = list(_digits(b2, wb, nb))
        for i, da in enumerate(_digits(a2, wa, na)):
            for j, db in enumerate(b_digits):
                # every partial sum is an integer below 2^53: the cast is exact
                part = (da @ db).astype(np.int64)
                out += part.astype(out.dtype, copy=False) << (wa * i + wb * j)
    out = _shrink(out).reshape(a.shape[:-1] + b.shape[1:])
    return out if out.ndim else out[()]


# --- primes and CRT ---------------------------------------------------------

_CRT_PRIMES: list[int] = []


def crt_primes(count: int) -> list[int]:
    """The first ``count`` primes descending from 2^20 (20-bit moduli keep
    all modular arithmetic comfortably inside int64).  An odd candidate
    below 2^20 is prime exactly when no odd d < 2^10 divides it."""
    candidate = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else (1 << 20) - 1
    while len(_CRT_PRIMES) < count:
        if all(candidate % d for d in range(3, 1 << 10, 2)):
            _CRT_PRIMES.append(candidate)
        candidate -= 2
    return _CRT_PRIMES[:count]


def _crt_step(x, modulus: int, residue, p: int):
    """The x' in [0, modulus * p) congruent to x mod ``modulus`` and to
    ``residue`` mod p, for x in [0, modulus); integers or arrays alike."""
    delta = ((residue - x % p) * pow(modulus % p, p - 2, p)) % p
    return x + modulus * delta


def _reduce_mod(x: np.ndarray, p: int) -> None:
    """x <- x mod p in place, for float64 integers below 2^53 in size.

    The float quotient is off by at most one either way, and x - q p is
    exact, so one correction on each side lands every entry in [0, p).
    """
    x -= np.floor(x * (1.0 / p)) * p
    x[x < 0] += p
    x[x >= p] -= p


def _gauss_jordan_mod(m: np.ndarray, p: int) -> int:
    """Gauss–Jordan over F_p on the leading n x n block of ``m``, in place.

    ``m`` is n x k with k >= n, float64 with entries in [0, p).  Column
    by column the pivot is the first nonzero entry at or below the
    diagonal; its row is scaled to 1 and cleared from every other row.
    On return the leading block is I and the rest is E m mod p, with E
    the product of the row operations.  Returns the determinant of the
    leading block mod p, or 0 (leaving ``m`` part reduced) when it is
    singular mod p.

    Panel [lo, hi) of width b runs on a copy ``w = [panel | Y]``.  Step
    k is I + u e_r^T (r = lo + k): the composite of the steps so far is
    I + Y S^T, with S the unit columns of rows lo..r-1, so the step
    adds u (Y[r] + e_k) to Y; on the panel it adds u w[r].  Row swaps go
    to w and to the columns right of the panel at once; the rows they
    exchange are not in S, so S is unchanged.  The columns left of the
    panel are unit columns with zeros in rows lo..hi-1, which E leaves
    alone.

    Reductions mod p are deferred as far as the 2^53 bound allows: a
    factor read by a product (pivot column and row, the rows of the
    panel product) is reduced first, so each step adds less than p^2 to
    an entry of w, and each panel less than b p^2 to an entry right of
    it.  w is reduced once per panel, and the columns right of the
    panel before the next panel could take them past _EXACT_COLUMNS
    eliminated columns, so every entry stays below p + 2^12 p^2 < 2^53.
    """
    if p >= _MODULUS_LIMIT:
        raise ValueError(f"modulus {p} is not below 2^20")
    n = m.shape[0]
    det = 1
    reduced_at = 0
    for lo in range(0, n, _PANEL):
        hi = min(lo + _PANEL, n)
        b = hi - lo
        rest = m[:, hi:]
        w = np.zeros((n, 2 * b))
        w[:, :b] = m[:, lo:hi]
        _reduce_mod(w[:, :b], p)
        for k in range(b):
            r = lo + k
            col = w[:, k]
            _reduce_mod(col, p)
            nz = np.flatnonzero(col[r:])
            if nz.size == 0:
                return 0
            piv = r + int(nz[0])
            if piv != r:
                w[[r, piv]] = w[[piv, r]]
                rest[[r, piv]] = rest[[piv, r]]
                det = p - det
            _reduce_mod(w[r, k:], p)
            pv = int(col[r])
            det = det * pv % p
            inv = pow(pv, p - 2, p)
            u = col * (p - inv)  # -inv times the pivot column
            _reduce_mod(u, p)
            u[r] = inv - 1
            w[:, k:] += np.outer(u, w[r, k:])
            w[:, b + k] += u
        _reduce_mod(w, p)
        m[:, lo:hi] = w[:, :b]
        _reduce_mod(rest[lo:hi], p)
        rest += w[:, b:] @ rest[lo:hi]
        if hi == n or hi + _PANEL - reduced_at > _EXACT_COLUMNS:
            _reduce_mod(rest, p)
            reduced_at = hi
    return det


def det_mod(a: np.ndarray, p: int) -> int:
    """Determinant modulo a prime p < 2^20, by Gauss–Jordan over F_p."""
    return _gauss_jordan_mod((a % p).astype(np.float64), p)


def _hadamard_bits(a: np.ndarray) -> int:
    """Upper bound on bit length of |det| via Hadamard's inequality."""
    rows = a.astype(object)
    bits = 1
    for norm_sq in (rows * rows).sum(axis=1):
        norm_sq = int(norm_sq)
        if norm_sq == 0:
            return 1  # a zero row: det is 0
        bits += (norm_sq.bit_length() + 1) // 2 + 1
    return bits


def det_exact(a: np.ndarray) -> int:
    """Exact determinant: its residue mod enough primes to cover twice the
    Hadamard bound, lifted by CRT to the symmetric representative."""
    a = as_int_array(a)
    x, modulus = 0, 1
    for p in crt_primes(_hadamard_bits(a) // 19 + 2):
        x = _crt_step(x, modulus, det_mod(a, p), p)
        modulus *= p
    return x - modulus if 2 * x > modulus else x


def _inverse_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, int] | None:
    """(inverse, determinant) over F_p, or None when singular mod p."""
    n = a.shape[0]
    m = np.concatenate([(a % p).astype(np.float64), np.eye(n)], axis=1)
    det = _gauss_jordan_mod(m, p)
    if det == 0:
        return None
    return m[:, n:].astype(np.int64), det


def inverse_unimodular(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(inverse, determinant) of an integer matrix with determinant +-1.

    Reconstructs the (integral) inverse by CRT from modular inverses,
    one prime at a time, and certifies ``a @ inverse == I`` exactly after
    each prime, so it stops at the first modulus that covers the
    inverse's entries.  The determinant is read off the first prime's
    elimination: its residue must be 1 or p - 1.  Raises ``ValueError``
    when the matrix is not unimodular (a unimodular matrix is invertible
    mod every prime).
    """
    a = as_int_array(a)
    n = a.shape[0]
    if n == 0:
        return a.reshape(0, 0), 1
    ident = np.eye(n, dtype=np.int64)
    # worst case: inverse entries are (n-1)-minors
    cap_bits = _hadamard_bits(a) + 8
    x = np.zeros((n, n), dtype=np.int64)
    modulus = 1
    for count in range(1, cap_bits):
        p = crt_primes(count)[-1]
        solved = _inverse_mod(a, p)
        if solved is None:
            raise ValueError("matrix is singular modulo a prime; not unimodular")
        inv_p, residue = solved
        if count == 1:
            if residue not in (1, p - 1):
                raise ValueError("determinant is not +-1 modulo a prime; not unimodular")
            det = 1 if residue == 1 else -1
        # 0 <= x < modulus * p below, and 2x is formed: int64 while that fits
        if x.dtype != object and modulus * p > _LIMIT:
            x = x.astype(object)
        x = _crt_step(x, modulus, inv_p, p)
        modulus *= p
        # symmetric lift, then certify
        lifted = _shrink(np.where(2 * x > modulus, x - modulus, x))
        if np.array_equal(dot_exact(a, lifted), ident):
            return lifted, det
        if modulus.bit_length() > cap_bits:
            break
    raise ValueError("inverse reconstruction failed; matrix not unimodular")


# --- Smith normal form ------------------------------------------------------

@dataclass
class SmithResult:
    """Decomposition A = U @ D @ V with U, V unimodular.

    ``diag`` holds the diagonal of D (nonnegative, each dividing the
    next, zeros trailing); ``rank`` counts the nonzero entries.  U^-1 and
    V^-1 come along for free from the elementary-operation bookkeeping.
    Kernel data: the columns of ``v_inv[:, rank:]`` are a basis of
    ker(A), and ``(v @ x)[rank:]`` are the coordinates of a kernel vector
    x in that basis.
    """

    diag: list[int]
    u: np.ndarray
    u_inv: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def _growth(qvec) -> tuple[np.ndarray, int, int]:
    """The multipliers as an array, with exact max|q| and sum|q|."""
    qarr = np.asarray(qvec)
    if qarr.dtype != object:
        qarr = qarr.astype(np.int64, copy=False)
    qabs = np.abs(qarr)
    qmax = int(qabs.max())
    if qabs.dtype == object or qmax < _LIMIT // qabs.size:
        return qarr, qmax, int(qabs.sum())
    return qarr, qmax, int(qabs.astype(object).sum())  # the int64 sum could wrap


class _Tracked:
    """The working matrix plus transforms, with swell-guarded updates.

    Q = V^-1 and Pinv = U are kept transposed (``qt``, ``pinvt``), so
    that every transform update, swap and negation is a row operation on
    a C-contiguous array.  The arithmetic is exact either way, so the
    stored entries do not depend on the layout or on which entries an
    update skips because they provably do not change.

    Unit rows: U^T and V start as identities, and a row of either stays a
    row of the permuted identity until an update writes into it (it is
    made a pivot row, ``row_add`` changes it, or it is negated); swaps
    only move rows.  ``unit[name][i]`` is the column of the 1 in row i
    while that row is clean, -1 once it is dirty.  Adding multiples of
    clean rows is then a scatter of the multipliers; only dirty rows are
    gathered for a product.  The other updates, ``m[dst] -= q (x) m[src]``,
    run on the nonzero columns of the source line alone.

    Swell guard: ``caps[name]`` bounds every entry of an int64 matrix.
    An update raises it by the most it can add to one entry, computed from
    the multipliers and the source line that actually move (not by a
    multiple of the whole cap).  When the sum reaches 2^62 the cap is
    re-measured, and the matrix escalates to dtype=object only if the
    measured bound still reaches 2^62.
    """

    def __init__(self, a: np.ndarray):
        rows, cols = a.shape
        self.mats: dict[str, np.ndarray] = {
            "a": a.copy(),
            "p": np.eye(rows, dtype=np.int64), "pinvt": np.eye(rows, dtype=np.int64),
            "qt": np.eye(cols, dtype=np.int64), "qinv": np.eye(cols, dtype=np.int64),
        }
        self.caps: dict[str, int | None] = {
            name: (_maxabs(m) if m.dtype == np.int64 else None)
            for name, m in self.mats.items()
        }
        self.unit: dict[str, np.ndarray] = {
            "pinvt": np.arange(rows), "qinv": np.arange(cols)}

    def _prepare(self, name: str, growth: int) -> None:
        """Make sure the entries of int64 matrix `name` stay below 2^62 when
        an update adds at most `growth` to any of them; escalate if not."""
        cap = self.caps[name]
        if cap + growth >= _LIMIT:
            cap = _maxabs(self.mats[name])
            if cap + growth >= _LIMIT:
                self.mats[name] = self.mats[name].astype(object)
                self.caps[name] = None
                return
        self.caps[name] = cap + growth

    def _sub_outer(self, name: str, dst: np.ndarray, src: int, qarr: np.ndarray,
                   qmax: int, lo: int = 0, transpose: bool = False) -> None:
        """m[dst, j] -= q * m[src, j] for j >= lo where m[src, j] != 0
        (m is the matrix, or its transpose for a column update)."""
        m = self.mats[name].T if transpose else self.mats[name]
        support = lo + np.flatnonzero(m[src, lo:])
        if support.size == 0:
            return
        if self.caps[name] is not None:
            self._prepare(name, qmax * _maxabs(m[src, support]))
            m = self.mats[name].T if transpose else self.mats[name]
        q = qarr.astype(m.dtype, copy=False)
        m[np.ix_(dst, support)] -= np.outer(q, m[src, support])

    def _add_rows(self, name: str, dst: int, rows: np.ndarray, qarr: np.ndarray,
                  qsum: int) -> None:
        """m[dst] += q @ m[rows]: a scatter for the clean rows, a product
        over the dirty ones; row dst is dirty afterwards."""
        unit = self.unit[name]
        ones = unit[rows]
        clean = ones >= 0
        dirty = rows[~clean]
        if self.caps[name] is not None:
            self._prepare(name, qsum * max(1, _maxabs(self.mats[name][dirty])))
        m = self.mats[name]
        q = qarr.astype(m.dtype, copy=False)
        m[dst, ones[clean]] += q[clean]
        if dirty.size:
            m[dst] += q[~clean] @ m[dirty]
        unit[dst] = -1

    # row operations: A <- E A, P <- E P, Pinv <- Pinv E^{-1}

    def row_axpy_batch(self, rows, src: int, qvec, lo: int = 0) -> None:
        """rows[i] -= qvec[i] * row[src] (on A and P; mirrored on Pinv)."""
        qarr, qmax, qsum = _growth(qvec)
        if qmax == 0:
            return
        rows = np.asarray(rows, dtype=np.intp)
        self._sub_outer("a", rows, src, qarr, qmax, lo)
        self._sub_outer("p", rows, src, qarr, qmax)
        self._add_rows("pinvt", src, rows, qarr, qsum)

    def row_add(self, dst: int, src: int, lo: int = 0) -> None:
        self.row_axpy_batch([dst], src, [-1], lo=lo)

    def row_swap(self, r1: int, r2: int) -> None:
        if r1 == r2:
            return
        for m in (self.mats["a"], self.mats["p"], self.mats["pinvt"], self.unit["pinvt"]):
            m[[r1, r2]] = m[[r2, r1]]

    def row_negate(self, r: int) -> None:
        for name in ("a", "p", "pinvt"):
            self.mats[name][r, :] *= -1
        self.unit["pinvt"][r] = -1

    # column operations: A <- A F, Q <- Q F, Qinv <- F^{-1} Qinv

    def col_axpy_batch(self, cols, src: int, qvec, lo: int = 0) -> None:
        """cols[i] -= qvec[i] * col[src] (on A and Q; mirrored on Qinv).

        On A only the rows from lo where column src is nonzero change; the
        Smith loop calls this with column src already cleared below row
        lo, so that is one row.
        """
        qarr, qmax, qsum = _growth(qvec)
        if qmax == 0:
            return
        cols = np.asarray(cols, dtype=np.intp)
        self._sub_outer("a", cols, src, qarr, qmax, lo, transpose=True)
        self._sub_outer("qt", cols, src, qarr, qmax)
        self._add_rows("qinv", src, cols, qarr, qsum)

    def col_swap(self, c1: int, c2: int) -> None:
        if c1 == c2:
            return
        a = self.mats["a"]
        a[:, [c1, c2]] = a[:, [c2, c1]]
        for m in (self.mats["qt"], self.mats["qinv"], self.unit["qinv"]):
            m[[c1, c2]] = m[[c2, c1]]


def _nearest_quotients(vals: np.ndarray, p: int) -> np.ndarray:
    """Round-to-nearest quotients (deterministic tie-break toward +inf)."""
    return np.floor_divide(vals + p // 2, p)


def smith(a) -> SmithResult:
    """Smith normal form with full transform bookkeeping.

    Pivoting policy: the submatrix entry of least nonzero absolute value
    (first in row-major order on ties), which keeps intermediate swell
    low in practice.  Callers depend on this exact sequence of pivots and
    operations: the signs of downstream determinants follow from it.
    Batched row/column reductions keep the inner loops inside numpy.
    """
    a = as_int_array(np.atleast_2d(a))
    rows, cols = a.shape
    st = _Tracked(a)
    mats = st.mats
    t = 0
    limit = min(rows, cols)
    while t < limit:
        work = mats["a"]
        sub = work[t:, t:]
        if sub.size == 0:
            break
        flat = _pivot_index(sub)
        if flat is None:
            break
        di, dj = divmod(flat, sub.shape[1])
        st.row_swap(t, t + di)
        st.col_swap(t, t + dj)
        if mats["a"][t, t] < 0:
            st.row_negate(t)
        while True:
            _clear_column(st, t)
            if _clear_row_once(st, t):
                continue  # a column swap re-dirtied column t
            pivot = int(mats["a"][t, t])
            bad = _find_nondivisible(mats["a"], t, pivot)
            if bad is None:
                break
            st.row_add(t, bad, lo=t)
        t += 1
    work = mats["a"]
    diag = [int(work[i, i]) for i in range(limit)]
    return SmithResult(
        diag=diag,
        u=_shrink(np.ascontiguousarray(mats["pinvt"].T)),
        u_inv=_shrink(mats["p"]),
        v=_shrink(mats["qinv"]),
        v_inv=_shrink(np.ascontiguousarray(mats["qt"].T)),
    )


def _pivot_index(sub: np.ndarray) -> int | None:
    """Flat index of the least nonzero |entry|, first in row-major order;
    None when every entry is zero.

    On int64, one argmin over |x| - 1 viewed as uint64: zeros wrap to the
    largest key, and every other key is at most 2^63 - 2.
    """
    key = np.abs(sub)
    if key.dtype == object:
        nonzero = key != 0
        if not nonzero.any():
            return None
        return int(np.argmin(np.where(nonzero, key, int(key.max()) + 1)))
    key -= 1
    flat = int(np.argmin(key.view(np.uint64)))
    return flat if sub.flat[flat] != 0 else None


def _clear_column(st: _Tracked, t: int) -> None:
    """Row-reduce until column t is pivot-only, pivot positive."""
    while True:
        a = st.mats["a"]
        if a[t, t] < 0:
            st.row_negate(t)
        col = a[t + 1:, t]
        nz = np.nonzero(col != 0)[0]
        if nz.size == 0:
            return
        pivot = int(a[t, t])
        qvec = _nearest_quotients(col[nz], pivot)
        st.row_axpy_batch(nz + t + 1, t, qvec, lo=t)
        a = st.mats["a"]
        col = a[t + 1:, t]
        nz = np.nonzero(col != 0)[0]
        if nz.size == 0:
            return
        # remainders survived: promote the smallest to be the new pivot
        best = nz[int(np.argmin(np.abs(col[nz])))]
        st.row_swap(t, t + 1 + int(best))


def _clear_row_once(st: _Tracked, t: int) -> bool:
    """One round of column-reduction on row t.

    Returns True when a swap pulled a new column into position t (which
    can re-dirty column t, so the caller must re-clear it)."""
    a = st.mats["a"]
    row = a[t, t + 1:]
    nz = np.nonzero(row != 0)[0]
    if nz.size == 0:
        return False
    pivot = int(a[t, t])
    qvec = _nearest_quotients(row[nz], pivot)
    st.col_axpy_batch(nz + t + 1, t, qvec, lo=t)
    a = st.mats["a"]
    row = a[t, t + 1:]
    nz = np.nonzero(row != 0)[0]
    if nz.size == 0:
        return False
    best = nz[int(np.argmin(np.abs(row[nz])))]
    st.col_swap(t, t + 1 + int(best))
    return True


def _find_nondivisible(a: np.ndarray, t: int, pivot: int) -> int | None:
    """Row index (absolute) of an entry the pivot fails to divide."""
    if pivot in (0, 1):
        return None
    sub = a[t + 1:, t + 1:]
    if sub.size == 0:
        return None
    bad = np.nonzero((sub % pivot) != 0)
    if bad[0].size == 0:
        return None
    return t + 1 + int(bad[0][0])


# --- Hermite form (row-style) ----------------------------------------------

def hermite_rows(a) -> tuple[np.ndarray, np.ndarray]:
    """Row Hermite normal form: returns (H, T) with T @ A = H, T unimodular.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Plain Python integers throughout — this is only used on small
    matrices (canonicalizing homology bases), where clarity wins.
    """
    a = np.asarray(a, dtype=object)
    rows, cols = a.shape if a.ndim == 2 else (0, 0)
    h = [[int(x) for x in row] for row in a]
    t = [[int(i == j) for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    for col in range(cols):
        if pivot_row == rows:
            break
        # Euclid down the column
        while True:
            live = [r for r in range(pivot_row, rows) if h[r][col] != 0]
            if not live:
                break
            best = min(live, key=lambda r: abs(h[r][col]))
            if best != pivot_row:
                h[pivot_row], h[best] = h[best], h[pivot_row]
                t[pivot_row], t[best] = t[best], t[pivot_row]
            p = h[pivot_row][col]
            done = True
            for r in range(pivot_row + 1, rows):
                if h[r][col] != 0:
                    q = h[r][col] // p
                    h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                    t[r] = [x - q * y for x, y in zip(t[r], t[pivot_row])]
                    if h[r][col] != 0:
                        done = False
            if done:
                break
        if h[pivot_row][col] == 0:
            continue
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            t[pivot_row] = [-x for x in t[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                t[r] = [x - q * y for x, y in zip(t[r], t[pivot_row])]
        pivot_row += 1
    return (_shrink(np.array(h, dtype=object)) if rows else np.zeros((0, cols), dtype=np.int64),
            _shrink(np.array(t, dtype=object)) if rows else np.zeros((0, 0), dtype=np.int64))


def _scale_columns(m: np.ndarray, factors) -> np.ndarray:
    """``m`` with column j multiplied by ``factors[j]``, exactly."""
    f = as_int_array(list(factors)).reshape(1, -1)
    if object in (m.dtype, f.dtype) or _maxabs(m) * _maxabs(f) >= _LIMIT:
        m, f = m.astype(object), f.astype(object)
    return _shrink(m * f)


def audit_smith(a: np.ndarray, sm: SmithResult) -> None:
    """Certify a Smith decomposition: reconstruction, unimodular
    transforms, nonnegative divisibility chain.

    Matrices up to 400 rows and columns get fully exact checks; U D is
    formed by scaling the first rank-many columns of U.  Above that the
    identities are certified by randomized projection probes —
    exact products against random integer vectors, so any single wrong
    entry is caught with probability at least 1 - 2^-8 per audit.
    Raises :class:`DefectError` on any discrepancy.
    """
    a = as_int_array(np.atleast_2d(a))
    small = max(a.shape) <= 400
    if small:
        r = sm.rank
        # U D V from the first r columns of U D: the divisor checks below
        # reject a diag whose zeros do not all trail
        ud = _scale_columns(sm.u[:, :r], sm.diag[:r])
        recon = dot_exact(ud, sm.v[:r, :])
        if not np.array_equal(recon, a):
            raise DefectError("Smith reconstruction U @ D @ V != A")
    else:
        rng = np.random.default_rng(12345)
        probe = rng.integers(0, 2, size=(a.shape[1], 8)).astype(np.int64)
        vx = dot_exact(sm.v, probe)
        scaled = np.zeros((a.shape[0], probe.shape[1]), dtype=object)
        for i, dval in enumerate(sm.diag):
            if dval:
                scaled[i, :] = vx[i, :].astype(object) * dval
        recon = dot_exact(sm.u, _shrink(scaled))
        if not np.array_equal(recon, dot_exact(a, probe)):
            raise DefectError("Smith reconstruction U @ D @ V != A (probe)")
    for name, mat, inv in (("U", sm.u, sm.u_inv), ("V", sm.v, sm.v_inv)):
        n = mat.shape[0]
        if n <= 400:
            if not np.array_equal(dot_exact(mat, inv), np.eye(n, dtype=np.int64)):
                raise DefectError(f"Smith transform {name} failed inverse check")
        else:
            rng = np.random.default_rng(12345)
            probe = rng.integers(-100, 100, size=(n, 8)).astype(np.int64)
            if not np.array_equal(dot_exact(mat, dot_exact(inv, probe)), probe):
                raise DefectError(f"Smith transform {name} failed probe check")
    diag = sm.diag
    for i, dval in enumerate(diag):
        if dval < 0:
            raise DefectError("negative Smith divisor")
        if i + 1 < len(diag) and dval == 0 and diag[i + 1] != 0:
            raise DefectError("zero Smith divisor before a nonzero one")
        if i + 1 < len(diag) and dval != 0 and diag[i + 1] % dval != 0:
            raise DefectError("Smith divisors fail the divisibility chain")
