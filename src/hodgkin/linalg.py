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
taken.  Inner index k adds at most max|a[:, k]| * max|b[k, :]| to any
partial sum, so a group of inner indices whose such terms sum below 2^53
keeps every partial sum over it below 2^53.  The narrow indices form one
such group and take one plain product; only the wide rest is cut into
digits narrow enough for the bound.  Consecutive digit products whose
shifts lie within a few bits are summed in int64 before they reach an
output held in Python integers, where each addition is a slow pass.
Every output entry is a partial sum as well, so the output is int64
when the powers of two that bound the terms sum below 2^62.
The plan comes from the whole operands, but the products run over
panels of the output's rows, so beside the operands, the output and
the digits of the right factor a product holds only one panel's
temporaries.

Modular elimination (inverses and determinants over F_p) is one
Gauss–Jordan kernel on float64, run in column panels.  Inside a panel
the pivots and updates touch the panel alone, while the row operations
are gathered into one n x b matrix Y; the columns right of the panel
then take them in one BLAS product, T <- T + Y T[panel rows].  It is
exact for the same reason: p < 2^20 keeps every entry and factor below
2^20, so a panel product with b <= 2^12 terms sums to below 2^52, and
every reduction x - floor(x/p) p is corrected into [0, p) exactly.
Every exact determinant and every exact inverse goes through that one
kernel.  A determinant is its residues modulo enough primes below 2^20,
each lifted into the last by one CRT step and read off as the symmetric
representative.  An inverse is one modular inverse, lifted p-adically
with one float64 product per step.  Ranks over F_2 alone run on rows
packed 64 columns to a uint64 word, where a row operation is one XOR
per word; the pivot minor they report is audited by the same kernel.

The Smith normal form keeps four transforms (U, U^-1, V, V^-1 with
A = U D V) because downstream homology needs kernels *and* kernel
coordinates; co-tracking inverses through elementary operations is far
cheaper than inverting afterwards.  A column operation on A is a row
operation on A^T, so the transforms come in two sides that follow one
rule: the rows' pair (U^-1, U^T) and the columns' pair ((V^-1)^T, V).
The first of a pair takes the same line operation as A or A^T, the
second is its inverse transpose, and both are stored so that every
update runs over contiguous rows.  Rows of the second that are still
rows of the identity are known by the column of their 1, so adding them
is a scatter rather than a product.  Every other update runs on the
contiguous slab of columns that its source's nonzeros span, or, when
they fill too little of it, on those columns alone, by index.  The
pivot policy, and with it every transform entry, is independent of that
storage and of which provably unchanged entries an update skips or
rewrites.  The pivot is the entry of least nonzero magnitude, first in
row-major order.  While a +-1 remains, that is the first +-1 of the
first row holding one, so the search scans the rows from the top and
stops there; only a submatrix with no unit left is searched whole.
:func:`audit_smith` certifies a Smith form, or its leading blocks, by
exact products at every size; nothing here draws random numbers.

The row Hermite form runs on the same line operations and the Smith
form's column step, on the rows alone, so it co-tracks its inverse
transform too and has no column side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefectError

# Above this, an int64 slot is considered at risk for the next operation.
_LIMIT = 1 << 62

# float64 represents every integer of absolute value up to 2^53.
_FLOAT_EXACT_BITS = 53

# Exact products run in panels of rows with about this many entries per
# row operand or product, so their temporaries stay small.
_PRODUCT_CELLS = 1 << 15

# Modular elimination: with moduli below 2^20, a sum of 2^12 products of
# residues stays below 2^52.  Panels are narrower than that.
_MODULUS_LIMIT = 1 << 20
_EXACT_COLUMNS = 1 << 12
_PANEL = 32

# A Smith line update pays about this many slab entries per entry by index.
_INDEXED_COST = 4


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


def _plan(amax: int, bmax: int, inner: int) -> tuple[int, int, int, int]:
    """(na, wa, nb, wb): digit counts and widths of the two operands of a
    product over ``inner`` terms, with the fewest products that are exact.
    One product when amax * bmax * inner < 2^53."""
    abits, bbits = amax.bit_length(), bmax.bit_length()
    na, nb = (1, 1) if amax * bmax * inner < 1 << _FLOAT_EXACT_BITS else \
        _split(abits, bbits, _FLOAT_EXACT_BITS - inner.bit_length())
    return na, -(-abits // na), nb, -(-bbits // nb)


def _line_bits(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Upper bounds on the bit lengths of max(hi, -lo), entry by entry."""
    if hi.dtype == object:
        tops = (max(x, -y) for x, y in zip(hi.tolist(), lo.tolist()))
        return np.array([x.bit_length() for x in tops], dtype=np.int64)
    # float64 holds |-2^63| and rounds by less than a power of two, so its
    # exponent is the bit length or one more
    top = np.maximum(hi.astype(np.float64), -lo.astype(np.float64))
    return np.frexp(top)[1].astype(np.int64)


def _inner_groups(a: np.ndarray, b: np.ndarray, amax: int, bmax: int):
    """The inner indices of ``a @ b`` in groups, each (indices, plan), and
    an integer bound on every partial sum of the product.

    Index k adds at most max|a[:, k]| * max|b[k, :]| < 2^w_k to any partial
    sum, w_k the sum of the two bit lengths, and nothing when either line
    is zero; those indices are dropped.  The narrow group takes the others
    in increasing w_k while the sum of their 2^w_k stays below 2^53: every
    partial sum over it is an integer float64 holds exactly, in any order,
    so it is one plain product.  Only the wide rest is cut into digits, by
    its own maxima and over its own, shorter, inner dimension.  The groups
    are taken only when they need fewer products than the whole inner
    dimension in one split.  The bound is amax * bmax * k when that takes
    one product, and otherwise the sum of all 2^w_k, in Python integers.
    """
    plan = _plan(amax, bmax, a.shape[1])
    if plan[0] * plan[2] == 1:
        return [(slice(None), plan)], amax * bmax * a.shape[1]
    ahi, alo, bhi, blo = a.max(axis=0), a.min(axis=0), b.max(axis=1), b.min(axis=1)
    abits, bbits = _line_bits(ahi, alo), _line_bits(bhi, blo)
    live = (abits > 0) & (bbits > 0)
    bound = sum(int(c) << w for w, c in enumerate(np.bincount((abits + bbits)[live])))
    # 2^54 stands for every wider term: none of them is narrow
    terms = np.where(live, np.exp2(np.minimum(abits + bbits, _FLOAT_EXACT_BITS + 1)), 0.0)
    order = np.argsort(terms, kind="stable")
    zero = int(np.count_nonzero(terms == 0))
    cut = int(np.searchsorted(np.cumsum(terms[order]), 2.0 ** _FLOAT_EXACT_BITS))
    if zero == 0 and cut == a.shape[1]:
        return [(slice(None), (1, 0, 1, 0))], bound  # all narrow: no copies
    narrow, wide = np.sort(order[zero:cut]), np.sort(order[cut:])
    groups = [(narrow, (1, 0, 1, 0))] if narrow.size else []
    products = len(groups)
    if wide.size:
        wide_plan = _plan(max(int(ahi[wide].max()), -int(alo[wide].min())),
                          max(int(bhi[wide].max()), -int(blo[wide].min())), wide.size)
        groups.append((wide, wide_plan))
        products += wide_plan[0] * wide_plan[2]
    return (groups if products < plan[0] * plan[2] else [(slice(None), plan)]), bound


def _add_products(out: np.ndarray, a: np.ndarray, b: np.ndarray, groups) -> None:
    """out += a @ b over the inner index ``groups`` of (indices, plan), one
    float64 product per pair of digits, in panels of rows of ``out``.

    Every product is an integer below 2^53 (the plans see to that).  A
    run of consecutive products whose shifts lie within a few bits of each
    other is summed in int64 first, while the sum provably stays below
    2^62; the run then costs one shift and add on ``out``, which is the
    one pass in Python integers when ``out`` is dtype=object.  The digits
    of ``b`` are cut once; a panel's rows of ``a`` and its products are
    the only other temporaries, of at most about _PRODUCT_CELLS entries.
    """
    b_digits = [list(_digits(b[cols], wb, nb)) for cols, (_, _, nb, wb) in groups]
    height = max(1, _PRODUCT_CELLS // max(a.shape[1], b.shape[1]))
    for r in range(0, out.shape[0], height):
        panel, run, base, top, count = out[r:r + height], None, 0, 0, 0
        for (cols, (na, wa, _, wb)), digits in zip(groups, b_digits):
            for i, da in enumerate(_digits(a[r:r + height, cols], wa, na)):
                for j, db in enumerate(digits):
                    shift = wa * i + wb * j
                    lo, hi = min(base, shift), max(top, shift)
                    if run is not None and \
                            (count + 1) << (_FLOAT_EXACT_BITS + hi - lo) >= _LIMIT:
                        panel += run.astype(out.dtype, copy=False) << base
                        run = None
                    # every partial sum is an integer below 2^53: the cast is exact
                    part = (da @ db).astype(np.int64)
                    if run is None:
                        run, base, top, count = part, shift, shift, 1
                    else:
                        run <<= base - lo
                        run += part << (shift - lo)
                        base, top, count = lo, hi, count + 1
        if run is not None:
            panel += run.astype(out.dtype, copy=False) << base


def dot_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of 1-D or 2-D integer arrays, with ``np.dot`` shapes.

    With k the inner dimension, max|a| * max|b| * k bounds every partial
    sum.  Below 2^53 one float64 matmul is exact, whatever order BLAS
    sums in.  Otherwise the inner indices are grouped by width
    (:func:`_inner_groups`): those whose terms sum below 2^53 take one
    plain product, and only the wide rest is cut into signed digits of a
    base 2^s chosen so that each digit product passes the same bound with
    the fewest products.  The grouping is used only when it takes fewer
    products than cutting the whole operands.  The products are shifted
    and added on the output alone: in int64 when the bound on partial sums
    that :func:`_inner_groups` returns is below 2^62, in Python integers
    otherwise.  They run over panels of the output's rows, with the same
    plan for every panel, so the temporaries of a call
    are the digits of ``b`` and a panel's rows of ``a`` and float64 and
    int64 products, each of about _PRODUCT_CELLS entries, not products the
    size of the output.  The result is int64 when its entries fit and
    dtype=object when they do not.
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
    groups, bound = _inner_groups(a2, b2, amax, bmax) if amax * bmax else ([], 0)
    out = np.zeros((a2.shape[0], b2.shape[1]),
                   dtype=np.int64 if bound < _LIMIT else object)
    if bound:
        _add_products(out, a2, b2, groups)
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
    """Upper bound on bit length of |det| via Hadamard's inequality.

    The squared row norms are summed in int64 when max|a|^2 * cols stays
    below 2^62, in Python integers otherwise.
    """
    amax = _maxabs(a)
    rows = a.astype(np.int64 if amax * amax * a.shape[1] < _LIMIT else object)
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

    One modular inverse C = A^-1 mod p, lifted p-adically (Dixon, Numer.
    Math. 40, 1982).  With M = p^k and R = (I - A X) / M, an integer
    matrix, the step digit D = C R mod p gives X' = X + M D and
    R' = (I - A X') / (M p) = (R - A D) / p; the division must be exact,
    else C is no inverse mod p.  So R is kept exactly, from products of
    A with D alone, and ``a @ inverse == I`` is certified exactly as
    R == 0 after every step, with no product of A with the wide X.
    Each digit is taken in (-p/2, p/2), so X is the symmetric
    representative mod M: the inverse itself once M covers twice its
    entries.  The determinant is read off the modular elimination: its
    residue must be 1 or p - 1.  Raises ``ValueError`` when the matrix is
    not unimodular (a unimodular matrix is invertible mod every prime),
    when a division is not exact, or when M passes the Hadamard bound of
    the inverse's entries.
    """
    a = as_int_array(a)
    n = a.shape[0]
    if n == 0:
        return a.reshape(0, 0), 1
    ident = np.eye(n, dtype=np.int64)
    # worst case: inverse entries are (n-1)-minors
    cap_bits = _hadamard_bits(a) + 8
    p = crt_primes(1)[0]
    solved = _inverse_mod(a, p)
    if solved is None:
        raise ValueError("matrix is singular modulo a prime; not unimodular")
    c, residue = solved
    if residue not in (1, p - 1):
        raise ValueError("determinant is not +-1 modulo a prime; not unimodular")
    det = 1 if residue == 1 else -1
    x, modulus, residual, lift = np.zeros((n, n), dtype=np.int64), 1, ident, c
    while True:
        # |x| <= (modulus p - 1) / 2 below: int64 while that fits
        if x.dtype != object and modulus * p >= _LIMIT:
            x = x.astype(object)
        digit = np.where(2 * lift > p, lift - p, lift)
        x += modulus * digit.astype(x.dtype)
        modulus *= p
        # modulus * residual == I - A x, exactly, after every step
        residual = residual - dot_exact(a, digit)
        if np.any(residual % p):
            raise ValueError("residual is not divisible by p; not unimodular")
        residual //= p
        if not np.any(residual):
            return _shrink(x), det
        if modulus.bit_length() > cap_bits:
            raise ValueError("inverse reconstruction failed; matrix not unimodular")
        lift = dot_exact(c, (residual % p).astype(np.int64)) % p


# --- ranks over F_2 ---------------------------------------------------------

def _pivots_mod2(a: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows and columns of row echelon elimination over F_2.

    Each row is packed into uint64 words, column j as bit j % 64 of word
    j // 64.  Per column, the first remaining row with that bit set is
    swapped to the top of the remaining rows and XORed into every other
    remaining row with the bit, from that word on.
    """
    rows, cols = a.shape
    nbytes = -(-cols // 64) * 8
    buf = np.zeros((rows, nbytes), dtype=np.uint8)
    buf[:, :-(-cols // 8)] = np.packbits((a % 2).astype(np.uint8), axis=1, bitorder="little")
    packed = buf.view("<u8")
    order = np.arange(rows)
    pivot_rows, pivot_cols = [], []
    for j in range(cols):
        t = len(pivot_rows)
        if t == rows:
            break
        w, bit = j // 64, np.uint64(1 << (j % 64))
        hits = t + np.flatnonzero(packed[t:, w] & bit)
        if hits.size == 0:
            continue
        piv = hits[0]
        packed[[t, piv]] = packed[[piv, t]]
        order[[t, piv]] = order[[piv, t]]
        # the row swapped down from t has no bit here, so hits[1:] are the others
        packed[hits[1:], w:] ^= packed[t, w:]
        pivot_rows.append(int(order[t]))
        pivot_cols.append(j)
    return pivot_rows, pivot_cols


def rank_mod2(a) -> int:
    """Rank of an integer matrix over F_2, by elimination on packed bits.

    The pivot rows R and columns C that the elimination reports are
    audited exactly: det A[R, C] must be nonzero mod 2, by the
    Gauss–Jordan kernel of :func:`det_mod`, else :class:`DefectError`.
    So the result r is proven a lower bound, rank_F2 A >= r; a caller
    that needs equality bounds the rank from above by other means.
    """
    a = as_int_array(a)
    rows, cols = _pivots_mod2(a)
    if det_mod(a[np.ix_(rows, cols)], 2) == 0:
        raise DefectError(f"pivot minor of a rank-{len(rows)} elimination is singular mod 2")
    return len(rows)


# --- Smith normal form ------------------------------------------------------

@dataclass
class SmithResult:
    """Decomposition A = U @ D @ V with U, V unimodular.

    ``diag`` holds the diagonal of D (nonnegative, each dividing the
    next, zeros trailing); ``rank`` counts the nonzero entries.  U^-1 and
    V^-1 come along for free from the elementary-operation bookkeeping.
    Kernel data: the columns of ``v_inv[:, rank:]`` are a basis of
    ker(A), and ``(v @ x)[rank:]`` are the coordinates of a kernel vector
    x in that basis.  ``u`` and ``v_inv`` may be transposed, so
    non-contiguous, views of the arrays the reduction updated.
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


class _Capped:
    """An integer matrix with, while it is int64, a cap on its entries.

    An update raises the cap by the most it can add to one entry, computed
    from the multipliers and the source line that actually move (not by a
    multiple of the whole cap).  When the sum reaches 2^62 the cap is
    re-measured, and the matrix escalates to dtype=object, with no cap,
    only if the measured bound still reaches 2^62.
    """

    def __init__(self, m: np.ndarray):
        self.m = m
        self.cap = _maxabs(m) if m.dtype == np.int64 else None

    def lines(self, axis: int) -> np.ndarray:
        """The rows of the matrix (axis 0) or of its transpose (axis 1)."""
        return self.m.T if axis else self.m

    def grow(self, growth: int) -> None:
        """Make sure the entries stay below 2^62 when an update adds at
        most ``growth`` to any of them; escalate if not."""
        cap = self.cap
        if cap + growth >= _LIMIT:
            cap = _maxabs(self.m)
            if cap + growth >= _LIMIT:
                self.m, self.cap = self.m.astype(object), None
                return
        self.cap = cap + growth

    def sub(self, axis: int, dst: np.ndarray, src: int, q: np.ndarray, qmax: int,
            lo: int = 0) -> None:
        """lines[dst, j] -= q * lines[src, j] for j >= lo where lines[src, j] != 0.

        The nonzeros of line src from lo on span the columns [s0, s1).
        When they fill at least 1/_INDEXED_COST of the span, the update
        runs on the slab lines[dst, s0:s1], whose zero source columns it
        leaves unchanged; otherwise it gathers and scatters the nonzero
        columns by index.  Either way the cap grows by qmax times the
        largest |entry| of lines[src, s0:s1], the slice the update reads.
        """
        m = self.lines(axis)
        nz = np.flatnonzero(m[src, lo:])
        if nz.size == 0:
            return
        s0, s1 = lo + int(nz[0]), lo + int(nz[-1]) + 1
        span = m[src, s0:s1]
        if self.cap is not None:
            self.grow(qmax * _maxabs(span))
            m = self.lines(axis)
        q, span = q.astype(m.dtype, copy=False)[:, None], span.astype(m.dtype, copy=False)
        if s1 - s0 <= _INDEXED_COST * nz.size:
            m[dst, s0:s1] -= q * span
        else:
            nz -= nz[0]
            m[np.ix_(dst, nz + s0)] -= q * span[nz]


class _Side:
    """The transforms of one side of A = U D V, both identities at first.

    ``fwd`` takes every line operation that A (or A^T) takes: it is U^-1
    for the rows, (V^-1)^T for the columns.  ``inv`` is fwd^-T (U^T, V),
    so lines dst_i -= q_i line src on ``fwd`` is line src += q @ lines dst
    on ``inv``; both run over contiguous rows.

    Unit rows: a row of ``inv`` stays a row of the permuted identity until
    an update writes into it (it is a mirrored source, or it is negated);
    swaps only move rows.  ``unit[i]`` is the column of the 1 in row i
    while that row is clean, -1 once it is dirty, so the clean rows' share
    of a mirrored update is a scatter of the multipliers and only dirty
    rows are gathered for a product.

    The cap of ``inv`` grows by sum|q| times its widest dirty row (or 1);
    when that would reach 2^62, by sum |q_i| max|row_i| over the dirty
    rows plus max|q| over the clean ones, whose 1s lie in distinct
    columns, in Python integers.
    """

    def __init__(self, n: int):
        self.fwd = _Capped(np.eye(n, dtype=np.int64))
        self.inv = _Capped(np.eye(n, dtype=np.int64))
        self.unit = np.arange(n)

    def axpy(self, dst: np.ndarray, src: int, q: np.ndarray, qmax: int, qsum: int) -> None:
        self.fwd.sub(0, dst, src, q, qmax)
        inv = self.inv
        ones = self.unit[dst]
        clean = ones >= 0
        rows = inv.m[dst[~clean]]  # read once: the writes below go to row src alone
        if inv.cap is not None:
            growth = qsum * max(1, _maxabs(rows))
            if inv.cap + growth >= _LIMIT:
                qabs = np.abs(q)
                reach = np.abs(rows).max(axis=1, initial=0).tolist()
                growth = int(qabs[clean].max(initial=0)) + \
                    sum(x * y for x, y in zip(qabs[~clean].tolist(), reach))
            inv.grow(growth)
        q, rows = q.astype(inv.m.dtype, copy=False), rows.astype(inv.m.dtype, copy=False)
        inv.m[src, ones[clean]] += q[clean]
        if len(rows):
            inv.m[src] += q[~clean] @ rows
        self.unit[src] = -1


class _Tracked:
    """The working matrix A and the transforms of its two sides.

    :meth:`axpy` and :meth:`swap` act on the lines of A (axis 0, its rows)
    or of A^T (axis 1, its columns) and on that side's transforms;
    :meth:`negate` acts on a row.  Each matrix keeps its own int64 cap and
    escalates alone.  The arithmetic is exact in any layout, so the stored
    entries do not depend on it or on which entries an update skips
    because they provably do not change.  With ``columns=False`` there is
    no column side, and column operations act on A alone.
    """

    def __init__(self, a: np.ndarray, columns: bool):
        self.a = _Capped(a.copy())
        self.sides = [_Side(a.shape[0])]
        if columns:
            self.sides.append(_Side(a.shape[1]))

    def axpy(self, axis: int, dst, src: int, qvec, lo: int = 0) -> None:
        """Lines dst[i] -= qvec[i] * line src, on A from entry lo on.

        On A only the entries from lo where line src is nonzero change; the
        Smith loop's column updates have column src cleared below row lo,
        so that is one entry.
        """
        qarr, qmax, qsum = _growth(qvec)
        if qmax == 0:
            return
        dst = np.asarray(dst, dtype=np.intp)
        self.a.sub(axis, dst, src, qarr, qmax, lo)
        if axis < len(self.sides):
            self.sides[axis].axpy(dst, src, qarr, qmax, qsum)

    def swap(self, axis: int, i: int, j: int) -> None:
        if i != j:
            lines = [self.a.lines(axis)]
            if axis < len(self.sides):
                side = self.sides[axis]
                lines += [side.fwd.m, side.inv.m, side.unit]
            for m in lines:
                m[i], m[j] = m[j].copy(), m[i].copy()  # basic indexing: no index arrays

    def negate(self, i: int) -> None:
        side = self.sides[0]
        for m in (self.a.m, side.fwd.m, side.inv.m):
            m[i] *= -1
        side.unit[i] = -1


def _nearest_quotients(vals: np.ndarray, p: int) -> np.ndarray:
    """Round-to-nearest quotients (deterministic tie-break toward +inf)."""
    return np.floor_divide(vals + p // 2, p)


def smith(a, *, _columns: bool = True) -> SmithResult:
    """Smith normal form with full transform bookkeeping.

    Pivoting policy: the submatrix entry of least nonzero absolute value
    (first in row-major order on ties), which keeps intermediate swell
    low in practice.  Callers depend on this exact sequence of pivots and
    operations: the signs of downstream determinants follow from it.
    Per pivot, :func:`_clear_column` clears its column by rows and
    :func:`_reduce_once` its row by columns until both are clear; then the
    row of an entry the pivot fails to divide is added to the pivot row,
    and the rounds repeat.  A pivot of 1 divides everything and leaves no
    remainder, so it finishes after one column clear and one row clear,
    with no re-scan.  Batched line updates keep loops inside numpy.

    ``_columns=False`` is for a caller that reads only ``diag``, ``u`` and
    ``u_inv``: the column operations act on A alone, with the same pivots,
    and ``v`` and ``v_inv`` come back as their empty leading blocks
    V[:0] and V^-1[:, :0].  U and V^-1 are stored transposed while they
    are built and come back as transposed views, not as copies.
    """
    a = as_int_array(np.atleast_2d(a))
    st = _Tracked(a, columns=_columns)
    limit = min(a.shape)
    for t in range(limit):
        sub = st.a.m[t:, t:]
        flat = _pivot_index(sub)
        if flat is None:
            break
        di, dj = divmod(flat, sub.shape[1])
        st.swap(0, t, t + di)
        st.swap(1, t, t + dj)
        while True:
            _clear_column(st, t, t)
            if _reduce_once(st, 1, t, t):
                continue  # a column swap re-dirtied column t
            bad = _find_nondivisible(st.a.m, t, int(st.a.m[t, t]))
            if bad is None:
                break
            st.axpy(0, [t], bad, [-1], lo=t)
    rows = st.sides[0]
    if _columns:
        v, v_inv = _shrink(st.sides[1].inv.m), _shrink(st.sides[1].fwd.m.T)
    else:
        v = np.zeros((0, a.shape[1]), dtype=np.int64)
        v_inv = v.T
    return SmithResult(
        diag=[int(st.a.m[i, i]) for i in range(limit)],
        u=_shrink(rows.inv.m.T),
        u_inv=_shrink(rows.fwd.m),
        v=v,
        v_inv=v_inv,
    )


def _pivot_index(sub: np.ndarray) -> int | None:
    """Flat index of the least nonzero |entry|, first in row-major order;
    None when every entry is zero.

    While a +-1 remains it is the least nonzero magnitude, so the pivot
    is the first +-1 of the first row that holds one.  The rows are
    scanned in order for it, in blocks of 1, 2, 4, ... rows: a unit near
    the top costs a row or two, one far down at most twice the rows above
    it.  Only when no +-1 is left does the whole submatrix take one argmin.
    On int64 that runs over |x| - 1 viewed as uint64: zeros wrap to the
    largest key, and every other key is at most 2^63 - 2.
    """
    rows, cols = sub.shape
    lo = 0
    while lo < rows:
        hi = min(2 * lo + 1, rows)
        unit = np.flatnonzero(np.abs(sub[lo:hi]) == 1)
        if unit.size:
            return lo * cols + int(unit[0])
        lo = hi
    key = np.abs(sub)
    if key.dtype == object:
        nonzero = key != 0
        if not nonzero.any():
            return None
        return int(np.argmin(np.where(nonzero, key, int(key.max()) + 1)))
    key -= 1
    flat = int(np.argmin(key.view(np.uint64)))
    return flat if sub.flat[flat] != 0 else None


def _clear_column(st: _Tracked, t: int, c: int) -> None:
    """Row-reduce until column c is zero below row t, pivot (t, c) positive.

    Rows t and below must be zero left of column c.  The Smith form calls
    this with c = t, :func:`hermite_rows` at its next pivot column.  Each
    round first makes the pivot positive, so a pivot just swapped in needs
    no sign step of its own.
    """
    while True:
        if st.a.m[t, c] < 0:
            st.negate(t)
        if not _reduce_once(st, 0, t, c):
            return


def _reduce_once(st: _Tracked, axis: int, t: int, c: int) -> bool:
    """One round of reducing entry c of the lines below line t by line t,
    on the rows of A (axis 0) or its columns (axis 1), by nearest quotients.
    True when a remainder survived and the least one was swapped into line
    t as the new pivot; the caller reduces again (a column swap can
    re-dirty column t)."""
    lines = st.a.lines(axis)
    col = lines[t + 1:, c]
    nz = np.flatnonzero(col)
    if nz.size == 0:
        return False
    pivot = int(lines[t, c])
    st.axpy(axis, nz + t + 1, t, _nearest_quotients(col[nz], pivot), lo=c)
    if pivot == 1:
        return False  # the quotients are the entries: no remainder is left
    col = st.a.lines(axis)[t + 1:, c]
    nz = np.flatnonzero(col)
    if nz.size == 0:
        return False
    best = nz[int(np.argmin(np.abs(col[nz])))]
    st.swap(axis, t, t + 1 + int(best))
    return True


def _find_nondivisible(a: np.ndarray, t: int, pivot: int) -> int | None:
    """Row index (absolute) of an entry the pivot fails to divide."""
    if pivot in (0, 1):
        return None
    bad = np.nonzero((a[t + 1:, t + 1:] % pivot) != 0)
    if bad[0].size == 0:
        return None
    return t + 1 + int(bad[0][0])


# --- Hermite form (row-style) ----------------------------------------------

def hermite_rows(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row Hermite normal form: (H, T, T^-1) with T @ A = H, T unimodular.

    Pivots positive, zeros below them, entries above each pivot in
    [0, pivot).  Per column, the row of least nonzero |entry| from the
    next pivot row t down moves to row t, :func:`_clear_column` clears
    below it and one batch of floor quotients reduces the rows above;
    T^-1 is co-tracked.  For A of full row rank, H and T are unique.
    """
    a = as_int_array(a)
    rows, cols = a.shape
    st = _Tracked(a, columns=False)
    t = 0
    for c in range(cols):
        if t == rows:
            break
        col = st.a.m[t:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        st.swap(0, t, t + int(nz[np.argmin(np.abs(col[nz]))]))
        _clear_column(st, t, c)
        h = st.a.m
        q = np.floor_divide(h[:t, c], int(h[t, c]))
        above = np.flatnonzero(q)
        if above.size:
            st.axpy(0, above, t, q[above], lo=c)
        t += 1
    side = st.sides[0]
    return (_shrink(st.a.m), _shrink(side.fwd.m),
            _shrink(np.ascontiguousarray(side.inv.m.T)))


def _scale_columns(m: np.ndarray, factors) -> np.ndarray:
    """``m`` with column j multiplied by ``factors[j]``, exactly."""
    f = as_int_array(list(factors)).reshape(1, -1)
    if object in (m.dtype, f.dtype) or _maxabs(m) * _maxabs(f) >= _LIMIT:
        m, f = m.astype(object), f.astype(object)
    return _shrink(m * f)


def audit_smith(a: np.ndarray, sm: SmithResult) -> None:
    """Certify a Smith decomposition by exact products at every size:
    U D V = A from the first rank-many columns of U D, U^-1 U = I,
    V V^-1 = I, and a nonnegative divisibility chain.

    For square transforms the inverse checks say U and V are unimodular.
    The leading blocks of a rank-r decomposition, U[:, :r], U^-1[:r],
    V[:r], V^-1[:, :r] and diag[:r], pass the same checks; a block with a
    one-sided integer inverse extends to a unimodular matrix, so they
    certify the rank and invariant factors of A, but nothing of the
    trailing columns of V^-1, which would span ker A.  Raises
    :class:`DefectError` on any discrepancy.
    """
    a = as_int_array(np.atleast_2d(a))
    r = sm.rank
    # U D V from the first r columns of U D: the divisor checks below
    # reject a diag whose zeros do not all trail
    ud = _scale_columns(sm.u[:, :r], sm.diag[:r])
    if not np.array_equal(dot_exact(ud, sm.v[:r, :]), a):
        raise DefectError("Smith reconstruction U @ D @ V != A")
    for name, left, right in (("U", sm.u_inv, sm.u), ("V", sm.v, sm.v_inv)):
        if not np.array_equal(dot_exact(left, right), np.eye(left.shape[0], dtype=np.int64)):
            raise DefectError(f"Smith transform {name} failed inverse check")
    diag = sm.diag
    for i, dval in enumerate(diag):
        if dval < 0:
            raise DefectError("negative Smith divisor")
        if i + 1 < len(diag) and dval == 0 and diag[i + 1] != 0:
            raise DefectError("zero Smith divisor before a nonzero one")
        if i + 1 < len(diag) and dval != 0 and diag[i + 1] % dval != 0:
            raise DefectError("Smith divisors fail the divisibility chain")
