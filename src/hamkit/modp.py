"""Prime-field kernels: GF(p), p < 2^31, on numpy int64 arrays.

batched_modp_det takes the determinants of a whole stack of matrices mod
p, division-free and screened across the stack, and finishes the last
MINOR_TAIL rows from their signed row-by-row minors. It divides through
_batch_inverse (one Fermat power per batch) and reduces through _centre_mod
(a float64 quotient in place of an int64 %). inverse_vandermonde and
interpolate_univariate turn a batch of values at the points 1..N into
coefficients. The stack helpers _live_span and _tree_product serve the
marker-ring kernel of branchings as well, and minor_det, the row-by-row
minor recurrence over the cached gather plan minor_plan, finishes every
batched determinant kernel: this one's signed tail, hamdetect's
log-domain tail and the marker ring's unit-free blocks, each with its own
product and sum. The module imports numpy and nothing from hamkit, so a
caller loads neither the detectors nor the binary fields with it.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# batched_modp_det sums two int64 products of residues below p in magnitude
# (centred ones, |r| <= p * (1/2 + 2^-20)), so p must stay below 2^31
MODP_WORD_LIMIT = 1 << 31
# Entries of the int64 and float64 scratch blocks that batched_modp_det reduces
# at once: each elimination step updates its trailing rows a block at a time,
# and the tail's minors take about this many products at a time
MODP_BLOCK = 1 << 16
# batched_modp_det and hamdetect.batched_gf_det eliminate down to this many
# rows and take the determinant of the trailing block from its row-by-row minors
MINOR_TAIL = 4


@functools.cache
def minor_plan(t: int) -> tuple:
    """Gather plan of the row-by-row minors of a t x t block, rows 1..t-1.

    The minor M_r(S) of rows 0..r on a column set S = (S_0 < ... < S_r) is,
    expanded along row r, the sum over positions j of (-1)^(r+j) *
    m[r, S_j] * M_{r-1}(S - S_j), and M_{t-1} of all t columns is the
    block's determinant; in characteristic 2 every sign is +1. The minors of
    rows 0..r are indexed by their column sets S, |S| = r + 1, in
    itertools.combinations order. Row r's entry is (cols, rest), both
    [C(t, r + 1), r + 1] intp: cols[k] lists the columns of the k-th set S,
    and rest[k] the index of each S - S_j among the sets of row r - 1. Row
    0's minors are its own entries, so they need no entry. The arrays are
    read-only, since every call shares them.
    """
    index = {(c,): c for c in range(t)}
    plan = []
    for r in range(1, t):
        sets = list(itertools.combinations(range(t), r + 1))
        cols = np.array(sets, dtype=np.intp)
        rest = np.array([[index[s[:j] + s[j + 1 :]] for j in range(r + 1)] for s in sets], dtype=np.intp)
        cols.setflags(write=False)
        rest.setflags(write=False)
        plan.append((cols, rest))
        index = {s: k for k, s in enumerate(sets)}
    return tuple(plan)


def minor_det(block: np.ndarray, mul, add) -> np.ndarray:
    """Determinants of the t x t blocks of a [t, t, ...] stack, t >= 1, from their row-by-row minors.

    The minors follow minor_plan(t): row 0's are its entries, and row r's
    are add(mul(row r gathered by cols, the minors above gathered by rest),
    r). mul multiplies the [C(t, r + 1), r + 1, ...] entries and minors
    elementwise; add sums each column set's r + 1 products over axis 1 into
    the [C(t, r + 1), ...] minors of row r, signing position j by (-1)^(r+j)
    outside characteristic 2. The last row's one minor, [...], is returned.
    No pivot is needed. The plan's indices are in range by construction, so
    the gathers take mode="clip": it never clips, and it skips the default
    mode's index check.
    """
    minors = block[0]
    for r, (cols, rest) in enumerate(minor_plan(len(block)), 1):
        prods = mul(block[r].take(cols, axis=0, mode="clip"), minors.take(rest, axis=0, mode="clip"))
        minors = add(prods, r)
    return minors[0]


def _live_span(lines: np.ndarray, start: int) -> slice | None:
    """The slice from the first to the last line of lines (axis 0) with a nonzero entry, offset by start.

    None if every line is zero. The elimination kernels pass the part of a
    pivot column below the diagonal (or of a pivot row right of it) across
    the whole stack, so the span covers every line that some matrix needs
    updated. When both end lines are nonzero, as on dense stacks, two
    count_nonzero calls on them settle it without a pass over the rest.
    """
    m = len(lines)
    if np.count_nonzero(lines[0]) and np.count_nonzero(lines[m - 1]):
        return slice(start, start + m)
    live = lines.any(axis=tuple(range(1, lines.ndim))).nonzero()[0]
    return slice(start + live[0], start + live[-1] + 1) if live.size else None


def _tree_product(values: np.ndarray, mul) -> np.ndarray:
    """Product over axis 0 of a stack of s >= 1 factors under mul, multiplied pairwise up a tree.

    mul is commutative and exact (the marker ring's, or the product mod p),
    so the tree gives the same product as a left-to-right scan, in about
    log2(s) mul calls on ever smaller stacks.
    """
    while values.shape[0] > 1:
        half = values.shape[0] // 2
        prod = mul(values[:half], values[half : 2 * half])
        values = np.concatenate([prod, values[2 * half :]]) if values.shape[0] % 2 else prod
    return values[0]


def _batch_inverse(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod prime p of the int64 residues x in [0, p), [B]; 0 maps to 0.

    One scalar Fermat inverse for the whole batch: the nonzero residues are
    multiplied up a pairwise tree (zeros and an odd level's padding count
    as 1), the root is inverted with pow, and each level's inverses come
    back down as parent inverse times sibling. About 2 log2(B) vector steps
    where an elementwise Fermat ladder takes about 62 whatever B is.
    Products of two residues stay below 2^62, so p must be below 2^31.
    """
    live = x != 0
    level = np.where(live, x, 1)
    levels = []
    while level.size > 1:
        if level.size % 2:
            level = np.append(level, 1)
        levels.append(level)
        pairs = level.reshape(-1, 2)
        level = pairs[:, 0] * pairs[:, 1] % p
    inv = np.array([pow(int(r), p - 2, p) for r in level.tolist()], dtype=np.int64)  # the root, if any
    for below in reversed(levels):
        inv = (inv[: below.size // 2, None] * below.reshape(-1, 2)[:, ::-1] % p).ravel()
    return np.where(live, inv[: x.size], 0)


def _centre_mod(x: np.ndarray, p: int, quot: np.ndarray | None = None,
                fquot: np.ndarray | None = None) -> np.ndarray:
    """Reduce the int64 array x in place to residues r = x - p * rint(x / p); returns x.

    For |x| < 2^62 and 2 <= p < 2^31, r is congruent to x mod p and |r| <=
    p/2 + 2^-51 * |x|: x, 1/p and their product are each rounded once in
    float64, so the float quotient is off by less than 2^-51 * |x/p|, and
    rint adds at most 1/2. quot (int64) and fquot (float64), shaped like x,
    are scratch; they are allocated when not given.
    """
    if quot is None:
        quot = np.empty(x.shape, dtype=np.int64)
    if fquot is None:
        fquot = np.empty(x.shape, dtype=np.float64)
    np.multiply(x, 1.0 / p, out=fquot)
    np.rint(fquot, out=quot, casting="unsafe")
    quot *= p
    x -= quot
    return x


def batched_modp_det(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants of an int64 stack [B, d, d] mod prime p, in [0, p). Consumes mats.

    Entries must lie in [0, p), or all be centred residues of magnitude at
    most p * (1/2 + 2^-20). Elimination runs batch-last, on the [d, d, B]
    array mats.transpose(1, 2, 0), so every update walks B contiguous
    entries; a [B, d, d] view of a batch-last buffer (what
    branchings.BranchingLeafPolynomial._laplacians returns) is eliminated in place.
    Each step updates its trailing rows in blocks of about MODP_BLOCK
    entries, through two scratch buffers of that size.

    Elimination stops when t = min(d, MINOR_TAIL) rows are left; a matrix of
    at most MINOR_TAIL rows is its own tail and runs no elimination step.
    The tail's determinant is the last of its signed row-by-row minors
    (minor_det): row r takes every minor of rows 0..r at once, one gather
    of row r and one of the minors above, their products signed (-1)^(r+j)
    and summed over the positions j. A product of two centred residues is
    below 2^60 in magnitude and a sum of at most MINOR_TAIL of them below
    2^62, and _centre_mod brings each row's minors back to centred
    residues. The tail needs no pivot; it runs over the stack in blocks of
    about MODP_BLOCK products.

    A zero pivot takes the first row below it with a nonzero entry in its
    column added to row j, which keeps the determinant, so no sign is
    tracked; the sum of two entries is below 2p in magnitude, and
    _centre_mod brings it back to a centred residue.

    Elimination is division-free and screened across the whole stack: step j
    updates only the span (see _live_span) of rows below the pivot whose
    column-j entry is nonzero in some matrix, each to piv*row - a*row_j
    right of column j, which scales the determinant by piv once per updated
    row. A row outside the span is zero in column j in every matrix and is
    left as it is, unscaled. Column j below the pivot is never read again,
    so it stays as it is and stands for the zeros of the eliminated, block
    upper triangular matrix. Row j is never written after step j, so a[j, j]
    ends up holding step j's pivot, and the determinant is the product of
    that eliminated diagonal and the tail's determinant divided by each
    step's pivot once per row the step updated: the product of each pivot
    raised to its update count (counts), by square-and-multiply over the
    counts' bits with one tree product of the pivot rows per bit, and one
    _batch_inverse of it divides, with no division in the loop and no array
    larger than [d, B] at the end. Only the diagonal, the tail's
    determinant and these products are normalised with %. Where no step
    updated a row (order d <= MINOR_TAIL, or every span empty) there is
    nothing to divide by, and the inverse is skipped. Every updated entry is
    brought back to a centred residue by _centre_mod, one float quotient
    instead of an int64 %, and a skipped row keeps the centred residues it
    had, so every entry stays at most p * (1/2 + 2^-20) in magnitude: each
    update piv*rest - col*row is at most p^2/2 * (1 + 2^-17) < 2^62 (below
    p^2 on [0, p) entries), and reducing it leaves at most p/2 + 2^-51 * p^2
    < p * (1/2 + 2^-20). As that is below p, an entry is nonzero exactly
    when its residue is, so the pivot search and the screen see the same
    matrices as over GF(p). A matrix that runs out of pivots has a zero on
    its diagonal and determinant 0. The products are taken in int64, so p
    must be below MODP_WORD_LIMIT (2^31). On the Laplacian stacks
    branchings.solve_nk_dv builds, every initial diagonal entry is nonzero,
    so the row addition is the exception there, not the rule. An order-0
    stack has determinant 1.
    """
    if p >= MODP_WORD_LIMIT:
        raise ValueError(f"prime {p} is past the 2^31 word-size limit of batched_modp_det")
    nmats, d, _ = mats.shape
    if not d:
        return np.ones(nmats, dtype=np.int64)
    a = np.ascontiguousarray(mats.transpose(1, 2, 0))
    steps = d - min(d, MINOR_TAIL)
    counts = [0] * steps  # per step, the rows its pivot scaled
    width = max(1, (d - 1) * nmats)  # entries in one row of the first update
    rows = max(1, MODP_BLOCK // width)
    quot = np.empty(min(rows, d - 1) * width if steps else 0, dtype=np.int64)
    fquot = np.empty(quot.shape, dtype=np.float64)
    for j in range(steps):
        if np.count_nonzero(a[j, j]) < nmats:
            # row j takes the first row below with a nonzero column-j entry
            # added; where there is none, column j is zero from row j down,
            # the determinant is 0, and row j is added to itself
            zero = np.flatnonzero(a[j, j] == 0)
            src = j + np.argmax(a[j:, j, zero] != 0, axis=0)
            a[j, j:, zero] = _centre_mod(a[j, j:, zero] + a[src, j:, zero], p)
        span = _live_span(a[j + 1 :, j], j + 1)
        if span:
            m = span.stop - span.start
            counts[j] = int(m)
            piv = a[j, j]
            col = a[span, j, None]
            row = a[j, None, j + 1 :]
            for lo in range(0, m, rows):
                hi = min(lo + rows, m)
                rest = a[span.start + lo : span.start + hi, j + 1 :]
                size = rest.size
                prod = quot[:size].reshape(rest.shape)
                np.multiply(col[lo:hi], row, out=prod)
                rest *= piv
                rest -= prod
                _centre_mod(rest, p, prod, fquot[:size].reshape(rest.shape))
    quot = fquot = prod = None  # free the scratch (prod is a view of quot) before the tail and the products
    tail = a[steps:, steps:]
    plan = minor_plan(len(tail))
    chunk = max(1, MODP_BLOCK // max((cols.size for cols, _ in plan), default=1))
    diag = np.empty((steps + 1, nmats), dtype=np.int64)  # step j's pivot in row j, the tail's determinant last
    diag[:steps] = a.diagonal().T[:steps]

    def signed_sum(prods, r):
        prods[:, (r + 1) % 2 :: 2] *= -1  # the positions j with r + j odd
        return _centre_mod(prods.sum(axis=1), p)

    for lo in range(0, nmats, chunk):
        block = tail[..., lo : lo + chunk]
        diag[steps, lo : lo + chunk] = minor_det(block, np.multiply, signed_sum)
    diag %= p
    mul = lambda x, y: x * y % p  # noqa: E731
    det = _tree_product(diag, mul)
    if any(counts):
        # the product of diag[j]^counts[j], square-and-multiply from the counts' top bit down
        top = max(counts).bit_length() - 1
        divisor = _tree_product(diag[[j for j, c in enumerate(counts) if c >> top & 1]], mul)
        for b in range(top - 1, -1, -1):
            divisor = divisor * divisor % p
            rows = [j for j, c in enumerate(counts) if c >> b & 1]
            if rows:
                divisor = divisor * _tree_product(diag[rows], mul) % p
        det = det * _batch_inverse(divisor, p) % p
    return det


def inverse_vandermonde(npts: int, p: int) -> np.ndarray:
    """V^-1 mod p for V[i, j] = x_i^j at the N = npts points x_i = i + 1, from the Lagrange basis.

    Column i holds the coefficients, low degree first, of L_i(X) =
    prod_{k != i} (X - x_k) / (x_i - x_k): one synthetic division of
    F = prod_k (X - x_k) by every (X - x_i) at once, times the inverse
    denominators. At the points 1..N the denominator of L_i is
    (-1)^(N - x_i) (x_i - 1)! (N - x_i)!, so the inverse factorials of
    0..N-1, from one pow, give them all. The points are distinct mod p, and
    the factorials invertible, exactly when N <= p; p must be below 2^31.
    """
    if not 1 <= npts <= p:
        raise ValueError(f"need 1 <= npts <= p for distinct points 1..npts mod {p}, got {npts}")
    xs = np.arange(1, npts + 1, dtype=np.int64)
    high = np.zeros(npts + 1, dtype=np.int64)  # F, high degree first, zero past its degree
    high[0] = 1
    head, tail = high[:-1], high[1:]
    scaled = np.empty(npts, dtype=np.int64)
    for x in range(1, npts + 1):  # F times (X - x): c_j -= x * c_(j-1)
        np.multiply(head, x, out=scaled)
        np.subtract(tail, scaled, out=tail)
        np.remainder(tail, p, out=tail)
    full = high[::-1]  # F, low degree first
    quot = np.empty((npts, npts), dtype=np.int64)  # quot[j, i]: X^j in F / (X - x_i)
    carry = np.zeros(npts, dtype=np.int64)
    for j in range(npts, 0, -1):
        carry = (full[j] + carry * xs) % p
        quot[j - 1] = carry
    inv_fact = [1] * npts  # 1 / m! for m < npts
    fact = 1
    for m in range(2, npts):
        fact = fact * m % p
    inv_fact[-1] = pow(fact, p - 2, p)
    for m in range(npts - 1, 1, -1):
        inv_fact[m - 1] = inv_fact[m] * m % p
    inv_fact = np.array(inv_fact, dtype=np.int64)
    inv_denom = inv_fact * inv_fact[::-1] % p  # 1 / ((x_i - 1)! (N - x_i)!)
    inv_denom[npts % 2 :: 2] = (p - inv_denom[npts % 2 :: 2]) % p  # where N - x_i is odd
    return quot * inv_denom % p


def interpolate_univariate(values: np.ndarray, vinv: np.ndarray, p: int) -> np.ndarray:
    """Coefficients, low degree first, of the polynomial through each row of values mod p.

    values is [T, N] with entries in [0, p), row t holding one polynomial's
    values at the N points that vinv, an inverse Vandermonde mod p, was
    built on (1..N for inverse_vandermonde(N, p)); the result is [T, N],
    values @ vinv.T mod p. The product runs in int64 on the 16-bit limbs of
    vinv: every term is below 2^31 * 2^16 = 2^47, so a row sum stays below
    2^57 for N up to 1,025 points (n = 512) and the result is exact.
    """
    lo = vinv & 0xFFFF
    hi = vinv >> 16
    high = values @ hi.T % p
    return (high * 0x10000 + values @ lo.T) % p
