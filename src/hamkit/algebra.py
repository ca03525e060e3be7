"""Primes, binary fields, prime-power residues and CRT.

The binary fields GF(2^m) work on numpy int32 arrays: batched
multiplication through log/exp tables and inversion through an inverse
table. Both characteristic-2 determinant kernels share one gather plan of
sign-free row-by-row minors (minor_plan). Mod-p arithmetic is plain int64
numpy, beside its kernels in branchings. numpy is imported when the first
field builds its tables or the first minor plan is built, so the primes,
residues and CRT that the counting modules use load without it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .errors import GuardError

# ---------------------------------------------------------------------------
# primality helpers


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke 1993)
_MR_FOUR_BASE_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs.

    Below _MR_FOUR_BASE_LIMIT, which covers every 31-bit prime draw, the
    bases 2, 3, 5 and 7 already decide; larger n take all twelve.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if n < _MR_FOUR_BASE_LIMIT else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


def random_prime_31(rng) -> int:
    """A uniform-ish random prime in [2^30, 2^31)."""
    while True:
        cand = rng.getrandbits(31) | (1 << 30) | 1
        if is_prime(cand):
            return cand


# ---------------------------------------------------------------------------
# GF(2) polynomial arithmetic on ints (bit i = coefficient of x^i)


def gf2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_mod(a: int, mod: int) -> int:
    dm = mod.bit_length()
    while a.bit_length() >= dm:
        a ^= mod << (a.bit_length() - dm)
    return a


def gf2_is_irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2."""
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if gf2_mod(poly, g) == 0:
                return False
    return True


# ---------------------------------------------------------------------------
# fields and residues


class ResidueElem(namedtuple("ResidueElem", "value p k")):
    """A value together with its prime-power modulus."""

    __slots__ = ()

    def __new__(cls, value: int, p: int, k: int):
        if not (0 <= value < p**k):
            raise ValueError("residue out of range")
        return super().__new__(cls, value, p, k)

    @property
    def modulus(self) -> int:
        return self.p**self.k


class BinaryField:
    """GF(2^m) on ints, as numpy log/exp/inverse tables with batched helpers."""

    TABLE_LIMIT_M = 16

    def __init__(self, m: int):
        if not (1 <= m <= self.TABLE_LIMIT_M):
            raise GuardError(f"binary field degree {m} outside supported 1..{self.TABLE_LIMIT_M}")
        self.m = m
        self.q = 1 << m
        self.poly = find_irreducible(m)
        self._build_tables()

    def _raw_mul(self, a: int, b: int) -> int:
        return gf2_mod(gf2_mul(a, b), self.poly)

    def _build_tables(self) -> None:
        import numpy as np

        m, q = self.m, self.q
        order = q - 1
        factors = _prime_factors(order)
        gen = None
        for cand in range(2, q):
            if all(_raw_pow(self, cand, order // f) != 1 for f in factors):
                gen = cand
                break
        if gen is None:  # q == 2
            gen = 1
        # exp[i] = gen^i for i < q, by doubling: exp[2^j : 2^(j+1)] = exp[: 2^j] * gen^(2^j)
        exp = np.ones(q, dtype=np.int64)
        step = gen
        for j in range(m):
            exp[1 << j : 2 << j] = _mul_by_constant(exp[: 1 << j], step, self.poly)
            step = self._raw_mul(step, step)
        assert exp[order] == 1, "generator order mismatch"
        self.generator = gen
        # Zero sentinel: log 0 is 2(q-1), and np_exp is zero from index 2(q-1)
        # on. Two nonzero logs sum below 2(q-1), any sum with the sentinel lands
        # in the zero tail, so nmul is one add and one gather with no mask.
        self.np_log = np.empty(q, dtype=np.int32)
        self.np_log[exp[:order]] = np.arange(order, dtype=np.int32)
        self.np_log[0] = 2 * order
        self.np_exp = np.zeros(4 * order + 1, dtype=np.int32)
        self.np_exp[:order] = self.np_exp[order : 2 * order] = exp[:order]
        self.np_inv = np.zeros(q, dtype=np.int32)  # ninv(0) == 0
        self.np_inv[1:] = self.np_exp[order - self.np_log[1:]]
        # make_binary_field shares one field per degree across callers
        for table in (self.np_log, self.np_exp, self.np_inv):
            table.setflags(write=False)

    # numpy batched ops on int32 arrays
    def nmul(self, a, b):
        return self.np_exp[self.np_log[a] + self.np_log[b]]

    def ninv(self, a):
        return self.np_inv[a]

    def __repr__(self):
        return f"BinaryField(m={self.m}, poly={self.poly:#x})"


def _raw_pow(field: BinaryField, base: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = field._raw_mul(out, base)
        base = field._raw_mul(base, base)
        e >>= 1
    return out


def _mul_by_constant(values, c: int, poly: int):
    """values * c mod poly, elementwise over an int64 array of field elements."""
    m = poly.bit_length() - 1
    out = values * (c & 1)
    for i in range(1, c.bit_length()):
        if c >> i & 1:
            out ^= values << i
    # the product has degree below m + bitlen(c) - 1; clear its bits from the top
    for d in range(m + c.bit_length() - 2, m - 1, -1):
        out ^= (out >> d & 1) * (poly << (d - m))
    return out


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def find_irreducible(m: int) -> int:
    """Smallest irreducible polynomial of degree m over GF(2)."""
    for cand in range((1 << m) + 1, 1 << (m + 1), 2):
        if gf2_is_irreducible(cand):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m}")


_FIELDS: dict[int, BinaryField] = {}


def binary_field_degree(n: int) -> int:
    """Degree m = 2 bitlen(n-1) of k-internal's field for n vertices, so 2^m >= n^2."""
    return 2 * (n - 1).bit_length()


def make_binary_field(m: int) -> BinaryField:
    """The shared GF(2^m).

    One field per degree m per process, built on first use and shared by
    every later caller; its numpy tables are read-only. The field is
    deterministic (smallest irreducible polynomial, first generator), so
    sharing it changes no answer. BinaryField(m) itself builds a new one.
    """
    field = _FIELDS.get(m)
    if field is None:
        field = _FIELDS[m] = BinaryField(m)  # a GuardError leaves nothing cached
    return field


@lru_cache(maxsize=None)
def minor_plan(t: int) -> tuple:
    """Gather plan of the row-by-row minors of a t x t block, rows 1..t-1.

    In characteristic 2 a determinant has no signs, so the minor M_r(S) of
    rows 0..r on a column set S of r + 1 columns is the sum over c in S of
    m[r, c] * M_{r-1}(S - c), and M_{t-1} of all t columns is the block's
    determinant. The minors of rows 0..r are indexed by their column sets
    S, |S| = r + 1, in itertools.combinations order. Row r's entry is
    (cols, rest), both [C(t, r + 1), r + 1] intp: cols[k] lists the columns
    c of the k-th set S, and rest[k] the index of each S - c among the sets
    of row r - 1. Row 0's minors are its own entries, so they need no
    entry. The arrays are read-only, since every call shares them.
    """
    import numpy as np

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


# ---------------------------------------------------------------------------
# CRT


def crt_combine(triples) -> tuple[int, int]:
    """Combine residues (value, p, k) over pairwise distinct primes.

    Returns (x, M) with x congruent to every input modulo its prime power
    and M the product of the prime powers.
    """
    seen = set()
    x, modulus = 0, 1
    for value, p, k in triples:
        if p in seen:
            raise ValueError(f"prime {p} repeated")
        seen.add(p)
        pk = p**k
        if not (0 <= value < pk):
            raise ValueError("residue out of range")
        # solve x' = x (mod modulus), x' = value (mod pk)
        inc = (value - x) % pk
        step = (inc * pow(modulus % pk, -1, pk)) % pk
        x = x + modulus * step
        modulus *= pk
    return x % modulus, modulus
