"""The binary fields GF(2^m) of the detectors, on numpy int32 arrays.

A field multiplies whole arrays through log/exp tables (nmul); the
kernels invert through the same tables, as exp[(q - 1) - log a]. Both
characteristic-2 determinant kernels take their sign-free row-by-row
minors through modp.minor_plan, whose signs are all +1 in characteristic
2. Only hamdetect and branchings import this module.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import GuardError

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
# fields


class BinaryField:
    """GF(2^m) on ints, as numpy log/exp tables with a batched product."""

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
        # make_binary_field shares one field per degree across callers
        for table in (self.np_log, self.np_exp):
            table.setflags(write=False)

    def nmul(self, a, b):
        """Elementwise product of int32 arrays (or scalars) of field elements."""
        return self.np_exp[self.np_log[a] + self.np_log[b]]

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


@functools.cache
def make_binary_field(m: int) -> BinaryField:
    """The shared GF(2^m).

    One field per degree m per process, built on first use and shared by
    every later caller; its numpy tables are read-only. The field is
    deterministic (smallest irreducible polynomial, first generator), so
    sharing it changes no answer. A GuardError is raised afresh on every
    call, since the cache keeps only results. BinaryField(m) itself builds
    a new one.
    """
    return BinaryField(m)
