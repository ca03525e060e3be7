"""Finite fields, prime-power residues, CRT and interpolation.

Fields are descriptors with ints as elements: zero/one attributes and
add/sub/mul/neg/inv/is_zero methods. The binary fields GF(2^m) add numpy
batched multiplication and inversion through log/exp tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError

# ---------------------------------------------------------------------------
# primality helpers


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs."""
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
    for a in _MR_WITNESSES:
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


class PrimeField:
    """GF(p) on ints 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def __repr__(self):
        return f"PrimeField({self.p})"


@dataclass(frozen=True)
class ResidueElem:
    """A value together with its prime-power modulus."""

    value: int
    p: int
    k: int

    @property
    def modulus(self) -> int:
        return self.p**self.k

    def __post_init__(self):
        if not (0 <= self.value < self.modulus):
            raise ValueError("residue out of range")


class BinaryField:
    """GF(2^m) on ints, with log/exp tables and numpy batched helpers."""

    TABLE_LIMIT_M = 16

    def __init__(self, m: int, poly: int | None = None):
        if not (1 <= m <= self.TABLE_LIMIT_M):
            raise GuardError(f"binary field degree {m} outside supported 1..{self.TABLE_LIMIT_M}")
        if poly is None:
            poly = find_irreducible(m)
        if poly.bit_length() - 1 != m or not gf2_is_irreducible(poly):
            raise ValueError(f"{poly:#x} is not an irreducible polynomial of degree {m}")
        self.m = m
        self.q = 1 << m
        self.poly = poly
        self.zero = 0
        self.one = 1
        self._build_tables()

    def _raw_mul(self, a: int, b: int) -> int:
        return gf2_mod(gf2_mul(a, b), self.poly)

    def _build_tables(self) -> None:
        q = self.q
        order = q - 1
        factors = _prime_factors(order)
        gen = None
        for cand in range(2, q):
            if all(_raw_pow(self, cand, order // f) != 1 for f in factors):
                gen = cand
                break
        if gen is None:  # q == 2
            gen = 1
        exp = [0] * (2 * order)
        log = [0] * q
        acc = 1
        for i in range(order):
            exp[i] = acc
            exp[i + order] = acc
            log[acc] = i
            acc = self._raw_mul(acc, gen)
        assert acc == 1, "generator order mismatch"
        self.generator = gen
        self._exp = exp
        self._log = log
        self.np_exp = np.array(exp + [0], dtype=np.int32)
        self.np_log = np.array(log, dtype=np.int32)

    # scalar ops
    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def neg(self, a):
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[(self.q - 1) - self._log[a]]

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def is_zero(self, a):
        return a == 0

    # numpy batched ops on int32 arrays
    def nmul(self, a, b):
        prod = self.np_exp[self.np_log[a] + self.np_log[b]]
        return np.where((a == 0) | (b == 0), 0, prod)

    def ninv(self, a):
        return self.np_exp[(self.q - 1) - self.np_log[a]]

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


def make_binary_field(n: int) -> BinaryField:
    """Field sized for an n-vertex instance: order at least n squared."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = 2 * (n - 1).bit_length()
    return BinaryField(m)


# ---------------------------------------------------------------------------
# CRT and interpolation


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


def interpolate_univariate(points, degree: int, p: int) -> tuple[int, ...]:
    """Coefficients (low first) of the degree <= `degree` poly through points mod p.

    Needs at least degree+1 points with distinct abscissae; any extra points
    are checked for consistency.
    """
    field = PrimeField(p)
    pts = list(points)
    if len(pts) < degree + 1:
        raise ValueError("not enough points")
    xs = [x % p for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("abscissae must be distinct")
    base = pts[: degree + 1]
    # full = prod (X - x_i) for the base points
    full = [1]
    for x, _ in base:
        nxt = [0] * (len(full) + 1)
        for i, c in enumerate(full):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - c * x) % p
        full = nxt
    coeffs = [0] * (degree + 1)
    for x, y in base:
        # quotient full / (X - x) by synthetic division
        quot = [0] * (degree + 1)
        carry = 0
        for i in range(degree + 1, 0, -1):
            carry = (full[i] + carry * x) % p
            quot[i - 1] = carry
        denom = 0
        xe = 1
        for c in quot:
            denom = (denom + c * xe) % p
            xe = xe * x % p
        scale = y % p * field.inv(denom) % p
        for i in range(degree + 1):
            coeffs[i] = (coeffs[i] + scale * quot[i]) % p
    for x, y in pts[degree + 1 :]:
        acc = 0
        xe = 1
        for c in coeffs:
            acc = (acc + c * xe) % p
            xe = xe * x % p
        if acc != y % p:
            raise ValueError("points are not on a single degree-bounded polynomial")
    return tuple(coeffs)


@dataclass(frozen=True)
class UnivariatePolyPF:
    """A univariate polynomial over GF(p), coefficients low degree first."""

    p: int
    coeffs: tuple[int, ...]
