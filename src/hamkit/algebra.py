"""Primes, prime-power residues and CRT, in plain Python integers."""

from __future__ import annotations

from collections import namedtuple

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
# residues


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
