"""Fields, residue rings, group algebras, truncated polynomials, CRT."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamkit.algebra import (
    BinaryField,
    PrimeField,
    crt_combine,
    find_irreducible,
    gf2_is_irreducible,
    interpolate_univariate,
    is_prime,
    make_binary_field,
    primes_up_to,
    random_prime_31,
)
from hamkit.errors import GuardError
from reference import GroupAlgebra, ResidueRing, TruncatedPolyRing


class TestPrimes:
    def test_is_prime_small(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_primes_up_to(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_up_to(1) == []

    def test_random_prime_31_range(self):
        rnd = random.Random(0)
        for _ in range(5):
            p = random_prime_31(rnd)
            assert 1 << 30 <= p < 1 << 31
            assert is_prime(p)


class TestBinaryField:
    def test_sizing_n10(self):
        f = make_binary_field(10)
        assert f.m == 8
        assert f.q == 256
        assert f.q >= 10 * 10

    def test_sizing_n2(self):
        f = make_binary_field(2)
        assert f.m == 2
        assert f.q == 4

    def test_sizing_always_at_least_n_squared(self):
        for n in range(2, 40):
            assert make_binary_field(n).q >= n * n

    def test_irreducible_search(self):
        for m in range(1, 12):
            poly = find_irreducible(m)
            assert poly.bit_length() - 1 == m
            assert gf2_is_irreducible(poly)

    def test_reducible_rejected(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        assert not gf2_is_irreducible(0b101)
        with pytest.raises(ValueError):
            BinaryField(2, poly=0b101)

    def test_char2_self_cancel(self):
        f = BinaryField(6)
        for a in range(f.q):
            assert f.add(a, a) == 0

    def test_inverses(self):
        f = BinaryField(6)
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_distributivity_random(self):
        f = BinaryField(8)
        rnd = random.Random(1)
        for _ in range(500):
            a, b, c = (rnd.randrange(f.q) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_batched_matches_scalar(self):
        import numpy as np

        f = BinaryField(7)
        rnd = np.random.default_rng(4)
        a = rnd.integers(0, f.q, size=300, dtype=np.int32)
        b = rnd.integers(0, f.q, size=300, dtype=np.int32)
        prod = f.nmul(a, b)
        for x, y, z in zip(a.tolist(), b.tolist(), prod.tolist()):
            assert f.mul(x, y) == z
        nz = a[a != 0]
        inv = f.ninv(nz)
        for x, y in zip(nz.tolist(), inv.tolist()):
            assert f.mul(x, y) == 1

    def test_degree_guard(self):
        with pytest.raises(GuardError):
            BinaryField(17)


class TestPrimeFieldAndResidues:
    def test_prime_field_axioms(self):
        f = PrimeField(101)
        rnd = random.Random(2)
        for _ in range(300):
            a, b, c = (rnd.randrange(101) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1

    def test_not_prime(self):
        with pytest.raises(ValueError):
            PrimeField(10)

    def test_residue_zero_divisor(self):
        r = ResidueRing(3, 2)
        assert r.mul(3, 3) == 0
        assert r.one == 1
        assert r.neg(1) == 8

    def test_residue_guard(self):
        with pytest.raises(GuardError):
            ResidueRing(2, 63)


class TestGroupAlgebra:
    def test_identity(self):
        ga = GroupAlgebra(BinaryField(6), 3)
        rnd = random.Random(3)
        x = ga.from_coeffs([rnd.randrange(ga.field.q) for _ in range(ga.dim)])
        assert ga.mul(ga.one, x) == x

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_nilpotency_every_generator(self, k):
        ga = GroupAlgebra(BinaryField(4), k)
        for g in range(ga.dim):
            y = ga.add(ga.unit(g), ga.one)
            assert ga.is_zero(ga.mul(y, y))

    def test_associativity_random(self):
        ga = GroupAlgebra(BinaryField(4), 3)
        rnd = random.Random(9)
        for _ in range(60):
            x, y, z = (
                ga.from_coeffs([rnd.randrange(ga.field.q) for _ in range(ga.dim)])
                for _ in range(3)
            )
            assert ga.mul(ga.mul(x, y), z) == ga.mul(x, ga.mul(y, z))

    def test_commutativity_random(self):
        ga = GroupAlgebra(BinaryField(4), 4)
        rnd = random.Random(10)
        for _ in range(60):
            x, y = (
                ga.from_coeffs([rnd.randrange(ga.field.q) for _ in range(ga.dim)])
                for _ in range(2)
            )
            assert ga.mul(x, y) == ga.mul(y, x)

    def test_rank_guard(self):
        with pytest.raises(GuardError):
            GroupAlgebra(BinaryField(4), 9)


class TestTruncatedPoly:
    def test_mul_matches_full_product(self):
        f = PrimeField(97)
        ring = TruncatedPolyRing(f, cap=4)
        rnd = random.Random(11)
        for _ in range(200):
            a = tuple(rnd.randrange(97) for _ in range(5))
            b = tuple(rnd.randrange(97) for _ in range(5))
            got = ring.mul(a, b)
            full = [0] * 9
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    full[i + j] = (full[i + j] + ai * bj) % 97
            assert got == tuple(full[:5])

    def test_cap_zero(self):
        f = PrimeField(5)
        ring = TruncatedPolyRing(f, cap=0)
        assert ring.t_times(3) == ring.zero
        assert ring.mul((2,), (4,)) == (3,)


class TestCrt:
    def test_worked_pair(self):
        assert crt_combine([(1, 2, 2), (2, 3, 1)]) == (5, 12)

    def test_single(self):
        assert crt_combine([(7, 11, 1)]) == (7, 11)

    def test_duplicate_prime_rejected(self):
        with pytest.raises(ValueError):
            crt_combine([(1, 3, 1), (2, 3, 2)])

    @given(st.integers(min_value=0, max_value=10**18))
    @settings(max_examples=200, deadline=None)
    def test_reduction_roundtrip(self, x):
        triples = [(x % 2**5, 2, 5), (x % 3**3, 3, 3), (x % 5**2, 5, 2), (x % 7, 7, 1)]
        value, modulus = crt_combine(triples)
        assert modulus == 2**5 * 3**3 * 5**2 * 7
        assert value == x % modulus


class TestInterpolation:
    def test_square(self):
        pts = [(t, t * t % 101) for t in range(3)]
        assert interpolate_univariate(pts, 2, 101) == (0, 0, 1)

    def test_constant(self):
        assert interpolate_univariate([(0, 4), (1, 4)], 0, 101) == (4,)

    def test_roundtrip_random(self):
        rnd = random.Random(12)
        p = 1009
        for _ in range(50):
            d = rnd.randrange(0, 8)
            coeffs = tuple(rnd.randrange(p) for _ in range(d + 1))
            pts = []
            for t in range(d + 1):
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * t + c) % p
                pts.append((t, acc))
            assert interpolate_univariate(pts, d, p) == coeffs

    def test_extra_point_consistency_check(self):
        pts = [(0, 0), (1, 1), (2, 4), (3, 0)]  # last point off the parabola
        with pytest.raises(ValueError):
            interpolate_univariate(pts, 2, 101)

    def test_repeated_abscissa(self):
        with pytest.raises(ValueError):
            interpolate_univariate([(1, 0), (1, 1), (2, 4)], 2, 101)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            interpolate_univariate([(1, 0)], 2, 101)
