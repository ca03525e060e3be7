"""Fields, residue rings, group algebras, truncated polynomials, CRT, scalar interpolation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamkit.algebra import crt_combine, is_prime, primes_up_to, random_prime_31
from hamkit.branchings import binary_field_degree
from hamkit.errors import GuardError
from hamkit.gf2m import BinaryField, find_irreducible, gf2_is_irreducible, make_binary_field
from reference import (
    GroupAlgebra,
    PrimeField,
    ResidueRing,
    ScalarBinaryField,
    TruncatedPolyRing,
    interpolate_univariate,
    scalar_field_tables,
)


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

    def test_four_bases_agree_with_twelve(self):
        # bases 2, 3, 5, 7 decide below 3,215,031,751 (Jaeschke 1993)
        rnd = random.Random(31)
        cases = [rnd.getrandbits(31) | 1 for _ in range(100_000)]
        cases += [2047, 1_373_653, 25_326_001, 3_215_031_751, 3_215_031_749, 3_215_031_753]
        for n in cases:
            assert is_prime(n) == miller_rabin_all_bases(n), n
        assert not is_prime(25_326_001)  # strong pseudoprime to 2, 3 and 5
        assert not is_prime(3_215_031_751)  # strong pseudoprime to 2, 3, 5 and 7

    def test_random_prime_31_sequence_is_fixed(self):
        rnd = random.Random(2024)
        assert [random_prime_31(rnd) for _ in range(8)] == [
            1563935663, 1629136661, 1862090707, 1522640807,
            1199337481, 1372168757, 1776220967, 1943564243,
        ]


def miller_rabin_all_bases(n: int) -> bool:
    """Miller-Rabin to all twelve prime bases up to 37, for odd n > 37."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class TestBinaryField:
    def test_sizing_n10(self):
        f = make_binary_field(binary_field_degree(10))
        assert f.m == 8
        assert f.q == 256
        assert f.q >= 10 * 10

    def test_sizing_n2(self):
        f = make_binary_field(binary_field_degree(2))
        assert f.m == 2
        assert f.q == 4

    def test_sizing_always_at_least_n_squared(self):
        for n in range(2, 40):
            assert make_binary_field(binary_field_degree(n)).q >= n * n

    def test_irreducible_search(self):
        for m in range(1, 12):
            poly = find_irreducible(m)
            assert poly.bit_length() - 1 == m
            assert gf2_is_irreducible(poly)

    def test_reducible_rejected(self):
        # x^2 + 1 = (x+1)^2 over GF(2)
        assert not gf2_is_irreducible(0b101)

    def test_char2_self_cancel(self):
        f = ScalarBinaryField(BinaryField(6))
        for a in range(f.q):
            assert f.add(a, a) == 0

    def test_inverses(self):
        # the scalar inverse, and the kernels' exp[(q - 1) - log a] against it
        f = ScalarBinaryField(BinaryField(6))
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1
            assert f.inv(a) == int(f.field.np_exp[f.q - 1 - f.field.np_log[a]])
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_distributivity_random(self):
        f = ScalarBinaryField(BinaryField(8))
        rnd = random.Random(1)
        for _ in range(500):
            a, b, c = (rnd.randrange(f.q) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    def test_batched_matches_scalar(self):
        f = BinaryField(7)
        sf = ScalarBinaryField(f)
        rnd = np.random.default_rng(4)
        a = rnd.integers(0, f.q, size=300, dtype=np.int32)
        b = rnd.integers(0, f.q, size=300, dtype=np.int32)
        prod = f.nmul(a, b)
        for x, y, z in zip(a.tolist(), b.tolist(), prod.tolist()):
            assert sf.mul(x, y) == z
        nz = a[a != 0]
        inv = f.np_exp[f.q - 1 - f.np_log[nz]]
        for x, y in zip(nz.tolist(), inv.tolist()):
            assert sf.mul(x, y) == 1

    def test_degree_guard(self):
        with pytest.raises(GuardError):
            BinaryField(17)

    def test_fields_are_shared_and_read_only(self):
        # one field per degree per process, keyed by the degree m
        shared = make_binary_field(8)
        assert shared is make_binary_field(binary_field_degree(16))
        assert shared.m == 8
        for table in (shared.np_log, shared.np_exp):
            with pytest.raises(ValueError):
                table[1] = 0
            with pytest.raises(ValueError):
                table += 1
        assert BinaryField(8) is not shared
        for _ in range(2):  # a guard violation is raised afresh, never cached
            with pytest.raises(GuardError):
                make_binary_field(binary_field_degree(300))

    @pytest.mark.parametrize("m", range(1, BinaryField.TABLE_LIMIT_M + 1))
    def test_tables_match_scalar_construction(self, m):
        # the numpy tables against exp/log lists walked one gf2_mul/gf2_mod
        # product at a time, from the same modulus and the same generator
        f = BinaryField(m)
        order = f.q - 1
        gen, exp, log = scalar_field_tables(m, f.poly)
        assert f.np_exp[1] == gen
        assert f.np_exp.tolist() == list(exp) + [0] * (2 * order + 1)
        assert f.np_log.tolist() == [2 * order] + list(log[1:])


class TestBatchedBinaryField:
    """nmul reads the zero sentinel in np_log instead of masking zeros."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_nmul_every_pair(self, m):
        f = BinaryField(m)
        sf = ScalarBinaryField(f)
        a, b = np.meshgrid(np.arange(f.q, dtype=np.int32), np.arange(f.q, dtype=np.int32))
        prod = f.nmul(a, b)
        for x, y, z in zip(a.ravel().tolist(), b.ravel().tolist(), prod.ravel().tolist()):
            assert sf.mul(x, y) == z, (x, y)

    @pytest.mark.parametrize("m", range(7, BinaryField.TABLE_LIMIT_M + 1))
    def test_nmul_random_pairs_with_zeros(self, m):
        f = BinaryField(m)
        sf = ScalarBinaryField(f)
        rng = np.random.default_rng(m)
        a = rng.integers(0, f.q, size=2000, dtype=np.int32)
        b = rng.integers(0, f.q, size=2000, dtype=np.int32)
        a[:100] = 0
        b[50:150] = 0
        a[150:160] = b[160:170] = f.q - 1
        prod = f.nmul(a, b)
        assert prod.dtype == np.int32
        for x, y, z in zip(a.tolist(), b.tolist(), prod.tolist()):
            assert sf.mul(x, y) == z, (x, y)

    def test_broadcast_shapes(self):
        # broadcast products as nmul's callers take them: the [|blue|, 1, |yellow|]
        # x [1, |blue|, |yellow|] merged-column weights of hamdetect._BatchedSieve.tables
        # and the k-internal engine's [..., len] x [..., 1] unit inverses
        # (branchings._InternalSieveEngine._inverse)
        f = BinaryField(10)
        sf = ScalarBinaryField(f)
        rng = np.random.default_rng(5)
        col = rng.integers(0, f.q, size=(4, 5, 1), dtype=np.int32)
        row = rng.integers(0, f.q, size=(4, 1, 3), dtype=np.int32)
        col[0, 1, 0] = row[2, 0, 2] = 0
        prod = f.nmul(col, row)
        assert prod.shape == (4, 5, 3)
        for bi in range(4):
            for r in range(5):
                for c in range(3):
                    assert prod[bi, r, c] == sf.mul(int(col[bi, r, 0]), int(row[bi, 0, c]))
        scalar = f.nmul(np.int32(7), row)
        assert scalar.shape == row.shape
        assert scalar.ravel().tolist() == [sf.mul(7, int(x)) for x in row.ravel()]


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
        # and a residue outside [0, p^k)
        for value in (-1, 9):
            with pytest.raises(ValueError, match="residue out of range"):
                crt_combine([(1, 2, 1), (value, 3, 2)])

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
