"""Scalar reference routes that the batched production kernels are tested against.

Each route here computes one determinant at a time over explicit ring
elements, the slow and obvious way: labelled Laplacians with Gaussian,
division-free and fraction-free determinants; the fields GF(p) and GF(2^m)
and the rings Z, Z/p^k, the group algebra of (Z/2)^k, the marker ring
GF(2^m)[x_1..x_k]/(x_i^2) and truncated polynomials; the port matrix of
one membership pair; the k-internal marker determinant of one draw; the
branching polynomial at one point; the inverse Vandermonde at any distinct
points; one k-leaf trial at one prime, interpolated point by point; the
detectors' counter draw (splitmix64) one word at a time, with the
k-internal draws and k-leaf coins it gives; random virtual-arc weights
and the restricted Laplacian of one tail subset. It also holds the brute-force oracles that no command reaches: a permutation
count of Hamiltonian paths, a depth-first count of Hamiltonian cycles, the
largest internal-vertex and leaf counts, and the fewest distinct variables
of a monomial. Tests import this module the way
they import conftest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from hamkit.algebra import is_prime, random_prime_31
from hamkit.branchings import binary_field_degree
from hamkit.errors import GuardError
from hamkit.gf2m import gf2_mod, gf2_mul, make_binary_field
from hamkit.graph import Digraph
from hamkit.hamcount import RESIDUE_MODULUS_LIMIT
from hamkit.matrixtree import count_out_branchings
from hamkit.oracle import BRANCHING_LIMIT, iter_out_branchings
from hamkit.rand import derive_seed, make_rng

# ---------------------------------------------------------------------------
# rings: plain values as elements, zero/one plus add/sub/mul/neg/is_zero


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


@lru_cache(maxsize=None)
def scalar_field_tables(m: int, poly: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(generator, exp, log) of GF(2^m) mod poly from gf2_mul and gf2_mod alone.

    The generator is the smallest element whose powers run through all of
    GF(2^m)*, found by walking those powers; exp lists them twice over, so
    exp[log[a] + log[b]] needs no reduction, and log[0] is unused.
    """
    order = (1 << m) - 1
    for gen in range(1, 1 << m):
        powers = [1]
        acc = gen
        while acc != 1 and len(powers) < order:
            powers.append(acc)
            acc = gf2_mod(gf2_mul(acc, gen), poly)
        if acc == 1 and len(powers) == order:
            break
    else:
        raise ValueError(f"{poly:#x} has no primitive element")
    log = [0] * (1 << m)
    for i, a in enumerate(powers):
        log[a] = i
    return gen, tuple(powers + powers), tuple(log)


class ScalarBinaryField:
    """One element at a time over GF(2^m), on log/exp tables of its own.

    The package's GF(2^m) multiplies only numpy arrays (nmul); this is
    the scalar ring the reference routes and the tests check those against.
    It shares only the degree and the modulus with the hamkit BinaryField it
    wraps: its tables come from scalar_field_tables, not from the field.
    """

    zero = 0
    one = 1

    def __init__(self, field):
        self.field = field
        self.m = field.m
        self.q = field.q
        _, self._exp, self._log = scalar_field_tables(field.m, field.poly)

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


class IntegerRing:
    """Plain arbitrary-precision integers."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0


INTEGERS = IntegerRing()


class ResidueRing:
    """Z modulo p^k on ints 0..p^k-1. Not a field for k > 1."""

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be at least 1")
        if k >= 62 or p**k >= RESIDUE_MODULUS_LIMIT:
            raise GuardError(f"modulus {p}^{k} exceeds the 2^62 residue guard")
        self.modulus = p**k
        self.zero = 0
        self.one = 1 % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def is_zero(self, a):
        return a % self.modulus == 0


class GroupAlgebra:
    """Formal sums over the group (Z/2)^k with binary-field coefficients.

    Elements are tuples of 2^k field values, indexed by group element; the
    product is xor-convolution. Every (unit(g) + one) squares to zero. The
    field is a hamkit BinaryField, used through its ScalarBinaryField.
    """

    K_LIMIT = 8

    def __init__(self, field, k: int):
        if not (0 <= k <= self.K_LIMIT):
            raise GuardError(f"group algebra rank {k} outside supported 0..{self.K_LIMIT}")
        self.field = ScalarBinaryField(field)
        self.k = k
        self.dim = 1 << k
        self.zero = (0,) * self.dim
        self.one = self.unit(0)

    def unit(self, g: int):
        out = [0] * self.dim
        out[g] = 1
        return tuple(out)

    def from_coeffs(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != self.dim:
            raise ValueError("wrong coefficient count")
        return coeffs

    def add(self, a, b):
        return tuple(x ^ y for x, y in zip(a, b))

    sub = add

    def neg(self, a):
        return a

    def scale(self, c: int, a):
        return tuple(self.field.mul(c, x) for x in a)

    def mul(self, a, b):
        fexp, flog = self.field._exp, self.field._log
        out = [0] * self.dim
        for g, ca in enumerate(a):
            if ca:
                for h, cb in enumerate(b):
                    if cb:
                        out[g ^ h] ^= fexp[flog[ca] + flog[cb]]
        return tuple(out)

    def is_zero(self, a):
        return not any(a)


class MarkerRing:
    """GF(2^m)[x_1..x_k]/(x_i^2) one element at a time.

    Elements are tuples of 2^k field values, slot T the coefficient of the
    marker monomial x^T; the product is the disjoint-subset convolution
    (overlapping subsets vanish by nilpotency). The field is a hamkit
    BinaryField, used through its ScalarBinaryField.
    """

    def __init__(self, field, k: int):
        self.field = ScalarBinaryField(field)
        self.k = k
        self.dim = 1 << k
        self.zero = (0,) * self.dim
        self.one = (1,) + self.zero[1:]

    def add(self, a, b):
        return tuple(x ^ y for x, y in zip(a, b))

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        out = [0] * self.dim
        for t1, ca in enumerate(a):
            if ca:
                for t2, cb in enumerate(b):
                    if cb and not t1 & t2:
                        out[t1 | t2] ^= self.field.mul(ca, cb)
        return tuple(out)

    def is_zero(self, a):
        return not any(a)


class TruncatedPolyRing:
    """Polynomials in t over a coefficient ring, truncated beyond degree cap."""

    def __init__(self, coeff_ring, cap: int):
        self.coeff = coeff_ring
        self.cap = cap
        self.zero = (coeff_ring.zero,) * (cap + 1)
        self.one = (coeff_ring.one,) + (coeff_ring.zero,) * cap

    def const(self, c):
        return (c,) + (self.coeff.zero,) * self.cap

    def t_times(self, c):
        """The element c*t (zero when the cap is 0)."""
        return self.zero if self.cap == 0 else (self.coeff.zero, c) + self.zero[2:]

    def add(self, a, b):
        return tuple(self.coeff.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.coeff.neg(x) for x in a)

    def mul(self, a, b):
        c = self.coeff
        out = list(self.zero)
        for i, ai in enumerate(a):
            if c.is_zero(ai):
                continue
            for j in range(self.cap + 1 - i):
                if not c.is_zero(b[j]):
                    out[i + j] = c.add(out[i + j], c.mul(ai, b[j]))
        return tuple(out)

    def is_zero(self, a):
        return all(self.coeff.is_zero(x) for x in a)


# ---------------------------------------------------------------------------
# labelled matrices and the three scalar determinant kernels


@dataclass(frozen=True)
class SquareMatrix:
    """Square matrix with labelled rows/columns over a ring."""

    ring: object
    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple, ...]

    @property
    def order(self) -> int:
        return len(self.row_labels)


def square(ring, rows) -> SquareMatrix:
    labels = tuple(range(len(rows)))
    return SquareMatrix(ring, labels, labels, tuple(tuple(r) for r in rows))


def unit_weights(g, ring) -> dict:
    return {arc: ring.one for arc in g.arcs}


def build_laplacian(g, weights: dict, ring) -> SquareMatrix:
    """In-weight sums on the diagonal, -x_uv at (u, v); every column sums to zero."""
    for u, v in sorted(g.arcs - weights.keys()):
        raise ValueError(f"missing weight for arc {u}->{v}")
    rows = []
    for u in range(g.n):
        row = [ring.zero] * g.n
        for w in g.in_adj[u]:
            row[u] = ring.add(row[u], weights[(w, u)])
        for v in g.out_adj[u]:
            row[v] = ring.neg(weights[(u, v)])
        rows.append(row)
    return square(ring, rows)


def puncture(m: SquareMatrix, label) -> SquareMatrix:
    """Remove the row and column carrying the given label."""
    if label not in m.row_labels or label not in m.col_labels:
        raise ValueError(f"label {label!r} not present")
    ri, ci = m.row_labels.index(label), m.col_labels.index(label)
    rows = tuple(
        tuple(x for j, x in enumerate(row) if j != ci)
        for i, row in enumerate(m.entries) if i != ri
    )
    return SquareMatrix(m.ring, m.row_labels[:ri] + m.row_labels[ri + 1:],
                        m.col_labels[:ci] + m.col_labels[ci + 1:], rows)


def border(m: SquareMatrix, label, w: dict) -> SquareMatrix:
    """Replace the row carrying the given label by w, a {column label: entry} map (zero elsewhere)."""
    ri = m.row_labels.index(label)
    row = tuple(w.get(c, m.ring.zero) for c in m.col_labels)
    return SquareMatrix(m.ring, m.row_labels, m.col_labels, m.entries[:ri] + (row,) + m.entries[ri + 1:])


def det_gauss(m: SquareMatrix):
    """Determinant by Gaussian elimination; the ring must be a field."""
    ring, n = m.ring, m.order
    a = [list(row) for row in m.entries]
    det = ring.one
    for k in range(n):
        piv = next((r for r in range(k, n) if not ring.is_zero(a[r][k])), None)
        if piv is None:
            return ring.zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = ring.neg(det)
        det = ring.mul(det, a[k][k])
        inv = ring.inv(a[k][k])
        for r in range(k + 1, n):
            f = ring.mul(a[r][k], inv)
            for j in range(k, n):
                a[r][j] = ring.sub(a[r][j], ring.mul(f, a[k][j]))
    return det


def det_division_free(m: SquareMatrix):
    """Determinant over any commutative ring: Berkowitz's characteristic-polynomial recurrence."""
    ring, a, n = m.ring, m.entries, m.order

    def dot(xs, ys):
        acc = ring.zero
        for x, y in zip(xs, ys):
            acc = ring.add(acc, ring.mul(x, y))
        return acc

    p = [ring.one]
    for r in range(1, n + 1):
        row = a[r - 1][: r - 1]
        v = [a[i][r - 1] for i in range(r - 1)]
        t = [ring.one, ring.neg(a[r - 1][r - 1])]
        for j in range(r - 1):
            t.append(ring.neg(dot(row, v)))
            if j < r - 2:
                v = [dot(a[i][: r - 1], v) for i in range(r - 1)]
        newp = []
        for i in range(r + 1):
            js = range(max(0, i - len(p) + 1), i + 1)
            newp.append(dot([t[j] for j in js], [p[i - j] for j in js]))
        p = newp
    return p[n] if n % 2 == 0 else ring.neg(p[n])


def det_bareiss(m: SquareMatrix) -> int:
    """Exact integer determinant by the classic fraction-free (Bareiss) loop.

    Each step scales every row below the pivot and divides exactly by the
    previous pivot; a zero pivot is swapped with the first nonzero below it.
    """
    a = [list(row) for row in m.entries]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# detect-hc: one port matrix per membership pair


def iter_membership_pairs(layout):
    """Every (imask, omask) with I union O = blue and anchor in I: 2 * 3^(|blue|-1) pairs."""
    anchor_bit = 1 << layout.anchor
    rest = layout.blue[1:]
    for half in range(2):
        for code in range(3 ** len(rest)):
            imask = anchor_bit
            omask = anchor_bit if half else 0
            c = code
            for v in rest:
                c, d = divmod(c, 3)
                if d != 1:
                    imask |= 1 << v
                if d != 0:
                    omask |= 1 << v
            yield imask, omask


def port_labels(layout) -> tuple[tuple[str, int], ...]:
    """The port matrix's column labels: ("pool", i), then ("entry", y) and ("exit", y) per yellow y."""
    pool = tuple(("pool", i) for i in range(layout.pool_count))
    entry = tuple(("entry", y) for y in layout.yellow)
    exit_ = tuple(("exit", y) for y in layout.yellow)
    return pool + entry + exit_


def build_port_matrix(g, layout, weights, imask: int, omask: int, skewed: bool = True) -> SquareMatrix:
    """Port matrix of one membership pair; rows blue then yellow, columns port_labels(layout).

    Blue row u: in a pool port, the xor of that port's weights on arcs w->u
    from blue w in O (when u is in I) and on arcs u->w to blue w in I (when u
    is in O and not the anchor). In the entry port of yellow y, the weight on
    u->y when u is in O and not the anchor; in the exit port of y, the weight
    on y->u when u is in I. Yellow row y: its entry port holds the xor over
    blue w in O of the weights on w->y, its exit port the xor over blue w in
    I of the weights on y->w. With skewed=False both "not the anchor"
    conditions are dropped. The weight of port ci on arc a -> b is
    weights.values[ci, the index of (a, b) among g's sorted arcs].
    """
    arc = {a: i for i, a in enumerate(sorted(g.arcs))}
    w = weights.values
    ports = port_labels(layout)
    blue = set(layout.blue)
    rows = []
    for u in layout.blue + layout.yellow:
        u_in = bool(imask >> u & 1)
        u_out = bool(omask >> u & 1) and (not skewed or u != layout.anchor)
        row = []
        for ci, (kind, y) in enumerate(ports):
            val = 0
            if u in blue and kind == "pool":
                for x in g.in_adj[u]:
                    if u_in and x in blue and omask >> x & 1:
                        val ^= int(w[ci, arc[x, u]])
                for x in g.out_adj[u]:
                    if u_out and x in blue and imask >> x & 1:
                        val ^= int(w[ci, arc[u, x]])
            elif u in blue and kind == "entry":
                val = int(w[ci, arc[u, y]]) if u_out and g.has_arc(u, y) else 0
            elif u in blue:
                val = int(w[ci, arc[y, u]]) if u_in and g.has_arc(y, u) else 0
            elif y == u and kind == "entry":
                for x in g.in_adj[u]:
                    if omask >> x & 1:
                        val ^= int(w[ci, arc[x, u]])
            elif y == u and kind == "exit":
                for x in g.out_adj[u]:
                    if imask >> x & 1:
                        val ^= int(w[ci, arc[u, x]])
            row.append(val)
        rows.append(tuple(row))
    return SquareMatrix(ScalarBinaryField(weights.field), layout.blue + layout.yellow, ports,
                        tuple(rows))


def fold_port_matrix(layout, port: SquareMatrix) -> list[list[int]]:
    """The |blue| x |blue| matrix with port's determinant: its yellow rows folded away.

    Blue rows only; the pool columns as they are, then per yellow vertex y
    the merged column din*X_y + dout*E_y, where din and dout are the entries
    of yellow row y at its entry port E_y and exit port X_y.
    """
    f = port.ring
    nb, ny, npool = len(layout.blue), len(layout.yellow), layout.pool_count
    rows = []
    for u in range(nb):
        row = list(port.entries[u][:npool])
        for yi in range(ny):
            ent, ext = npool + yi, npool + ny + yi
            din, dout = port.entries[nb + yi][ent], port.entries[nb + yi][ext]
            row.append(f.add(f.mul(din, port.entries[u][ext]), f.mul(dout, port.entries[u][ent])))
        rows.append(row)
    return rows


def scalar_pair_sum(g, layout, weights) -> int:
    """The xor of the port-matrix determinants over all membership pairs."""
    total = 0
    for imask, omask in iter_membership_pairs(layout):
        total ^= det_gauss(build_port_matrix(g, layout, weights, imask, omask))
    return total


# ---------------------------------------------------------------------------
# k-internal: the marker-weighted Laplacian of one draw over explicit rings


def xbasis_to_group(ga: GroupAlgebra, coeffs) -> tuple[int, ...]:
    """Marker-subset coordinates to group-element coordinates: the superset xor-sum."""
    out = [0] * ga.dim
    for g in range(ga.dim):
        for t in range(g, ga.dim):
            if t & g == g:
                out[g] ^= coeffs[t]
    return tuple(out)


def internal_determinants(g, root, k, field, zeta, rmul, gvec) -> list:
    """Per draw: det(punctured marker Laplacian), t-degree by t-degree in group-basis coordinates."""
    ga = GroupAlgebra(field, k)
    ring = TruncatedPolyRing(ga, cap=k)
    dets = []
    for b in range(zeta.shape[0]):
        weights = {}
        for ai, (u, v) in enumerate(sorted(g.arcs)):
            z = int(zeta[b, ai])
            marker = ga.add(ga.unit(int(gvec[b, u])), ga.one)
            poly = list(ring.const(ga.scale(z, ga.one)))
            poly[1] = ga.scale(ga.field.mul(z, int(rmul[b, ai])), marker)
            weights[(u, v)] = tuple(poly)
        dets.append(det_division_free(puncture(build_laplacian(g, weights, ring), root)))
    return dets


def splitmix64_words(key: int, trial: int, width: int) -> list[int]:
    """Words (trial, 0..width-1) of the counter draw under key, on Python ints.

    Word (trial, index) is output number trial*width + index + 1 of a
    splitmix64 generator seeded with key.
    """
    mask = (1 << 64) - 1
    words = []
    for i in range(trial * width + 1, (trial + 1) * width + 1):
        z = (key + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


def internal_draws(g, k: int, field, seed: int, root: int, start: int, count: int):
    """detect_k_internal's draws of trials start..start+count-1, one word at a time:
    zeta and rmul as z % (q-1) + 1, group elements as z mod 2^k."""
    key = derive_seed("internal-sieve", seed, root)
    zeta, rmul, gvec = [], [], []
    for t in range(start, start + count):
        words = splitmix64_words(key, t, 2 * g.m + g.n)
        scalars = [z % (field.q - 1) + 1 for z in words[: 2 * g.m]]
        zeta.append(scalars[: g.m])
        rmul.append(scalars[g.m :])
        gvec.append([z % (1 << k) for z in words[2 * g.m :]])
    shape = (count, g.m)
    return (np.array(zeta, dtype=np.int32).reshape(shape), np.array(rmul, dtype=np.int32).reshape(shape),
            np.array(gvec, dtype=np.int64).reshape(count, g.n))


def internal_root_sum(g, roots, k, field, zeta, rmul, gvec) -> list:
    """Per draw: the sum over roots of the punctured determinants, in the engine's slot layout.

    Slot T holds the t^|T| * x^T coefficient, the image of the truncated
    ring in the 2^k-slot marker ring (characteristic 2: the sum is an xor).
    """
    ga = GroupAlgebra(field, k)
    total = [[0] * ga.dim for _ in range(zeta.shape[0])]
    for root in roots:
        for b, det in enumerate(internal_determinants(g, root, k, field, zeta, rmul, gvec)):
            xdet = [xbasis_to_group(ga, det[a]) for a in range(k + 1)]
            for t in range(ga.dim):
                total[b][t] ^= xdet[t.bit_count()][t]
    return total


def internal_detect(g, k: int, trials: int, seed: int, chunk: int) -> dict:
    """detect_k_internal on the scalar route: the verdict slot of the sum of every
    spanning root's punctured determinant, on draws keyed by the first root."""
    field = make_binary_field(binary_field_degree(g.n))
    roots = [r for r in range(g.n) if count_out_branchings(g, r)]
    done = 0
    hit = False
    while roots and done < trials and not hit:
        b = min(chunk, trials - done)
        draws = internal_draws(g, k, field, seed, roots[0], done, b)
        hits = [det[-1] != 0 for det in internal_root_sum(g, roots, k, field, *draws)]
        hit = any(hits)
        done += hits.index(True) + 1 if hit else b
    return {"roots": roots, "trials": done, "hit": hit}


# ---------------------------------------------------------------------------
# k-leaf: explicit polynomials and the branching polynomial at one point


class MonomialListPolynomial:
    """Explicit sum of monomials, homogeneous of degree n with nonnegative coefficients."""

    def __init__(self, n: int, monomials):
        self.n = n
        cleaned = []
        for coeff, exps in monomials:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError("exponent vector must hold n nonnegative entries")
            if coeff < 0:
                raise ValueError("coefficients must be nonnegative")
            if coeff and sum(exps) != n:
                raise ValueError("polynomial must be homogeneous of degree n")
            if coeff:
                cleaned.append((int(coeff), exps))
        self.monomials = tuple(cleaned)

    def evaluate_batch(self, ys: np.ndarray, p: int) -> np.ndarray:
        """Each term one factor at a time, by repeated multiplication: no code from the package's powers."""
        ys = ys % p
        out = np.zeros(ys.shape[0], dtype=np.int64)
        for coeff, exps in self.monomials:
            term = np.full(ys.shape[0], coeff % p, dtype=np.int64)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * ys[:, i] % p
            out = (out + term) % p
        return out


def root_bordered_laplacian(g, roots, assignment, p: int) -> SquareMatrix:
    """The uncontracted root-bordered in-arc Laplacian of (g, roots) mod p at one point (arc u->v weighs y_u).

    With several roots, row roots[0] is replaced by y on the roots; with one,
    row and column roots[0] are dropped (the punctured matrix).
    """
    full = build_laplacian(g, {(u, v): assignment[u] % p for u, v in g.arcs}, PrimeField(p))
    if len(roots) == 1:
        return puncture(full, roots[0])
    return border(full, roots[0], {v: assignment[v] % p for v in roots})


def bordered_leaf_value(g, roots, assignment, p: int) -> int:
    """The branching polynomial of (g, roots) at one point, from one uncontracted determinant: y_r
    times the punctured one with one root, the bordered one with more."""
    det = det_gauss(root_bordered_laplacian(g, roots, assignment, p))
    return det * (assignment[roots[0]] % p) % p if len(roots) == 1 else det


def leaf_polynomial_value(g, root: int, assignment, p: int) -> int:
    """The branching polynomial of (g, root) at one point: y_root times det of the punctured Laplacian."""
    field = PrimeField(p)
    weights = {(u, v): assignment[u] % p for u, v in g.arcs}
    det = det_gauss(puncture(build_laplacian(g, weights, field), root))
    return det * (assignment[root] % p) % p


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


def inverse_vandermonde_at(xs, p: int) -> np.ndarray:
    """V^-1 mod p for V[i, j] = xs[i]^j at any abscissae distinct mod p, from the Lagrange basis.

    Column i holds the coefficients, low degree first, of L_i(X) =
    prod_{k != i} (X - x_k) / (x_i - x_k): one synthetic division of
    F = prod_k (X - x_k) by every (X - x_i) at once, each denominator
    (F / (X - x_i))(x_i) by Horner and inverted with pow. The oracle of
    hamkit.modp.inverse_vandermonde, which serves only the points 1..N.
    """
    xs = np.asarray(xs, dtype=np.int64) % p
    npts = xs.shape[0]
    full = np.zeros(npts + 1, dtype=np.int64)  # F, low degree first
    full[0] = 1
    for x in xs.tolist():
        shifted = np.zeros_like(full)
        shifted[1:] = full[:-1]
        full = (shifted - x * full) % p
    quot = np.empty((npts, npts), dtype=np.int64)  # quot[j, i]: X^j in F / (X - x_i)
    carry = np.zeros(npts, dtype=np.int64)
    for j in range(npts, 0, -1):
        carry = (full[j] + carry * xs) % p
        quot[j - 1] = carry
    denom = np.zeros(npts, dtype=np.int64)
    for j in range(npts - 1, -1, -1):
        denom = (denom * xs + quot[j]) % p
    if not denom.all():
        raise ValueError("abscissae must be distinct mod p")
    inv = np.array([pow(d, p - 2, p) for d in denom.tolist()], dtype=np.int64)
    return quot * inv % p


def dv_trial(P, assignment, p: int) -> tuple[int, ...]:
    """Coefficients, low degree first, of one substituted-and-interpolated univariate image of P.

    assignment[i] True routes index i to the probe side (variable sampled at
    tau, companion weight at 1); False routes it the other way (variable at
    1, companion weight at tau). The result is the dehomogenized polynomial
    of degree <= 2n over GF(p): P at the routed inputs times tau^(count of False).
    """
    n = P.n
    if p <= 2 * n + 1:
        raise ValueError(f"prime {p} too small: need p > 2n+1 = {2 * n + 1}")
    bits = [bool(b) for b in assignment]
    if len(bits) != n:
        raise ValueError("assignment length mismatch")
    low_count = bits.count(False)
    # tau = 0..2n on purpose: solve_nk_dv evaluates at 1..2n+1, so the
    # scalar_solve_nk_dv cross-checks compare two different point sets
    taus = list(range(2 * n + 1))
    mask = np.array(bits, dtype=bool)
    ys = np.where(mask[None, :], np.array(taus, dtype=np.int64)[:, None], 1)
    raw = [int(v) for v in P.evaluate_batch(ys, p)]
    points = [(t, v * pow(t, low_count, p) % p) for t, v in zip(taus, raw)]
    return interpolate_univariate(points, 2 * n, p)


def window_hits(coeffs, n: int, k: int) -> list[int]:
    """Coefficient indices outside the center band [n-k+1, n+k-1]."""
    return [i for i, c in enumerate(coeffs) if c != 0 and (i <= n - k or i >= n + k)]


def scalar_solve_nk_dv(P, k: int, budget: int, seed: int) -> dict:
    """solve_nk_dv's scan one trial and one prime at a time over dv_trial:
    its verdict, trials_run, primes and hit (None on a NO)."""
    prime_rng = make_rng("dv-primes", seed)
    p1 = random_prime_31(prime_rng)
    p2 = random_prime_31(prime_rng)
    while p2 == p1:
        p2 = random_prime_31(prime_rng)
    key = derive_seed("dv-assignment", seed)
    for t in range(budget):
        bits = [z >> 63 == 1 for z in splitmix64_words(key, t, P.n)]
        for p in (p1, p2):
            hits = window_hits(dv_trial(P, bits, p), P.n, k)
            if hits:
                hit = {"trial": t, "prime": p, "coefficient_indices": hits}
                return {"verdict": True, "trials_run": t + 1, "primes": [p1, p2], "hit": hit}
    return {"verdict": False, "trials_run": budget, "primes": [p1, p2], "hit": None}


# ---------------------------------------------------------------------------
# counting: random virtual-arc weights and the restricted Laplacian of one tail subset


def tail_weights(split, p: int, seed: int) -> tuple[int, ...]:
    """Random weights of the virtual arcs t->u, one residue mod p per u != t, indexed by vertex id (t slot 0).

    The paper draws these; the sieve runs on zero weights, and the identity
    it relies on holds for any weights, which the tests check with these.
    """
    rng = make_rng("tail-weights", seed, p)
    return tuple(0 if u == split.t else rng.randrange(p) for u in range(split.graph.n))


def restricted_laplacian(split, omask: int, wt, ring) -> SquareMatrix:
    """Punctured Laplacian with tails outside O zeroed, rows/columns the vertices other than s.

    Virtual arcs t->u exist for every u != t with weights wt[u]; real arcs
    keep weight 1 when their tail lies in O (or is t).
    """
    g, s, t = split.graph, split.s, split.t
    labels = tuple(u for u in range(g.n) if u != s)
    idx = {u: i for i, u in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]
    for u in labels:
        diag = sum(1 for w in g.in_adj[u] if w == t or omask >> w & 1)
        if u != t:
            diag += wt[u]
        rows[idx[u]][idx[u]] = diag % ring.modulus
        if u == t:
            for v in labels:
                if v != t:
                    rows[idx[t]][idx[v]] = ring.neg(wt[v])
        elif omask >> u & 1:
            for v in g.out_adj[u]:
                if v != s:
                    rows[idx[u]][idx[v]] = ring.neg(ring.one)
    return SquareMatrix(ring, labels, labels, tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# brute-force oracles that only tests use

MONOMIAL_VAR_LIMIT = 20
PERMUTATION_LIMIT = 8


def perm_count_hp(g: Digraph, s: int, t: int) -> int:
    """Hamiltonian path count by raw permutation enumeration."""
    if g.n > PERMUTATION_LIMIT:
        raise GuardError(f"perm_count_hp guard: n={g.n} > {PERMUTATION_LIMIT}")
    if s == t:
        raise ValueError("endpoints must differ")
    middle = [v for v in range(g.n) if v not in (s, t)]
    count = 0
    for perm in itertools.permutations(middle):
        seq = (s, *perm, t)
        if all(g.has_arc(a, b) for a, b in zip(seq, seq[1:])):
            count += 1
    return count


def dfs_count_hc(g: Digraph) -> int:
    """Hamiltonian cycle count by extending every simple path from vertex 0, one arc at a time."""
    full = (1 << g.n) - 1

    def extend(u: int, seen: int) -> int:
        if seen == full:
            return int(g.has_arc(u, 0))
        return sum(extend(v, seen | 1 << v) for v in g.out_adj[u] if not seen >> v & 1)

    return extend(0, 1) if g.n > 1 else 0


def brute_max_internal(g: Digraph) -> int:
    """Largest internal-vertex count over all spanning out-branchings, -1 if none."""
    if g.n > BRANCHING_LIMIT:
        raise GuardError(f"brute_max_internal guard: n={g.n} > {BRANCHING_LIMIT}")
    best = -1
    for root in range(g.n):
        for b in iter_out_branchings(g, root):
            if b.internal_count > best:
                best = b.internal_count
    return best


def brute_max_leaves(g: Digraph) -> int:
    """Largest leaf count over all spanning out-branchings, -1 if none."""
    if g.n > BRANCHING_LIMIT:
        raise GuardError(f"brute_max_leaves guard: n={g.n} > {BRANCHING_LIMIT}")
    best = -1
    for root in range(g.n):
        for b in iter_out_branchings(g, root):
            if b.leaf_count > best:
                best = b.leaf_count
    return best


def brute_min_distinct_vars(monomials) -> int:
    """Minimum number of distinct variables over monomials with nonzero coefficient.

    `monomials` is a sequence of (coefficient, exponent-tuple) pairs.
    """
    monos = [(c, tuple(e)) for c, e in monomials]
    if not monos:
        raise ValueError("empty polynomial")
    if any(len(e) > MONOMIAL_VAR_LIMIT for _, e in monos):
        raise GuardError(f"brute_min_distinct_vars guard: > {MONOMIAL_VAR_LIMIT} variables")
    live = [e for c, e in monos if c != 0]
    if not live:
        raise ValueError("zero polynomial")
    return min(sum(1 for d in e if d > 0) for e in live)
