"""Weighted Laplacians and determinant kernels.

The directed Laplacian here puts the in-arc weight sum of a vertex on the
diagonal and -x_uv at entry (u, v) for every arc. Deleting the row and
column of a root r leaves a matrix whose determinant is the weighted count
of spanning out-branchings rooted at r; with all weights 1 it is the plain
count.

Three determinant kernels cover the rings used elsewhere: Gaussian
elimination for fields, a division-free characteristic-polynomial kernel for
arbitrary commutative rings, and fraction-free elimination for integers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardError
from .graph import Digraph

# Largest vertex count for an exact branching count: the bigint elimination
# on the (n-1)^2 Laplacian takes seconds at a few hundred vertices.
BRANCHING_COUNT_GUARD = 512


@dataclass(frozen=True)
class SquareMatrix:
    """Square matrix with labelled rows/columns over a ring descriptor."""

    ring: object
    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.row_labels) != len(self.col_labels):
            raise ValueError("matrix must be square")
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count does not match labels")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count does not match labels")

    @property
    def order(self) -> int:
        return len(self.row_labels)


def build_laplacian(g: Digraph, weights: dict, ring) -> SquareMatrix:
    """Symbolic Laplacian of g over the given ring.

    `weights` maps every arc (u, v) to a ring value; a missing arc weight is
    an error. Every column sums to zero by construction.
    """
    zero = ring.zero
    rows = []
    for u in range(g.n):
        row = [zero] * g.n
        diag = zero
        for w in g.in_adj[u]:
            try:
                x = weights[(w, u)]
            except KeyError as exc:
                raise ValueError(f"missing weight for arc {w}->{u}") from exc
            diag = ring.add(diag, x)
        row[u] = diag
        for v in g.out_adj[u]:
            try:
                x = weights[(u, v)]
            except KeyError as exc:
                raise ValueError(f"missing weight for arc {u}->{v}") from exc
            row[v] = ring.neg(x)
        rows.append(tuple(row))
    labels = tuple(range(g.n))
    return SquareMatrix(ring=ring, row_labels=labels, col_labels=labels, entries=tuple(rows))


def puncture(m: SquareMatrix, label) -> SquareMatrix:
    """Remove the row and column carrying the given label."""
    if label not in m.row_labels or label not in m.col_labels:
        raise ValueError(f"label {label!r} not present")
    ri = m.row_labels.index(label)
    ci = m.col_labels.index(label)
    rows = tuple(
        tuple(x for j, x in enumerate(row) if j != ci)
        for i, row in enumerate(m.entries)
        if i != ri
    )
    return SquareMatrix(
        ring=m.ring,
        row_labels=tuple(l for l in m.row_labels if l != label),
        col_labels=tuple(l for l in m.col_labels if l != label),
        entries=rows,
    )


def det_gauss(m: SquareMatrix):
    """Determinant by Gaussian elimination; the ring must be a field."""
    ring = m.ring
    n = m.order
    if n == 0:
        return ring.one
    a = [list(row) for row in m.entries]
    det = ring.one
    swapped = 0
    for k in range(n):
        piv = next((r for r in range(k, n) if not ring.is_zero(a[r][k])), None)
        if piv is None:
            return ring.zero
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            swapped ^= 1
        pivval = a[k][k]
        det = ring.mul(det, pivval)
        inv = ring.inv(pivval)
        for r in range(k + 1, n):
            f = ring.mul(a[r][k], inv)
            if ring.is_zero(f):
                continue
            ar, ak = a[r], a[k]
            for j in range(k, n):
                ar[j] = ring.sub(ar[j], ring.mul(f, ak[j]))
    return ring.neg(det) if swapped else det


def det_division_free(m: SquareMatrix):
    """Determinant over any commutative ring, no divisions.

    Builds the characteristic polynomial by iterated Toeplitz products over
    leading principal submatrices and reads the determinant off its constant
    coefficient.
    """
    ring = m.ring
    a = m.entries
    n = m.order
    if n == 0:
        return ring.one
    p = [ring.one, ring.neg(a[0][0])]
    for r in range(2, n + 1):
        diag = a[r - 1][r - 1]
        row = a[r - 1][: r - 1]
        col = [a[i][r - 1] for i in range(r - 1)]
        t = [ring.one, ring.neg(diag)]
        v = col
        for j in range(2, r + 1):
            dot = ring.zero
            for x, y in zip(row, v):
                dot = ring.add(dot, ring.mul(x, y))
            t.append(ring.neg(dot))
            if j < r:
                v = [
                    _dot(ring, a[i][: r - 1], v)
                    for i in range(r - 1)
                ]
        newp = []
        plen = len(p)
        for i in range(r + 1):
            acc = ring.zero
            for j in range(max(0, i - plen + 1), min(i, r) + 1):
                acc = ring.add(acc, ring.mul(t[j], p[i - j]))
            newp.append(acc)
        p = newp
    return p[n] if n % 2 == 0 else ring.neg(p[n])


def _dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def det_bareiss(m: SquareMatrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    rows = [list(row) for row in m.entries]
    return det_bareiss_int(rows)


def det_bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a list-of-lists integer matrix (consumed)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            rik = ri[k]
            if rik == 0:
                for j in range(k + 1, n):
                    ri[j] = (pkk * ri[j]) // prev
            else:
                for j in range(k + 1, n):
                    ri[j] = (pkk * ri[j] - rik * rk[j]) // prev
                ri[k] = 0
        prev = pkk
    return sign * rows[n - 1][n - 1]


def count_out_branchings(g: Digraph, root: int) -> int:
    """Number of spanning out-branchings of g rooted at `root`.

    Refuses graphs past BRANCHING_COUNT_GUARD vertices (GuardError) before
    the matrix is built.
    """
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    if g.n > BRANCHING_COUNT_GUARD:
        raise GuardError(f"branching count guard: n={g.n} > {BRANCHING_COUNT_GUARD}")
    rows = []
    for u in range(g.n):
        if u == root:
            continue
        row = []
        for v in range(g.n):
            if v == root:
                continue
            if u == v:
                row.append(len(g.in_adj[u]))
            elif g.has_arc(u, v):
                row.append(-1)
            else:
                row.append(0)
        rows.append(row)
    det = det_bareiss_int(rows)
    assert det >= 0, "branching count came out negative"
    return det


def unit_weights(g: Digraph, ring) -> dict:
    return {arc: ring.one for arc in g.arcs}
