"""Out-branching counts by the matrix-tree theorem, and the integer determinant.

The directed Laplacian puts the in-degree of a vertex on the diagonal and -1
at entry (u, v) for every arc. Deleting the row and column of a root r
leaves a matrix whose determinant counts the spanning out-branchings rooted
at r. Determinants over the integers use fraction-free (Bareiss)
elimination, which the Hamiltonian-cycle sieve shares.
"""

from __future__ import annotations

from .errors import GuardError
from .graph import Digraph

# Largest vertex count for an exact branching count: the bigint elimination
# on the (n-1)^2 Laplacian takes seconds at a few hundred vertices.
BRANCHING_COUNT_GUARD = 512


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

