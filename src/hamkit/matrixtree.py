"""Out-branching counts by the matrix-tree theorem, and the integer determinant.

The directed Laplacian puts the in-degree of a vertex on the diagonal and -1
at entry (u, v) for every arc. Deleting the row and column of a root r
leaves a matrix whose determinant counts the spanning out-branchings rooted
at r. Determinants over the integers, which the Hamiltonian-cycle sieve
shares, use ±1-pivot elimination, then Bareiss: every ±1 that can still be a
pivot is eliminated without division or rescaling, and fraction-free
(Bareiss) elimination finishes the block with no ±1 left. The kernel does
not scan for a zero column first. The sieve's minors never have one,
because hamcount's screen drops every subset in which t or a vertex of O
other than s has no in-arc from O before its minor is built, and
count_out_branchings answers 0 for a vertex with no in-arc before it builds
the matrix. Branching counts have no size guard of their own: Digraph holds
every graph to graph.VERTEX_LIMIT vertices, and the count's time at that cap
is recorded beside it.
"""

from __future__ import annotations

from .graph import Digraph


def det_bareiss_int(rows: list[list[int]]) -> int:
    """Exact determinant of a list-of-lists integer matrix (consumed).

    While the trailing block holds a ±1, it is moved to the pivot by a row
    and a column swap (each flips the sign) and eliminated: only rows with a
    nonzero in the pivot column change, and only at the pivot row's nonzero
    columns. The eliminated pivots have determinant ±1, so the block left
    holds ± minors of the input, and Bareiss finishes it in place. Nothing
    scans for a zero column up front: the ±1 column swaps keep one in the
    trailing block, and Bareiss returns 0 on its empty pivot column. So a
    caller that can see a zero column coming answers 0 itself, as
    count_out_branchings does for a vertex with no in-arc.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    last = n - 1
    for k in range(last):
        rk = rows[k]
        piv = rk[k]
        k1 = k + 1
        if piv != 1 and piv != -1:
            # a ±1 lower in column k needs only a row swap
            for i in range(k1, n):
                piv = rows[i][k]
                if piv == 1 or piv == -1:
                    rows[k], rows[i] = rows[i], rk
                    rk = rows[k]
                    sign = -sign
                    break
            else:
                # columns left of k are zero in these rows, so any ±1 is right of k
                for i in range(k, n):
                    ri = rows[i]
                    if -1 in ri:
                        j = ri.index(-1)
                    elif 1 in ri:
                        j = ri.index(1)
                    else:
                        continue
                    break
                else:
                    break
                if i != k:
                    rows[k], rows[i] = ri, rk
                    rk = ri
                    sign = -sign
                for r in rows[k:]:
                    r[j], r[k] = r[k], r[j]
                sign = -sign
                piv = rk[k]
        # a plain loop: cheaper than a comprehension on the sieve's small minors
        nz = []
        for j in range(k1, n):
            if rk[j]:
                nz.append(j)
        sign *= piv
        for ri in rows[k1:]:
            f = ri[k]
            if f:
                f *= piv  # piv is its own inverse
                for j in nz:
                    ri[j] -= f * rk[j]
                ri[k] = 0
    else:
        return sign * rows[last][last]
    # no ±1 left: Bareiss on the trailing block, rows and columns k onwards
    prev = 1
    for k in range(k, last):
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
    return sign * rows[last][last]


def count_out_branchings(g: Digraph, root: int) -> int:
    """Number of spanning out-branchings of g rooted at `root`.

    No size check of its own: g has at most graph.VERTEX_LIMIT vertices,
    which Digraph enforces, and the README times the count at that cap. A
    non-root vertex with no in-arc (a zero row and column of the matrix)
    answers 0 before the matrix is built. The punctured Laplacian's rows and
    columns run in (in-degree, id) order.
    """
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    if not all(ins or u == root for u, ins in enumerate(g.in_adj)):
        return 0
    # rows and columns in one order, by in-degree and then id: a simultaneous
    # permutation keeps the determinant, and in-degree 1 puts a 1 on the
    # diagonal, so the ±1 phase of det_bareiss_int clears those rows first
    indeg = [len(ins) for ins in g.in_adj]
    order = sorted(range(g.n), key=indeg.__getitem__)  # stable: ties stay in id order
    order.remove(root)
    index = {u: i for i, u in enumerate(order)}
    rows = []
    for u in order:
        row = [0] * (g.n - 1)
        for v in g.out_adj[u]:
            if v != root:
                row[index[v]] = -1
        row[index[u]] = indeg[u]
        rows.append(row)
    det = det_bareiss_int(rows)
    assert det >= 0, "branching count came out negative"
    return det
