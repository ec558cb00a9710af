"""Exact integer linear algebra for homology: Smith normal form.

A matrix is a `ColumnMatrix`: its nonzero columns, in increasing order, each
a dict {row: nonzero int}.  Columns are read one at a time, in order, and
never all held: each is eliminated against the unit pivot columns found so
far, in the order they were found.  A reduced column with a +-1 entry becomes
a new pivot column (a Smith entry 1), and a column left with only non-unit
entries is set aside.  Unit pivots never create torsion and keep entries
small.  The loop stops once the rank reaches the bound the shape allows,
since every further Smith entry is then 1, so the columns past that point are
never read.  The set-aside columns, reduced against every pivot, form a small
residue of columns whose Smith form is taken densely, modulo a nonzero minor
of maximal size so that its entries stay bounded.

For a chain complex, the unit pivot columns of d_k may be dropped as rows of
d_{k+1} (clearing, as in Chen & Kerber 2011, Bauer, Kerber & Reininghaus
2014 and Bauer, Ripser, J. Appl. Comput. Topol. 2021): this changes neither
rank nor torsion.  Everything runs over Python's arbitrary-precision
integers; no floats anywhere.
"""

import heapq
from math import gcd


class ColumnMatrix:
    """Sparse integer matrix: its nonzero columns, in increasing order.

    `source` is a function that returns an iterator over the pairs
    (column, {row: nonzero value}); each pass in column order (len,
    elimination) calls it afresh.  A matrix whose columns are already held in
    a dict is built from that dict's `items`.  `cols` is the dict of the
    pairs, made on the first random access and read by every later pass.
    `len` is the number of nonzero entries.
    """

    __slots__ = ("source", "_cols")

    def __init__(self, source):
        self.source, self._cols = source, None

    @property
    def cols(self):
        if self._cols is None:
            self._cols = dict(self.source())
            self.source = self._cols.items
        return self._cols

    def __len__(self):
        return sum(len(col) for _, col in self.source())


def _reduce(col, pivot_at, pivot_cols):
    """Clear `col` (row -> value) at every pivot row, in pivot order.

    Pivot column p, stored as (row, value, entries), is zero at the rows of
    the pivots found before it, so one pass in pivot order leaves `col` zero
    at every pivot row.
    """
    heap = [pivot_at[r] for r in col if r in pivot_at]
    heapq.heapify(heap)
    while heap:
        pr, pv, entries = pivot_cols[heapq.heappop(heap)]
        f = col.get(pr)
        if f is None:
            continue
        f *= pv  # pv is its own inverse
        for r, v in entries.items():
            nv = col.get(r, 0) - f * v
            if nv:
                if r not in col and r in pivot_at:
                    heapq.heappush(heap, pivot_at[r])
                col[r] = nv
            else:
                del col[r]
    return col


def _unit_pivot_eliminate(mat, nrows, ncols, drop_rows=(), pivots=None):
    """Column-by-column elimination with +-1 pivots.  Returns (rank, residue).

    Rows in `drop_rows` are ignored.  The ids of the unit pivot columns are
    appended to the list `pivots` when one is given.  The residue is the list
    of nonzero set-aside columns, each reduced to zero at every pivot row.
    The columns of `mat` are read in order, each copied when the loop
    reaches it, so the loop holds the pivot and set-aside columns, never all
    of `mat`.  It stops at the bound min(nrows - len(drop), ncols) that the
    shape allows (see `rank_and_torsion`), before reading any further column.
    """
    drop = set(drop_rows)
    bound = min(nrows - len(drop), ncols)
    pivot_at = {}  # pivot row -> index into pivot_cols
    pivot_cols = []
    aside = []
    for c, entries in mat.source():
        if len(pivot_cols) == bound:
            return bound, []
        col = _reduce({r: v for r, v in entries.items() if r not in drop}, pivot_at, pivot_cols)
        pr = max((r for r, v in col.items() if v in (1, -1)), default=None)
        if pr is None:
            if col:
                aside.append(col)
            continue
        pivot_at[pr] = len(pivot_cols)
        pivot_cols.append((pr, col[pr], col))
        if pivots is not None:
            pivots.append(c)
    residue = [_reduce(col, pivot_at, pivot_cols) for col in aside]
    return len(pivot_cols), [col for col in residue if col]


def _dense(cols):
    """Dense list-of-rows copy of nonzero columns {row: value}, on their nonzero rows."""
    rows = sorted({r for col in cols for r in col})
    ri = {r: i for i, r in enumerate(rows)}
    a = [[0] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for r, v in col.items():
            a[ri[r]][j] = v
    return a


def _bareiss(a):
    """Fraction-free Gaussian elimination in place.  Returns (rank, minor).

    `minor` is a nonzero rank x rank minor of the input (1 for rank 0).
    """
    m, n = len(a), len(a[0]) if a else 0
    rank = 0
    prev = 1
    for _ in range(min(m, n)):
        pr = next((i for i in range(rank, m) if any(a[i][rank:])), None)
        if pr is None:
            break
        pc = next(j for j in range(rank, n) if a[pr][j])
        a[rank], a[pr] = a[pr], a[rank]
        for row in a:
            row[rank], row[pc] = row[pc], row[rank]
        p = a[rank][rank]
        for i in range(rank + 1, m):
            for j in range(rank + 1, n):
                a[i][j] = (p * a[i][j] - a[i][rank] * a[rank][j]) // prev
            a[i][rank] = 0
        prev = p
        rank += 1
    return rank, abs(prev)


def _bezout(a, b):
    """(x, y, p, q) with [[x, y], [-q, p]] unimodular, taking (a, b) to (g, 0).

    When a divides b this is plain elimination (x, y = 1, 0), so the pivot a
    stays; otherwise g = gcd(a, b) is smaller than a, or positive for a = 0.
    """
    if a and b % a == 0:
        return 1, 0, 1, b // a
    a0, b0 = a, b
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a0 // a, b0 // a


def _dense_smith(cols):
    """Diagonal of the Smith form of a few nonzero columns, as a sorted list.

    With rank r and a nonzero r x r minor D, each of the r invariant factors
    divides D.  So the diagonalisation runs over Z/DZ, where entries stay
    below D (Hafner & McCurley 1991; Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.4.14): the Smith entries there are the
    gcds of the true ones with D, which are the true ones for the first r
    and D for the rest.
    """
    if not cols:
        return []
    rank, D = _bareiss(_dense(cols))
    a = [[v % D for v in row] for row in _dense(cols)]
    m, n = len(a), len(a[0])
    diag = []
    for t in range(min(m, n)):
        while True:
            # gather gcd(column t) into the pivot by unimodular row pairs
            for i in range(t + 1, m):
                if a[i][t]:
                    x, y, p, q = _bezout(a[t][t], a[i][t])
                    rt, ri = a[t], a[i]
                    a[t] = [(x * u + y * w) % D for u, w in zip(rt, ri)]
                    a[i] = [(p * w - q * u) % D for u, w in zip(rt, ri)]
            # and gcd(row t) by unimodular column pairs
            done = True
            for j in range(t + 1, n):
                if a[t][j]:
                    done = False
                    x, y, p, q = _bezout(a[t][t], a[t][j])
                    for row in a:
                        u, w = row[t], row[j]
                        row[t], row[j] = (x * u + y * w) % D, (p * w - q * u) % D
            if done:
                break
        diag.append(gcd(a[t][t], D))
    # diag(a, b) ~ diag(gcd, lcm) gives the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag[:rank]


def smith_diagonal(mat, nrows, ncols, drop_rows=(), pivots=None):
    """Nonzero Smith normal form diagonal of a `ColumnMatrix` of the given shape."""
    rank1, residue = _unit_pivot_eliminate(mat, nrows, ncols, drop_rows, pivots)
    return [1] * rank1 + _dense_smith(residue)


def rank_and_torsion(mat, nrows, ncols, drop_rows=(), pivots=None):
    """(rank, torsion coefficients > 1) of a `ColumnMatrix` of the given shape.

    The shape bounds the rank, so every row index must be below `nrows`,
    every column index below `ncols`, and the dropped rows must be among
    those rows; the shape may be larger than the nonzero part.
    `drop_rows` and `pivots` serve clearing in a chain complex: pass the
    pivot columns that a call on d_k appended to `pivots` as the `drop_rows`
    of d_{k+1}.
    """
    diag = smith_diagonal(mat, nrows, ncols, drop_rows, pivots)
    if len(diag) > min(nrows, ncols):
        raise AssertionError("Smith rank exceeds matrix shape")
    return len(diag), tuple(d for d in diag if d > 1)


def bareiss_rank(mat):
    """Fraction-free Gaussian rank of a `ColumnMatrix`, a cross-check on the SNF rank."""
    cols = [col for _, col in mat.source()]
    return _bareiss(_dense(cols))[0] if cols else 0
