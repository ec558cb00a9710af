"""Exact integer linear algebra for homology: Smith normal form.

A matrix is a `ColumnMatrix`: its nonzero columns, in increasing order, each a
dict {row: nonzero int}.  Columns are read one at a time, in order, and never
all held.  Each is cleared at the rows of the unit pivot columns found so far,
which are kept in reduced echelon (Gauss-Jordan) form, each zero at every
other pivot row, so one pass over the column's own entries clears it, with no
copy made first (Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001).  A
column that meets no pivot column with other entries is only filtered: its
entries at pivot rows are dropped.  On the comma-category nerves, every column
of d_2 and d_3 that is read is of this kind and keeps one entry, a pivot at
once (an apparent pair, in the terms of Bauer's Ripser).  A cleared column
with a +-1 entry becomes a new pivot column (a Smith entry 1) and clears its
row from the earlier ones; a column left with only non-unit entries is set
aside, one held per leading row (Hermite reduction).  Unit pivots never create
torsion and keep entries small.  The loop stops once the rank reaches the
bound the shape allows, since every further Smith entry is then 1, so the
columns past that point are never read.  The held columns, cleared at every
pivot row, form a small residue whose Smith form is taken densely, modulo a
nonzero minor of maximal size so that its entries stay bounded.

For a chain complex, the unit pivot columns of d_k may be dropped as rows of
d_{k+1} (clearing, as in Chen & Kerber 2011, Bauer, Kerber & Reininghaus
2014 and Bauer, Ripser, J. Appl. Comput. Topol. 2021), as pivots with no
other entry: this changes neither rank nor torsion.  Everything runs over
Python's arbitrary-precision integers; no floats anywhere.
"""

from collections import defaultdict
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


def _reduce(entries, pivot_rows, tails):
    """The column `entries` (row -> value) cleared at every pivot row, without zeros.

    tails[r] is the pivot column at row r times its +-1, less its entry 1 at r,
    zero at every other pivot row, so one pass adds each entry off the pivot
    rows and the multiple of each tail met; a pivot with no tail drops its entry.
    """
    col = {}
    for r, f in entries.items():
        if r not in pivot_rows:
            if nv := col.get(r, 0) + f:
                col[r] = nv
            else:
                col.pop(r, None)
        elif tail := tails.get(r):
            for s, v in tail.items():
                if nv := col.get(s, 0) - f * v:
                    col[s] = nv
                else:
                    col.pop(s, None)
    return col


def _combine(a, u, b, v):
    """The column a * u + b * v, without zero entries."""
    return {r: w for r in u.keys() | v.keys() if (w := a * u.get(r, 0) + b * v.get(r, 0))}


def _unit_pivot_eliminate(mat, nrows, ncols, drop_rows=(), pivots=None):
    """Column-by-column elimination with +-1 pivots.  Returns (rank, residue).

    The pivots are `tails` keyed by pivot row (see `_reduce`); a new pivot
    clears its row from the tails that hold it, which `holders` lists by row
    (stale entries are skipped), and drops a tail it empties.  Rows in
    `drop_rows` are pivots with no tail.  A column that meets a tail is read
    once, by `_reduce`, any other by a pass that drops its entries at pivot
    rows; its pivot row is the largest with a +-1 entry.  The ids of the unit
    pivot columns go to the list `pivots` when one is given.  A set-aside
    column is held at its leading (largest) row, merged with the one held
    there by a unimodular pair (`_bezout`, which keeps the lattice they span),
    the rest going on to its next leading row; the residue is the held columns,
    cleared at every pivot row.  The columns of `mat` are read in order, so the
    loop holds the pivots and held columns, never all of `mat`, and it stops at
    the bound min(nrows - len(drop), ncols) that the shape allows (see
    `rank_and_torsion`), checked before the first read and at each new pivot.
    """
    pivot_rows = set(drop_rows)
    ndrop = len(pivot_rows)
    full = min(nrows, ncols + ndrop)
    tails, holders, aside = {}, defaultdict(list), {}
    if len(pivot_rows) == full:
        return full - ndrop, []
    for c, entries in mat.source():
        if tails and not entries.keys().isdisjoint(tails.keys()):
            col = _reduce(entries, pivot_rows, tails)  # off the pivot rows, without zeros
            pr = max((r for r, v in col.items() if abs(v) == 1), default=None) if col else None
        else:
            col, pr = {}, None  # the entries off the pivot rows, and the largest row of a +-1
            for r, v in entries.items():
                if r not in pivot_rows:
                    col[r] = v
                    if (v == 1 or v == -1) and (pr is None or r > pr):
                        pr = r
        if pr is None:
            if col:  # set aside, without its stored zeros
                col = {r: v for r, v in col.items() if v}
            while col and (lead := max(col)) in aside:
                held = aside[lead]
                x, y, p, q = _bezout(held[lead], col[lead])
                aside[lead], col = _combine(x, held, y, col), _combine(p, col, -q, held)
            if col:
                aside[lead] = col
            continue
        pivot_rows.add(pr)
        if pivots is not None:
            pivots.append(c)
        if len(pivot_rows) == full:
            return full - ndrop, []
        if col.pop(pr) == -1:
            col = {s: -v for s, v in col.items()}
        for q in holders.pop(pr, ()):
            tail = tails.get(q, {})
            f = tail.pop(pr, 0)  # 0 for a stale entry
            if f:
                for s, v in col.items():
                    nv = tail.get(s, 0) - f * v
                    if nv:
                        if s not in tail:
                            holders[s].append(q)
                        tail[s] = nv
                    else:
                        tail.pop(s, None)
            if not tail:  # a pivot row whose tail is cleared is as good as dropped
                tails.pop(q, None)
        if col:
            tails[pr] = col
            for s in col:
                holders[s].append(pr)
    residue = [_reduce(col, pivot_rows, tails) for col in aside.values()]
    return len(pivot_rows) - ndrop, [col for col in residue if col]


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

