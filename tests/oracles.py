"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately primitive: brute-force enumeration and
textbook chain complexes, sharing as little code as possible with the
library under test.  The constructions that only tests use live here too.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product


def count_injections(m, n):
    """|I(m, n)| by brute force over all image tuples."""
    return sum(
        1
        for img in product(range(1, n + 1), repeat=m)
        if len(set(img)) == m
    )


def rational_rank(rows, ncols):
    """Row reduction over the rationals; rows are dense lists."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def _det(rows):
    """Determinant by the Leibniz formula over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        total += term
    return total


def invariant_factors(rows, ncols):
    """Nonzero Smith invariant factors of a dense integer matrix.

    The k-th factor is d_k / d_{k-1}, where the determinantal divisor d_k is
    the gcd of all k x k minors; the rank is the largest k with d_k != 0.
    """
    from math import gcd

    factors = []
    prev = 1
    for k in range(1, min(len(rows), ncols) + 1):
        d = 0
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                d = gcd(d, _det([[rows[r][c] for c in cs] for r in rs]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def hermite_normal_form(cols, rows):
    """The column Hermite normal form of the lattice that the columns {row:
    value} span, over the row indices `rows`: a tuple of columns, each a
    tuple of its entries at `rows` from the largest row down.

    Rows are taken from the largest: gcd steps between the columns nonzero
    there leave one, the pivot, which is made positive and reduces the
    entry of every earlier pivot column at its row into [0, pivot).  So the
    pivots stand at strictly decreasing rows with zeros above them, and the
    form is unique for the lattice (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, section 2.4.2): two sets of columns span
    one lattice exactly when their forms over the same rows are equal.
    """
    pool = [[col.get(r, 0) for r in sorted(rows, reverse=True)] for col in cols]
    form = []
    for i in range(len(rows)):
        while len(live := [v for v in pool if v[i]]) > 1:
            least = min(live, key=lambda v: abs(v[i]))
            for v in live:
                if v is not least:
                    f = v[i] // least[i]
                    v[:] = [a - f * b for a, b in zip(v, least)]
        if live:
            pool.remove(piv := live[0])
            if piv[i] < 0:
                piv[:] = [-a for a in piv]
            for v in form:
                f = v[i] // piv[i]
                v[:] = [a - f * b for a, b in zip(v, piv)]
            form.append(piv)
    return tuple(map(tuple, form))


def columns(plain):
    """A plain dict (row, col) -> int as a `ColumnMatrix`: its nonzero
    columns in increasing order, rows in the dict's order."""
    from ispaces.zlinalg import ColumnMatrix

    cols = {}
    for (r, c), v in plain.items():
        if v:
            cols.setdefault(c, {})[r] = v
    return ColumnMatrix({c: cols[c] for c in sorted(cols)}.items)


def entries(mat):
    """The entries ((row, col), value) of a `ColumnMatrix`, column by column."""
    return [((r, c), v) for c, col in mat.source() for r, v in col.items()]


def bareiss_rank(mat):
    """Fraction-free Gaussian rank of a `ColumnMatrix`, a cross-check on the SNF rank."""
    from ispaces.zlinalg import _bareiss, _dense

    cols = [col for _, col in mat.source()]
    return _bareiss(_dense(cols))[0] if cols else 0


def heap_eliminate(mat, nrows, ncols, drop_rows=(), pivots=None):
    """Unit-pivot elimination with pivots in plain echelon form, a reference
    for `zlinalg._unit_pivot_eliminate`; same arguments and (rank, residue).

    Each pivot column is zero at the rows of the pivots found before it, so a
    column is cleared by popping the pivots at its rows from a heap in the
    order they were found, pushing each pivot row that a subtraction fills in.
    Rows in `drop_rows` are filtered out of a copy of each column.
    """
    drop = set(drop_rows)
    bound = min(nrows - len(drop), ncols)
    pivot_at = {}  # pivot row -> index into pivot_cols
    pivot_cols = []  # (row, +-1, column)

    def reduce(col):
        heap = [pivot_at[r] for r in col if r in pivot_at]
        heapq.heapify(heap)
        while heap:
            pr, pv, piv = pivot_cols[heapq.heappop(heap)]
            f = col.get(pr)
            if not f:  # no entry, or a stored 0
                continue
            f *= pv
            for r, v in piv.items():
                nv = col.get(r, 0) - f * v
                if nv:
                    if r not in col and r in pivot_at:
                        heapq.heappush(heap, pivot_at[r])
                    col[r] = nv
                else:
                    col.pop(r, None)
        return col

    aside = []
    for c, entries in mat.source():
        if len(pivot_cols) == bound:
            return bound, []
        col = reduce({r: v for r, v in entries.items() if r not in drop})
        pr = max((r for r, v in col.items() if v in (1, -1)), default=None)
        if pr is None:
            if col:
                aside.append(col)
            continue
        pivot_at[pr] = len(pivot_cols)
        pivot_cols.append((pr, col[pr], col))
        if pivots is not None:
            pivots.append(c)
    residue = [reduce(col) for col in aside]
    return len(pivot_cols), [col for col in residue if col]


def group_homology(elements, mul, unit, top):
    """Integral group homology H_k for k <= top via the bar complex.

    C_k = Z[G^k]; the boundary alternates multiplying adjacent entries and
    dropping the ends.  Returns dict k -> (rank, sorted torsion list).
    """
    from ispaces.zlinalg import rank_and_torsion

    idx = {g: i for i, g in enumerate(elements)}
    chains = [list(product(elements, repeat=k)) for k in range(top + 2)]

    def boundary(k):
        """Matrix of d: C_k -> C_{k-1} as dict (row, col) -> int."""
        rows = {t: i for i, t in enumerate(chains[k - 1])}
        mat = {}
        for col, tup in enumerate(chains[k]):
            entries = {}
            for i in range(k + 1):
                if i == 0:
                    face = tup[1:]
                elif i == k:
                    face = tup[:-1]
                else:
                    face = tup[: i - 1] + (mul(tup[i - 1], tup[i]),) + tup[i + 1:]
                entries[rows[face]] = entries.get(rows[face], 0) + (-1) ** i
            for r, v in entries.items():
                if v:
                    mat[(r, col)] = v
        return mat

    out = {}
    ranks = {}
    tors = {}
    for k in range(1, top + 2):
        n_rows = len(chains[k - 1])
        n_cols = len(chains[k])
        r, t = rank_and_torsion(columns(boundary(k)), n_rows, n_cols)
        ranks[k] = r
        tors[k] = t
    for k in range(top + 1):
        n_k = len(chains[k])
        rk = ranks.get(k, 0)
        rk1 = ranks.get(k + 1, 0)
        torsion = tuple(t for t in tors.get(k + 1, ()) if t > 1)
        out[k] = (n_k - rk - rk1, tuple(sorted(torsion)))
    return out


def sigma2_homology(top):
    """H_*(Sigma_2; Z): Z, then Z/2 in odd degrees, 0 in positive even."""
    return group_homology([0, 1], lambda a, b: (a + b) % 2, 0, top)


def comma_under_counts(n, N):
    """(objects, morphisms) of (n under I<=N) by brute force."""
    injs = {
        (a, b): [
            img
            for img in permutations(range(1, b + 1), a)
        ]
        for a in range(N + 1)
        for b in range(N + 1)
    }
    objects = [(m, img) for m in range(N + 1) for img in injs[(n, m)]]
    morphisms = 0
    for (m1, f) in objects:
        for (m2, h) in objects:
            for g in injs[(m1, m2)]:
                if tuple(g[v - 1] for v in f) == h:
                    morphisms += 1
    return len(objects), morphisms


def subsets_of(n):
    """All subsets of {1..n} in the library's level ordering."""
    return [frozenset(s) for k in range(n + 1)
            for s in combinations(range(1, n + 1), k)]


def box_colimit(factors, n, dim, total_max, symmetric=False):
    """Canonical raw cells of the box colimit at level n, by brute force.

    Raw cells are (nvec, image, xs) as in the library: nvec has sum at most
    total_max, image is that of an injection sum(nvec) -> n, and xs[i] is a
    dim-simplex of factors[i] at level nvec[i].  Cells are joined along every
    morphism of the decomposition category, each tuple of injections
    f_i: nvec[i] -> mvec[i], and with `symmetric` also along every
    permutation of the blocks.  Returns raw cell -> least cell of its class.
    """
    from ispaces.icat import Injection

    k = len(factors)
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    def injections(a, b):
        return list(permutations(range(1, b + 1), a))

    def cells(nvec):
        return product(*[factors[i].level(q).all_simplices(dim) for i, q in enumerate(nvec)])

    objects = [(nvec, img)
               for nvec in product(range(total_max + 1), repeat=k) if sum(nvec) <= total_max
               for img in injections(sum(nvec), n)]
    for nvec, img in objects:
        for xs in cells(nvec):
            parent[(nvec, img, xs)] = (nvec, img, xs)
    for mvec, b in objects:
        for nvec in product(*[range(q + 1) for q in mvec]):
            for fs in product(*[injections(nvec[i], mvec[i]) for i in range(k)]):
                block = []
                for i, f in enumerate(fs):
                    block += [sum(mvec[:i]) + v for v in f]
                img = tuple(b[v - 1] for v in block)
                acts = [factors[i].act(Injection(nvec[i], mvec[i], fs[i])) for i in range(k)]
                for xs in cells(nvec):
                    ys = tuple(acts[i](xs[i]) for i in range(k))
                    union((nvec, img, xs), (mvec, b, ys))
        if symmetric:
            starts = [sum(mvec[:i]) for i in range(k)]
            for perm in permutations(range(k)):
                img = sum((b[starts[p]:starts[p] + mvec[p]] for p in perm), ())
                for xs in cells(mvec):
                    union((tuple(mvec[p] for p in perm), img, tuple(xs[p] for p in perm)),
                          (mvec, b, xs))
    least = {}
    for x in parent:
        r = find(x)
        least[r] = min(least.get(r, x), x)
    return {x: least[find(x)] for x in parent}


def words(X):
    """The `ispace.BoxISpace` of the words on X through dimension 1: the box
    powers of X of length k <= N modulo permutations of their blocks."""
    from ispaces.ispace import _box_face, _box_space

    canon = [[{raw: least for k in range(X.N + 1)
               for raw, least in box_colimit((X,) * k, n, dim, n, symmetric=True).items()}
              for dim in range(2)] for n in range(X.N + 1)]
    # a word has at most N factors, and faces zip the factors with its blocks
    factors = (X,) * X.N
    return _box_space(X.N, lambda n, k: canon[n][k], partial(_box_face, factors), 1)


def free_cmonoid(X):
    """Symmetrized box powers of X with word concatenation, truncated.

    Words are truncated at length N; the truncation is exact when X(0) is
    empty, because a length-k word then needs level at least k.  The carrier
    records `word_truncation_exact` in the monoid metadata.  Simplices are
    built through dimension 1.
    """
    from ispaces.cmon import CIMonoidT
    from ispaces.simplicial import ref_dim, vertex_ref

    N = X.N
    exact = sum(X.level(0).card) == 0
    W = words(X)

    def mul(m, n, rx, ry):
        (nx, ax, xs), (ny, ay, ys) = W.raw(m, rx), W.raw(n, ry)
        if len(nx + ny) > N:
            raise ValueError("word-length truncation overflow")
        raw = (nx + ny, ax + tuple(v + m for v in ay), xs + ys)
        dim = ref_dim(rx)
        ref = W.ref(m + n, dim, raw)
        if ref_dim(ref) < dim:
            # the empty word carries no simplex data; its raw cell is shared
            # across dimensions and normalizes to the unit vertex
            _, base_dim, base_id = ref
            ref = vertex_ref(dim, base_id)
        return ref

    _, _, unit_id = W.ref(0, 0, ((), (), ()))
    return CIMonoidT(W.space, unit_id, mul, name="free",
                     meta={"word_truncation_exact": exact})


def latching(X, n, dim_bound=None):
    """Colimit of X over the proper injections into n, with its map to X(n).

    The indexing category is the full subcategory of I/n on the injections
    m -> n with m < n, so the automorphisms of each level m act as well.
    Returns (SSet, SMap into X(n)).
    """
    from ispaces.icat import Injection
    from ispaces.ispace import _box_classes, _box_deg, _box_face
    from ispaces.simplicial import SMap, normalize_table

    if dim_bound is None:
        dim_bound = max((X.level(m).top_dim for m in range(n)), default=0)
    canon = [_box_classes((X,), n, dim, n - 1, {}) for dim in range(dim_bound + 1)]
    tab = normalize_table([sorted(set(c.values())) for c in canon],
                          lambda k, raw: tuple(canon[k - 1][_box_face((X,), raw, i)]
                                               for i in range(k + 1)),
                          lambda k, raw, i: canon[k + 1][_box_deg(raw, i)], dim_bound)
    table = {(k, x): X.act(Injection(m, n, a_img))(xref) for k, raws in enumerate(tab.raw_of)
             for x, ((m,), a_img, (xref,)) in enumerate(raws)}
    return tab.sset, SMap(tab.sset, X.level(n), table)


def normalize_reference(cells, faces_fn, deg_fn, top_dim, complete=False, based_raw=None):
    """`simplicial.normalize_table` by testing every raw cell on its own.

    A raw k-cell is degenerate when s_i d_{i+1} gives it back for some i < k
    (the smallest such i is taken); it is then s_i of the ref of that face.
    This asks each k-cell for its row of faces and up to k degeneracies
    before it is known to be nondegenerate, so faces_fn(k, raw) is called on
    degenerate cells too, where the library works from the level below.
    Returns the same `NormTable`, with an eager dictionary of refs.
    """
    from ispaces.simplicial import NormTable, SSet, apply_s, nd_ref

    ref_of = {}
    raw_of = []
    card = []
    face = []
    for k in range(top_dim + 1):
        n = 0
        rows = []
        raw_of.append([])
        for raw in cells[k]:
            if raw in ref_of:
                continue
            row = faces_fn(k, raw) if k else ()
            hit = None
            for i in range(k):
                y = row[i + 1]
                if deg_fn(k - 1, y, i) == raw:
                    hit = (i, y)
                    break
            if hit is not None:
                i, y = hit
                ref_of[raw] = apply_s(i, ref_of[y])
            else:
                ref_of[raw] = nd_ref(k, n)
                raw_of[k].append(raw)
                if k >= 1:
                    rows.append(tuple(ref_of[f] for f in row))
                n += 1
        card.append(n)
        face.append(rows)
    bp = None
    if based_raw is not None:
        degs, base_dim, bp = ref_of[based_raw]
        if base_dim + len(degs) != 0:
            raise ValueError("basepoint raw cell is not a vertex")
    return NormTable(SSet(tuple(card), tuple(face), complete=complete, basepoint=bp),
                     ref_of, raw_of)


def hocolim_face_reference(X, raw, i):
    """d_i of a raw chain cell (levels, arrows, x) of the homotopy colimit of
    X, one face at a time, through checked injections: d_0 drops the first
    object, d_i for 0 < i < s composes arrows i - 1 and i, and d_s drops the
    last object and moves x along the last arrow."""
    from ispaces.icat import Injection, compose

    levels, arrows, x = raw
    s = len(levels) - 1
    if i == 0:
        return (levels[1:], arrows[1:], X.level(levels[-1]).d(0, x))
    if i == s:
        moved = X.act(Injection(levels[s], levels[s - 1], arrows[s - 1]))(x)
        return (levels[:-1], arrows[:-1], X.level(levels[s - 1]).d(s, moved))
    outer = Injection(levels[i], levels[i - 1], arrows[i - 1])
    inner = Injection(levels[i + 1], levels[i], arrows[i])
    new_arrows = arrows[: i - 1] + (compose(outer, inner).image,) + arrows[i + 1:]
    return (levels[:i] + levels[i + 1:], new_arrows, X.level(levels[-1]).d(i, x))


def subcomplex_closed(X, sub):
    """Check that `sub` (dict dim -> set of nondeg ids) is face-closed."""
    for k in range(1, X.top_dim + 1):
        for x in sub.get(k, ()):
            for _, base_dim, base_id in X.face[k][x]:
                if base_id not in sub.get(base_dim, ()):
                    return False
    return True


def chains_where(top, keep):
    """The `simplicial.Chains` of the chains of `top` whose prefix passes `keep`."""
    from ispaces.simplicial import Chains

    flags = list(map(keep, top.prefixes))
    return Chains([p for p, f in zip(top.prefixes, flags) if f],
                  [e for e, f in zip(top.ext, flags) if f], top.C)


def quotient(X, sub):
    """Collapse a face-closed subcomplex to a basepoint.

    `sub` maps a dimension to a set of nondegenerate ids; it must be nonempty
    and closed under faces.  Returns (based SSet, function mapping old refs
    to new refs).  The basepoint is vertex 0 of the result, and the other
    simplices keep their order, with new ids listed per cell: the reference
    for the ids that `ispace._based_quotient` computes.  Rows are pushed when
    read, each face ref once.
    """
    from ispaces.simplicial import FaceRows, LazyDict, SSet, ref_dim

    if not any(sub.get(k) for k in range(X.top_dim + 1)):
        raise ValueError("quotient by an empty subcomplex has no basepoint")
    if not subcomplex_closed(X, sub):
        raise ValueError("subcomplex is not closed under faces")
    kept = [[x for x in range(n) if x not in sub.get(k, ())] for k, n in enumerate(X.card)]
    newid = [[None] * n for n in X.card]  # newid[k][x]: x's new id, None inside sub
    for k, xs in enumerate(kept):
        for y, x in enumerate(xs, k == 0):  # vertex 0 is the basepoint
            newid[k][x] = y

    def push(ref):
        degs, base_dim, base_id = ref
        if newid[base_dim][base_id] is None:
            return (tuple(range(ref_dim(ref) - 1, -1, -1)), 0, 0)
        return (degs, base_dim, newid[base_dim][base_id])

    moved = LazyDict(push)  # each face ref is pushed once, and shared by its rows
    face = [[]] + [FaceRows(kept[k], X.face[k].__getitem__, moved.__getitem__)
                   for k in range(1, X.top_dim + 1)]
    card = tuple(len(xs) + (k == 0) for k, xs in enumerate(kept))
    return SSet(card, tuple(face), complete=X.complete, basepoint=0), push


def hocolim_reference(X, S, arrows_of, based):
    """The homotopy colimit of X through dimension S on nested raw cells.

    A raw s-cell is (levels, arrows, x): levels m_0 >= ... >= m_s, arrows[i]
    the image tuple of an injection m_{i+1} -> m_i taken from arrows_of, and
    x an s-simplex of X(m_s).  Faces come one at a time from
    `hocolim_face_reference`, and s_i repeats level i with its identity.
    The based form collapses the cells over the basepoints and keeps an
    eager dictionary of refs.  Returns a `NormTable`.
    """
    from ispaces.simplicial import NormTable, apply_s, nd_ref, normalize_table

    chains = [[((m,), ()) for m in range(X.N + 1)]]
    for _ in range(S):
        chains.append([(levels + (m,), arrows + (f.image,)) for levels, arrows in chains[-1]
                       for m in range(levels[-1] + 1) for f in arrows_of(m, levels[-1])])
    cells = [[(lv, ar, x) for lv, ar in chains[s] for x in X.level(lv[-1]).all_simplices(s)]
             for s in range(S + 1)]

    def faces_fn(k, raw):
        return tuple(hocolim_face_reference(X, raw, i) for i in range(k + 1))

    def deg_fn(k, raw, i):
        levels, arrows, x = raw
        return (levels[:i + 1] + levels[i:],
                arrows[:i] + (tuple(range(1, levels[i] + 1)),) + arrows[i:], apply_s(i, x))

    tab = normalize_table(cells, faces_fn, deg_fn, S)
    if not based:
        return NormTable(tab.sset, refs_by_lookup(tab, cells), tab.raw_of)
    if not X.is_based():
        raise ValueError("based homotopy colimit needs a based diagram")
    sub = {}
    for k, raws in enumerate(tab.raw_of):
        for x, (levels, _, (_, base_dim, base_id)) in enumerate(raws):
            if base_dim == 0 and base_id == X.level(levels[-1]).basepoint:
                sub.setdefault(k, set()).add(x)
    Q, push = quotient(tab.sset, sub)
    raw_of = {}
    for k, raws in enumerate(tab.raw_of):
        for x, raw in enumerate(raws):
            degs, base_dim, base_id = push(nd_ref(k, x))
            if not degs:
                raw_of[(base_dim, base_id)] = raw
    return NormTable(Q, {raw: push(r) for raw, r in refs_by_lookup(tab, cells).items()},
                     [[raw_of[(k, y)] for y in range(n)] for k, n in enumerate(Q.card)])


def based_quotient_reference(X, tab):
    """The based quotient of a homotopy colimit of `ispace._hocolim`, the
    reference for `ispace._based_quotient`: on either path every cell's
    simplex is decoded (`ispace._cell_point`), and every cell is pushed to
    find its new id.  The raw cell of the basepoint is that of the last
    collapsed vertex."""
    from ispaces.ispace import _cell_point, _pushed_ref
    from ispaces.simplicial import LazyDict, NormTable, nd_ref

    sub = {}
    for k, raws in enumerate(tab.raw_of):
        for x, raw in enumerate(raws):
            m, (_, base_dim, base_id) = _cell_point(tab, k, raw)
            if base_dim == 0 and base_id == X.level(m).basepoint:
                sub.setdefault(k, set()).add(x)
    Q, push = quotient(tab.sset, sub)
    raw_of = [[None] * n for n in Q.card]
    for k, raws in enumerate(tab.raw_of):
        for x, raw in enumerate(raws):
            degs, _, y = push(nd_ref(k, x))
            if not degs:
                raw_of[k][y] = raw
    return NormTable(Q, LazyDict(partial(_pushed_ref, push, tab.ref_of)), raw_of, tab.cat)


def refs_by_lookup(tab, cells):
    """{raw: ref} of every raw cell of `cells`, each looked up in tab.ref_of.
    A lookup makes the refs that `simplicial.TopRefs` makes on demand, so
    afterwards dict(tab.ref_of) holds these and no more when ref_of holds
    only cells of `cells`."""
    return {raw: tab.ref_of[raw] for level in cells for raw in level}


def codes_of(N, arrows_of):
    """The sorted codes (`coded_injections(N)`) of the injections that the
    callback arrows_of(m, n) lists for m <= n <= N: the library's form of an
    index category whose reference form is the callback."""
    from ispaces.icat import coded_injections

    code = coded_injections(N).code
    return sorted(code[f] for n in range(N + 1) for m in range(n + 1) for f in arrows_of(m, n))


def decode_chain(N, raw):
    """A coded raw chain cell (m_0, a_1, ..., a_s, x) of the homotopy colimit
    at truncation N as the nested cell (levels, arrows, x) of
    `hocolim_reference`, through the injections that the codes name."""
    from ispaces.icat import coded_injections

    arrows = [coded_injections(N).morphisms[a] for a in raw[1:-1]]
    return ((raw[0],) + tuple(f.src for f in arrows), tuple(f.image for f in arrows), raw[-1])


def chain_cells(X, S, arrows):
    """Raw cells of the simplicial replacement diagonal, dims 0..S.

    A raw s-cell is the flat tuple (m_0, a_1, ..., a_s, x): the head level,
    codes a_i: m_i -> m_{i-1} from the sorted codes `arrows` of
    `icat.coded_injections(X.N)`, and x an s-simplex of X(m_s)
    (`tail_level`).  Its length s + 2 keeps the dimensions apart.  Codes
    run in (src, dst, image) order, so each target's bucket runs by source.
    """
    from ispaces.icat import coded_injections

    I = coded_injections(X.N)
    into = [[] for _ in range(X.N + 1)]
    for a in arrows:
        into[I.dst[a]].append((I.src[a], a))
    chains = [[((m,), m) for m in range(X.N + 1)]]
    for _ in range(S):
        chains.append([(ch + (a,), m) for ch, n in chains[-1] for m, a in into[n]])
    simp = [[X.level(m).all_simplices(s) for m in range(X.N + 1)] for s in range(S + 1)]
    return [[ch + (x,) for ch, m in chains[s] for x in simp[s][m]] for s in range(S + 1)]


def tail_level(I, raw):
    """The level m_s of a raw chain cell (m_0, a_1, ..., a_s, x), on the codes of I."""
    return I.src[raw[-2]] if len(raw) > 2 else raw[0]


def hocolim_faces(X):
    """Row kernel of the homotopy colimit of X: raw s-cell -> (d_0, ..., d_s).

    d_0 drops the head, d_i for 0 < i < s composes arrows i and i + 1 on
    their codes (`after`), and d_s drops the last arrow.  One memo lives as
    long as the kernel, which is built once per construction:
    (a_s, x) -> (d_0 x, ..., d_{s-1} x, d_s(X(a_s) x)).
    """
    from ispaces.icat import coded_injections

    I = coded_injections(X.N)
    src, after = I.src, I.after
    memo = {}

    def faces(raw):
        s = len(raw) - 2
        key = raw[-2:]
        ds = memo.get(key)
        if ds is None:
            a, x = key
            moved = X.act(I.morphisms[a])(x)
            ds = memo[key] = (tuple(X.level(src[a]).d(i, x) for i in range(s))
                              + (X.level(I.dst[a]).d(s, moved),))
        row = [(src[raw[1]],) + raw[2:-1] + (ds[0],)]
        for i in range(1, s):
            row.append(raw[:i] + (after[raw[i]][raw[i + 1]],) + raw[i + 2:-1] + (ds[i],))
        row.append(raw[:-2] + (ds[s],))
        return tuple(row)

    return faces


def hocolim_deg(I, raw, i):
    """s_i of a raw chain cell: repeat level i, inserting the code of its identity."""
    from ispaces.simplicial import apply_s

    m = I.src[raw[i]] if i else raw[0]
    return raw[:i + 1] + (I.ident[m],) + raw[i + 1:-1] + (apply_s(i, raw[-1]),)


def coded_chains_reference(X, S, arrows):
    """`ispace._coded_chains` of `_ChainCodes(X, S, arrows)` on the raw tuples
    of `chain_cells`, with faces and degeneracies formed on them: the
    Bousfield-Kan diagonal of X through dimension S, its `cat` the coded
    injections."""
    from ispaces.icat import coded_injections
    from ispaces.simplicial import normalize_table

    I, faces = coded_injections(X.N), hocolim_faces(X)
    tab = normalize_table(chain_cells(X, S, arrows), lambda k, raw: faces(raw),
                          lambda k, raw, i: hocolim_deg(I, raw, i), S)
    tab.cat = I
    return tab


def decode_element_chain(N, tab, k, raw):
    """A raw k-cell of a homotopy colimit built as the nerve of a category of
    elements (tab.cat, with objects (m, p) and morphisms (a, p) listed by
    code) as the nested cell (levels, arrows, x) of `hocolim_reference` of
    which it is the opposite: the chain (m_k, p) -> ... -> (m_0, q) read from
    its far end, with x the k-fold degenerate vertex p of X(m_k)."""
    from ispaces.icat import coded_injections
    from ispaces.simplicial import nd_ref

    C = tab.cat
    if not k:
        m, p = C.objects[raw]
        return ((m,), (), nd_ref(0, p))
    arrows = [coded_injections(N).morphisms[C.morphisms[f][0]] for f in reversed(raw)]
    _, p = C.morphisms[raw[0]]
    return ((arrows[0].dst,) + tuple(f.src for f in arrows), tuple(f.image for f in arrows),
            (tuple(range(k - 1, -1, -1)), 0, p))


def opposite_ref(ref, ids):
    """The image of a ref under an isomorphism from the opposite of a
    simplicial set, given on nondegenerate simplices as ids[k][x]: s_j on an
    m-simplex goes to s_{m - j}, and face i of a k-simplex to face k - i."""
    from ispaces.simplicial import apply_s, nd_ref, ref_dim

    degs, base_dim, base_id = ref
    out = nd_ref(base_dim, ids[base_dim][base_id])
    for j in reversed(degs):
        out = apply_s(ref_dim(out) - j, out)
    return out


def is_injective(f):
    """True iff the SMap f is injective on all simplices, degenerate included."""
    for k in range(f.src.top_dim + 1):
        seen = set()
        for ref in f.src.all_simplices(k):
            img = f(ref)
            if img in seen:
                return False
            seen.add(img)
    return True


def bounded_tuples(pools, budget):
    """Tuples of raw homotopy-colimit cells, one from each pool, whose head
    levels z[0][0] sum to at most `budget`, in the order of the full product
    (walked beside the product of the head levels)."""
    heads = [[z[0][0] for z in pool] for pool in pools]
    return [t for t, hs in zip(product(*pools), product(*heads)) if sum(hs) <= budget]


def chain_sum_reference(z, w, x):
    """Block sum of two raw homotopy-colimit chains of equal length, arrow by
    arrow as the concatenation of two checked injections, carrying x."""
    from ispaces.icat import Injection, concat

    lv1, ar1, _ = z
    lv2, ar2, _ = w
    lv = tuple(a + b for a, b in zip(lv1, lv2))
    ar = tuple(
        concat(Injection(lv1[i + 1], lv1[i], ar1[i]),
               Injection(lv2[i + 1], lv2[i], ar2[i])).image
        for i in range(len(ar1))
    )
    return (lv, ar, x)


def _merge_at(mul, f, i):
    """Bar entries f with the adjacent entries f[i - 1] and f[i] multiplied."""
    return f[: i - 1] + (mul[f[i - 1], f[i]],) + f[i + 1:]


class _Memo(dict):
    """The values of fn kept by argument tuple, memo[args] = fn(*args): the
    reference bars read the faces, products and block sums of raw chains
    through it."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, args):
        value = self[args] = self.fn(*args)
        return value


def chain_mul(A, I, z, w):
    """Monoid product on raw homotopy-colimit cells of equal length: the
    block sum of their chains (`ispace._chain_sum`), carrying the product of
    their simplices at their tail levels."""
    from ispaces.ispace import _chain_sum

    return _chain_sum(I, z, w, A.mul(tail_level(I, z), tail_level(I, w), z[-1], w[-1]))


def _unit_chain(A, I, s):
    """The unit raw s-chain: s identity arrows of level 0, then the unit simplex."""
    return (0,) + (I.ident[0],) * s + (A.unit_ref(s),)


def tuples_bounded(pools, budget):
    """Tuples of items, one from each pool of (item, head level) pairs, whose
    head levels sum to at most `budget`, in the order of the product of the pools.

    Each pool is bucketed once by the budget left: fits[b] holds its pairs of
    head level at most b, so a prefix extends without testing any item.  The
    prefixes carry the budget left; the last pool extends each prefix straight
    into the result, which holds no such pair.
    """
    if not pools:
        return [()]
    level, out = [((), budget)], []
    for pool in pools[:-1]:
        fits = [[(z, h) for z, h in pool if h <= b] for b in range(budget + 1)]
        level = [(t + (z,), left - h) for t, left in level for z, h in fits[left]]
    fits = [[(z,) for z, h in pools[-1] if h <= b] for b in range(budget + 1)]
    for t, left in level:
        out.extend(map(t.__add__, fits[left]))
    return out


def _raw_pool(raws):
    """The (cell, head level) pool of `tuples_bounded` over raw chains."""
    return [(z, z[0]) for z in raws]


def bar_of_hocolim_reference(A, K):
    """`cmon.bar_of_hocolim` on nested raw cells: a bar k-cell is the k-tuple
    of its raw chain cells, with faces, products and degeneracies computed on
    them, not on codes.  Returns its `NormTable`."""
    from ispaces.icat import coded_injections
    from ispaces.simplicial import normalize_table

    X, I = A.space, coded_injections(A.N)
    raws = chain_cells(X, K, range(len(I.morphisms)))
    cells = [tuples_bounded([_raw_pool(raws[k])] * k, A.N) for k in range(K + 1)]
    faces, mul = _Memo(hocolim_faces(X)), _Memo(partial(chain_mul, A, I))

    def faces_fn(k, raw):
        cols = tuple(zip(*[faces[z,] for z in raw]))
        middle = tuple(_merge_at(mul, cols[i], i) for i in range(1, k))
        return (cols[0][1:],) + middle + (cols[k][:-1],)

    def deg_fn(k, raw, i):
        degged = tuple(hocolim_deg(I, z, i) for z in raw)
        return degged[:i] + (_unit_chain(A, I, k + 1),) + degged[i:]

    return normalize_table(cells, faces_fn, deg_fn, K, based_raw=())


def two_sided_bar_reference(A, K):
    """`cmon.two_sided_bar_of_hocolim` on nested raw cells (c0, zs, c1), whose
    outer faces absorb the end entries into the nerve chains by block sum.
    Returns its `NormTable`."""
    from ispaces.ispace import _chain_sum
    from ispaces.icat import coded_injections
    from ispaces.ispace import terminal_ispace
    from ispaces.simplicial import nd_ref, normalize_table

    X, I = A.space, coded_injections(A.N)
    T = terminal_ispace(A.N)
    raws = chain_cells(X, K, range(len(I.morphisms)))
    t_raws = chain_cells(T, K, range(len(I.morphisms)))
    cells = []
    for k in range(K + 1):
        pools = [_raw_pool(t_raws[k])] + [_raw_pool(raws[k])] * k + [_raw_pool(t_raws[k])]
        cells.append([(t[0], t[1:-1], t[-1]) for t in tuples_bounded(pools, A.N)])
    faces, t_faces = _Memo(hocolim_faces(X)), _Memo(hocolim_faces(T))
    mul, plus = _Memo(partial(chain_mul, A, I)), _Memo(partial(_chain_sum, I))

    def faces_fn(k, raw):
        c0, zs, c1 = raw
        c0f, c1f = t_faces[c0,], t_faces[c1,]
        cols = tuple(zip(*[faces[z,] for z in zs]))
        middle = tuple((c0f[i], _merge_at(mul, cols[i], i), c1f[i]) for i in range(1, k))
        return (((plus[c0f[0], cols[0][0], c0f[0][-1]], cols[0][1:], c1f[0]),)
                + middle
                + ((c0f[k], cols[k][:-1], plus[cols[k][-1], c1f[k], c1f[k][-1]]),))

    def deg_fn(k, raw, i):
        c0, zs, c1 = raw
        unit = _unit_chain(A, I, k + 1)
        zd = tuple(hocolim_deg(I, z, i) for z in zs)
        return (hocolim_deg(I, c0, i), zd[:i] + (unit,) + zd[i:], hocolim_deg(I, c1, i))

    zero_chain = (0, nd_ref(0, 0))
    return normalize_table(cells, faces_fn, deg_fn, K, based_raw=(zero_chain, (), zero_chain))


def bar_comparison_once_reference(A, D):
    """`cmon._bar_comparison_once` on the nested raw cells of the reference
    bars, with the left term on the raw chains of `coded_chains_reference`:
    the middle term's cells are pushed to the right bar by dropping their
    nerve chains, and to the left one by the block sum of all their chains,
    with the bar cell in the blocks just past c0's."""
    from ispaces.cmon import BarComparisonReport, bar
    from ispaces.ispace import _chain_sum
    from ispaces.icat import coded_injections
    from ispaces.simplicial import homology, map_cone_homology, map_from_tables, pi0_classes

    K = D + 2
    B = bar(A, K)
    I = coded_injections(A.N)
    tabs = {"left": coded_chains_reference(B.space, K, range(len(I.morphisms))),
            "middle": two_sided_bar_reference(A, K), "right": bar_of_hocolim_reference(A, K)}

    def to_left(k, raw):
        c0, zs, c1 = raw
        chain = c0
        for z in zs + (c1,):
            chain = _chain_sum(I, chain, z, None)
        nvec = tuple(tail_level(I, z) for z in zs)
        start = tail_level(I, c0)
        image = tuple(range(start + 1, start + sum(nvec) + 1))
        xref = B.ref(tail_level(I, chain), len(zs), (nvec, image, tuple(z[-1] for z in zs)))
        return chain[:-1] + (xref,)

    maps = {"middle_to_left": map_from_tables(tabs["middle"], tabs["left"], to_left),
            "middle_to_right": map_from_tables(tabs["middle"], tabs["right"],
                                               lambda k, raw: raw[1])}
    cones = {name: map_cone_homology(f, D + 1) for name, f in maps.items()}
    iso = {name: all(cone.get(k, (0, ())) == (0, ()) for k in range(D + 2))
           for name, cone in cones.items()}
    return BarComparisonReport({t: homology(tab.sset, D) for t, tab in tabs.items()},
                               {t: len(pi0_classes(tab.sset)) for t, tab in tabs.items()},
                               iso, cones, trunc=A.N)


def decode_bar_cell(tab, k, cell):
    """A coded cell of `cmon.bar_of_hocolim` or `cmon.two_sided_bar_of_hocolim`
    as the nested raw cell of its reference, through the chain tables that
    the table's `cat` holds."""
    if isinstance(tab.cat, tuple):
        t_ch, ch = tab.cat
        return (t_ch.decode(k, cell[0]), tuple(ch.decode(k, z) for z in cell[1:-1]),
                t_ch.decode(k, cell[-1]))
    return tuple(tab.cat.decode(k, z) for z in cell)


def bar_monoid(A, B):
    """B(A) as a commutative monoid, by blockwise interleaving.

    The product of two bar cells of equal degree multiplies corresponding
    blocks with the monoid multiplication.  Its decomposition image
    interleaves the two images block by block, the second shifted past
    level m: the block sum of the two injections after the block shuffle.
    B is the bar construction of A, `cmon.bar(A, S)`.
    """
    from ispaces.cmon import CIMonoidT

    def mul(m, n, rx, ry):
        nv1, a1_img, xs = B.raw(m, rx)
        nv2, a2_img, ys = B.raw(n, ry)
        k = len(nv1)
        if len(nv2) != k:
            raise ValueError("bar cells of unequal degree")
        shifted = tuple(v + m for v in a2_img)
        image = ()
        i1 = i2 = 0
        for t1, t2 in zip(nv1, nv2):
            image += a1_img[i1:i1 + t1] + shifted[i2:i2 + t2]
            i1 += t1
            i2 += t2
        nvec = tuple(nv1[i] + nv2[i] for i in range(k))
        zs = tuple(A.mul(nv1[i], nv2[i], xs[i], ys[i]) for i in range(k))
        return B.ref(m + n, k, (nvec, image, zs))

    unit_id = B.space.level(0).basepoint
    return CIMonoidT(B.space, unit_id, mul, name=A.name + "-bar")


def iterated_bar_spectrum(A, n_max, D):
    """Based homotopy colimits of the iterated bar constructions.

    Entry k is the based homotopy colimit over the injection category of the
    k-fold bar construction, reported with homology through degree D.
    """
    from ispaces.cmon import bar
    from ispaces.ispace import hocolim_I
    from ispaces.simplicial import homology

    out = []
    cur = A
    for k in range(n_max + 1):
        tab = hocolim_I(cur.space, D + 1, based=True)
        out.append((tab.sset, homology(tab.sset, D)))
        if k < n_max:
            cur = bar_monoid(cur, bar(cur, D + 2))
    return out


def bar_mul_reference(A, B, m, n, rx, ry):
    """Product of two cells of the bar construction B of A in levels m and
    n, through checked injections: the block sum of the two decomposition
    injections after the shuffle psi that interleaves their blocks."""
    from ispaces.icat import Injection, compose, concat

    nv1, a1_img, xs = B.raw(m, rx)
    nv2, a2_img, ys = B.raw(n, ry)
    k = len(nv1)
    both = concat(Injection(sum(nv1), m, a1_img), Injection(sum(nv2), n, a2_img))
    off1 = [0]
    for t in nv1:
        off1.append(off1[-1] + t)
    off2 = [0]
    for t in nv2:
        off2.append(off2[-1] + t)
    image = []
    for i in range(k):
        image.extend(range(off1[i] + 1, off1[i] + nv1[i] + 1))
        image.extend(range(sum(nv1) + off2[i] + 1, sum(nv1) + off2[i] + nv2[i] + 1))
    psi = Injection(sum(nv1) + sum(nv2), sum(nv1) + sum(nv2), image)
    nvec = tuple(nv1[i] + nv2[i] for i in range(k))
    zs = tuple(A.mul(nv1[i], nv2[i], xs[i], ys[i]) for i in range(k))
    return B.ref(m + n, k, (nvec, compose(both, psi).image, zs))


def map_table_reference(src_tab, dst_tab, raw_fn):
    """The image of every nondegenerate simplex of src_tab, tabulated eagerly
    from a map of raw cells: the table `map_from_tables` used to build."""
    table = {}
    for k, raws in enumerate(src_tab.raw_of):
        for x, raw in enumerate(raws):
            table[(k, x)] = dst_tab.ref_of[raw_fn(k, raw)]
    return table


def standard_simplex(n):
    """Delta^n: nondegenerate k-simplices are (k+1)-subsets of {0..n}."""
    from ispaces.simplicial import SSet, nd_ref

    simp = [sorted(combinations(range(n + 1), k + 1)) for k in range(n + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in simp]
    face = [[]] + [
        [tuple(nd_ref(k - 1, index[k - 1][s[:i] + s[i + 1:]]) for i in range(k + 1))
         for s in simp[k]]
        for k in range(1, n + 1)
    ]
    return SSet(tuple(len(level) for level in simp), tuple(face), complete=True)


def sphere(n):
    """S^n as Delta^n collapsed along its boundary (n >= 1)."""
    dn = standard_simplex(n)
    return quotient(dn, {k: set(range(dn.card[k])) if k < n else set() for k in range(n + 1)})[0]


@dataclass
class ProductData:
    sset: object
    table: object
    proj1: object
    proj2: object


def product_sset(X, Y, dim_bound=None):
    """The categorical product X x Y, by shuffle decomposition of simplex
    pairs: the product simplicial set that the library no longer builds.
    Its cells are normalized by `simplicial.normalize_table`, looked up on
    the module so that a test which patches it sees this call."""
    from ispaces import simplicial
    from ispaces.simplicial import SMap, apply_s, nd_ref

    natural = X.top_dim + Y.top_dim
    top = natural if dim_bound is None else min(dim_bound, natural)
    if dim_bound is not None and dim_bound > natural and not (X.complete and Y.complete):
        raise ValueError("requested dimension exceeds available skeleta")
    cells = [
        [(ra, rb) for ra in X.all_simplices(k) for rb in Y.all_simplices(k)]
        for k in range(top + 1)
    ]

    def faces_fn(k, raw):
        ra, rb = raw
        return tuple((X.d(i, ra), Y.d(i, rb)) for i in range(k + 1))

    def deg_fn(k, raw, i):
        ra, rb = raw
        return (apply_s(i, ra), apply_s(i, rb))

    based = None
    if X.basepoint is not None and Y.basepoint is not None:
        based = (nd_ref(0, X.basepoint), nd_ref(0, Y.basepoint))
    tab = simplicial.normalize_table(
        cells, faces_fn, deg_fn, top,
        complete=X.complete and Y.complete and top == natural,
        based_raw=based,
    )
    p1 = {}
    p2 = {}
    for k, raws in enumerate(tab.raw_of):
        for x, (ra, rb) in enumerate(raws):
            p1[(k, x)] = ra
            p2[(k, x)] = rb
    return ProductData(
        tab.sset, tab,
        SMap(tab.sset, X, p1), SMap(tab.sset, Y, p2),
    )


def normalize_pair_ref(prod, ra, rb):
    """Locate the pair (ra, rb) as a ref of a `product_sset`."""
    from ispaces.simplicial import apply_s

    (degs_a, _, _), (degs_b, _, _) = ra, rb
    common = set(degs_a) & set(degs_b)
    if not common:
        return prod.table.ref_of[(ra, rb)]
    i = min(common)
    X, Y = prod.proj1.dst, prod.proj2.dst
    inner = normalize_pair_ref(prod, X.d(i + 1, ra), Y.d(i + 1, rb))
    return apply_s(i, inner)


def pairing_map(prod, f, g, top):
    """(f, g): Z -> X x Y from maps f: Z -> X, g: Z -> Y, through dimension top,
    into a product built by `product_sset`: the pairing into the product
    simplicial set, against which the Alexander-Whitney cone of
    `gamma.is_special` and the projections of `rho` are checked.  The
    product may be a skeleton, so the pairing is tabulated on the simplices
    of Z of dimension at most `top` only."""
    from ispaces.simplicial import SMap, nd_ref

    table = {}
    for k in range(min(top, f.src.top_dim) + 1):
        for x in range(f.src.card[k]):
            ra, rb = f(nd_ref(k, x)), g(nd_ref(k, x))
            table[(k, x)] = normalize_pair_ref(prod, ra, rb)
    return SMap(f.src, prod.sset, table)


def rho(BXY, X, Y):
    """The comparison box(X, Y) -> X x Y, as its two projections per level.

    A map into a product is simplicial exactly when both of its components
    are, so level n gives the pair of maps box(X, Y)(n) -> X(n) and
    box(X, Y)(n) -> Y(n); each pushes a raw cell (nvec, image, (rx, ry))
    along the decomposition injection restricted to that factor's block.
    BXY is `ispace.box_multi((X, Y), ...)`.
    """
    from ispaces.icat import Injection, compose, subset_inclusion
    from ispaces.simplicial import SMap

    maps = []
    for n in range(BXY.space.N + 1):
        px, py = {}, {}
        for k, raws in enumerate(BXY.tables[n].raw_of):
            for x, (nvec, a_img, (rx, ry)) in enumerate(raws):
                a = Injection(sum(nvec), n, a_img)
                px[(k, x)] = X.act(compose(a, subset_inclusion(nvec[0], a.src)))(rx)
                py[(k, x)] = Y.act(compose(a, Injection(nvec[1], a.src,
                                                         range(nvec[0] + 1, a.src + 1))))(ry)
        src = BXY.space.level(n)
        maps.append((SMap(src, X.level(n), px), SMap(src, Y.level(n), py)))
    return maps


def validate_chain_complex(cx):
    """Defects of a `simplicial.ChainComplex`: each degree k in which some
    column of d_k is not sent to zero by d_{k-1}."""
    bad = []
    for k in range(2, len(cx.counts)):
        below = cx.boundaries[k - 1].cols
        for col in cx.boundaries[k].cols.values():
            prod = {}  # d_{k-1} applied to this column of d_k
            for r, v in col.items():
                for r2, w in below.get(r, {}).items():
                    prod[r2] = prod.get(r2, 0) + v * w
            if any(prod.values()):
                bad.append(f"boundary squared nonzero in degree {k}")
                break
    return bad


def chain_boundary_reference(X, k):
    """The entries of the normalized boundary d_k of X as a list, column by
    column and, within a column, in order of first appearance among the
    faces d_0, ..., d_k; a degenerate face contributes nothing and entries
    that cancel are left out."""
    entries = []
    for x, faces in enumerate(X.face[k]):
        col = {}
        for i, (degs, _, base_id) in enumerate(faces):
            if not degs:
                col[base_id] = col.get(base_id, 0) + (-1) ** i
        entries += [((r, x), v) for r, v in col.items() if v]
    return entries


def nerve_reference(C, D):
    """The nerve of a finite category with tagged raw cells: ("o", object)
    for a vertex and ("c", (f_1, ..., f_k)) for a chain of morphisms, chains
    enumerated from the sorted morphisms, each extended by the morphisms out
    of its last target.  Normalized by `simplicial.normalize_table`."""
    from ispaces.simplicial import NormTable, SSet, normalize_table

    morphisms = sorted(C.morphisms)
    out_of = {}
    for f in morphisms:
        out_of.setdefault(C.src[f], []).append(f)
    cells = [[("o", obj) for obj in sorted(C.objects)]]
    level = [()]
    for k in range(1, D + 1):
        if k == 1:
            level = [(f,) for f in morphisms]
        else:
            level = [ch + (f,) for ch in level for f in out_of.get(C.dst[ch[-1]], ())]
        cells.append([("c", ch) for ch in level])

    def faces_fn(k, raw):
        ch = raw[1]
        if k == 1:
            return (("o", C.dst[ch[0]]), ("o", C.src[ch[0]]))
        row = [("c", ch[1:])]
        for i in range(1, k):
            row.append(("c", ch[:i - 1] + (C.comp[(ch[i], ch[i - 1])],) + ch[i + 1:]))
        row.append(("c", ch[:-1]))
        return row

    def deg_fn(k, raw, i):
        if k == 0:
            return ("c", (C.ident[raw[1]],))
        ch = raw[1]
        obj = C.src[ch[i]] if i < k else C.dst[ch[-1]]
        return ("c", ch[:i] + (C.ident[obj],) + ch[i:])

    tab = normalize_table(cells, faces_fn, deg_fn, D)
    sset = SSet(tab.sset.card, tab.sset.face, complete=D > 0 and tab.sset.card[D] == 0)
    return NormTable(sset, refs_by_lookup(tab, cells), tab.raw_of)


def nondegenerate_chains_reference(C, D):
    """The composable D-chains of a coded category C (D >= 1) that hold no
    identity, in the order of a nerve's cells: by first morphism code, then
    each next morphism by code.  The brute-force reference for the
    nondegenerate `simplicial.Chains` of a nerve's top."""
    out_of = {}  # every object has its identity, so a key
    for f in range(len(C.src)):
        out_of.setdefault(C.src[f], []).append(f)
    chains = [(f,) for f in range(len(C.src))]
    for _ in range(D - 1):
        chains = [ch + (f,) for ch in chains for f in out_of[C.dst[ch[-1]]]]
    idents = set(C.ident)
    return [ch for ch in chains if idents.isdisjoint(ch)]


def cyclic_group_category(n):
    """The cyclic group of order n as a one-object category."""
    from ispaces.icat import FinCategory

    elems = list(range(n))
    return FinCategory(
        [0], elems,
        src=dict.fromkeys(elems, 0), dst=dict.fromkeys(elems, 0),
        comp={(g, f): (g + f) % n for g in elems for f in elems},
        ident={0: 0},
    )


def _labelled_category(objects, ident, ends, compose_labels):
    """A FinCategory from objects, {object: identity}, {morphism: (src, dst)}
    and compose_labels(g, f) -> g o f, composing every composable pair."""
    from ispaces.icat import FinCategory

    return FinCategory(
        list(objects), list(ends),
        src={f: s for f, (s, _) in ends.items()}, dst={f: d for f, (_, d) in ends.items()},
        comp={(g, f): compose_labels(g, f) for g in ends for f in ends
              if ends[f][1] == ends[g][0]},
        ident=ident,
    )


def truncated_fincategory(N):
    """The injections m -> n for m, n <= N (`icat.injections(N)`) as explicit
    tables, every composite a checked `compose`."""
    from ispaces.icat import compose, enumerate_injections, identity

    arrows = {f: (m, n) for m in range(N + 1) for n in range(N + 1)
              for f in enumerate_injections(m, n)}
    return _labelled_category(range(N + 1), {n: identity(n) for n in range(N + 1)},
                              arrows, compose)


def comma_under_fincategory(n, N):
    """The comma category under n in the injections between 0..N as explicit
    tables, on the labels of `icat.comma_under`: objects a: n -> m, morphisms
    (a, g o a, g) for g out of the target of a, composed as checked injections."""
    from ispaces.icat import compose, enumerate_injections, identity

    objects = [a for m in range(N + 1) for a in enumerate_injections(n, m)]
    morphisms = {(a, compose(g, a), g): (a, compose(g, a)) for a in objects
                 for m in range(a.dst, N + 1) for g in enumerate_injections(a.dst, m)}
    return _labelled_category(objects, {a: (a, a, identity(a.dst)) for a in objects}, morphisms,
                              lambda h, g: (g[0], h[1], compose(h[2], g[2])))


def elements_fincategory(X, arrows_of):
    """The category of elements of a diagram of sets X over arrows_of as
    explicit tables, on the labels of `ispace._elements`: objects (m, p),
    morphisms (a, p) for the code a of an injection (`coded_injections`),
    each target X(a)p read off its action and composites checked injections."""
    from ispaces.icat import compose, coded_injections, identity
    from ispaces.simplicial import nd_ref

    I = coded_injections(X.N)
    objects = [(m, p) for m in range(X.N + 1) for p in range(X.level(m).card[0])]
    morphisms = {(I.code[a], p): ((m, p), (n, X.act(a)(nd_ref(0, p))[2]))
                 for n in range(X.N + 1) for m in range(n + 1) for a in arrows_of(m, n)
                 for p in range(X.level(m).card[0])}
    return _labelled_category(
        objects, {(m, p): (I.code[identity(m)], p) for m, p in objects}, morphisms,
        lambda g, f: (I.code[compose(I.morphisms[g[0]], I.morphisms[f[0]])], f[1]))


def based_maps(k, l):
    """All based functions k+ -> l+, as length-k tuples over 0..l."""
    return sorted(product(*[range(l + 1)] * k))


def compose_based(psi, phi):
    """psi after phi, for based maps given as image tuples."""
    return tuple(psi[v - 1] if v else 0 for v in phi)


def identity_based(k):
    return tuple(range(1, k + 1))


def validate_gamma(X, K_check=None):
    """Defects of a `gamma.GammaSpaceT` through k+ <= K_check: a value at 0+
    that is no point, maps that are no simplicial maps or not based, and
    failures of the identity and composition laws."""
    from ispaces.simplicial import nd_ref

    bad = []
    if sum(X.values[0].card) != 1:
        bad.append("value at 0+ is not a point")
    K = X.K if K_check is None else min(K_check, X.K)
    for k in range(K + 1):
        for l in range(K + 1):
            for phi in based_maps(k, l):
                f = X.act(phi, k, l)
                bad += [f"map {phi}: {m}" for m in f.validate()]
                bp = X.values[k].basepoint
                _, _, img = f(nd_ref(0, bp))
                if img != X.values[l].basepoint:
                    bad.append(f"map {phi} not based")
    if bad:
        return bad
    for k in range(K + 1):
        f = X.act(identity_based(k), k, k)
        if any(f.table[key] != nd_ref(*key) for key in f.src.nondeg_keys()):
            bad.append(f"identity does not act trivially at {k}+")
    for k in range(K + 1):
        for l in range(K + 1):
            for m in range(K + 1):
                for phi in based_maps(k, l):
                    for psi in based_maps(l, m):
                        lhs = X.act(compose_based(psi, phi), k, m)
                        a = X.act(phi, k, l)
                        b = X.act(psi, l, m)
                        if any(lhs.table[key] != b(a.table[key])
                               for key in a.src.nondeg_keys()):
                            bad.append(f"functoriality fails at {psi} after {phi}")
    return bad


def validate_bi_gamma(X):
    """Defects of a `gamma.BiGammaT`: the values at (k+, 0+) and (0+, k+)
    that are not a point."""
    bad = []
    for k in range(X.K + 1):
        if sum(X.value(k, 0).card) != 1 or sum(X.value(0, k).card) != 1:
            bad.append(f"value at ({k}+, 0+) is not a point")
    return bad


def prolong(X, Kbase, dim_bound=None):
    """Evaluate a Gamma-space on a based simplicial set, then take diagonals.

    The based set of s-simplices of the argument is identified with c+ by
    listing the basepoint-degenerate simplex first and the rest in a fixed
    order; structure maps of the argument act through the functor.
    """
    from ispaces.simplicial import apply_s, nd_ref, normalize_table, vertex_ref

    if Kbase.basepoint is None:
        raise ValueError("prolongation needs a based argument")
    if dim_bound is None:
        dim_bound = X.K
    sizes = []
    orders = []
    for s in range(dim_bound + 1):
        simps = Kbase.all_simplices(s)
        bp = vertex_ref(s, Kbase.basepoint)
        rest = sorted(r for r in simps if r != bp)
        orders.append({r: i + 1 for i, r in enumerate(rest)} | {bp: 0})
        sizes.append(len(rest))
        if len(rest) > X.K:
            raise ValueError(
                f"argument has {len(rest)} non-basepoint simplices in "
                f"dimension {s}; bound is {X.K}")

    def op_map(s, t, op):
        """Based map (sizes[s])+ -> (sizes[t])+ induced by a simplex operator."""
        inv = {i: r for r, i in orders[s].items()}
        return tuple(orders[t][op(inv[i])] for i in range(1, sizes[s] + 1))

    cells = [
        [(s, r) for r in X.values[sizes[s]].all_simplices(s)]
        for s in range(dim_bound + 1)
    ]

    def faces_fn(s, raw):
        _, ref = raw
        row = []
        for i in range(s + 1):
            phi = op_map(s, s - 1, lambda r: Kbase.d(i, r))
            f = X.act(phi, sizes[s], sizes[s - 1])
            row.append((s - 1, X.values[sizes[s - 1]].d(i, f(ref))))
        return tuple(row)

    def deg_fn(s, raw, i):
        _, ref = raw
        phi = op_map(s, s + 1, lambda r: apply_s(i, r))
        f = X.act(phi, sizes[s], sizes[s + 1])
        return (s + 1, apply_s(i, f(ref)))

    bp0 = (0, nd_ref(0, X.values[sizes[0]].basepoint))
    tab = normalize_table(cells, faces_fn, deg_fn, dim_bound, based_raw=bp0)
    return tab.sset


def representable(k, K):
    """The discrete functor of based maps out of k+, up to the bound K."""
    from ispaces.gamma import GammaSpaceT
    from ispaces.simplicial import SMap, discrete, nd_ref

    if k > K:
        raise ValueError("representing object exceeds the bound")
    index = [{m: i for i, m in enumerate(based_maps(k, l))} for l in range(K + 1)]
    values = [discrete(len(idx), basepoint=idx[(0,) * k]) for idx in index]

    def act_fn(phi, a, b):
        return SMap(values[a], values[b], {(0, i): nd_ref(0, index[b][compose_based(phi, m)])
                                           for m, i in index[a].items()})

    return GammaSpaceT(K, values, act_fn)


def is_grouplike(A):
    """True iff every component class of the monoid is a unit."""
    from ispaces.cmon import pi0_monoid, unit_verdicts

    pres, class_vec = pi0_monoid(A)
    verdict = unit_verdicts(pres, vectors=sorted(set(class_vec.values())))
    return all(verdict.is_unit(v) for v in class_vec.values())


def rank_mod_p(mat, p, bound=None):
    """Rank over Z/p of a `zlinalg.ColumnMatrix`, read through its source:
    each column is reduced mod p against the earlier ones by its largest row
    (textbook persistence-style elimination), and a nonzero remainder is a
    new pivot.  The reading stops once `bound` pivots are found, a bound that
    the caller knows the rank cannot pass."""
    pivots = {}
    for _, col in mat.source():
        if len(pivots) == bound:
            break
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            r = max(col)
            pivot = pivots.get(r)
            if pivot is None:
                inverse = pow(col[r], -1, p)
                pivots[r] = {s: v * inverse % p for s, v in col.items()}
                break
            f = col[r]
            for s, v in pivot.items():
                nv = (col.get(s, 0) - f * v) % p
                if nv:
                    col[s] = nv
                else:
                    col.pop(s, None)
    return len(pivots)


def homology_mod_p(X, p, d_report):
    """{k: dim H_k(X; Z/p)} for k <= d_report, from the normalized chains of
    `simplicial.chain_complex` through degree d_report + 1, by `rank_mod_p`.
    Since d_{k-1} d_k = 0, the rank of d_k is at most the dimension of the
    kernel of d_{k-1}, so each elimination stops there."""
    from ispaces.simplicial import chain_complex

    cx = chain_complex(X, top=min(d_report + 1, X.top_dim))
    ranks = [0]
    for k in range(1, len(cx.counts)):
        ranks.append(rank_mod_p(cx.boundaries[k], p, cx.counts[k - 1] - ranks[-1]))
    ranks.append(0)
    return {k: cx.counts[k] - ranks[k] - ranks[k + 1] for k in range(d_report + 1)}


def _dot(phi, vec):
    return sum(a * b for a, b in zip(phi, vec))



def _rewrites_of(u, relations, steps):
    """Every vector that u rewrites to within `steps` steps, a step replacing
    one side of a relation by the other inside an exponent vector."""
    seen = {u}
    frontier = [u]
    for _ in range(steps):
        new = []
        for w in frontier:
            for a, b in relations:
                for src, dst in ((a, b), (b, a)):
                    if all(x >= y for x, y in zip(w, src)):
                        w2 = tuple(x - y + z for x, y, z in zip(w, src, dst))
                        if w2 not in seen:
                            seen.add(w2)
                            new.append(w2)
        frontier = new
    return seen


def bounded_congruence(u, v, relations, steps=6):
    """True if u rewrites to v within `steps` steps of `_rewrites_of`: the
    bounded breadth-first search with which the library once pruned its
    presentations.  True is a derivation; False settles nothing."""
    return v in _rewrites_of(u, relations, steps)


def bounded_unit_search(relations, g, vectors, bound=4, cap=3):
    """Unit status of each vector of N^g / relations by two bounded searches,
    the search the library once used: "unit" if some word w of at most
    `bound` letters has vec + w rewrite to 0 within bound + 2 steps;
    "non-unit" if some grading with values in 0..cap is constant on every
    relation and positive on vec; "unknown" if neither search settles it.
    Each settled answer is sound; the searches are incomplete.  Steps are
    reversible, so the first search reads the vectors that 0 rewrites to."""
    near_zero = _rewrites_of((0,) * g, relations, bound + 2)
    gradings = [phi for phi in product(range(cap + 1), repeat=g)
                if any(phi) and all(_dot(phi, u) == _dot(phi, v) for u, v in relations)]
    out = {}
    for vec in vectors:
        if any(all(a >= b for a, b in zip(z, vec)) and sum(z) - sum(vec) <= bound
               for z in near_zero):
            out[vec] = "unit"
        elif any(_dot(phi, vec) > 0 for phi in gradings):
            out[vec] = "non-unit"
        else:
            out[vec] = "unknown"
    return out
