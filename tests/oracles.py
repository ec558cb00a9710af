"""Independent oracles used to freeze expected values in the test suite.

Everything here is deliberately primitive: brute-force enumeration and
textbook chain complexes, sharing as little code as possible with the
library under test.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product


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
    from itertools import combinations
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


def group_homology(elements, mul, unit, top):
    """Integral group homology H_k for k <= top via the bar complex.

    C_k = Z[G^k]; the boundary alternates multiplying adjacent entries and
    dropping the ends.  Returns dict k -> (rank, sorted torsion list).
    """
    import sys
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
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
    from itertools import combinations
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


def hocolim_reference(X, S, arrows_of, based):
    """The homotopy colimit of X through dimension S on nested raw cells.

    A raw s-cell is (levels, arrows, x): levels m_0 >= ... >= m_s, arrows[i]
    the image tuple of an injection m_{i+1} -> m_i taken from arrows_of, and
    x an s-simplex of X(m_s).  Faces come one at a time from
    `hocolim_face_reference`, and s_i repeats level i with its identity.
    The based form collapses the cells over the basepoints and keeps an
    eager dictionary of refs.  Returns a `NormTable`.
    """
    from ispaces.simplicial import NormTable, apply_s, nd_ref, normalize_table, quotient

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


def refs_by_lookup(tab, cells):
    """{raw: ref} of every raw cell of `cells`, each looked up in tab.ref_of.
    A lookup makes the refs that `simplicial.TopRefs` makes on demand, so
    afterwards dict(tab.ref_of) holds these and no more when ref_of holds
    only cells of `cells`."""
    return {raw: tab.ref_of[raw] for level in cells for raw in level}


def decode_chain(N, raw):
    """A coded raw chain cell (m_0, a_1, ..., a_s, x) of the homotopy colimit
    at truncation N as the nested cell (levels, arrows, x) of
    `hocolim_reference`, through the injections that the codes name."""
    from ispaces.icat import coded_injections

    arrows = [coded_injections(N).arrow[a] for a in raw[1:-1]]
    return ((raw[0],) + tuple(f.src for f in arrows), tuple(f.image for f in arrows), raw[-1])


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
    arrows = [coded_injections(N).arrow[C.morphisms[f][0]] for f in reversed(raw)]
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
    levels z[0][0] sum to at most `budget`, in the order of the full product."""
    return [t for t in product(*pools) if sum(z[0][0] for z in t) <= budget]


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
    `gamma.is_special` and the projections of `ispace.rho` are checked.  The
    product may be a skeleton, so the pairing is tabulated on the simplices
    of Z of dimension at most `top` only."""
    from ispaces.simplicial import SMap, nd_ref

    table = {}
    for k in range(min(top, f.src.top_dim) + 1):
        for x in range(f.src.card[k]):
            ra, rb = f(nd_ref(k, x)), g(nd_ref(k, x))
            table[(k, x)] = normalize_pair_ref(prod, ra, rb)
    return SMap(f.src, prod.sset, table)


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
    """TruncatedI(N) as explicit tables, every composite a checked `compose`."""
    from ispaces.icat import compose, enumerate_injections, identity

    arrows = {f: (m, n) for m in range(N + 1) for n in range(N + 1)
              for f in enumerate_injections(m, n)}
    return _labelled_category(range(N + 1), {n: identity(n) for n in range(N + 1)},
                              arrows, compose)


def comma_under_fincategory(n, N):
    """The comma category under n in TruncatedI(N) as explicit tables, on the
    labels of `icat.comma_under`: objects a: n -> m, morphisms (a, g o a, g)
    for g out of the target of a, composed as checked injections."""
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
        lambda g, f: (I.code[compose(I.arrow[g[0]], I.arrow[f[0]])], f[1]))


def rank_mod_p(mat, p):
    """Rank over Z/p of a `zlinalg.ColumnMatrix`, read through its source:
    each column is reduced mod p against the earlier ones by its largest row
    (textbook persistence-style elimination), and a nonzero remainder is a
    new pivot."""
    pivots = {}
    for _, col in mat.source():
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
    `simplicial.chain_complex` through degree d_report + 1, by `rank_mod_p`."""
    from ispaces.simplicial import chain_complex

    cx = chain_complex(X, top=min(d_report + 1, X.top_dim))
    ranks = [0] + [rank_mod_p(cx.boundaries[k], p) for k in range(1, len(cx.counts))] + [0]
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
