"""Truncated diagram spaces over the injection category.

An ISpaceT assigns a finite simplicial set to every level 0..N and a
structure map to every injection between levels.  The module provides the
standard constructors (free, power, constant), the box product as an
explicit colimit over decomposition categories with union-find canonical
representatives, homotopy colimits over the injection category and over
its subset-inclusion subcategory (nerves of categories of elements for
diagrams of sets, Bousfield-Kan diagonals otherwise), flatness
certificates, the level-shift functor R with its comparison map,
and the semistability diagnostic.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, product as iproduct, repeat
from math import prod
from operator import itemgetter, not_
from typing import Callable, Optional

from . import icat
from .icat import (CodedI, Injection, coded_category, coded_injections, compose, concat,
                   identity, injections, subset_inclusion)
from .simplicial import (
    Chains,
    FaceRows,
    LazyDict,
    NormTable,
    SMap,
    SSet,
    apply_s,
    discrete,
    identity_map,
    map_cone_homology,
    map_from_tables,
    nd_ref,
    nerve,
    normalize_table,
    pi0,
    subcomplex_closed,
    validate_sset,
    vertex_ref,
)
from .util import least_roots


@dataclass
class ISpaceT:
    """Functor from the truncated injection category to simplicial sets."""

    N: int
    levels: tuple  # SSet per level 0..N
    maps: dict  # Injection -> SMap

    def level(self, n):
        return self.levels[n]

    def act(self, alpha):
        return self.maps[alpha]

    def is_based(self):
        return all(X.basepoint is not None for X in self.levels)

    def validate(self):
        """Functoriality and well-formedness diagnostics."""
        bad = []
        arrows = injections(self.N)
        for n in range(self.N + 1):
            bad += [f"level {n}: {msg}" for msg in validate_sset(self.levels[n])]
        for alpha in arrows:
            f = self.act(alpha)
            if f.src is not self.levels[alpha.src] or f.dst is not self.levels[alpha.dst]:
                if f.src != self.levels[alpha.src] or f.dst != self.levels[alpha.dst]:
                    bad.append(f"map at {alpha} has wrong endpoints")
                    continue
            bad += [f"map at {alpha}: {msg}" for msg in f.validate()]
        if bad:
            return bad
        for n in range(self.N + 1):
            f = self.act(identity(n))
            for k in range(self.levels[n].top_dim + 1):
                for x in range(self.levels[n].card[k]):
                    if f(nd_ref(k, x)) != nd_ref(k, x):
                        bad.append(f"identity at level {n} does not act trivially")
        for beta in arrows:
            for alpha in arrows:
                if alpha.dst != beta.src:
                    continue
                lhs = self.act(compose(beta, alpha))
                g, f = self.act(beta), self.act(alpha)
                if any(lhs.table[key] != g(f.table[key]) for key in f.src.nondeg_keys()):
                    bad.append(f"functoriality fails at {beta} after {alpha}")
        if self.is_based():
            for alpha in arrows:
                f = self.act(alpha)
                _, _, img = f(nd_ref(0, self.levels[alpha.src].basepoint))
                if img != self.levels[alpha.dst].basepoint:
                    bad.append(f"basepoint not preserved by {alpha}")
        return bad


def restrict(X, N1):
    """Truncate to a smaller bound."""
    if N1 > X.N:
        raise ValueError("cannot extend a truncation")
    maps = {a: f for a, f in X.maps.items() if a.dst <= N1}
    return ISpaceT(N1, X.levels[: N1 + 1], maps)


def _discrete_ispace(N, points, act_point, basepoints=None):
    """ISpaceT with discrete levels from a point-level action function."""
    levels = tuple(
        discrete(len(points[n]), basepoint=None if basepoints is None else basepoints[n])
        for n in range(N + 1)
    )
    index = [{p: i for i, p in enumerate(points[n])} for n in range(N + 1)]
    maps = {}
    for alpha in injections(N):
        table = {
            (0, i): nd_ref(0, index[alpha.dst][act_point(alpha, p)])
            for i, p in enumerate(points[alpha.src])
        }
        maps[alpha] = SMap(levels[alpha.src], levels[alpha.dst], table)
    return ISpaceT(N, levels, maps)


def terminal_ispace(N, based=False):
    """The monoidal unit: one point in every level."""
    return _discrete_ispace(
        N,
        [[()] for _ in range(N + 1)],
        lambda alpha, p: (),
        basepoints=[0] * (N + 1) if based else None,
    )


def free_ispace(n, N):
    """F_n: level k is the discrete set of injections n -> k."""
    if n > N:
        raise ValueError("generator level exceeds the truncation")
    points = [icat.enumerate_injections(n, k) for k in range(N + 1)]
    return _discrete_ispace(N, points, lambda alpha, f: compose(alpha, f))


def constant_ispace(V, N):
    """Constant diagram at a fixed simplicial set; every map the identity."""
    ident = identity_map(V)
    maps = {alpha: ident for alpha in injections(N)}
    return ISpaceT(N, tuple(V for _ in range(N + 1)), maps)


def collapsing_ispace(N):
    """Level 1 has two points that every later structure map merges.

    The canonical non-flat example: X(1) -> X(2) is not injective.
    """
    points = [[0] if n != 1 else [0, 1] for n in range(N + 1)]

    def act_point(alpha, p):
        # only the identity of level 1 keeps the two points apart
        return p if alpha.src == alpha.dst == 1 else 0

    return _discrete_ispace(N, points, act_point)


def power_ispace(K, N):
    """K^bullet: level n is the n-fold product of a based simplicial set.

    Injections act by routing coordinate i to slot alpha(i) and filling the
    remaining slots with the basepoint.
    """
    if K.basepoint is None:
        raise ValueError("power construction needs a based simplicial set")
    tables = []
    for n in range(N + 1):
        top = n * K.top_dim
        cells = [
            [tup for tup in iproduct(*[K.all_simplices(k)] * n)]
            for k in range(top + 1)
        ]

        def faces_fn(k, raw):
            return tuple(tuple(K.d(i, r) for r in raw) for i in range(k + 1))

        def deg_fn(k, raw, i):
            return tuple(apply_s(i, r) for r in raw)

        bp = tuple(nd_ref(0, K.basepoint) for _ in range(n))
        tables.append(
            normalize_table(cells, faces_fn, deg_fn, top,
                            complete=K.complete, based_raw=bp)
        )
    levels = tuple(t.sset for t in tables)
    maps = {}
    for alpha in injections(N):
        src_t, dst_t = tables[alpha.src], tables[alpha.dst]

        def push(k, raw, alpha=alpha):
            out = [vertex_ref(k, K.basepoint)] * alpha.dst
            for i, r in enumerate(raw):
                out[alpha(i + 1) - 1] = r
            return tuple(out)

        maps[alpha] = map_from_tables(src_t, dst_t, push)
    return ISpaceT(N, levels, maps)


# ---------------------------------------------------------------------------
# Box products.
# ---------------------------------------------------------------------------

def _compositions(total_max, parts):
    """All tuples of `parts` nonnegative ints with sum <= total_max."""
    if parts == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _compositions(total_max - first, parts - 1):
            yield (first,) + rest


def _box_classes(factors, n, dim, total_max):
    """Canonical representatives of the raw dim-cells of the box colimit of
    `factors` at n: raw cell -> the least cell of its class.

    A raw cell is (nvec, image, xs): nvec has sum at most total_max, image is
    that of an injection sum(nvec) -> n, and xs[i] is a dim-simplex of
    factors[i] at level nvec[i].  Cells are coded by position, objects
    (nvec, image) in lexicographic order and xs by its mixed-radix index over
    each slot's sorted simplices, so the least code of a class
    (`least_roots`) is its least cell.  Cells are joined along generating
    morphisms of the decomposition category, in one slot at a time: the
    standard inclusion q - 1 -> q and the adjacent transpositions of q.
    Every injection is a permutation after a standard inclusion, so these
    generate the same relation as all morphisms do.  Each generator moves
    the positions of a factor level once (`moves`).
    """
    simp = [[f.level(q).all_simplices(dim) for q in range(total_max + 1)] for f in factors]
    offset, cells = {}, []
    for nvec in _compositions(total_max, len(factors)):
        for a in icat.enumerate_injections(sum(nvec), n):
            offset[nvec, a.image] = len(cells)
            xss = iproduct(*[simp[i][q] for i, q in enumerate(nvec)])
            cells += [(nvec, a.image, xs) for xs in xss]
    moves = {}  # (factor, q, j) -> position in level q of each image under generator j

    def move(i, q, j):
        key = (id(factors[i]), q, j)
        if key not in moves:
            g = (Injection(q, q, [*range(1, j), j + 1, j, *range(j + 2, q + 1)]) if j
                 else subset_inclusion(q - 1, q))
            act, at = factors[i].act(g), {x: p for p, x in enumerate(simp[i][q])}
            moves[key] = [at[act(x)] for x in simp[i][g.src]]
        return moves[key]

    def joins():
        for (mvec, img), here in offset.items():
            sizes = [len(simp[i][q]) for i, q in enumerate(mvec)]
            start = 0
            for i, q in enumerate(mvec):
                end = start + q
                # (source level, source image, generator j of q: 0 the inclusion, else (j j+1))
                gens = [(q - 1, img[:end - 1] + img[end:], 0)] if q else []
                gens += [(q, img[:p] + (img[p + 1], img[p]) + img[p + 2:], p - start + 1)
                         for p in range(start, end - 1)]
                for q0, src_img, j in gens:
                    src = offset[mvec[:i] + (q0,) + mvec[i + 1:], src_img]
                    yield _moved_pairs(src, here, prod(sizes[:i]), move(i, q, j), sizes[i],
                                       prod(sizes[i + 1:]))
                start = end

    roots = least_roots(len(cells), chain.from_iterable(joins()))
    return dict(zip(cells, map(cells.__getitem__, roots)))


def _moved_pairs(src, dst, outer, moved, width, inner):
    """Code pairs of a map of blocks of cells that moves their middle index:
    the cells (o, p, r) of the block at src, in order, each with its image
    (o, moved[p], r) in the block of middle width `width` at dst."""
    return zip(count(src), [dst + (o * width + t) * inner + r
                            for o in range(outer) for t in moved for r in range(inner)])


def _box_face(factors, raw, i):
    nvec, alpha, xrefs = raw
    return (nvec, alpha, tuple(f.level(m).d(i, r) for f, m, r in zip(factors, nvec, xrefs)))


def _box_deg(raw, i):
    nvec, alpha, xrefs = raw
    return (nvec, alpha, tuple(apply_s(i, r) for r in xrefs))


def _box_table(factors, canon, top, based_raw=None):
    """Normalized level whose raw k-cells are the canonical ones of canon[k]."""
    return normalize_table([sorted(set(c.values())) for c in canon],
                           lambda k, raw: tuple(canon[k - 1][_box_face(factors, raw, i)]
                                                for i in range(k + 1)),
                           lambda k, raw, i: canon[k + 1][_box_deg(raw, i)],
                           top, based_raw=based_raw)


@dataclass
class BoxISpace:
    """An I-space whose levels are colimits of raw cells (nvec, image, xs).

    Box products and bar constructions share this record.  At
    level n, dimension k, a raw cell has an injection sum(nvec) -> n with the
    given image and xs a k-simplex per block; canon[n][k] sends it to its
    class's canonical representative, and tables[n] numbers those.
    deg(raw, j) is s_j on a raw cell.
    """

    space: ISpaceT
    tables: list  # NormTable per level
    canon: list  # per level, per dim: dict raw -> canonical raw
    factors: tuple
    deg: Callable

    def ref(self, n, dim, raw):
        """The simplex of level n that a raw dim-cell stands for."""
        return self.tables[n].ref_of[self.canon[n][dim][raw]]

    def raw(self, n, ref):
        """Raw cell of a possibly-degenerate simplex of level n: the base
        simplex's, with the degeneracies of ref applied one at a time."""
        degs, base_dim, base_id = ref
        raw = self.tables[n].raw_of[base_dim][base_id]
        for j in reversed(degs):
            raw = self.deg(raw, j)
        return raw


def _box_space(tables, canon, factors, deg=_box_deg):
    """The record of levelwise colimits with raw cells (nvec, image, xs).

    tables[n] is the normalized level n and canon[n][k] its dictionary of
    canonical raw k-cells; an injection alpha acts by postcomposition on the
    decomposition injection.
    """
    N = len(tables) - 1
    levels = tuple(t.sset for t in tables)
    maps = {}
    for alpha in injections(N):
        dst, dst_canon = tables[alpha.dst], canon[alpha.dst]
        table = {(k, x): dst.ref_of[dst_canon[k][(nvec, tuple(map(alpha, a_img)), xs)]]
                 for k, raws in enumerate(tables[alpha.src].raw_of)
                 for x, (nvec, a_img, xs) in enumerate(raws)}
        maps[alpha] = SMap(levels[alpha.src], levels[alpha.dst], table)
    return BoxISpace(ISpaceT(N, levels, maps), tables, canon, tuple(factors), deg)


def box_multi(factors, dim_bound, based=False):
    """Multi-factor box product as an explicit colimit, levelwise.

    Each level n is the colimit over decompositions (nvec, alpha) of the
    product of the factor levels (see `_box_classes`); the canonical
    representative of a class is its lexicographically smallest raw cell.
    """
    k_factors = len(factors)
    N = min(f.N for f in factors)
    if k_factors == 1:
        return _box_single(factors[0], dim_bound)
    tables, canon = [], []
    for n in range(N + 1):
        cn = [_box_classes(factors, n, dim, n) for dim in range(dim_bound + 1)]
        based_raw = None
        if based:
            xs0 = tuple(nd_ref(0, f.level(0).basepoint) for f in factors)
            based_raw = cn[0][((0,) * k_factors, (), xs0)]
        tables.append(_box_table(factors, cn, dim_bound, based_raw))
        canon.append(cn)
    return _box_space(tables, canon, factors)


def _box_single(X, dim_bound):
    """One-factor box product: canonically the I-space itself.

    The class of ((m,), alpha, (x,)) is X(alpha)(x); representatives live at
    the identity decomposition, so the colimit is X(n) on the nose.
    """
    tables, canon = [], []
    for n in range(X.N + 1):
        cn = []
        ref_of = {}
        for dim in range(dim_bound + 1):
            cdict = {}
            for m in range(n + 1):
                for a in icat.enumerate_injections(m, n):
                    for x in X.level(m).all_simplices(dim):
                        img = X.act(a)(x)
                        raw = ((m,), a.image, (x,))
                        key = ((n,), identity(n).image, (img,))
                        cdict[raw] = key
                        ref_of[key] = img
            cn.append(cdict)
        raw_of = [[((n,), identity(n).image, (nd_ref(k, x),)) for x in range(card)]
                  for k, card in enumerate(X.level(n).card)]
        tables.append(NormTable(X.level(n), ref_of, raw_of))
        canon.append(cn)
    return BoxISpace(X, tables, canon, (X,), _box_deg)


def rho(BXY):
    """The comparison box(X, Y) -> X x Y, as its two projections per level.

    A map into a product is simplicial exactly when both of its components
    are, so level n gives the pair of maps box(X, Y)(n) -> X(n) and
    box(X, Y)(n) -> Y(n); each pushes a raw cell (nvec, image, (rx, ry))
    along the decomposition injection restricted to that factor's block.
    """
    X, Y = BXY.factors
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


# ---------------------------------------------------------------------------
# Homotopy colimits.
# ---------------------------------------------------------------------------

def _chain_cells(X, S, arrows):
    """Raw cells of the simplicial replacement diagonal, dims 0..S.

    A raw s-cell is the flat tuple (m_0, a_1, ..., a_s, x): the head level,
    codes a_i: m_i -> m_{i-1} from the sorted codes `arrows` of
    `icat.coded_injections(X.N)`, and x an s-simplex of X(m_s)
    (`_tail_level`).  Its length s + 2 keeps the dimensions apart.  Codes
    run in (src, dst, image) order, so each target's bucket runs by source.
    """
    I = coded_injections(X.N)
    into = [[] for _ in range(X.N + 1)]
    for a in arrows:
        into[I.dst[a]].append((I.src[a], a))
    chains = [[((m,), m) for m in range(X.N + 1)]]
    for _ in range(S):
        chains.append([(ch + (a,), m) for ch, n in chains[-1] for m, a in into[n]])
    simp = [[X.level(m).all_simplices(s) for m in range(X.N + 1)] for s in range(S + 1)]
    return [[ch + (x,) for ch, m in chains[s] for x in simp[s][m]] for s in range(S + 1)]


def _tail_level(I, raw):
    """The level m_s of a raw chain cell (m_0, a_1, ..., a_s, x), on the codes of I."""
    return I.src[raw[-2]] if len(raw) > 2 else raw[0]


def _hocolim_faces(X):
    """Row kernel of the homotopy colimit of X: raw s-cell -> (d_0, ..., d_s).

    d_0 drops the head, d_i for 0 < i < s composes arrows i and i + 1 on
    their codes (`after`), and d_s drops the last arrow.  One memo lives as
    long as the kernel, which is built once per construction:
    (a_s, x) -> (d_0 x, ..., d_{s-1} x, d_s(X(a_s) x)).
    """
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


def _hocolim_deg(I, raw, i):
    """s_i of a raw chain cell: repeat level i, inserting the code of its identity."""
    m = I.src[raw[i]] if i else raw[0]
    return raw[:i + 1] + (I.ident[m],) + raw[i + 1:-1] + (apply_s(i, raw[-1]),)


def _elements(X, arrows):
    """The category of elements of a diagram of sets X over the sorted codes
    `arrows` of injections, coded.

    Objects are the pairs (m, p) of a level and a vertex of X(m); (a, p):
    (m, p) -> (n, X(a)p) is named by the code a of an injection, and (b, q)
    after (a, p) is (after[b][a], p), composed on the codes of I."""
    I = coded_injections(X.N)
    moved = {a: [X.act(I.morphisms[a])(nd_ref(0, p))[2] for p in range(X.level(I.src[a]).card[0])]
             for a in arrows}
    objects = [(m, p) for m in range(X.N + 1) for p in range(X.level(m).card[0])]
    return coded_category(objects, [(a, p) for a in arrows for p in range(len(moved[a]))],
                          lambda f: ((I.src[f[0]], f[1]), (I.dst[f[0]], moved[f[0]][f[1]])),
                          lambda o: (I.ident[o[0]], o[1]),
                          lambda g, f: (I.after[g[0]][f[0]], f[1]))


def _cell_point(tab, k, raw):
    """(m, x): the simplex x of X(m) that a raw k-cell of a homotopy colimit
    carries: x of a chain (m_0, a_1, ..., a_s, x) of injection codes, at level
    m_s, or the vertex p of the first object (m, p) of a chain of elements,
    the source (`src`) of its first morphism."""
    C = tab.cat
    if isinstance(C, CodedI):
        return _tail_level(C, raw), raw[-1]
    m, p = C.objects[C.src[raw[0]] if k else raw]
    return m, nd_ref(0, p)


def _coded_chains(X, S, arrows):
    """The Bousfield-Kan diagonal of X through dimension S on chains of the
    injection codes `arrows` (`_chain_cells`), with `cat` the coded injections."""
    I, faces = coded_injections(X.N), _hocolim_faces(X)
    tab = normalize_table(_chain_cells(X, S, arrows), lambda k, raw: faces(raw),
                          lambda k, raw, i: _hocolim_deg(I, raw, i), S)
    tab.cat = I
    return tab


def _hocolim(X, S, arrows, based):
    """The homotopy colimit of X over the sorted injection codes `arrows` (the
    morphisms of its index category), through dimension S: for a diagram of
    sets the nerve of its category of elements (Thomason), the opposite of
    `_coded_chains` (face i is its face s - i) with the same cells and
    homology, in an order where SNF meets its pivots early; else that."""
    if any(n for L in X.levels for n in L.card[1:]):
        tab = _coded_chains(X, S, arrows)
    else:
        tab = nerve(_elements(X, arrows), S)
    return _based_quotient(X, tab) if based else tab


def _pushed_ref(push, refs, raw):
    """The ref of a raw cell in a quotient, for a `LazyDict` of them."""
    return push(refs[raw])


def _moved_ref(sub, ref):
    """The ref that a ref moves to in the quotient by the sorted collapsed ids sub[k]: the
    degenerate basepoint, or its id less the collapsed ids below it (vertex 0 is the basepoint)."""
    degs, base_dim, base_id = ref
    ids = sub[base_dim]
    i = bisect_left(ids, base_id)
    if i < len(ids) and ids[i] == base_id:
        return vertex_ref(len(degs) + base_dim, 0)
    return (degs, base_dim, base_id - i + (base_dim == 0))


def _pushed_row(push, row_fn, raw):
    """The row of a kept raw cell in a quotient: its unquotiented row, pushed."""
    return tuple(map(push, row_fn(raw)))


def _based_quotient(X, tab):
    """Collapse the copy of the index nerve sitting under the basepoints, the
    cells whose simplex (`_cell_point`) is one: on a nerve of elements, the cells whose first
    object is a basepoint.  They are closed under faces once their edges are (every morphism
    out of a basepoint object ends at one).  The basepoint is the last collapsed vertex.  A
    nerve's top is flagged per prefix and kept as the `Chains` of the other prefixes.  New ids
    come from the sorted collapsed ids (`_moved_ref`), rows from the kept raw cells."""
    if not X.is_based():
        raise ValueError("based homotopy colimit needs a based diagram")
    C = tab.cat
    if isinstance(C, CodedI):
        def flags(k, raws):
            points = (_cell_point(tab, k, raw) for raw in raws)
            return bytes(base_dim == 0 and base_id == X.level(m).basepoint
                         for m, (_, base_dim, base_id) in points)
    else:
        at_bp, src = [p == X.level(m).basepoint for m, p in C.objects], C.src

        def flags(k, raws):
            if k > 1 and isinstance(raws, Chains):  # a nerve's top: one flag per prefix
                firsts = (at_bp[src[p[0]]] for p in raws.prefixes)
                return bytes(chain.from_iterable(map(repeat, firsts, map(len, raws.ext))))
            objects = map(src.__getitem__, map(itemgetter(0), raws)) if k else raws
            return bytes(map(at_bp.__getitem__, objects))
    sub, raw_of = [], []
    for k, raws in enumerate(tab.raw_of):  # a byte per cell, one dimension at a time, for the peak
        fl = flags(k, raws)
        sub.append(list(compress(count(), fl)))
        raw_of.append(list(compress(raws, map(not_, fl))) if k < 2 or not isinstance(raws, Chains)
                      else raws.where(lambda p: not at_bp[src[p[0]]]))
    if not subcomplex_closed(tab.sset, {k: set(ids) for k, ids in enumerate(sub[:2])}):
        raise ValueError("the diagram moves a basepoint off the basepoints")
    raw_of[0].insert(0, tab.raw_of[0][sub[0][-1]])
    push = LazyDict(partial(_moved_ref, sub)).__getitem__  # each ref once, shared by its rows
    face = [[]] + [FaceRows(raws, partial(_pushed_row, push, rows.row_fn))
                   for raws, rows in zip(raw_of[1:], tab.sset.face[1:])]
    Q = SSet(tuple(map(len, raw_of)), tuple(face), complete=tab.sset.complete, basepoint=0)
    return NormTable(Q, LazyDict(partial(_pushed_ref, push, tab.ref_of)), raw_of, tab.cat)


def hocolim_I(X, S, based=False):
    """Homotopy colimit over the truncated injection category: for a diagram of
    sets the nerve of its category of elements, else the Bousfield-Kan
    diagonal on chains of injection codes (`_hocolim`), over every code."""
    return _hocolim(X, S, range(len(injections(X.N))), based)


def hocolim_N(X, S, based=False):
    """Homotopy colimit over 0 < 1 < ... < N: the kernel of `hocolim_I` over
    the codes of the standard inclusions alone."""
    code = coded_injections(X.N).code
    return _hocolim(X, S, sorted(code[subset_inclusion(m, n)]
                                 for n in range(X.N + 1) for m in range(n + 1)), based)


def hocolim_map(ts, td, point):
    """The map of homotopy colimits that keeps the arrows of each cell and sends
    the simplex x of X(m) that it carries to point(m, x), natural in m: a level
    natural transformation, or the identity from the colimit over 0 < ... < N
    to the one over all injections.  Both tables come from one path of
    `_hocolim`; on categories of elements it is the functor (a, p) -> (a, point(m, p))."""
    C = ts.cat
    if type(C) is not type(td.cat):
        raise ValueError("the two homotopy colimits are built on different paths")
    if isinstance(C, CodedI):
        return map_from_tables(ts, td, lambda k, r: r[:-1] + (point(*_cell_point(ts, k, r)),))
    code = {f: i for i, f in enumerate(td.cat.morphisms)}
    mor = LazyDict(lambda f: code[(C.morphisms[f][0], point(*_cell_point(ts, 1, (f,)))[2])])
    return map_from_tables(ts, td, lambda k, raw: tuple(map(mor.__getitem__, raw)) if k
                           else td.cat.src[mor[C.ident[raw]]])


# ---------------------------------------------------------------------------
# Flatness.
# ---------------------------------------------------------------------------

@dataclass
class FlatCertificate:
    """Verdict plus a replayable witness when flatness fails."""

    flat: bool
    witness: Optional[dict] = None

    def replay(self, X):
        """Re-run the cited check; True iff the violation reproduces."""
        if self.flat:
            return True
        w = self.witness
        if w["kind"] == "non-injective":
            alpha = Injection(*w["alpha"])
            f = X.act(alpha)
            return f(w["pair"][0]) == f(w["pair"][1])
        l, m, n = w["triple"]
        inter, middle = _flat_images(X, l, m, n, w["dim"])
        return inter != middle


def _flat_images(X, l, m, n, dim):
    total = l + m + n
    first = X.act(subset_inclusion(l + m, total))
    last = X.act(Injection(m + n, total, range(l + 1, total + 1)))
    middle = X.act(Injection(m, total, range(l + 1, l + m + 1)))
    im1 = {first(r) for r in X.level(l + m).all_simplices(dim)}
    im2 = {last(r) for r in X.level(m + n).all_simplices(dim)}
    im3 = {middle(r) for r in X.level(m).all_simplices(dim)}
    return im1 & im2, im3


def is_flat(X):
    """Injectivity of all structure maps plus the image-intersection test."""
    for alpha in injections(X.N):
        f = X.act(alpha)
        for k in range(X.level(alpha.src).top_dim + 1):
            seen = {}
            for ref in X.level(alpha.src).all_simplices(k):
                img = f(ref)
                if img in seen:
                    return FlatCertificate(False, {
                        "kind": "non-injective",
                        "alpha": (alpha.src, alpha.dst, alpha.image),
                        "pair": (seen[img], ref),
                    })
                seen[img] = ref
    for l in range(1, X.N + 1):
        for m in range(X.N + 1 - l):
            for n in range(1, X.N + 1 - l - m):
                top = X.level(l + m + n).top_dim
                for dim in range(top + 1):
                    inter, middle = _flat_images(X, l, m, n, dim)
                    if inter != middle:
                        return FlatCertificate(False, {
                            "kind": "intersection",
                            "triple": (l, m, n),
                            "dim": dim,
                        })
    return FlatCertificate(True)


# ---------------------------------------------------------------------------
# The level-shift functor R and semistability.
# ---------------------------------------------------------------------------

def R_functor(X):
    """RX(n) = X(1 + n) at truncation N - 1, with the comparison map j_X.

    Returns (RX, j) where j is a dict n -> SMap X(n) -> RX(n) induced by the
    injections n -> 1 + n missing the first element.
    """
    if X.N < 1:
        raise ValueError("level shift needs truncation at least 1")
    N1 = X.N - 1
    levels = tuple(X.level(1 + n) for n in range(N1 + 1))
    maps = {}
    for alpha in injections(N1):
        maps[alpha] = X.act(concat(identity(1), alpha))
    RX = ISpaceT(N1, levels, maps)
    j = {}
    for n in range(N1 + 1):
        shift = Injection(n, 1 + n, range(2, n + 2))
        j[n] = X.act(shift)
    return RX, j


@dataclass
class SemistabilityVerdict:
    verdict: str  # evidence-for | refuted | inconclusive
    witness: Optional[dict] = None
    detail: dict = field(default_factory=dict)


def _pi0_map_bijective(f):
    src_reps = pi0(f.src)
    dst_reps = pi0(f.dst)
    image = {}
    for v in range(f.src.card[0]):
        _, _, img = f(nd_ref(0, v))
        image[src_reps[v]] = dst_reps[img]
    n_src = len(set(src_reps.values()))
    n_dst = len(set(dst_reps.values()))
    injective = len(set(image.values())) == n_src
    surjective = len(set(image.values())) == n_dst
    return injective and surjective, n_src, n_dst


def _semistability_run(X, D):
    """Single-truncation checks; returns list of (name, passed, data)."""
    S = D + 2
    RX, j = R_functor(X)
    results = []
    for name, keys, f in (
            ("N-vs-I", ("pi0_N", "pi0_I"),
             hocolim_map(hocolim_N(X, S), hocolim_I(X, S), lambda m, x: x)),
            ("jX", ("pi0_src", "pi0_dst"),
             hocolim_map(hocolim_N(restrict(X, X.N - 1), S), hocolim_N(RX, S),
                         lambda m, x: j[m](x)))):
        ok, a, b = _pi0_map_bijective(f)
        results.append((f"pi0-{name}", ok, dict(zip(keys, (a, b)))))
        cone = map_cone_homology(f, D + 1)
        hom_ok = all(cone.get(k, (0, ())) == (0, ()) for k in range(D + 2))
        results.append((f"homology-{name}", hom_ok, {"cone": dict(cone)}))
    return results


def semistability_diagnostic(X, D=1):
    """Three-valued verdict from two successive truncations.

    Refuted when the same named check fails at both truncations; evidence-for
    when everything passes at both; inconclusive otherwise.  Truncated
    computation can never certify semistability.
    """
    if X.N < 2:
        return SemistabilityVerdict("inconclusive",
                                    detail={"reason": "need truncation >= 2"})
    res_hi = _semistability_run(X, D)
    res_lo = _semistability_run(restrict(X, X.N - 1), D)
    detail = {"at_N": res_hi, "at_N_minus_1": res_lo}
    lo = dict((name, ok) for name, ok, _ in res_lo)
    for name, ok, data in res_hi:
        if not ok and lo.get(name) is False:
            return SemistabilityVerdict(
                "refuted", witness={"check": name, "data": data}, detail=detail)
    if all(ok for _, ok, _ in res_hi) and all(ok for _, ok, _ in res_lo):
        return SemistabilityVerdict("evidence-for", detail=detail)
    return SemistabilityVerdict("inconclusive", detail=detail)
