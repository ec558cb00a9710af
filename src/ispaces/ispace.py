"""Truncated diagram spaces over the injection category.

An ISpaceT assigns a finite simplicial set to every level 0..N and a
structure map to every injection between levels.  The module provides the
standard constructors (free, power, constant), the box product as an
explicit colimit over the poset of sorted decompositions with union-find
canonical representatives (other raw cells are resolved on lookup),
homotopy colimits over the injection category and over its
subset-inclusion subcategory (nerves of categories of elements for
diagrams of sets, Bousfield-Kan diagonals otherwise, on the one chain
table by position, `_ChainCodes`, that the bars of `cmon` also read),
flatness certificates, the level-shift functor R with its comparison map,
and the semistability diagnostic.
"""

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from functools import cache, lru_cache, partial
from itertools import accumulate, chain, compress, count, product as iproduct, repeat
from math import prod
from operator import not_
from weakref import proxy

from . import icat
from .icat import (Injection, coded_category, coded_injections, compose, concat, identity,
                   injections, subset_inclusion)
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
    ref_dim,
    validate_sset,
    vertex_ref,
)
from .util import field, least_roots, record


@record
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

def _sorted_blocks(nvec, img):
    """The blocks of an image cut by nvec, and the image that sorts each block."""
    blocks = [img[e - q:e] for q, e in zip(nvec, accumulate(nvec))]
    return blocks, tuple(chain.from_iterable(map(sorted, blocks)))


@lru_cache(maxsize=None)
def _sorted_decompositions(k, n, total_max):
    """The skeleton of the decompositions (nvec, image) of n into k blocks of
    total at most total_max, built once per (k, n, total_max): the objects
    whose image increases on every block, in lexicographic order, each with
    its position, and the arrows (src, dst, i, q, p), the coface delta_p:
    q - 1 -> q (order-preserving, skipping p) in block i, between positions.
    Every object is iso to one of these, and they form a poset, generated by
    adding one element to one block."""
    objects = {obj: t for t, obj in enumerate(
        (nvec, a.image) for nvec in iproduct(range(total_max + 1), repeat=k)
        if sum(nvec) <= total_max for a in icat.enumerate_injections(sum(nvec), n)
        if _sorted_blocks(nvec, a.image)[1] == a.image)}
    arrows = []
    for (mvec, img), dst in objects.items():
        for i, (q, end) in enumerate(zip(mvec, accumulate(mvec))):
            lower = mvec[:i] + (q - 1,) + mvec[i + 1:]
            arrows += [(objects[lower, img[:end - q + p - 1] + img[end - q + p:]], dst, i, q, p)
                       for p in range(1, q + 1)]
    return objects, arrows


class _BoxClasses(dict):
    """Raw cell -> the least cell of its class (`_box_classes`), stored at the
    sorted `objects`.  Any other raw cell is moved on its first lookup to the
    sorted object of its orbit, x_i along the permutation that sorts block i
    through factors[i], and kept; a key that is no raw cell raises KeyError."""

    def __missing__(self, raw):
        nvec, img, xs = raw
        blocks, ordered = _sorted_blocks(nvec, img)
        if ordered == img or len(img) != sum(nvec) or (nvec, ordered) not in self.objects:
            raise KeyError(raw)
        moved = tuple(f.act(Injection(len(b), len(b), [sum(u <= v for u in b) for v in b]))(x)
                      for f, b, x in zip(self.factors, blocks, xs))
        least = self[raw] = dict.__getitem__(self, (nvec, ordered, moved))
        return least


def _box_classes(factors, n, dim, total_max, levels):
    """Canonical representatives of the raw dim-cells of the box colimit of
    `factors` at n: raw cell -> the least cell of its class, a `_BoxClasses`.

    A raw cell is (nvec, image, xs): nvec has sum at most total_max, image is
    that of an injection sum(nvec) -> n, and xs[i] is a dim-simplex of
    factors[i] at level nvec[i].  The colimit is taken over the equivalent
    skeleton of sorted objects (`_sorted_decompositions`), where each class
    has its least cell, since sorting each block of an image makes it the
    least of its orbit.  Cells there are coded by position, objects in
    lexicographic order and xs by its mixed-radix index over each slot's
    sorted simplices, so the least code of a class (`least_roots`) is its
    least cell.  Cells are joined along the cofaces, in one slot at a time,
    and each coface moves the positions of a factor level once (`move`).
    The sorted simplices of a factor level and the moves of a coface are kept
    in `levels`, which one construction passes to all its calls, by factor,
    q, dim (and p), so equal factors and later levels share them.
    """
    objects, arrows = _sorted_decompositions(len(factors), n, total_max)

    def simp(i, q):
        key = (id(factors[i]), q, dim)
        if key not in levels:
            levels[key] = factors[i].level(q).all_simplices(dim)
        return levels[key]

    offset, sizes, cells = [], [], []
    for nvec, img in objects:
        offset.append(len(cells))
        xs = [simp(i, q) for i, q in enumerate(nvec)]
        sizes.append(list(map(len, xs)))
        cells += [(nvec, img, x) for x in iproduct(*xs)]

    def move(i, q, p):  # position in level q of each image under the coface p
        key = (id(factors[i]), q, dim, p)
        if key not in levels:
            act = factors[i].act(Injection(q - 1, q, [*range(1, p), *range(p + 1, q + 1)]))
            at = {x: t for t, x in enumerate(simp(i, q))}
            levels[key] = [at[act(x)] for x in simp(i, q - 1)]
        return levels[key]

    def joins():
        for src, dst, i, q, p in arrows:
            size = sizes[dst]
            yield _moved_pairs(offset[src], offset[dst], prod(size[:i]), move(i, q, p), size[i],
                               prod(size[i + 1:]))

    classes = _BoxClasses(zip(cells, map(cells.__getitem__, least_roots(
        len(cells), chain.from_iterable(joins())))))
    classes.factors, classes.objects = factors, objects
    return classes


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


@record
class BoxISpace:
    """An I-space whose levels are colimits of raw cells (nvec, image, xs).

    Box products and bar constructions share this record and its one
    builder, `_box_space`, whose structure maps push a raw cell on its first
    lookup.  At level n, dimension k, a raw cell has an injection
    sum(nvec) -> n with the given image and xs a k-simplex per block;
    canon[n][k] sends it to its class's canonical representative, and
    tables[n] numbers those.  canon stores only some raw cells (a
    `_BoxClasses` those at sorted objects) and resolves any other on its
    first lookup, so look raw cells up rather than walk its keys.
    deg(raw, j) is s_j on a raw cell.
    """

    space: ISpaceT
    tables: list  # NormTable per level
    canon: list  # per level, per dim: raw -> canonical raw, resolved on lookup
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


def _box_space(N, classes, face, top, deg=_box_deg, base=None):
    """The record of levels 0..N, through dimension top, of a levelwise
    colimit of raw cells (nvec, image, xs).  classes(n, k) is a dict, such
    as a `_BoxClasses`, from each raw k-cell of level n to the least cell of
    its class; face(raw, i) and deg(raw, i) are d_i and s_i on a raw cell,
    and base, when given, is the raw vertex of every basepoint.  An
    injection alpha acts by postcomposition on the decomposition injection;
    its map pushes each raw cell on its first lookup (`map_from_tables`).
    """
    tables, canon = [], []
    for n in range(N + 1):
        cn = [classes(n, k) for k in range(top + 1)]
        tables.append(normalize_table(
            [sorted(set(c.values())) for c in cn],
            lambda k, raw, cn=cn: tuple(cn[k - 1][face(raw, i)] for i in range(k + 1)),
            lambda k, raw, i, cn=cn: cn[k + 1][deg(raw, i)],
            top, based_raw=None if base is None else cn[0][base]))
        canon.append(cn)
    maps = {alpha: map_from_tables(tables[alpha.src], tables[alpha.dst],
                                   partial(_pushed_raw, canon[alpha.dst], alpha))
            for alpha in injections(N)}
    return BoxISpace(ISpaceT(N, tuple(t.sset for t in tables), maps), tables, canon, deg)


def _pushed_raw(canon, alpha, k, raw):
    """The canonical raw k-cell that alpha pushes raw to, for `map_from_tables`."""
    nvec, a_img, xs = raw
    return canon[k][(nvec, tuple(map(alpha, a_img)), xs)]


def box_multi(factors, dim_bound, based=False):
    """Multi-factor box product as an explicit colimit, levelwise.

    Each level n is the colimit over decompositions (nvec, alpha) of the
    product of the factor levels (see `_box_classes`); the canonical
    representative of a class is its lexicographically smallest raw cell.
    """
    if len(factors) == 1:
        return _box_single(factors[0], dim_bound)
    base = ((0,) * len(factors), (), tuple(nd_ref(0, f.level(0).basepoint) for f in factors))
    levels = {}  # the factor levels and cofaces of every call (`_box_classes`)
    return _box_space(min(f.N for f in factors),
                      lambda n, k: _box_classes(factors, n, k, n, levels),
                      partial(_box_face, factors), dim_bound, base=base if based else None)


def _box_single(X, dim_bound):
    """One-factor box product: canonically the I-space itself.

    The class of ((m,), alpha, (x,)) is X(alpha)(x); representatives live at
    the identity decomposition, so the colimit is X(n) on the nose.  Raw
    cells are resolved on their first lookup (`_single_class`).
    """
    tables, canon = [], []
    for n in range(X.N + 1):
        head = ((n,), identity(n).image)
        canon.append([LazyDict(partial(_single_class, X, head, dim))
                      for dim in range(dim_bound + 1)])
        ref_of = {head + ((r,),): r for k in range(dim_bound + 1)
                  for r in X.level(n).all_simplices(k)}
        raw_of = [[head + ((nd_ref(k, x),),) for x in range(card)]
                  for k, card in enumerate(X.level(n).card)]
        tables.append(NormTable(X.level(n), ref_of, raw_of))
    return BoxISpace(X, tables, canon, _box_deg)


def _single_class(X, head, dim, raw):
    """The class head + ((X(alpha)(x),),) of a raw dim-cell ((m,), image, (x,))
    of a one-factor box, at its identity decomposition `head`.  An injection
    is the tuple (src, dst, image), so a key that names none misses."""
    (m,), img, (x,) = raw
    y = X.act((m, head[0][0], img))(x)
    if ref_dim(y) != dim:
        raise KeyError(raw)
    return head + ((y,),)


# ---------------------------------------------------------------------------
# Homotopy colimits.
# ---------------------------------------------------------------------------

def _chain_sum(I, z, w, *x):
    """Block sum of homotopy-colimit chains of equal length, raw carrying x or of arrows alone:
    the head levels add, and so do the arrows i, on their codes in I (`CodedI.plus`)."""
    return (z[0] + w[0],) + tuple(map(I.plus.__getitem__, zip(z[1:len(z) - len(x)], w[1:]))) + x


class _ChainCodes:
    """The raw chains (m_0, a_1, ..., a_k, x) of the homotopy colimit of X
    through dimension K by position, none stored: a_i: m_i -> m_{i-1} is one of
    the sorted codes `arrows` of `icat.coded_injections(X.N)` and x a k-simplex
    of the tail level m_k.  The chains of arrows chains[k] run in lexicographic
    order, chain p of dimension k - 1 then arrow a at first[p] + rank[a], each
    with the simplices of its tail level tails[k][c]: the t-th is code
    off[k][c] + t, and shift[k] codes lie below dimension k.  Over the k-codes
    j, chain(k, j) is the position c of the chain of arrows, heads[k][j] the
    head level (built per k on first read; only the bars read it) and
    faces[k][i][j] and deg[k][i][j] code d_i and s_i of chain j: d_0 drops the
    head, d_i, 0 < i < k, composes arrows i and i + 1 (`after`), d_k drops a_k
    and moves d_k x along it (X(a_k) is simplicial), and s_i repeats level i by
    its identity; a composite or identity outside `arrows` raises KeyError.
    sums(k, c, d) is the position of the block sum of chains of arrows c and d.
    Tables over one N, K and `arrows` list the same chains, whatever X.  For a
    monoid A on X, mul[k][j, l] codes the product (`product`) and unit[k] the unit."""

    def __init__(self, X, K, arrows, A=None):
        I, levels = coded_injections(X.N), range(X.N + 1)
        into = [[a for a in arrows if I.dst[a] == m] for m in levels]
        rank = {a: r for ins in into for r, a in enumerate(ins)}
        simp = self.simp = [[lev.all_simplices(k) for lev in X.levels] for k in range(K + 1)]
        pos = self.pos = [[{x: t for t, x in enumerate(xs)} for xs in level] for level in simp]

        def codes(to, at, keys, dst, fn):  # off[to][at[c]] + the position of fn(key)[t] in
            ts = {key: [pos[to][dst[key]][y] for y in fn(key)] for key in set(keys)}  # dst[key]
            return array("i", [o + t for o, tc in zip(map(off[to].__getitem__, at),
                                                      map(ts.__getitem__, keys)) for t in tc])

        chains, tails = self.chains, self.tails = [[(m,) for m in levels]], [levels]
        off = self.off = [list(accumulate(map(len, simp[0]), initial=0))]
        first, up, face, deg, self.faces, self.deg = None, None, [None], [], [()], []
        for k in range(1, K + 1):  # with the positions of the chains of arrows of d_i and s_i
            f, first = first, list(accumulate((len(into[m]) for m in tails[-1]), initial=0))
            below, up = up, [(p, a) for p, m in enumerate(tails[-1]) for a in into[m]]
            chains.append([chains[-1][p] + (a,) for p, a in up])
            tails.append([I.src[a] for _, a in up])
            off.append(list(accumulate((len(simp[k][m]) for m in tails[k]), initial=0)))
            face = [[f[d[p]] + rank[a] for p, a in up] for d in face[:-1]] + [
                [f[below[p][0]] + rank[I.after[below[p][1]][a]] for p, a in up] if k > 1
                else tails[1], [p for p, _ in up]]
            deg = [[first[d[p]] + rank[a] for p, a in below] for d in deg] + [
                [first[c] + rank[I.ident[m]] for c, m in enumerate(tails[k - 1])]]
            ds = [[[X.level(m).d(i, x) for x in xs] for m, xs in enumerate(simp[k])]
                  for i in range(k + 1)]  # d_i of each simplex of each level, once
            last = codes(k - 1, face[k], [a for _, a in up], I.dst,  # X(a_k) after d_k
                         lambda a: map(X.act(I.morphisms[a]), ds[k][I.src[a]]))
            self.faces.append([codes(k - 1, face[i], tails[k], levels, ds[i].__getitem__)
                               for i in range(k)] + [last])
            self.deg.append([codes(k, deg[i], tails[k - 1], levels, lambda m, i=i: map(
                partial(apply_s, i), simp[k - 1][m])) for i in range(k)])
        self.shift = list(accumulate((o[-1] for o in off), initial=0))
        self.heads = LazyDict(lambda k: tuple(chain.from_iterable(map(repeat, next(zip(
            *chains[k])), map(len, map(simp[k].__getitem__, tails[k]))))))
        self.sums = cache(lambda k, c, d: bisect_left(
            chains[k], _chain_sum(I, chains[k][c], chains[k][d])))
        self.xmul = cache(lambda k, m, n, t, u: pos[k][m + n][
            A.mul(m, n, simp[k][m][t], simp[k][n][u])])
        me = proxy(self)  # memos that held the table would leave it to the collector
        self.mul = [LazyDict(partial(_ChainCodes.product, me, k)) for k in range(K + 1)]
        self.unit = LazyDict(lambda k: me.encode(k, (0,) + (I.ident[0],) * k + (A.unit_ref(k),)))

    def chain(self, k, j):
        """The position in chains[k] of the chain of arrows of k-code j."""
        return bisect_right(self.off[k], j) - 1

    def point(self, k, j):
        """(m, x): the tail level m of k-code j and the simplex x of X(m) that it carries."""
        c = self.chain(k, j)
        return self.tails[k][c], self.simp[k][self.tails[k][c]][j - self.off[k][c]]

    def decode(self, k, j):
        """The raw k-chain (m_0, a_1, ..., a_k, x) of code j."""
        return self.chains[k][self.chain(k, j)] + self.point(k, j)[1:]

    def encode(self, k, raw):
        """The code of a raw k-chain."""
        c = bisect_left(self.chains[k], raw[:-1])
        return self.off[k][c] + self.pos[k][self.tails[k][c]][raw[-1]]

    def product(self, k, jl):
        """Block sum of the arrows of k-codes j and l, with the product of their simplices."""
        off, tails = self.off[k], self.tails[k]
        c, d = (self.chain(k, j) for j in jl)
        return off[self.sums(k, c, d)] + self.xmul(k, tails[c], tails[d],
                                                   jl[0] - off[c], jl[1] - off[d])

    def masks(self, k, unit):
        """ok[j], the bits 1 << i of the i with k-chain j in the image of s_i
        (`deg`), in a bar slot where s_unit inserts the unit k-chain: there bit
        `unit` is the unit chain's alone, and it has every bit."""
        ok = [0] * self.off[k][-1]
        for i in set(range(k)) - {unit}:
            for j in self.deg[k - 1][i]:
                ok[j] |= 1 << i
        if 0 <= unit < k:
            ok[self.unit[k]] = (1 << k) - 1
        return ok

    def bar_faces(self, k, zs):
        """The k + 1 face rows of the bar k-cell zs: d_i of every entry, then d_0
        drops the first, d_k the last, and d_i, 0 < i < k, multiplies entries
        i - 1 and i.  Unrolled for k = 2 and 3, a row is read three to eight times faster."""
        if k == 2:  # the top of bar_comparison(A, 0)
            (d0, d1, d2), (a, b) = self.faces[2], zs
            return (d0[b],), (self.mul[1][d1[a], d1[b]],), (d2[a],)
        if k == 3:  # the top of classifying_space_homology(A, 2)
            (d0, d1, d2, d3), m, (a, b, c) = self.faces[3], self.mul[2], zs
            return ((d0[b], d0[c]), (m[d1[a], d1[b]], d1[c]), (d2[a], m[d2[b], d2[c]]),
                    (d3[a], d3[b]))
        cols, mul = [tuple(map(f.__getitem__, zs)) for f in self.faces[k]], self.mul[k - 1]
        return (cols[0][1:], *[c[:i - 1] + (mul[c[i - 1], c[i]],) + c[i + 1:]
                               for i, c in enumerate(cols[1:k], 1)], cols[k][:-1])

    def bar_deg(self, k, zs, i):
        """s_i of every entry of zs, with the unit (k + 1)-chain inserted at i."""
        zd = tuple(map(self.deg[k][i].__getitem__, zs))
        return zd[:i] + (self.unit[k + 1],) + zd[i:]


def _elements(X, arrows, based=False):
    """The category of elements of a diagram of sets X over the sorted codes
    `arrows` of injections, coded.

    Objects are the pairs (m, p) of a level and a vertex of X(m); (a, p):
    (m, p) -> (n, X(a)p) is named by the code a of an injection, and (b, q)
    after (a, p) is (after[b][a], p), composed on the codes of I.  Codes follow label order,
    but when based, stable partitions put the basepoint objects and the morphisms out of them
    first, so that the cells over the basepoints open every level of the nerve."""
    I = coded_injections(X.N)
    moved = {a: [X.act(I.morphisms[a])(nd_ref(0, p))[2] for p in range(X.level(I.src[a]).card[0])]
             for a in arrows}
    objects = [(m, p) for m in range(X.N + 1) for p in range(X.level(m).card[0])]
    morphisms = [(a, p) for a in arrows for p in range(len(moved[a]))]
    if based:
        objects.sort(key=lambda o: o[1] != X.level(o[0]).basepoint)
        morphisms.sort(key=lambda f: f[1] != X.level(I.src[f[0]]).basepoint)
    return coded_category(objects, morphisms,
                          lambda f: ((I.src[f[0]], f[1]), (I.dst[f[0]], moved[f[0]][f[1]])),
                          lambda o: (I.ident[o[0]], o[1]),
                          lambda g, f: (I.after[g[0]][f[0]], f[1]))


def _cell_point(tab, k, raw):
    """(m, x): the simplex x of X(m) that a raw k-cell of a homotopy colimit
    carries: on the diagonal that of its chain (`_ChainCodes.point`), whose
    code is raw less the codes below dimension k, or the vertex p of the first
    object (m, p) of a chain of elements, the source (`src`) of its first morphism."""
    C = tab.cat
    if isinstance(C, _ChainCodes):
        return C.point(k, raw - C.shift[k])
    m, p = C.objects[C.src[raw[0]] if k else raw]
    return m, nd_ref(0, p)


def _coded_chains(ch):
    """The Bousfield-Kan diagonal of X through dimension K on the chain table
    ch = `_ChainCodes(X, K, arrows)`, its `cat`.  One `ref_of` holds every
    dimension, so the raw k-cells are the k-codes shifted past the codes below
    (shift[k] + j); face rows and degeneracies are read from the table's arrays."""
    sh, K = ch.shift, len(ch.faces) - 1
    tab = normalize_table([range(sh[k], sh[k + 1]) for k in range(K + 1)],
                          lambda k, j: [sh[k - 1] + f[j - sh[k]] for f in ch.faces[k]],
                          lambda k, j, i: sh[k + 1] + ch.deg[k][i][j - sh[k]], K)
    tab.cat = ch
    return tab


def _hocolim(X, S, arrows, based):
    """The homotopy colimit of X over the sorted injection codes `arrows` (the
    morphisms of its index category), through dimension S: for a diagram of
    sets the nerve of its category of elements (Thomason), the opposite of
    `_coded_chains` (face i is its face s - i) with the same cells and
    homology, in an order where SNF meets its pivots early; else that, on
    one chain table over `arrows`."""
    if any(n for L in X.levels for n in L.card[1:]):
        tab = _coded_chains(_ChainCodes(X, S, arrows))
    else:
        tab = nerve(_elements(X, arrows, based), S)
    return _based_quotient(X, tab) if based else tab


def _pushed_ref(push, refs, raw):
    """The ref of a raw cell in a quotient, for a `LazyDict` of them."""
    return push(refs[raw])


def _moved_ref(cut, ref):
    """The ref that a ref moves to in the quotient by the first cut[k] nondegenerate k-cells:
    the degenerate basepoint, or its id less cut[k] (vertex 0 is the basepoint)."""
    degs, base_dim, base_id = ref
    if base_id < cut[base_dim]:
        return vertex_ref(len(degs) + base_dim, 0)
    return (degs, base_dim, base_id - cut[base_dim] + (base_dim == 0))


def _diagonal_ref(sub, ref):
    """`_moved_ref` for the sorted collapsed ids sub[k], which need not come first."""
    degs, base_dim, base_id = ref
    ids = sub[base_dim]
    i = bisect_left(ids, base_id)
    if i < len(ids) and ids[i] == base_id:
        return vertex_ref(len(degs) + base_dim, 0)
    return (degs, base_dim, base_id - i + (base_dim == 0))


def _based_quotient(X, tab):
    """Collapse the copy of the index nerve sitting under the basepoints, the cells whose
    simplex (`_cell_point`) is one, to vertex 0, the raw cell of the last collapsed vertex.  On
    a nerve of `_elements(X, arrows, based=True)` (checked) they are the first cut[k] nondegenerate
    k-cells, those whose first object is a basepoint, closed under faces when every morphism
    out of a basepoint object ends at one: each level is sliced (its top `Chains` at a prefix)
    and refs move by the cut (`_moved_ref`).  The diagonal flags its cells, codes of its chain
    table whose simplices are read by position, checks the faces of its collapsed edges and
    moves refs by the collapsed ids (`_diagonal_ref`)."""
    if not X.is_based():
        raise ValueError("based homotopy colimit needs a based diagram")
    C = tab.cat
    if isinstance(C, _ChainCodes):
        sub, raw_of = [], []
        for k, raws in enumerate(tab.raw_of):  # a byte per cell, a dimension at a time
            points = (_cell_point(tab, k, raw) for raw in raws)
            flags = bytes(base_dim == 0 and base_id == X.level(m).basepoint
                          for m, (_, base_dim, base_id) in points)
            sub.append(list(compress(count(), flags)))
            raw_of.append(list(compress(raws, map(not_, flags))))
        closed = {r[2] for ids in sub[1:2] for x in ids for r in tab.sset.face[1][x]} <= {*sub[0]}
        base, push = sub[0][-1], LazyDict(partial(_diagonal_ref, sub))
    else:
        b = sum(at_bp := [p == X.level(m).basepoint for m, p in C.objects])
        out = sum(map(b.__gt__, C.src))  # the morphisms out of basepoint objects, coded first
        if not (all(at_bp[:b]) and all(map(b.__gt__, C.src[:out]))):
            raise ValueError("the category of elements is not coded basepoints first")
        closed = len(tab.raw_of) == 1 or all(map(b.__gt__, C.dst[:out]))
        cut, raw_of = [b], [tab.raw_of[0][b:]]
        for k, raws in enumerate(tab.raw_of[1:], 1):
            top = k > 1 and isinstance(raws, Chains)  # a nerve's top: cut at a prefix
            q = bisect_left(raws.prefixes if top else raws, (out,))
            cut.append(raws.off[q] if top else q)
            raw_of.append(Chains(raws.prefixes[q:], raws.ext[q:], C) if top else raws[q:])
        base, push = b - 1, LazyDict(partial(_moved_ref, cut))
    if not closed:
        raise ValueError("the diagram moves a basepoint off the basepoints")
    raw_of[0].insert(0, tab.raw_of[0][base])
    push = push.__getitem__  # each ref once, shared by its rows
    face = [[]] + [FaceRows(raws, rows.refs, push)
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
    `_hocolim`: on the diagonal a cell's code is decoded in the chain table of ts
    and its chain of arrows, carrying point(m, x), encoded in that of td; on
    categories of elements it is the functor (a, p) -> (a, point(m, p))."""
    C, D = ts.cat, td.cat
    if type(C) is not type(D):
        raise ValueError("the two homotopy colimits are built on different paths")
    if isinstance(C, _ChainCodes):
        return map_from_tables(ts, td, lambda k, r: D.shift[k] + D.encode(k, C.decode(
            k, r - C.shift[k])[:-1] + (point(*_cell_point(ts, k, r)),)))
    code = {f: i for i, f in enumerate(D.morphisms)}
    mor = LazyDict(lambda f: code[(C.morphisms[f][0], point(*_cell_point(ts, 1, (f,)))[2])])
    return map_from_tables(ts, td, lambda k, raw: tuple(map(mor.__getitem__, raw)) if k
                           else D.src[mor[C.ident[raw]]])


# ---------------------------------------------------------------------------
# Flatness.
# ---------------------------------------------------------------------------

@record
class FlatCertificate:
    """Verdict plus a replayable witness when flatness fails."""

    flat: bool
    witness: dict | None = None

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


@record
class SemistabilityVerdict:
    verdict: str  # evidence-for | refuted | inconclusive
    witness: dict | None = None
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
