"""Finite simplicial sets in degeneracy normal form.

A simplicial set is stored through its nondegenerate simplices only.  Every
simplex is a ref, the plain tuple (degs, base_dim, base_id): a strictly
decreasing word `degs` of degeneracy indices applied to the nondegenerate
simplex `base_id` of dimension `base_dim` (the unique Eilenberg-Zilber normal
form); `ref_dim(ref)` is its dimension.  A ref is an exact tuple, never a
tuple subclass: CPython's cyclic garbage collector stops tracking an exact
tuple of atoms, but never a subclass instance, which would keep every ref and
face row on its lists for the life of the set.
The face table holds, per dimension, one tuple (d_0 x, ..., d_k x) of
refs for each nondegenerate simplex x.  Face and degeneracy operators act on
refs through the simplicial identities, so validity checks, chain complexes
and homology never enumerate more than the nondegenerate content plus the
words needed for a given dimension.

`normalize_table` builds this form from an explicit table of all simplices,
listing raw_of[k][x], the raw cell of the nondegenerate k-simplex x.  Every
degenerate k-simplex is s_i y for a (k-1)-simplex y, so the images s_i y of the
level below name all of them, and only the nondegenerate simplices are asked
for their faces, each by one call faces_fn(k, raw) for the whole row.  Rows
are built when read by id, and kept (`FaceRows`), and top refs on the first
lookup that misses (`TopRefs`).  Homology builds no row: a boundary column
is summed straight from the faces of its cell, looked up in raw -> ref, so
homology reads the faces of the cells whose columns SNF reads, and makes no
top ref.
A nerve's top degree, and a bar's (`cmon._BarTop`), is given by position
(`Chains`), with its own degeneracies; a nerve's nondegenerate chains are a
`Chains` too, the nondegenerate prefixes each followed by the non-identity
morphisms out of its last object: homology decodes only the top chains SNF reads.

A map of simplicial sets (`SMap`) holds the image of each nondegenerate
source simplex.  `map_from_tables` computes each image on demand, the first
time it is asked for, from a map of raw cells; a query that reads only
vertices never pushes a higher simplex, while `SMap.validate` computes and
checks them all.

Integer homology is computed from the normalized chain complex by Smith
normal form over arbitrary-precision integers; see `zlinalg`.
"""

from bisect import bisect_right
from collections.abc import Sequence
from functools import cached_property, partial
from itertools import accumulate, combinations, compress, count, repeat

from .util import field, least_roots, record, replace
from .zlinalg import ColumnMatrix, rank_and_torsion


def nd_ref(k, x):
    """The ref of the nondegenerate k-simplex x."""
    return ((), k, x)


def vertex_ref(k, v):
    """The ref of the k-simplex s_{k-1} ... s_0 v, the vertex v made k-dimensional."""
    return (tuple(range(k - 1, -1, -1)), 0, v)


def ref_dim(ref):
    """Dimension of a ref: base_dim + len(degs)."""
    degs, base_dim, _ = ref
    return base_dim + len(degs)


class LazyDict(dict):
    """A dict that computes a missing key's value as fn(key) on its first
    lookup and keeps it; a KeyError raised by fn reads as a missing key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


_UNIT_WORDS = LazyDict(lambda i: (i,))  # shared: the collector untracks a ref on first sight
_WORDS = LazyDict(lambda key: (tuple(j + 1 for j in key[1] if j >= key[0]) + (key[0],)
                               + tuple(j for j in key[1] if j < key[0])))


def apply_s(i, ref):
    """Degeneracy s_i applied to a ref, renormalized.  The word of s_i after
    degs is looked up in a table shared by every call, keyed by (i, degs),
    and by i alone for the empty word, the commonest."""
    degs, base_dim, base_id = ref
    if not degs:
        return (_UNIT_WORDS[i], base_dim, base_id)
    return (_WORDS[i, degs], base_dim, base_id)


def apply_word(word, ref):
    """Apply s_{word[0]} o ... o s_{word[-1]} to a ref; `word` strictly decreasing.

    When every index of `word` exceeds those of the ref's word, the result is
    the concatenated word, already in normal form.
    """
    if not word:
        return ref
    degs, base_dim, base_id = ref
    if not degs or word[-1] > degs[0]:
        return (tuple(word) + degs, base_dim, base_id)
    for j in reversed(word):
        ref = apply_s(j, ref)
    return ref


@record
class SSet:
    """Finite simplicial set: nondegenerate simplex counts plus face refs.

    card[k] is the number of nondegenerate k-simplices (ids 0..card[k]-1).
    face[k][x] is the tuple (d_0 x, ..., d_k x) of refs, for
    1 <= k <= top_dim; face[0] is empty, since vertices have no faces.
    face[k] is a list, or a `FaceRows` that builds each row when it is read.
    `complete` asserts that the untruncated object has no nondegenerate
    simplices above top_dim, so homology in every degree is trustworthy.
    """

    card: tuple
    face: tuple  # per dimension, a list or FaceRows of face tuples
    complete: bool = False
    basepoint: int | None = None

    def __init__(self, card, face, complete=False, basepoint=None):  # set past __setattr__
        object.__setattr__(self, "card", card)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "basepoint", basepoint)

    def __setattr__(self, name, value):  # frozen
        raise AttributeError(f"cannot assign to {name!r}: an SSet is frozen")

    @property
    def top_dim(self):
        return len(self.card) - 1

    def nondeg_keys(self):
        """(k, x) of every nondegenerate simplex, by dimension, then id."""
        return [(k, x) for k in range(self.top_dim + 1) for x in range(self.card[k])]

    def n_nondeg(self, k):
        if 0 <= k <= self.top_dim:
            return self.card[k]
        return 0

    def all_simplices(self, k):
        """All k-simplices (degenerate included), deterministically ordered."""
        out = []
        for m in range(min(k, self.top_dim) + 1):
            r = k - m
            for x in range(self.card[m]):
                for word in combinations(range(k - 1, -1, -1), r):
                    out.append((word, m, x))
        out.sort()
        return out

    def d(self, i, ref):
        """Face d_i of a ref, renormalized via the simplicial identities."""
        word, base_dim, base_id = ref
        out = []
        k = i
        for idx, j in enumerate(word):
            if k == j or k == j + 1:
                res = (word[idx + 1:], base_dim, base_id)
                break
            if k < j:
                out.append(j - 1)
            else:
                out.append(j)
                k -= 1
        else:
            res = self.face[base_dim][base_id][k]
        return apply_word(out, res)

    @cached_property
    def components(self):
        """The dict that `pi0` returns, made on its first read."""
        rows = (self.face[1][e] for e in range(self.n_nondeg(1)))  # an edge's faces are vertices
        pairs = ((a, b) for (_, _, a), (_, _, b) in rows)
        return dict(enumerate(least_roots(self.card[0], pairs)))

    def vanishes(self, k):
        """True when the set provably has no nondegenerate k-simplex."""
        return self.n_nondeg(k) == 0 if k <= self.top_dim else self.complete


def point():
    """The based one-point simplicial set."""
    return discrete(1, basepoint=0)


def discrete(n, basepoint=None):
    """Discrete simplicial set on n vertices."""
    return SSet((n,), ([],), complete=True, basepoint=basepoint)


def simplicial_circle():
    """S^1 = Delta^1 / boundary: one vertex, one nondegenerate edge."""
    face = ([], [(nd_ref(0, 0), nd_ref(0, 0))])
    return SSet((1, 1), face, complete=True, basepoint=0)


def validate_sset(X):
    """Diagnostics for the normal-form and simplicial-identity invariants."""
    if len(X.face) != X.top_dim + 1:
        return [f"face table has {len(X.face)} dimensions, wanted {X.top_dim + 1}"]
    bad = ["vertices have faces"] if X.face[0] else []
    for k in range(1, X.top_dim + 1):
        if len(X.face[k]) != X.card[k]:
            bad.append(f"face table of dimension {k} has {len(X.face[k])} simplices, "
                       f"wanted {X.card[k]}")
            continue
        for x, faces in enumerate(X.face[k]):
            if len(faces) != k + 1:
                bad.append(f"simplex ({k}, {x}) has {len(faces)} faces, wanted {k + 1}")
                continue
            for i, ref in enumerate(faces):
                degs, base_dim, base_id = ref
                if ref_dim(ref) != k - 1:
                    bad.append(f"face {(k, x, i)} has dimension {ref_dim(ref)}, wanted {k-1}")
                    continue
                if list(degs) != sorted(degs, reverse=True) or len(set(degs)) != len(degs):
                    bad.append(f"face {(k, x, i)} degeneracy word not strictly decreasing")
                if degs and (degs[0] > k - 2 or degs[-1] < 0):
                    bad.append(f"face {(k, x, i)} degeneracy index out of range")
                if not (0 <= base_dim <= X.top_dim and 0 <= base_id < X.card[base_dim]):
                    bad.append(f"face {(k, x, i)} base simplex missing")
    if bad:
        return bad
    for k in range(2, X.top_dim + 1):
        for x in range(X.card[k]):
            r = nd_ref(k, x)
            for j in range(1, k + 1):
                dj = X.d(j, r)
                for i in range(j):
                    if X.d(i, dj) != X.d(j - 1, X.d(i, r)):
                        bad.append(
                            f"identity d_{i} d_{j} != d_{j-1} d_{i} at simplex ({k}, {x})"
                        )
    if X.basepoint is not None and not (0 <= X.basepoint < X.card[0]):
        bad.append("basepoint out of range")
    return bad


# ---------------------------------------------------------------------------
# Generic normalization of an explicit simplex table.
# ---------------------------------------------------------------------------

class FaceRows(Sequence):
    """Face rows by id: row x is the tuple of ref(f) for the faces f in
    faces_fn(raws[x]).  A row read by id is built on first read and kept, in
    slots made on the first such read; a pass in order (`faces`) reads the
    kept rows and maps `ref` over the faces of the others, building no row."""

    def __init__(self, raws, faces_fn, ref):
        self.raws, self.rows, self.faces_fn, self.ref = raws, None, faces_fn, ref

    def __len__(self):
        return len(self.raws)

    def __getitem__(self, x):
        if self.rows is None:
            self.rows = [None] * len(self.raws)
        row = self.rows[x] = self.rows[x] or tuple(self.refs(self.raws[x]))
        return row

    def refs(self, raw):
        """The face refs of the cell raw, as an iterator."""
        return map(self.ref, self.faces_fn(raw))

    def faces(self):
        """The face refs of each row in order: the kept row, else an iterator."""
        if self.rows is None:
            return map(map, repeat(self.ref), map(self.faces_fn, self.raws))
        return (row or self.refs(raw) for row, raw in zip(self.rows, self.raws))

    def __iter__(self):  # reads raws in order, not each by id
        return map(tuple, self.faces())

    def __eq__(self, other):
        return list(self) == other


class TopRefs(dict):
    """raw -> ref; the nondegenerate cells `raws` of dimension `dim` get their
    refs on the first lookup that misses (`in`, `get` and iteration look none up)."""

    def __init__(self, dim):
        super().__init__()
        self.dim, self.raws, self.degenerate_ref = dim, (), None

    def __missing__(self, raw):
        if self.degenerate_ref and (ref := self.degenerate_ref(self, raw)):  # of a `Chains` top
            return self.setdefault(raw, ref)
        raws, self.raws = self.raws, ()
        if not raws:
            raise KeyError(raw)
        self.update(zip(raws, zip(repeat(()), repeat(self.dim), count())))
        return self[raw]


@record
class NormTable:
    """A normalized SSet, ref_of: raw -> ref (left out of `==` with cat: compare
    it by lookups) and raw_of[k][x], the raw cell of the nondegenerate k-simplex x."""

    sset: SSet
    ref_of: dict = field(compare=False)
    raw_of: list
    cat: object = field(compare=False)  # what the codes of raw cells name

    def __init__(self, sset, ref_of, raw_of, cat=None):
        self.sset, self.ref_of = sset, ref_of
        self.raw_of, self.cat = raw_of, cat


def normalize_table(cells, faces_fn, deg_fn, top_dim, complete=False, based_raw=None):
    """Build a normal-form SSet from an explicit simplex table.

    cells[k] holds ALL k-simplices (hashable, orderable, distinct within the
    level) for k <= top_dim: a list, or at the top a `Chains` (a nerve's, or
    a bar's `cmon._BarTop`), which gives its own degeneracies and its raw_of
    (a `Chains` of its nondegenerate cells).  faces_fn(k, x) returns the row
    (d_0 x, ..., d_k x) of a k-cell x, k >= 1, and deg_fn(k, x, i) the cell
    s_i x.  Ids follow the order of `cells`, which fixes them.

    Degeneracies of a list are found from below.  Before level k is read, s_i y
    is formed for every (k-1)-cell y and every i < k, smallest i first, into
    one dict that maps each image to its first (i, y).  The level is then
    walked once: a cell repeated from a lower level keeps its lower ref, a
    cell among the images gets the ref s_i(ref of y), which by
    Eilenberg-Zilber does not depend on the choice of (i, y), and every other
    k-cell is nondegenerate: it gets the next id, and faces_fn is called on
    it for its row of the face table (the reference oracle of the tests
    calls it on any raw cell).  An image that is not a k-cell gets no ref.
    The rows of every dimension are `FaceRows` over faces_fn and the refs:
    a row is built and kept when read by id, and a boundary column is
    summed from faces_fn(k, raw) with no row built.  So faces_fn may be
    called on a cell more than once and must not read state changed after
    the call returns (a face naming no cell raises KeyError when its row or
    column is read); the top refs are made on the first lookup that misses
    (`TopRefs`).
    """
    ref_of, raw_of, face = TopRefs(top_dim), [], [[]]

    for k, level in enumerate(cells[:top_dim + 1]):
        if hasattr(level, "degenerate_ref"):
            raws = level.nondegenerate(ref_of)
        else:  # one dict of the images s_i y, each to its first (i, y)
            images, raws = {}, []
            for i in range(k):
                for y in cells[k - 1]:
                    images.setdefault(deg_fn(k - 1, y, i), (i, y))
            for z in level:
                if z not in ref_of:
                    if (iy := images.get(z)) is None:
                        raws.append(z)
                    else:
                        ref_of[z] = apply_s(iy[0], ref_of[iy[1]])
        raw_of.append(raws)
        if k < top_dim:
            ref_of.update(zip(raws, zip(repeat(()), repeat(k), count())))
        if k:
            face.append(FaceRows(raws, partial(faces_fn, k), ref_of.__getitem__))
    ref_of.raws, ref_of.degenerate_ref = raws, getattr(level, "degenerate_ref", None)
    bp = None
    if based_raw is not None:
        r = ref_of[based_raw]
        if ref_dim(r) != 0:
            raise ValueError("basepoint raw cell is not a vertex")
        _, _, bp = r
    return NormTable(SSet(tuple(len(raws) for raws in raw_of), tuple(face), complete=complete,
                          basepoint=bp), ref_of, raw_of)


# ---------------------------------------------------------------------------
# Maps of simplicial sets.
# ---------------------------------------------------------------------------

@record
class SMap:
    """Map of simplicial sets, stored on nondegenerate source simplices.

    `table[(k, x)]` is the image of the nondegenerate simplex (k, x).  The
    table is a plain dict, or a `LazyDict` that computes each image on its
    first lookup (`map_from_tables`); either way, walk the source's
    simplices, not the table's keys, to see every image.
    """

    src: SSet
    dst: SSet
    table: dict  # (k, id) -> ref in dst

    def __init__(self, src, dst, table):
        self.src, self.dst, self.table = src, dst, table

    def __call__(self, ref):
        degs, base_dim, base_id = ref
        return apply_word(degs, self.table[(base_dim, base_id)])

    def validate(self):
        """Diagnostics; computes and checks every image, with its faces."""
        bad = []
        for k, x in self.src.nondeg_keys():
            try:
                img = self.table[(k, x)]
            except KeyError:
                bad.append(f"missing image of ({k}, {x})")
                continue
            if ref_dim(img) != k:
                bad.append(f"image of ({k}, {x}) has wrong dimension")
        if bad:
            return bad
        for k in range(1, self.src.top_dim + 1):
            for x in range(self.src.card[k]):
                r = nd_ref(k, x)
                for i in range(k + 1):
                    if self(self.src.d(i, r)) != self.dst.d(i, self(r)):
                        bad.append(f"does not commute with d_{i} at ({k}, {x})")
        return bad


def identity_map(X):
    return SMap(X, X, {key: nd_ref(*key) for key in X.nondeg_keys()})


def _table_image(src_tab, dst_tab, raw_fn, key):
    k, x = key
    return dst_tab.ref_of[raw_fn(k, src_tab.raw_of[k][x])]


def map_from_tables(src_tab, dst_tab, raw_fn):
    """SMap between two NormTable outputs given a map of raw cells.

    The image of (k, x) is dst_tab.ref_of[raw_fn(k, raw)], with raw its raw
    cell in src_tab.  Images are computed on demand (a `LazyDict` over a
    partial of `_table_image`), so a query that reads only vertices never
    pushes a higher simplex.
    """
    return SMap(src_tab.sset, dst_tab.sset,
                LazyDict(partial(_table_image, src_tab, dst_tab, raw_fn)))


# ---------------------------------------------------------------------------
# Nerves of finite categories.
# ---------------------------------------------------------------------------

class Chains(Sequence):
    """The chains p + (f,) of C for p in `prefixes` and f in its list of `ext`,
    in order, by position and none stored: prefixes[q] + (ext[q][r],) is at
    off[q] + r.  A chain is degenerate when it holds an identity (`degenerate_ref`),
    and `nondegenerate` gives those with none; `cmon._BarTop` overrides both."""

    def __init__(self, prefixes, ext, C):
        self.prefixes, self.ext, self.C = prefixes, ext, C

    @cached_property
    def off(self):  # made on the first count or lookup by id: a bar's top may have neither
        return list(accumulate(map(len, self.ext), initial=0))

    def __len__(self):
        return self.off[-1]

    def __getitem__(self, i):
        i = range(self.off[-1])[i]  # a list's ids: negative ones, slices, IndexError
        if type(i) is range:
            return [self[j] for j in i]
        q = bisect_right(self.off, i) - 1
        return self.prefixes[q] + (self.ext[q][i - self.off[q]],)

    def __iter__(self):
        return (p + (f,) for p, e in zip(self.prefixes, self.ext) for f in e)

    __eq__ = FaceRows.__eq__

    def nondegenerate(self, ref_of):
        """The nondegenerate chains, in the same order: each prefix p with a
        nondegenerate ref (at D = 1, the one prefix ()), followed by the
        non-identity morphisms of its list, one list per list of `ext`.  A chain
        with a degenerate prefix is degenerate, so no id moves."""
        src, ident = self.C.src, self.C.ident
        moving = {id(e): [f for f in e if ident[src[f]] != f]
                  for e in {id(e): e for e in self.ext}.values()}
        flags = [not (p and ref_of[p][0]) for p in self.prefixes]
        return Chains([*compress(self.prefixes, flags)],
                      [moving[id(e)] for e in compress(self.ext, flags)], self.C)

    def degenerate_ref(self, ref_of, z):
        """The ref s_w y of a chain z with identities, None without (KeyError off
        chains): y is z less its identities (or its first object), w their indices, decreasing."""
        src, dst, ident = self.C.src, self.C.dst, self.C.ident
        if not (type(z) is tuple and z and all(map(range(len(src)).__contains__, z))
                and len(z) == len(self.prefixes[0]) + 1
                and all(dst[f] == src[g] for f, g in zip(z, z[1:]))):
            raise KeyError(z)
        word = tuple(i for i in range(len(z) - 1, -1, -1) if ident[src[z[i]]] == z[i])
        y = tuple(g for g in z if ident[src[g]] != g) or src[z[0]]
        return (word,) + ref_of[y][1:] if word else None


def nerve(C, D):
    """Nerve of a finite category, truncated at dimension D.

    k-simplices are composable chains c_0 -> ... -> c_k; identities give the
    degeneracies.  C is an `icat.CodedCategory`, a category by construction,
    and nothing here checks it.  A raw vertex is an object code and a raw
    k-chain the tuple of its morphism codes; the chains are enumerated in
    code order, which fixes the ids; the D-chains are `Chains`, decoded by
    position when read, which form no degeneracy image, and the top raw_of is
    the `Chains` of those that hold no identity.  The result is marked
    complete when no nondegenerate D-chain exists (all longer chains are then
    degenerate as well), and its `cat` is C.
    """
    src, dst, ident, after = C.src, C.dst, C.ident, C.after
    out_of = [[] for _ in ident]
    for f, j in enumerate(src):
        out_of[j].append(f)
    cells = [list(range(len(ident)))]
    level, ext = [()], [range(len(src))]  # the (k-1)-chains, and the morphisms that follow each
    for k in range(1, D):
        level = [ch + (f,) for ch, e in zip(level, ext) for f in e]
        ext = [out_of[dst[ch[-1]]] for ch in level]
        cells.append(level)
    if D:
        cells.append(Chains(level, ext, C))

    def faces_fn(k, ch):
        if k == 1:
            return (dst[ch[0]], src[ch[0]])
        if k == 2:
            f, g = ch
            return ((g,), (after[g][f],), (f,))
        if k == 3:
            f, g, h = ch
            return ((g, h), (after[g][f], h), (f, after[h][g]), (f, g))
        row = [ch[1:]]
        for i in range(1, k):
            row.append(ch[:i - 1] + (after[ch[i]][ch[i - 1]],) + ch[i + 1:])
        row.append(ch[:-1])
        return row

    def deg_fn(k, raw, i):
        if k == 0:
            return (ident[raw],)
        return raw[:i] + (ident[src[raw[i]] if i < k else dst[raw[-1]]],) + raw[i:]

    tab = normalize_table(cells, faces_fn, deg_fn, D)
    tab.sset, tab.cat = replace(tab.sset, complete=D > 0 and tab.sset.card[D] == 0), C
    return tab


# ---------------------------------------------------------------------------
# Path components.
# ---------------------------------------------------------------------------

def pi0(X):
    """Partition of the vertex set by the coequalizer of d_0, d_1.

    Returns a dict vertex -> representative (smallest vertex id in class),
    computed once per X and kept on it (`SSet.components`): read it, do not
    change it.
    """
    return X.components


def pi0_classes(X):
    reps = pi0(X)
    return sorted(set(reps.values()))


def pi0_image(maps):
    """Each component representative c of the maps' one source -> the tuple of
    the components of c's images, one per map, in increasing order of c.  A map
    keeps a component in one component, so each is read at c alone."""
    dst_reps = [pi0(f.dst) for f in maps]
    return {c: tuple(r[f(nd_ref(0, c))[2]] for f, r in zip(maps, dst_reps))
            for c in pi0_classes(maps[0].src)}


def component_subcomplex(X, reps):
    """Full subcomplex on the components of the given pi0 representatives.

    Returns (SSet, newid), where newid[k] maps the kept nondegenerate
    k-simplices of X, in increasing order, to their ids in the subcomplex.
    Components never share simplices, so a simplex is kept when its face
    d_k, which has the same first vertex, is kept.  The basepoint is carried
    along when it is kept.
    """
    comp = pi0(X)
    newid = [{}]
    for v in range(X.card[0]):
        if comp[v] in reps:
            newid[0][v] = len(newid[0])
    face = [[]]
    for k in range(1, X.top_dim + 1):
        ids = {}
        rows = []
        for x, faces in enumerate(X.face[k]):
            _, last_dim, last_id = faces[k]
            if last_id in newid[last_dim]:
                ids[x] = len(ids)
                rows.append(tuple((degs, d, newid[d][b]) for degs, d, b in faces))
        newid.append(ids)
        face.append(rows)
    card = tuple(len(ids) for ids in newid)
    bp = newid[0].get(X.basepoint)
    return SSet(card, tuple(face), complete=X.complete, basepoint=bp), newid


# ---------------------------------------------------------------------------
# Chains and homology.
# ---------------------------------------------------------------------------

@record
class ChainComplex:
    """Normalized chains: basis counts and sparse integer boundary maps."""

    counts: list
    boundaries: list  # boundaries[k]: ColumnMatrix of d_k: C_k -> C_{k-1}, column x = d_k x

    def __init__(self, counts, boundaries):
        self.counts, self.boundaries = counts, boundaries

    def count(self, k):
        return self.counts[k] if 0 <= k < len(self.counts) else 0

    def boundary_cols(self, k):
        """The columns {x: {row: value}} of d_k; empty outside the complex."""
        return self.boundaries[k].cols if 1 <= k < len(self.boundaries) else {}


def chain_complex(X, top=None):
    """The normalized chains of X through degree `top` (default: its top).

    Column x of d_k is the alternating sum of the nondegenerate faces of
    x, with cancelled entries left out.  Each d_k is a `ColumnMatrix` over
    `_boundary_columns`, so a column is summed only when it is read, from
    the face refs of its cell with no row built; SNF stops reading once its
    rank bound is met.
    """
    top = X.top_dim if top is None else min(top, X.top_dim)
    counts = [X.n_nondeg(k) for k in range(top + 1)]
    boundaries = [ColumnMatrix(partial(_boundary_columns, X.face[k])) for k in range(top + 1)]
    return ChainComplex(counts, boundaries)


def _boundary_columns(rows):
    """(x, column) of each nonzero column of the boundary of the face rows, in
    order: each column is summed from the face refs of `FaceRows.faces`."""
    for x, faces in enumerate(rows.faces() if isinstance(rows, FaceRows) else rows):
        col = {}
        sign = 1
        for degs, _, base_id in faces:
            if not degs:
                if v := col.get(base_id, 0) + sign:
                    col[base_id] = v
                else:
                    del col[base_id]
            sign = -sign
        if col:
            yield x, col


@record
class HomologyReport:
    """Integral homology by degree: free rank and sorted torsion coefficients."""

    groups: dict  # k -> (rank, tuple of torsion coefficients)
    skeleton_dim: int
    complete: bool

    def __init__(self, groups, skeleton_dim, complete):
        self.groups, self.skeleton_dim, self.complete = groups, skeleton_dim, complete

    def group(self, k):
        return self.groups.get(k, (0, ()))


def homology(X, d_report):
    """Integral homology of the normalized chains, degrees <= d_report.

    Requires the skeleton through dimension d_report + 1 unless X is marked
    complete.
    """
    if not X.complete and X.top_dim < d_report + 1:
        raise ValueError(
            f"homology through degree {d_report} needs simplices up to dimension "
            f"{d_report + 1}; have {X.top_dim} and no completeness guarantee"
        )
    cx = chain_complex(X, top=min(d_report + 1, X.top_dim))
    groups = _homology_groups(cx.counts, cx.boundaries, range(d_report + 1))
    return HomologyReport(groups, X.top_dim, X.complete)


def _homology_groups(counts, boundaries, degrees):
    """{k: (rank, torsion)} of H_k for k in `degrees`, from d_1 upwards.

    The unit pivot columns found in d_k are dropped as rows of d_{k+1}
    (clearing); this changes neither rank nor torsion, see `zlinalg`.
    """
    ranks = {}
    tors = {}
    cleared = ()
    for k in range(1, len(counts)):
        pivots = []
        ranks[k], tors[k] = rank_and_torsion(boundaries[k], counts[k - 1], counts[k],
                                             drop_rows=cleared, pivots=pivots)
        cleared = pivots
    return {k: ((counts[k] if k < len(counts) else 0) - ranks.get(k, 0) - ranks.get(k + 1, 0),
                tors.get(k + 1, ()))
            for k in degrees}


def reduced_homology_trivial(X, d_report):
    """True iff X is connected with vanishing homology in degrees 1..d_report."""
    rep = homology(X, d_report)
    if rep.group(0) != (1, ()):
        return False
    return all(rep.group(k) == (0, ()) for k in range(1, d_report + 1))


def map_cone_homology(f, d_report):
    """Homology of the mapping cone of the induced map of normalized chains.

    Vanishing through degree D+1 certifies that f induces isomorphisms on
    H_k for k <= D and a surjection in degree D+1.
    """
    X, Y = f.src, f.dst
    top = min(d_report + 1, max(X.top_dim + 1, Y.top_dim))
    return cone_homology(chain_complex(X, top - 1), chain_complex(Y, top),
                         partial(_image_column, f), X.vanishes(top), Y.vanishes(top + 1))


def _image_column(f, k, x):
    degs, _, base_id = f(nd_ref(k, x))
    return {} if degs else {base_id: 1}


def cone_homology(cx, cy, f_col, src_ends, dst_ends):
    """Homology of the mapping cone of a chain map f: cx -> cy, given by columns.

    f_col(k, x) is f(x) for a basis k-chain x, as {row: coefficient}.  Cone
    degree k holds cx in degree k - 1, then cy in degree k.  It is built through
    top = max(len(cx.counts), len(cy.counts) - 1); its top group is kept only
    when cx provably vanishes in degree top and cy in degree top + 1.
    """
    top = max(len(cx.counts), len(cy.counts) - 1)
    counts = [cx.count(k - 1) + cy.count(k) for k in range(top + 1)]

    def columns(k):  # of d_k, read by SNF up to its rank bound: -dx + f(x) for x in cx, then dy
        offr, offc = cx.count(k - 2), cx.count(k - 1)
        dx = iter(cx.boundaries[k - 1].source() if offc else ())
        x_col = next(dx, None)
        for x in range(offc):
            col = {}
            if x_col and x_col[0] == x:
                col, x_col = {r: -v for r, v in x_col[1].items()}, next(dx, None)
            col.update((offr + r, v) for r, v in f_col(k - 1, x).items())
            if col:
                yield x, col
        for y, col in cy.boundaries[k].source() if k < len(cy.boundaries) else ():
            yield offc + y, {offr + r: v for r, v in col.items()}

    boundaries = [ColumnMatrix(partial(columns, k)) for k in range(top + 1)]
    groups = _homology_groups(counts, boundaries, range(top + 1))
    if not (src_ends and dst_ends):
        del groups[top]
    return groups


def tensor_complex(cx, cy, top):
    """The tensor product of two chain complexes through degree top.

    Degree n has the basis a (x) b, for a in degree p of cx and b in degree
    n - p of cy, by p, then a, then b; a (x) b is at pos(n, p, a, b), and
    d(a (x) b) = da (x) b + (-1)^p a (x) db.  Returns (ChainComplex, pos).
    """
    offsets = [[sum(cx.count(i) * cy.count(n - i) for i in range(p)) for p in range(n + 2)]
               for n in range(top + 1)]

    def pos(n, p, a, b):
        return offsets[n][p] + a * cy.count(n - p) + b

    boundaries = [ColumnMatrix({}.items)]
    for n in range(1, top + 1):
        cols = {}
        for p in range(n + 1):
            dxs, dys = cx.boundary_cols(p), cy.boundary_cols(n - p)
            for a in range(cx.count(p)):
                da = dxs.get(a, {})
                for b in range(cy.count(n - p)):
                    col = {pos(n - 1, p - 1, r, b): v for r, v in da.items()}
                    for r, v in dys.get(b, {}).items():
                        col[pos(n - 1, p, a, r)] = -v if p % 2 else v
                    if col:
                        cols[pos(n, p, a, b)] = col
        boundaries.append(ColumnMatrix(cols.items))
    return ChainComplex([row[-1] for row in offsets], boundaries), pos


def alexander_whitney(f, g, pos, n, z):
    """The Alexander-Whitney column of the nondegenerate n-simplex z under (f, g).

    The sum over p of front_p f(z) (x) back_{n-p} g(z), the faces on the first
    p + 1 and last n - p + 1 vertices, at positions `pos` of `tensor_complex`;
    a term with a degenerate factor vanishes.  By the Eilenberg-Zilber theorem
    this gives the chains of (f, g): Z -> X x Y up to chain homotopy.
    """
    fronts, backs = [f(nd_ref(n, z))], [g(nd_ref(n, z))]
    for i in range(n, 0, -1):
        fronts.append(f.dst.d(i, fronts[-1]))
        backs.append(g.dst.d(0, backs[-1]))
    return {pos(n, p, a, b): 1
            for p, (a_degs, _, a), (b_degs, _, b) in zip(range(n + 1), reversed(fronts), backs)
            if not a_degs and not b_degs}
