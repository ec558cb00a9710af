"""Commutative monoids in truncated diagram spaces.

A CIMonoidT is an ISpaceT carrier with a unit vertex in level 0 and a
multiplication defined on pairs of equal-dimension simplices, landing in the
level-sum space.  The module provides the subsets model of the free monoid
on a degree-one generator, filtered models of ordinary commutative monoids,
presentations of the component monoid with Grothendieck groups, exact unit
detection by support closure (no search bound), bar constructions, and the
three-term comparison between the bar construction of the diagram monoid
and of its homotopy colimit.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Optional

from . import icat
from .icat import TruncatedI, coded_injections, concat, shuffle
from .simplicial import (
    SMap,
    component_subcomplex,
    homology,
    map_cone_homology,
    map_from_tables,
    nd_ref,
    normalize_table,
    pi0,
    pi0_classes,
    ref_dim,
)
from .ispace import (
    ISpaceT,
    _box_classes,
    _box_deg,
    _box_face,
    _box_space,
    _box_table,
    _chain_cells,
    _coded_chains,
    _discrete_ispace,
    _hocolim_deg,
    _hocolim_faces,
    _tail_level,
    hocolim_I,
    is_flat,
    restrict,
    terminal_ispace,
)
from .util import DisjointSet
from .zlinalg import ColumnMatrix, rank_and_torsion


def _full_word(k):
    return tuple(range(k - 1, -1, -1))


@dataclass
class CIMonoidT:
    """Commutative monoid object for the box product, at truncation N.

    mul(m, n, rx, ry) takes two simplices of equal dimension in levels m and
    n with m + n <= N and returns a simplex of level m + n.  It must commute
    with faces and degeneracies taken in both arguments simultaneously.
    """

    space: ISpaceT
    unit: int  # vertex id in level 0
    mul: Callable
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def N(self):
        return self.space.N

    def unit_ref(self, dim=0):
        return (_full_word(dim), 0, self.unit)

    def level(self, n):
        return self.space.level(n)


def validate_monoid(A):
    """Unitality, associativity, commutativity and naturality diagnostics,
    on simplices of dimensions 0 and 1."""
    bad = A.space.validate()
    if bad:
        return bad
    X = A.space
    N = A.N
    for m in range(N + 1):
        for n in range(N + 1 - m):
            for k in range(2):
                for rx in X.level(m).all_simplices(k):
                    for ry in X.level(n).all_simplices(k):
                        p = A.mul(m, n, rx, ry)
                        if ref_dim(p) != k:
                            bad.append(f"mul({m},{n}) changes dimension")
                            continue
                        if k >= 1:
                            for i in range(k + 1):
                                lhs = X.level(m + n).d(i, p)
                                rhs = A.mul(m, n, X.level(m).d(i, rx),
                                            X.level(n).d(i, ry))
                                if lhs != rhs:
                                    bad.append(f"mul({m},{n}) does not commute with d_{i}")
                        tau = X.act(shuffle(m, n))
                        if tau(p) != A.mul(n, m, ry, rx):
                            bad.append(f"commutativity fails at ({m},{n})")
    for n in range(N + 1):
        for k in range(2):
            u = A.unit_ref(k)
            for ry in X.level(n).all_simplices(k):
                if A.mul(0, n, u, ry) != ry:
                    bad.append(f"left unit fails at level {n}")
                if A.mul(n, 0, ry, u) != ry:
                    bad.append(f"right unit fails at level {n}")
    for m in range(N + 1):
        for n in range(N + 1 - m):
            for p_ in range(N + 1 - m - n):
                for k in range(2):
                    for rx in X.level(m).all_simplices(k):
                        for ry in X.level(n).all_simplices(k):
                            for rz in X.level(p_).all_simplices(k):
                                a = A.mul(m + n, p_, A.mul(m, n, rx, ry), rz)
                                b = A.mul(m, n + p_, rx, A.mul(n, p_, ry, rz))
                                if a != b:
                                    bad.append(
                                        f"associativity fails at ({m},{n},{p_})")
    cat = TruncatedI(N)
    for alpha in cat.arrows():
        for beta in cat.arrows():
            if alpha.dst + beta.dst > N:
                continue
            both = X.act(concat(alpha, beta))
            fa, fb = X.act(alpha), X.act(beta)
            for k in range(2):
                for rx in X.level(alpha.src).all_simplices(k):
                    for ry in X.level(beta.src).all_simplices(k):
                        lhs = both(A.mul(alpha.src, beta.src, rx, ry))
                        rhs = A.mul(alpha.dst, beta.dst, fa(rx), fb(ry))
                        if lhs != rhs:
                            bad.append(f"naturality fails at ({alpha},{beta})")
    return sorted(set(bad))


# ---------------------------------------------------------------------------
# Discrete constructors.
# ---------------------------------------------------------------------------

def discrete_monoid(N, points, act_point, mul_point, unit_point, name=""):
    """CIMonoidT with discrete levels built from point-level data.

    points[n] lists the vertices of level n; the unit must appear in level 0
    and be fixed as basepoint of every level it maps into.
    """
    space = _discrete_ispace(N, points, act_point,
                             basepoints=[pts.index(act_point(
                                 icat.subset_inclusion(0, n), unit_point))
                                 for n, pts in enumerate(points)])
    index = [{p: i for i, p in enumerate(points[n])} for n in range(N + 1)]

    def mul(m, n, rx, ry):
        (degs, _, x), (degs_y, _, y) = rx, ry
        if degs != degs_y:
            raise ValueError("discrete multiplication needs equal degeneracy words")
        return (degs, 0, index[m + n][mul_point(m, n, points[m][x], points[n][y])])

    return CIMonoidT(space, index[0][unit_point], mul, name=name)


def c1(N):
    """The free commutative monoid on one degree-one generator: subsets model.

    Level n is the discrete set of subsets of {1..n}; injections act by
    direct image; multiplication shifts the second subset past the first
    level and takes the union.
    """
    points = [
        [frozenset(s) for k in range(n + 1)
         for s in combinations(range(1, n + 1), k)]
        for n in range(N + 1)
    ]

    def act_point(alpha, s):
        return frozenset(alpha(i) for i in s)

    def mul_point(m, n, s, t):
        return s | frozenset(i + m for i in t)

    A = discrete_monoid(N, points, act_point, mul_point, frozenset(), name="C1")
    A.meta["points"] = points
    return A


def monoid_ispace(elements, add, degree, unit, N, name=""):
    """Filtered model of an ordinary commutative monoid.

    An element appears in level n once its degree is at most n; injections
    act as identity inclusions.  This preserves the component monoid, its
    Grothendieck group and its units; the model is intentionally not flat
    when any element has positive degree.
    """
    if degree(unit) != 0:
        raise ValueError("unit must have degree 0")
    for e in elements:
        if degree(e) < 0:
            raise ValueError("degrees must be nonnegative")
    points = [[e for e in elements if degree(e) <= n] for n in range(N + 1)]
    return discrete_monoid(
        N, points, lambda alpha, e: e,
        lambda m, n, x, y: add(x, y), unit, name=name)


def sec52_monoid(N):
    """The monoid {0, 0', 1, 2, ...} with 0'+0' = 0 and 0'+n = n for n >= 1.

    0 and 0' have degree 0; a positive element k has degree k.  Its group
    completion is the integers.
    """
    elements = ["0", "0p"] + [str(k) for k in range(1, N + 1)]

    def add(x, y):
        if x == "0":
            return y
        if y == "0":
            return x
        if x == "0p" and y == "0p":
            return "0"
        if x == "0p":
            return y
        if y == "0p":
            return x
        return str(int(x) + int(y))

    def degree(e):
        return 0 if e in ("0", "0p") else int(e)

    return monoid_ispace(elements, add, degree, "0", N, name="M52")


def integers_monoid(N):
    """Filtered model of the group of integers, graded by absolute value."""
    elements = list(range(-N, N + 1))
    return monoid_ispace(elements, lambda x, y: x + y, abs, 0, N, name="Z")


def cyclic2_monoid(N):
    """Genuinely constant model of the order-two group; this one is flat."""
    return monoid_ispace([0, 1], lambda x, y: (x + y) % 2, lambda e: 0, 0, N,
                         name="Z2")


# ---------------------------------------------------------------------------
# Free commutative monoids on an I-space.
# ---------------------------------------------------------------------------

def free_cmonoid(X):
    """Symmetrized box powers of X with word concatenation, truncated.

    Words are truncated at length N; the truncation is exact when X(0) is
    empty, because a length-k word then needs level at least k.  The carrier
    records `word_truncation_exact` in the monoid metadata.  Simplices are
    built through dimension 1.
    """
    N = X.N
    exact = X.level(0).size() == 0
    W = _words(X)

    def mul(m, n, rx, ry):
        rawx = W.raw(m, rx)
        rawy = W.raw(n, ry)
        nvec = rawx[0] + rawy[0]
        if len(nvec) > N:
            raise ValueError("word-length truncation overflow")
        raw = (nvec, rawx[1] + tuple(v + m for v in rawy[1]), rawx[2] + rawy[2])
        dim = ref_dim(rx)
        ref = W.ref(m + n, dim, raw)
        if ref_dim(ref) < dim:
            # the empty word carries no simplex data; its raw cell is shared
            # across dimensions and normalizes to the unit vertex
            _, base_dim, base_id = ref
            ref = (_full_word(dim), base_dim, base_id)
        return ref

    _, _, unit_id = W.ref(0, 0, ((), (), ()))
    return CIMonoidT(W.space, unit_id, mul, name="free",
                     meta={"word_truncation_exact": exact})


def _words(X):
    """The box-colimit record of the words on X, through dimension 1."""
    canon = [[_word_classes(X, n, dim) for dim in range(2)] for n in range(X.N + 1)]
    # a word has at most N factors, and faces zip the factors with its blocks
    factors = (X,) * X.N
    return _box_space([_box_table(factors, cn, 1) for cn in canon], canon, factors)


def _word_classes(X, n, dim):
    """Canonical-representative dictionary of the raw dim-cells of words at n.

    Words of length k <= N are the cells of the k-fold box power, taken
    modulo the symmetric group, which permutes their blocks; the adjacent
    block swaps generate it.
    """
    canon = {}
    for k in range(X.N + 1):
        ds = _box_classes((X,) * k, n, dim, n)
        for nvec, a_img, xs in list(ds.parent):
            start = 0
            for j in range(k - 1):
                mid = start + nvec[j]
                end = mid + nvec[j + 1]
                swap = (nvec[:j] + (nvec[j + 1], nvec[j]) + nvec[j + 2:],
                        a_img[:start] + a_img[mid:end] + a_img[start:mid] + a_img[end:],
                        xs[:j] + (xs[j + 1], xs[j]) + xs[j + 2:])
                ds.union(swap, (nvec, a_img, xs))
                start = mid
        canon.update(ds.canonicalize())
    return canon


# ---------------------------------------------------------------------------
# Component monoids and their presentations.
# ---------------------------------------------------------------------------

@dataclass
class CommMonoidPres:
    """Finite presentation of a commutative monoid.

    Relations are pairs of exponent vectors over the generators; the
    congruence they generate identifies the two sides.
    """

    generators: list
    relations: list  # list of (vec, vec), each a tuple of nonnegative ints

    def to_json(self):
        return {"gens": [str(g) for g in self.generators],
                "rels": [[list(u), list(v)] for u, v in self.relations]}


def merged_classes(A):
    """Colimit of the level component sets along all injections.

    Returns (rep function on (level, vertex), sorted list of class reps,
    unit class rep).
    """
    ds = DisjointSet()
    level_reps = [pi0(A.level(n)) for n in range(A.N + 1)]
    for n in range(A.N + 1):
        for v in range(A.level(n).card[0]):
            ds.add((n, level_reps[n][v]))
    for alpha in TruncatedI(A.N).arrows():
        f = A.space.act(alpha)
        for v in range(A.level(alpha.src).card[0]):
            _, _, img = f(nd_ref(0, v))
            ds.union((alpha.src, level_reps[alpha.src][v]),
                     (alpha.dst, level_reps[alpha.dst][img]))
    rep = ds.canonicalize()

    def cls(n, v):
        return rep[(n, level_reps[n][v])]

    classes = sorted(set(rep.values()))
    return cls, classes, cls(0, A.unit)


def pi0_monoid(A):
    """Presentation of the component monoid of the homotopy colimit.

    Generators are the merged non-unit component classes; relations record
    every product of vertices with level sum at most N, then the
    presentation is minimized by eliminating definable generators and
    dropping relations derivable from the rest.

    Returns (CommMonoidPres, class-to-vector map keyed by class rep).
    """
    cls, classes, unit_cls = merged_classes(A)
    products = ((cls(m, x), cls(n, y), cls(m + n, A.mul(m, n, nd_ref(0, x), nd_ref(0, y))[2]))
                for m in range(A.N + 1) for n in range(A.N + 1 - m)
                for x in range(A.level(m).card[0]) for y in range(A.level(n).card[0]))
    pres, class_vec = class_presentation(classes, unit_cls, products)
    pres, subst = _minimize_presentation(pres)
    return pres, {c: _substitute(v, subst, len(pres.generators)) for c, v in class_vec.items()}


def class_presentation(classes, unit_cls, products):
    """The commutative monoid on the sorted component `classes`, with unit
    `unit_cls` and the relation a + b = c for each product (a, b, c).

    Returns (its presentation over the non-unit classes, class -> exponent vector).
    """
    gens = [c for c in classes if c != unit_cls]
    gi = {c: i for i, c in enumerate(gens)}

    def evec(c):
        v = [0] * len(gens)
        if c != unit_cls:
            v[gi[c]] = 1
        return tuple(v)

    rels = set()
    for a, b, c in products:
        lhs, rhs = _vec_add(evec(a), evec(b)), evec(c)
        if lhs != rhs:
            rels.add(tuple(sorted((lhs, rhs))))
    return CommMonoidPres(gens, sorted(rels)), {c: evec(c) for c in classes}


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _minimize_presentation(pres):
    """Eliminate generators defined by a relation, then prune relations.

    Returns the reduced presentation plus the substitution map old-generator
    index -> vector over the surviving generators.
    """
    gens = list(pres.generators)
    rels = [tuple(sorted((u, v))) for u, v in pres.relations]
    subst = {i: tuple(1 if j == i else 0 for j in range(len(gens)))
             for i in range(len(gens))}
    changed = True
    while changed:
        changed = False
        for u, v in sorted(set(rels)):
            for a, b in ((u, v), (v, u)):
                if sum(a) == 1 and max(a) == 1:
                    i = a.index(1)
                    if b[i] == 0:
                        # generator i is definable as the word b
                        rels = [tuple(sorted((_elim(x, i, b), _elim(y, i, b))))
                                for x, y in rels]
                        for k in subst:
                            subst[k] = _elim(subst[k], i, b)
                        changed = True
                        break
            if changed:
                break
    live = sorted({j for vec in subst.values() for j, t in enumerate(vec) if t}
                  | {j for u, v in rels if u != v
                     for j, t in enumerate(_vec_add(u, v)) if t})

    def shrink(vec):
        return tuple(vec[j] for j in live)

    rels = sorted({(shrink(u), shrink(v)) for u, v in rels if u != v})
    new_gens = [gens[j] for j in live]
    subst = {i: shrink(v) for i, v in subst.items()}
    rels = _prune_relations(rels)
    return CommMonoidPres(new_gens, rels), subst


def _elim(vec, i, word):
    """Replace generator i by `word` inside an exponent vector."""
    t = vec[i]
    out = list(vec)
    out[i] = 0
    for j, w in enumerate(word):
        out[j] += t * w
    return tuple(out)


def _substitute(vec, subst, g):
    out = (0,) * g
    for i, t in enumerate(vec):
        for _ in range(t):
            out = _vec_add(out, subst[i])
    return out


# Rewriting steps that `_prune_relations` tries before it keeps a relation.
PRUNE_STEPS = 6


def _prune_relations(rels):
    """Drop relations derivable from the others by PRUNE_STEPS rewritings."""
    kept = list(rels)
    i = 0
    while i < len(kept):
        cand = kept[i]
        rest = kept[:i] + kept[i + 1:]
        if rest and _congruent(cand[0], cand[1], rest, PRUNE_STEPS):
            kept = rest
        else:
            i += 1
    return kept


def _congruent(u, v, rels, step_bound):
    """Bounded decision of u ~ v under the congruence generated by rels."""
    seen = {u}
    frontier = [u]
    for _ in range(step_bound):
        new = []
        for w in frontier:
            for a, b in rels:
                for src, dst in ((a, b), (b, a)):
                    if all(w[j] >= src[j] for j in range(len(w))):
                        w2 = tuple(w[j] - src[j] + dst[j] for j in range(len(w)))
                        if w2 == v:
                            return True
                        if w2 not in seen:
                            seen.add(w2)
                            new.append(w2)
        frontier = new
        if not frontier:
            break
    return v in seen


def grothendieck_group(pres):
    """Universal abelian group of the presented monoid: (rank, torsion)."""
    g = len(pres.generators)
    cols = {c: {j: a - b for j, (a, b) in enumerate(zip(u, v)) if a != b}
            for c, (u, v) in enumerate(pres.relations) if u != v}
    r, tors = rank_and_torsion(ColumnMatrix(cols.items), g, len(pres.relations))
    return g - r, tors


# ---------------------------------------------------------------------------
# Units.
# ---------------------------------------------------------------------------

@dataclass
class UnitVerdict:
    """Per-class unit status with replayable certificates."""

    # vector -> ("unit", the oriented relations (p, q) that grew G, in order,
    # up to the last one its support needs) | ("non-unit", G)
    status: dict

    def is_unit(self, vec):
        return self.status[vec][0] == "unit"


def unit_verdicts(pres, vectors=None):
    """Classify monoid elements as units or non-units, exactly.

    In a commutative monoid a + b is a unit iff a and b are.  Let G be the
    least set of generators such that, for every relation (p, q), supp p in
    G implies supp q in G, and the same with p and q swapped; a relation
    with a zero side seeds G, and G is reached in at most g + 1 passes.
    Every vector congruent to 0 is reached from 0 by rewriting steps, each
    of which keeps the support inside any such closed set, so x is a unit
    iff supp x lies in G (Rosales & Garcia-Sanchez, *Finitely Generated
    Commutative Monoids*, 1999).

    A unit's certificate replays relation by relation: each source side
    lies in the support reached so far (an inverse of p gives one of q,
    since q + w ~ p + w ~ 0).  A non-unit's certificate is G, which replays
    by checking closure under every relation and misses a generator of it.
    """
    g = len(pres.generators)
    if vectors is None:
        vectors = [tuple(1 if j == i else 0 for j in range(g)) for i in range(g)]
    closed = set()
    steps = []  # oriented relations, in the order they grew G
    origin = {}  # generator -> index of the step that brought it into G
    grew = True
    while grew:
        grew = False
        for u, v in pres.relations:
            for p, q in ((u, v), (v, u)):
                new = _support(q) - closed
                if new and _support(p) <= closed:
                    origin.update(dict.fromkeys(new, len(steps)))
                    steps.append((p, q))
                    closed |= new
                    grew = True
    status = {}
    for vec in vectors:
        supp = _support(vec)
        if supp <= closed:
            last = max((origin[j] for j in supp), default=-1)
            status[vec] = ("unit", tuple(steps[:last + 1]))
        else:
            status[vec] = ("non-unit", tuple(sorted(closed)))
    return UnitVerdict(status)


def _support(vec):
    return {j for j, t in enumerate(vec) if t}


def is_grouplike(A):
    """True iff every component class of the monoid is a unit."""
    pres, class_vec = pi0_monoid(A)
    verdict = unit_verdicts(pres, vectors=sorted(set(class_vec.values())))
    return all(verdict.is_unit(v) for v in class_vec.values())


@dataclass
class UnitsReport:
    units_monoid: "CIMonoidT"
    inclusion: dict  # level -> SMap
    unit_classes: list
    nonunit_classes: list
    level_split: dict  # n -> (unit vertex ids, non-unit vertex ids)
    closed_under_mul: bool
    absorption: bool


def units(A):
    """The submonoid of unit components, with the complement decomposition."""
    pres, class_vec = pi0_monoid(A)
    cls, classes, unit_cls = merged_classes(A)
    verdict = unit_verdicts(pres, vectors=sorted(set(class_vec.values())))
    unit_classes = [c for c in classes if verdict.is_unit(class_vec[c])]
    nonunit_classes = [c for c in classes if c not in unit_classes]
    level_split = {}
    # restricted carrier: the unit components of every level
    sub_levels = []
    newid = []  # per level and dimension: old id -> id in the carrier
    for n in range(A.N + 1):
        us, nus = [], []
        for v in range(A.level(n).card[0]):
            (us if cls(n, v) in unit_classes else nus).append(v)
        level_split[n] = (us, nus)
        comp = pi0(A.level(n))
        sub, ids = component_subcomplex(A.level(n), {comp[v] for v in us})
        sub_levels.append(sub)
        newid.append(ids)

    def pull(n, ref):
        degs, base_dim, base_id = ref
        return (degs, base_dim, newid[n][base_dim][base_id])

    incl = {}
    for n in range(A.N + 1):
        table = {(k, new): nd_ref(k, x)
                 for k, ids in enumerate(newid[n]) for x, new in ids.items()}
        incl[n] = SMap(sub_levels[n], A.level(n), table)
    maps = {}
    for alpha in TruncatedI(A.N).arrows():
        f = A.space.act(alpha)
        table = {(k, new): pull(alpha.dst, f(nd_ref(k, x)))
                 for k, ids in enumerate(newid[alpha.src]) for x, new in ids.items()}
        maps[alpha] = SMap(sub_levels[alpha.src], sub_levels[alpha.dst], table)
    space = ISpaceT(A.N, tuple(sub_levels), maps)

    def mul(m, n, rx, ry):
        return pull(m + n, A.mul(m, n, incl[m](rx), incl[n](ry)))

    closed = True
    for m in range(A.N + 1):
        for n in range(A.N + 1 - m):
            for x in level_split[m][0]:
                for y in level_split[n][0]:
                    _, _, p = A.mul(m, n, nd_ref(0, x), nd_ref(0, y))
                    if cls(m + n, p) not in unit_classes:
                        closed = False
    absorption = True
    for m in range(A.N + 1):
        for n in range(A.N + 1 - m):
            for x in level_split[m][1]:
                for y in range(A.level(n).card[0]):
                    _, _, p = A.mul(m, n, nd_ref(0, x), nd_ref(0, y))
                    if cls(m + n, p) in unit_classes:
                        absorption = False
    units_monoid = CIMonoidT(space, newid[0][0][A.unit], mul,
                             name=A.name + "-units")
    return UnitsReport(units_monoid, incl, unit_classes, nonunit_classes,
                       level_split, closed, absorption)


# ---------------------------------------------------------------------------
# Bar constructions.
# ---------------------------------------------------------------------------

def _bar_face(A, factors, raw, i):
    """Bar face d_i on a raw cell: d_i in every block, then the horizontal face."""
    nvec, a_img, xs = _box_face(factors, raw, i)
    k = len(nvec)
    if i == 0:
        return (nvec[1:], a_img[nvec[0]:], xs[1:])
    if i == k:
        return (nvec[:-1], a_img[: sum(nvec) - nvec[-1]], xs[:-1])
    merged = A.mul(nvec[i - 1], nvec[i], xs[i - 1], xs[i])
    nv = nvec[: i - 1] + (nvec[i - 1] + nvec[i],) + nvec[i + 1:]
    return (nv, a_img, xs[: i - 1] + (merged,) + xs[i + 1:])


def _bar_deg(A, raw, i):
    """Bar degeneracy s_i on a raw cell: s_i in every block, then an empty
    unit block inserted at position i.  A raw k-cell has k blocks."""
    nvec, a_img, xs = _box_deg(raw, i)
    unit = A.unit_ref(len(nvec) + 1)
    return (nvec[:i] + (0,) + nvec[i:], a_img, xs[:i] + (unit,) + xs[i:])


def bar(A, S):
    """Bar construction B(A), realized levelwise by the diagonal.

    Degree k of the underlying simplicial object is the k-fold box power of
    the carrier; the diagonal has its k-simplices in bar degree k.  The
    record's degeneracies insert an empty unit block (`_bar_deg`).
    """
    X = A.space
    powers = (X,) * S  # the factors of every bar cell; zip stops at its length
    canon = []
    tables = []
    for n in range(A.N + 1):
        cn = [_box_classes(powers[:k], n, k, n).canonicalize() for k in range(S + 1)]
        cells = [sorted(set(cn[k].values())) for k in range(S + 1)]

        def faces_fn(k, raw, cn=cn):
            return tuple(cn[k - 1][_bar_face(A, powers, raw, i)] for i in range(k + 1))

        def deg_fn(k, raw, i, cn=cn):
            return cn[k + 1][_bar_deg(A, raw, i)]

        base = cn[0][((), (), ())]
        tables.append(normalize_table(cells, faces_fn, deg_fn, S, based_raw=base))
        canon.append(cn)
    return _box_space(tables, canon, powers, partial(_bar_deg, A))


def bar_monoid(A, B):
    """B(A) as a commutative monoid, by blockwise interleaving.

    The product of two bar cells of equal degree multiplies corresponding
    blocks with the monoid multiplication.  Its decomposition image
    interleaves the two images block by block, the second shifted past
    level m: the block sum of the two injections after the block shuffle.
    B is the bar construction of A.
    """

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


# ---------------------------------------------------------------------------
# The bar construction of the homotopy colimit.
# ---------------------------------------------------------------------------

def _chain_sum(I, z, w, x):
    """Block sum of two raw homotopy-colimit chains of equal length, carrying x.

    The head levels add, and arrow i of the sum is the block sum of the
    arrows i, looked up on their codes in I (`CodedI.plus`).
    """
    return (z[0] + w[0],) + tuple(I.plus[f, g] for f, g in zip(z[1:-1], w[1:-1])) + (x,)


def _chain_mul(A, I, z, w):
    """Monoid product on raw homotopy-colimit cells, by chain block sum."""
    return _chain_sum(I, z, w, A.mul(_tail_level(I, z), _tail_level(I, w), z[-1], w[-1]))


def _merge_at(A, I, f, i):
    """Bar entries f with the adjacent entries f[i - 1] and f[i] multiplied."""
    return f[: i - 1] + (_chain_mul(A, I, f[i - 1], f[i]),) + f[i + 1:]


def _chain_unit(A, I, s):
    """The unit s-cell: s identity arrows of level 0, then the unit simplex."""
    return (0,) + (I.ident[0],) * s + (A.unit_ref(s),)


def bar_of_hocolim(A, K):
    """B of the simplicial monoid A_hI, truncated by total head level.

    Diagonal k-simplices are k-tuples of raw k-cells of the homotopy colimit
    whose top chain levels sum to at most N; bar faces multiply adjacent
    entries with the chainwise block-sum product.
    """
    X, I = A.space, coded_injections(A.N)
    raws = _chain_cells(X, K, TruncatedI(A.N).hom)
    cells = [_tuples_bounded([raws[k]] * k, A.N) for k in range(K + 1)]
    faces = _hocolim_faces(X)

    def faces_fn(k, raw):
        cols = tuple(zip(*[faces(z) for z in raw]))  # cols[i]: d_i of every entry
        middle = tuple(_merge_at(A, I, cols[i], i) for i in range(1, k))
        return (cols[0][1:],) + middle + (cols[k][:-1],)

    def deg_fn(k, raw, i):
        degged = tuple(_hocolim_deg(I, z, i) for z in raw)
        return degged[:i] + (_chain_unit(A, I, k + 1),) + degged[i:]

    return normalize_table(cells, faces_fn, deg_fn, K, based_raw=())


def _tuples_bounded(pools, budget):
    """Tuples of raw chain cells, one from each pool, in the order of the
    product of the pools, whose head levels z[0] sum to at most `budget`.

    Each pool is bucketed once by the budget left: fits[b] holds its cells of
    head level at most b, so a prefix extends without testing any cell.
    """
    level = [((), budget)]
    for pool in pools:
        fits = [[(z, z[0]) for z in pool if z[0] <= b] for b in range(budget + 1)]
        level = [(t + (z,), left - h) for t, left in level for z, h in fits[left]]
    return [t for t, _ in level]


def two_sided_bar_of_hocolim(A, K):
    """B(BI, A_hI, BI) with BI the nerve of the truncated injection category.

    Cells carry a leading and a trailing nerve chain; the outer bar faces
    absorb the boundary monoid entries into the nerve chains by block sum.
    """
    X, I = A.space, coded_injections(A.N)
    T = terminal_ispace(A.N)
    raws = _chain_cells(X, K, TruncatedI(A.N).hom)
    t_raws = _chain_cells(T, K, TruncatedI(A.N).hom)
    cells = []
    for k in range(K + 1):
        pools = [t_raws[k]] + [raws[k]] * k + [t_raws[k]]
        cells.append([(t[0], t[1:-1], t[-1]) for t in _tuples_bounded(pools, A.N)])
    faces, t_faces = _hocolim_faces(X), _hocolim_faces(T)

    def faces_fn(k, raw):
        c0, zs, c1 = raw
        c0f, c1f = t_faces(c0), t_faces(c1)
        cols = tuple(zip(*[faces(z) for z in zs]))  # cols[i]: d_i of every entry
        # the nerve chains absorb an outer entry, keeping their point simplex
        middle = tuple((c0f[i], _merge_at(A, I, cols[i], i), c1f[i]) for i in range(1, k))
        return (((_chain_sum(I, c0f[0], cols[0][0], c0f[0][-1]), cols[0][1:], c1f[0]),)
                + middle
                + ((c0f[k], cols[k][:-1], _chain_sum(I, cols[k][-1], c1f[k], c1f[k][-1])),))

    def deg_fn(k, raw, i):
        c0, zs, c1 = raw
        unit = _chain_unit(A, I, k + 1)
        zd = tuple(_hocolim_deg(I, z, i) for z in zs)
        return (_hocolim_deg(I, c0, i), zd[:i] + (unit,) + zd[i:], _hocolim_deg(I, c1, i))

    zero_chain = (0, nd_ref(0, 0))
    return normalize_table(cells, faces_fn, deg_fn, K,
                           based_raw=(zero_chain, (), zero_chain))


# ---------------------------------------------------------------------------
# Group-completion comparisons.
# ---------------------------------------------------------------------------

def restrict_monoid(A, N1):
    return CIMonoidT(restrict(A.space, N1), A.unit, A.mul, name=A.name,
                     meta=dict(A.meta))


@dataclass
class BarComparisonReport:
    """Homology of the three bar-side spaces and the two comparison maps."""

    homology: dict  # "left" | "middle" | "right" -> HomologyReport
    pi0: dict  # term -> component count
    map_iso: dict  # "middle_to_left" | "middle_to_right" -> bool
    cones: dict  # map name -> cone homology groups
    stable: Optional[bool] = None
    trunc: int = 0


def _bar_comparison_once(A, D):
    K = D + 2
    B = bar(A, K)
    left_tab = _coded_chains(B.space, K, TruncatedI(A.N).hom)  # to_left pushes onto its chains
    middle_tab = two_sided_bar_of_hocolim(A, K)
    right_tab = bar_of_hocolim(A, K)
    I = coded_injections(A.N)

    def to_right(k, raw):
        return raw[1]

    def to_left(k, raw):
        c0, zs, c1 = raw
        chain = c0
        for z in zs + (c1,):
            chain = _chain_sum(I, chain, z, None)
        # the bar cell's blocks sit side by side, just past c0's block
        nvec = tuple(_tail_level(I, z) for z in zs)
        start = _tail_level(I, c0)
        image = tuple(range(start + 1, start + sum(nvec) + 1))
        xref = B.ref(_tail_level(I, chain), len(zs), (nvec, image, tuple(z[-1] for z in zs)))
        return chain[:-1] + (xref,)

    f_right = map_from_tables(middle_tab, right_tab, to_right)
    f_left = map_from_tables(middle_tab, left_tab, to_left)
    reports = {
        "left": homology(left_tab.sset, D),
        "middle": homology(middle_tab.sset, D),
        "right": homology(right_tab.sset, D),
    }
    pi0_counts = {
        "left": len(pi0_classes(left_tab.sset)),
        "middle": len(pi0_classes(middle_tab.sset)),
        "right": len(pi0_classes(right_tab.sset)),
    }
    cones = {}
    iso = {}
    for name, f in (("middle_to_left", f_left), ("middle_to_right", f_right)):
        cone = map_cone_homology(f, D + 1)
        cones[name] = cone
        iso[name] = all(cone.get(k, (0, ())) == (0, ()) for k in range(D + 2))
    return BarComparisonReport(reports, pi0_counts, iso, cones, trunc=A.N)


def bar_comparison(A, D):
    """Three-term comparison at truncations N and N-1, with stability flag.

    Refuses when the carrier is not flat, since the comparison is only
    meaningful under that hypothesis.
    """
    cert = is_flat(A.space)
    if not cert.flat:
        raise ValueError(f"carrier is not flat: {cert.witness}")
    hi = _bar_comparison_once(A, D)
    if A.N >= 2:
        lo = _bar_comparison_once(restrict_monoid(A, A.N - 1), D)
        hi.stable = all(
            hi.homology[t].groups == lo.homology[t].groups for t in hi.homology
        ) and hi.map_iso == lo.map_iso
    return hi


def classifying_space_homology(A, D):
    """Homology of the bar construction of the homotopy colimit alone.

    Available without flatness; this is the group-completion observable for
    filtered monoid models whose carrier fails the flatness certificate.
    """
    tab = bar_of_hocolim(A, D + 1)
    return homology(tab.sset, D), tab


def iterated_bar_spectrum(A, n_max, D):
    """Based homotopy colimits of the iterated bar constructions.

    Entry k is the based homotopy colimit over the injection category of the
    k-fold bar construction, reported with homology through degree D.
    """
    out = []
    cur = A
    for k in range(n_max + 1):
        tab = hocolim_I(cur.space, D + 1, based=True)
        out.append((tab.sset, homology(tab.sset, D)))
        if k < n_max:
            cur = bar_monoid(cur, bar(cur, D + 2))
    return out
