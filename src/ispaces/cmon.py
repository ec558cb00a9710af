"""Commutative monoids in truncated diagram spaces.

A CIMonoidT is an ISpaceT carrier with a unit vertex in level 0 and a
multiplication defined on pairs of equal-dimension simplices, landing in the
level-sum space.  The module provides the subsets model of the free monoid
on a degree-one generator, filtered models of ordinary commutative monoids,
component-monoid presentations as reduced rewriting systems by completion,
Grothendieck groups, exact unit detection by support closure (neither with
a search bound), bar constructions, whose faces and degeneracies are the
circle's based maps acting on box cells, and the three-term comparison
between the bar construction of the diagram monoid and of its homotopy colimit.
"""

import heapq
import json
from collections.abc import Callable
from functools import partial, reduce
from itertools import accumulate, combinations, repeat
from operator import add, and_, ge, getitem, itemgetter

from . import icat
from .icat import concat, injections, shuffle
from .simplicial import (
    Chains,
    LazyDict,
    SMap,
    apply_s,
    component_subcomplex,
    homology,
    map_cone_homology,
    map_from_tables,
    nd_ref,
    normalize_table,
    pi0,
    pi0_classes,
    ref_dim,
    vertex_ref,
)
from .ispace import (
    ISpaceT,
    _box_classes,
    _box_deg,
    _box_face,
    _box_space,
    _ChainCodes,
    _coded_chains,
    _discrete_ispace,
    is_flat,
    restrict,
    terminal_ispace,
)
from .util import field, least_roots, record, replace
from .zlinalg import ColumnMatrix, rank_and_torsion


@record
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
        return vertex_ref(dim, self.unit)

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
    mul = LazyDict(lambda key: A.mul(*key))  # each product formed once, by (m, n, rx, ry)
    simp = [[X.level(m).all_simplices(k) for k in range(2)] for m in range(N + 1)]
    for m in range(N + 1):
        for n in range(N + 1 - m):
            tau = X.act(shuffle(m, n))
            for k in range(2):
                for rx in simp[m][k]:
                    for ry in simp[n][k]:
                        p = mul[m, n, rx, ry]
                        if ref_dim(p) != k:
                            bad.append(f"mul({m},{n}) changes dimension")
                            continue
                        if k >= 1:
                            for i in range(k + 1):
                                lhs = X.level(m + n).d(i, p)
                                rhs = mul[m, n, X.level(m).d(i, rx), X.level(n).d(i, ry)]
                                if lhs != rhs:
                                    bad.append(f"mul({m},{n}) does not commute with d_{i}")
                        if tau(p) != mul[n, m, ry, rx]:
                            bad.append(f"commutativity fails at ({m},{n})")
    for n in range(N + 1):
        for k in range(2):
            u = A.unit_ref(k)
            for ry in simp[n][k]:
                if mul[0, n, u, ry] != ry:
                    bad.append(f"left unit fails at level {n}")
                if mul[n, 0, ry, u] != ry:
                    bad.append(f"right unit fails at level {n}")
    for m in range(N + 1):
        for n in range(N + 1 - m):
            for p_ in range(N + 1 - m - n):
                for k in range(2):
                    for rx in simp[m][k]:
                        for ry in simp[n][k]:
                            for rz in simp[p_][k]:
                                a = mul[m + n, p_, mul[m, n, rx, ry], rz]
                                b = mul[m, n + p_, rx, mul[n, p_, ry, rz]]
                                if a != b:
                                    bad.append(
                                        f"associativity fails at ({m},{n},{p_})")
    for alpha in injections(N):
        for beta in injections(N):
            if alpha.dst + beta.dst > N:
                continue
            both = X.act(concat(alpha, beta))
            fa, fb = X.act(alpha), X.act(beta)
            for k in range(2):
                for rx in simp[alpha.src][k]:
                    for ry in simp[beta.src][k]:
                        lhs = both(mul[alpha.src, beta.src, rx, ry])
                        rhs = mul[alpha.dst, beta.dst, fa(rx), fb(ry)]
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
# Component monoids and their presentations.
# ---------------------------------------------------------------------------

@record
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
    level_reps = [pi0(A.level(n)) for n in range(A.N + 1)]
    # the vertex v of level n is coded off[n] + v, so a class's least code is its least (n, v)
    off = [0, *accumulate(map(len, level_reps))]
    points = [(n, v) for n, reps in enumerate(level_reps) for v in reps]

    def code(n, v):
        return off[n] + level_reps[n][v]

    def joins():
        for alpha in injections(A.N):
            f = A.space.act(alpha)
            for v in range(A.level(alpha.src).card[0]):
                yield code(alpha.src, v), code(alpha.dst, f(nd_ref(0, v))[2])

    roots = least_roots(off[-1], joins())

    def cls(n, v):
        return points[roots[code(n, v)]]

    classes = sorted({cls(n, v) for n, v in points})
    return cls, classes, cls(0, A.unit)


def pi0_monoid(A):
    """Presentation of the component monoid of the homotopy colimit.

    Generators are the merged non-unit component classes; relations record
    every product of vertices with level sum at most N.  The result is the
    reduced rewriting system of their congruence (`_complete`) over the
    generators no rule rewrites: unique for the order, so neither N past the
    congruence nor the order of the products moves it.

    Returns (CommMonoidPres, class rep -> normal form of its vector).
    """
    cls, classes, unit_cls = merged_classes(A)
    pres, class_vec = class_presentation(classes, unit_cls, _vertex_products(A, cls))
    rules = _complete(pres.relations)
    live = [j for j, c in enumerate(pres.generators) if class_vec[c] not in rules]

    def restrict(vec):
        return tuple(vec[j] for j in live)

    rels = sorted(tuple(sorted((restrict(lhs), restrict(rhs))))
                  for lhs, rhs in rules.items() if sum(lhs) > 1)
    return (CommMonoidPres([pres.generators[j] for j in live], rels),
            {c: restrict(_normal_form(v, rules)) for c, v in class_vec.items()})


def _vertex_products(A, cls):
    """(class of x, class of y, class of xy) for vertices x, y with level sum at most N."""
    return ((cls(m, x), cls(n, y), cls(m + n, A.mul(m, n, nd_ref(0, x), nd_ref(0, y))[2]))
            for m in range(A.N + 1) for n in range(A.N + 1 - m)
            for x in range(A.level(m).card[0]) for y in range(A.level(n).card[0]))


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
        lhs, rhs = tuple(map(add, evec(a), evec(b))), evec(c)
        if lhs != rhs:
            rels.add(tuple(sorted((lhs, rhs))))
    return CommMonoidPres(gens, sorted(rels)), {c: evec(c) for c in classes}


def _complete(relations):
    """The reduced convergent rewriting system {lhs: rhs} of the congruence
    on N^g that `relations` generate, by Knuth-Bendix completion (here
    Buchberger's algorithm on difference binomials: Eisenbud & Sturmfels,
    *Binomial ideals*, 1996).  Words are ordered lexicographically with later
    generators larger, an elimination order.  Equations go smallest first; a
    new rule sends back each rule whose left side lies above its own and
    queues its critical pairs with the rest.  Left sides stay an antichain,
    so this ends (Dickson's lemma); congruent words have one normal form.
    """
    queue = []

    def push(u, v):
        heapq.heappush(queue, (max(u[::-1], v[::-1]), u, v))

    for u, v in relations:
        push(u, v)
    rules = {}
    while queue:
        _, u, v = heapq.heappop(queue)
        rhs, lhs = sorted((_normal_form(u, rules), _normal_form(v, rules)), key=lambda w: w[::-1])
        if lhs == rhs:
            continue
        for old in [old for old in rules if all(map(ge, old, lhs))]:
            push(old, rules.pop(old))
        for old, new in rules.items():
            if any(map(min, old, lhs)):
                peak = tuple(map(max, old, lhs))
                push(_step(peak, old, new), _step(peak, lhs, rhs))
        rules[lhs] = rhs
    return {lhs: _normal_form(rhs, rules) for lhs, rhs in rules.items()}


def _step(vec, lhs, rhs):
    return tuple(a - b + c for a, b, c in zip(vec, lhs, rhs))


def _normal_form(vec, rules):
    """Rewrite `vec` by `rules` until no left side lies below it."""
    while True:
        for lhs, rhs in rules.items():
            if all(map(ge, vec, lhs)):
                vec = _step(vec, lhs, rhs)
                break
        else:
            return vec


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

@record
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


@record
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
    cls, classes, unit_cls = merged_classes(A)
    products = list(_vertex_products(A, cls))
    pres, class_vec = class_presentation(classes, unit_cls, products)
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
    for alpha in injections(A.N):
        f = A.space.act(alpha)
        table = {(k, new): pull(alpha.dst, f(nd_ref(k, x)))
                 for k, ids in enumerate(newid[alpha.src]) for x, new in ids.items()}
        maps[alpha] = SMap(sub_levels[alpha.src], sub_levels[alpha.dst], table)
    space = ISpaceT(A.N, tuple(sub_levels), maps)

    def mul(m, n, rx, ry):
        return pull(m + n, A.mul(m, n, incl[m](rx), incl[n](ry)))

    closed = all(c in unit_classes for a, b, c in products
                 if a in unit_classes and b in unit_classes)
    absorption = not any(c in unit_classes for a, _, c in products if a not in unit_classes)
    units_monoid = CIMonoidT(space, newid[0][0][A.unit], mul,
                             name=A.name + "-units")
    return UnitsReport(units_monoid, incl, unit_classes, nonunit_classes,
                       level_split, closed, absorption)


# ---------------------------------------------------------------------------
# Bar constructions.
# ---------------------------------------------------------------------------

def _based_action(A, phi, l, dim, raw):
    """Push a raw box cell of k blocks along a based map phi: k+ -> l+, where
    phi[i] in 0..l is the image of block i.  Blocks sent to 0 are deleted, the
    blocks of each fiber are multiplied in order (an empty fiber gives the
    unit dim-simplex) and the image is rerouted blockwise.  The bar's faces
    and degeneracies act by the simplicial circle's maps (`_bar_face`,
    `_bar_deg`), the Gamma-space of A by all (`gamma.gamma_of_monoid`)."""
    nvec, a_img, xs = raw
    offsets = (0, *accumulate(nvec))
    new_nvec, image, new_xs = [], [], []
    for j in range(1, l + 1):
        lev, acc = 0, None
        for i, t in enumerate(phi):
            if t == j:
                acc = xs[i] if acc is None else A.mul(lev, nvec[i], acc, xs[i])
                lev += nvec[i]
                image += a_img[offsets[i]: offsets[i + 1]]
        new_nvec.append(lev)
        new_xs.append(A.unit_ref(dim) if acc is None else acc)
    return (tuple(new_nvec), tuple(image), tuple(new_xs))


def _bar_face(A, factors, raw, i):
    """Bar face d_i on a raw k-cell: d_i in every block, then the circle's d_i:
    k+ -> (k-1)+, which drops block 0 or k - 1 (i = 0, k) or merges i - 1, i."""
    k = len(raw[0])
    return _based_action(A, [(j + (j < i)) % k for j in range(k)], k - 1, k - 1,
                         _box_face(factors, raw, i))


def _bar_deg(A, raw, i):
    """Bar degeneracy s_i on a raw k-cell: s_i in every block, then the
    circle's s_i: k+ -> (k+1)+, which inserts an empty unit block at i."""
    k = len(raw[0])
    return _based_action(A, [j + 1 + (j >= i) for j in range(k)], k + 1, k + 1,
                         _box_deg(raw, i))


def bar(A, S):
    """Bar construction B(A), realized levelwise by the diagonal.

    Degree k of the underlying simplicial object is the k-fold box power of
    the carrier; the diagonal has its k-simplices in bar degree k.  Levels
    and maps come from the box products' builder, `ispace._box_space`, with
    the bar's faces and degeneracies (`_bar_face`, `_bar_deg`), the action of
    the simplicial circle's based maps, and the empty cell as basepoint.
    """
    powers, levels = (A.space,) * S, {}  # the factors of every bar cell; zip stops at its length
    return _box_space(A.N, lambda n, k: _box_classes(powers[:k], n, k, n, levels),
                      partial(_bar_face, A, powers), S, partial(_bar_deg, A), ((), (), ()))


# ---------------------------------------------------------------------------
# The bar construction of the homotopy colimit.
# ---------------------------------------------------------------------------

def _bounded(heads, budget):
    """(prefixes, ext) of the tuples of codes j, one per slot t, whose heads[t][j]
    sum to at most `budget`, in product order: p + (f,) for each prefix p and f
    in its ext list, the last slot's codes that fit the budget p leaves, one list per budget."""
    fits = {h: [[j for j, v in enumerate(h) if v <= b] for b in range(budget + 1)]
            for h in set(heads)}
    prefixes, left = [()], [budget]
    for h, fit in zip(heads[:-1], map(fits.get, heads)):
        prefixes = [p + (j,) for p, b in zip(prefixes, left) for j in fit[b]]
        left = [b - h[j] for b in left for j in fit[b]]
    return prefixes, list(map(fits[heads[-1]].__getitem__, left))


class _BarTop(Chains):
    """The bar k-cells by position: a k-chain code per slot t, in the chain
    table tabs[t] (the `cat`), head levels summing to at most `budget`.  s_i
    inserts the unit k-chain at slot lead + i, so a cell is s_i y exactly when
    that slot holds the unit and every other entry is in the image of s_i:
    ok[t][z] masks the i that an entry z at slot t allows."""

    def __init__(self, tabs, k, budget, lead=0):
        super().__init__(*_bounded([tab.heads[k] for tab in tabs], budget), tabs)
        self.lead, self.full, self.faces = lead, (1 << k) - 1, [tab.faces[k] for tab in tabs]
        self.ok = [tab.masks(k, t - lead) for t, tab in enumerate(tabs)]

    def nondegenerate(self, ref_of):
        """The cells that are s_i of no lower cell, in the same order: a prefix's
        list is filtered only if it allows some i, once per list and bits allowed."""
        *ok, last = self.ok
        allowed = repeat(self.full)
        for t, o in enumerate(ok):  # the i that every entry of a prefix allows
            allowed = map(and_, allowed, map(o.__getitem__, map(itemgetter(t), self.prefixes)))
        lists = {id(e): e for e in self.ext}
        kept = LazyDict(lambda key: [f for f in lists[key[0]] if not last[f] & key[1]])
        return Chains(self.prefixes, [kept[id(e), bits] if bits else e
                                      for e, bits in zip(self.ext, allowed)], self.C)

    def degenerate_ref(self, ref_of, z):
        """apply_s(i, ref of y) for a cell z = s_i y, i least, with y the faces d_i of
        the entries of z off its unit slot; None for a nondegenerate z (KeyError off cells)."""
        if not (type(z) is tuple and len(z) == len(self.ok)
                and all(map(range.__contains__, map(range, map(len, self.ok)), z))):
            raise KeyError(z)
        if not (bits := reduce(and_, map(getitem, self.ok, z), self.full)):
            return None
        i = (bits & -bits).bit_length() - 1
        y = [faces[i][e] for faces, e in zip(self.faces, z)]
        del y[self.lead + i]  # the unit chain
        return apply_s(i, ref_of[tuple(y)])


def bar_of_hocolim(A, K, ch=None):
    """B of the simplicial monoid A_hI, truncated by total head level.

    Diagonal k-simplices are k-tuples of codes of raw k-cells of the homotopy
    colimit whose head levels sum to at most N: their positions in the chain
    table `ch` (built here unless given: `bar_comparison` gives the two-sided
    bar's), the table's `cat`, which decodes them; the top ones are given by
    position (`_BarTop`).  Face rows are the table's one bar-face rule
    (`_ChainCodes.bar_faces`), which multiplies adjacent entries once per pair of codes.
    """
    ch = ch or _ChainCodes(A.space, K, range(len(injections(A.N))), A)
    cells = [[()]] + [list(Chains(*_bounded([ch.heads[k]] * k, A.N), None)) for k in range(1, K)]
    cells += [_BarTop([ch] * K, K, A.N)] if K else []
    tab = normalize_table(cells, ch.bar_faces, ch.bar_deg, K, based_raw=())
    tab.cat = ch
    return tab


def two_sided_bar_of_hocolim(A, K):
    """B(BI, A_hI, BI) with BI the nerve of the truncated injection category.

    Cells (c0, *zs, c1) carry a leading and a trailing nerve chain, coded in
    the `_ChainCodes` of the terminal diagram, around codes zs of chains of A_hI;
    the table's `cat` is the pair of chain tables (`bar_comparison` shares the
    second with the one-sided bar).  Face rows are the one-sided bar's rows of
    zs (`_ChainCodes.bar_faces`) between the faces of c0 and c1; the outer
    faces absorb the boundary entry into a nerve chain by the block sum of
    their chains of arrows by position (`sums`), once per pair of chains.
    """
    every = range(len(injections(A.N)))
    ch, t_ch = _ChainCodes(A.space, K, every, A), _ChainCodes(terminal_ispace(A.N), K, every)
    tabs = [[t_ch] + [ch] * k + [t_ch] for k in range(K + 1)]
    cells = [list(Chains(*_bounded([t.heads[k] for t in tabs[k]], A.N), None)) for k in range(K)]
    cells.append(_BarTop(tabs[K], K, A.N, lead=1))

    def faces_fn(k, raw):  # a terminal code is its chain's position, among the chains of ch
        zs, (c0f, c1f) = raw[1:-1], ([f[c] for f in t_ch.faces[k]] for c in (raw[0], raw[-1]))
        rows, d0, dk = ch.bar_faces(k, zs), ch.faces[k][0][zs[0]], ch.faces[k][k][zs[-1]]
        return ((ch.sums(k - 1, c0f[0], ch.chain(k - 1, d0)),) + rows[0] + (c1f[0],),
                *[(c0,) + row + (c1,) for c0, row, c1 in zip(c0f[1:k], rows[1:k], c1f[1:k])],
                (c0f[k],) + rows[k] + (ch.sums(k - 1, ch.chain(k - 1, dk), c1f[k]),))

    def deg_fn(k, raw, i):
        return ((t_ch.deg[k][i][raw[0]],) + ch.bar_deg(k, raw[1:-1], i)
                + (t_ch.deg[k][i][raw[-1]],))

    base = t_ch.encode(0, (0, nd_ref(0, 0)))
    tab = normalize_table(cells, faces_fn, deg_fn, K, based_raw=(base, base))
    tab.cat = (t_ch, ch)
    return tab


# ---------------------------------------------------------------------------
# Group-completion comparisons.
# ---------------------------------------------------------------------------

def restrict_monoid(A, N1):
    return replace(A, space=restrict(A.space, N1), meta=dict(A.meta))


@record
class BarComparisonReport:
    """Homology of the three bar-side spaces and the two comparison maps."""

    homology: dict  # "left" | "middle" | "right" -> HomologyReport
    pi0: dict  # term -> component count
    map_iso: dict  # "middle_to_left" | "middle_to_right" -> bool
    cones: dict  # map name -> cone homology groups
    stable: bool | None = None
    trunc: int = 0


def _bar_comparison_once(A, D):
    """The comparison at A's truncation, both bars of A_hI on one chain table of it, and the
    left term, hocolim_I of the bar, the diagonal of a chain table of bar(A, K).  The three
    tables list the same chains of arrows, so the map to the left term adds the chains of a
    middle cell by position (`sums`) and reads the left code from the sum and the bar cell."""
    K = D + 2
    B = bar(A, K)
    left = _ChainCodes(B.space, K, range(len(injections(A.N))))
    left_tab = _coded_chains(left)
    middle_tab = two_sided_bar_of_hocolim(A, K)
    t_ch, ch = middle_tab.cat
    right_tab = bar_of_hocolim(A, K, ch)

    def to_left(k, raw):
        nvec, xs = tuple(zip(*map(partial(ch.point, k), raw[1:-1]))) or ((), ())
        # a terminal code is its chain's position; sums adds chains left to right
        c = reduce(partial(ch.sums, k), [*map(partial(ch.chain, k), raw[1:-1]), raw[-1]], raw[0])
        # the bar cell's blocks sit side by side, just past c0's block, with c1's last
        start = t_ch.tails[k][raw[0]]
        image = tuple(range(start + 1, start + sum(nvec) + 1))
        xref = B.ref(start + sum(nvec) + t_ch.tails[k][raw[-1]], len(xs), (nvec, image, xs))
        return left.shift[k] + left.off[k][c] + left.pos[k][left.tails[k][c]][xref]

    f_right = map_from_tables(middle_tab, right_tab, lambda k, raw: raw[1:-1])  # the same X codes
    f_left = map_from_tables(middle_tab, left_tab, to_left)
    tabs = {"left": left_tab, "middle": middle_tab, "right": right_tab}
    reports = {term: homology(tab.sset, D) for term, tab in tabs.items()}
    pi0_counts = {term: len(pi0_classes(tab.sset)) for term, tab in tabs.items()}
    cones, iso = {}, {}
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
        raise ValueError(f"carrier is not flat: {json.dumps(cert.witness, sort_keys=True)}")
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

