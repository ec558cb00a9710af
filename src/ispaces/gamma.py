"""Segal-style repackagings of commutative diagram-space monoids.

A GammaSpaceT assigns a based simplicial set to every finite based set k+
up to a bound, with functorial actions of based maps.  The monoid extraction
evaluates based homotopy colimits of box powers; based maps act by deleting,
multiplying and rerouting the box factors (`cmon._based_action`, whose maps
of the simplicial circle are the bar's faces and degeneracies).  The module
also provides the special/very-special verdicts, the two-variable smash
extraction, and the Eckmann-Hilton coincidence check on components.  In
positive degrees the Segal condition is read through the Alexander-Whitney
map, in place of the product (Eilenberg-Zilber; Eilenberg & Mac Lane, Ann.
Math. 58, 1953).
"""

from collections.abc import Callable
from functools import partial

from .simplicial import (
    LazyDict,
    SMap,
    alexander_whitney,
    chain_complex,
    cone_homology,
    nd_ref,
    pi0,
    pi0_classes,
    pi0_image,
    point,
    ref_dim,
    tensor_complex,
    vertex_ref,
)
from .ispace import _cell_point, box_multi, hocolim_I, hocolim_map
from .cmon import _based_action, class_presentation, unit_verdicts
from .util import field, record


@record
class GammaSpaceT:
    """Based functor on finite based sets up to a bound, evaluated lazily.

    `act_fn(phi, k, l)` builds the SMap for a based map phi: k+ -> l+ with
    k, l <= K, which `act` caches; `act` refuses a tuple that is no such map.
    """

    K: int
    values: list
    act_fn: Callable
    _cache: dict = field(default_factory=dict)

    def act(self, phi, k, l):
        key = (phi, k, l)
        if key not in self._cache:
            if not (0 <= k <= self.K and 0 <= l <= self.K and len(phi) == k
                    and all(0 <= t <= l for t in phi)):
                raise ValueError(f"{phi!r} is no based map {k}+ -> {l}+ with k, l <= {self.K}")
            self._cache[key] = self.act_fn(phi, k, l)
        return self._cache[key]


# ---------------------------------------------------------------------------
# Extraction from a commutative monoid.
# ---------------------------------------------------------------------------

def gamma_of_monoid(A, K, S):
    """The functor k+ -> based homotopy colimit of the k-fold box power.

    The value at 1+ is that of the carrier itself, the one-fold power, whose
    x in A(n) is the raw cell ((n,), (1..n), (x,)) and A(m -> n)(y) the class
    of ((m,), image, (y,)); based maps act on box factors via the monoid
    multiplication.  Box powers and homotopy colimits are built through
    dimension S.
    """
    if K < 0:
        raise ValueError("based-set size bound must be nonnegative")
    boxes = [None, None]
    for k in range(2, K + 1):
        boxes.append(box_multi(tuple(A.space for _ in range(k)), S, based=True))
    tabs = [None]
    for k in range(1, K + 1):
        tabs.append(hocolim_I(boxes[k].space if k > 1 else A.space, S, based=True))
    values = [point()] + [t.sset for t in tabs[1:]]

    def act_fn(phi, k, l):
        if k == 0:
            bp = values[l].basepoint
            return SMap(values[0], values[l], {(0, 0): nd_ref(0, bp)})
        if l == 0:
            return SMap(values[k], values[0], LazyDict(lambda key: vertex_ref(key[0], 0)))

        def image(n, x):
            raw = boxes[k].raw(n, x) if k > 1 else ((n,), tuple(range(1, n + 1)), (x,))
            cell = _based_action(A, phi, l, ref_dim(x), raw)
            if l > 1:
                return boxes[l].ref(n, ref_dim(x), cell)
            (m,), img, (y,) = cell
            return A.space.act((m, n, img))(y)

        return hocolim_map(tabs[k], tabs[l], image)

    gam = GammaSpaceT(K, values, act_fn)
    gam.tabs = tabs
    gam.monoid = A
    return gam


# ---------------------------------------------------------------------------
# Special and very special verdicts.
# ---------------------------------------------------------------------------

def projection_map(k, l, which):
    """p1 or p2: (k+l)+ -> k+ or l+."""
    if which == 1:
        return tuple(list(range(1, k + 1)) + [0] * l)
    return tuple([0] * k + list(range(1, l + 1)))


@record
class SpecialVerdict:
    verdict: str  # special-evidence | refuted | inconclusive
    witness: dict | None = None
    very_special: str | None = None  # yes | refuted | unknown (only when K < 2)
    very_special_witness: dict | None = None
    detail: dict = field(default_factory=dict)


def _min_levels(X, k):
    """Least diagram level carrying a vertex of each component of X(k+).

    Available when the functor records its homotopy-colimit provenance;
    returns None otherwise.
    """
    tabs = getattr(X, "tabs", None)
    if tabs is None:
        return None
    reps = pi0(X.values[k])
    out = {}
    for v, raw in enumerate(tabs[k].raw_of[0]):
        m, _ = _cell_point(tabs[k], 0, raw)
        c = reps[v]
        out[c] = min(out.get(c, m), m)
    bp = X.values[k].basepoint
    if bp is not None:
        # the quotient's vertex 0 keeps the raw cell of one collapsed vertex
        out[reps[bp]] = 0
    return out


def _component_pairing(G, maps, k, l):
    """Components of the maps' one source against pairs of components of G's
    values at k+, l+, the first two maps' targets.

    Returns (ok, image, pairs): `pi0_image(maps)`, the number of pairs to
    reach, and whether the first two entries of the image are a bijection
    onto them.  With colimit provenance only pairs within the level bound
    count: truncation bars the full surjection for graded monoids.
    """
    image = pi0_image(maps)
    ca, cb = pi0_classes(G.values[k]), pi0_classes(G.values[l])
    mla, mlb = _min_levels(G, k), _min_levels(G, l)
    if mla is None or mlb is None:
        n_pairs = len(ca) * len(cb)
    else:
        n_pairs = sum(1 for a in ca for b in cb if mla[a] + mlb[b] <= G.monoid.N)
    ok = len({c[:2] for c in image.values()}) == len(image) == n_pairs
    return ok, image, n_pairs


def pi0_monoid_of_gamma(X):
    """The fold-induced monoid on components of the value at 1+.

    Each component of the value at 2+ gives the product of its two
    projections, its image under the fold; the result is a presentation over
    the non-basepoint component classes.
    """
    one = X.values[1]
    maps = [X.act(phi, 2, 1) for phi in (projection_map(1, 1, 1), projection_map(1, 1, 2),
                                         (1, 1))]
    return class_presentation(pi0_classes(one), pi0(one)[one.basepoint],
                              pi0_image(maps).values())


def is_special(X, D=0):
    """Evidence verdict for the Segal condition at the truncation.

    Checks that the projections induce component bijections (and homology
    isomorphisms through degree D when D is positive) for all k + l within
    the bound, then tests whether the fold monoid on components is a group.
    The homology check takes the cone of the Alexander-Whitney map
    C(X((k+l)+)) -> C(X(k+)) (x) C(X(l+)) instead of building X(k+) x X(l+)
    (Eilenberg & Mac Lane), from cells through dimension D + 2; it refuses a
    value that is neither complete nor a skeleton through that dimension.
    Below K = 2 there is no pair (k, l) to check, so the verdict is
    inconclusive.
    """
    if X.K < 2:
        return SpecialVerdict("inconclusive", very_special="unknown",
                              detail={"reason": f"no pair (k, l) to check at K = {X.K} < 2"})
    detail = {}
    witness = None
    for k in range(1, X.K):
        for l in range(1, X.K + 1 - k):
            A, B, V = X.values[k], X.values[l], X.values[k + l]
            p1 = X.act(projection_map(k, l, 1), k + l, k)
            p2 = X.act(projection_map(k, l, 2), k + l, l)
            ok, image, want = _component_pairing(X, (p1, p2), k, l)
            detail[f"pi0({k},{l})"] = {"classes": len(image), "pairs": want, "ok": ok}
            if not ok and witness is None:
                witness = {"check": "pi0", "pair": (k, l),
                           "classes": len(image), "expected_pairs": want}
            if D >= 1 and ok:
                for j in (k, l, k + l):
                    if not X.values[j].complete and X.values[j].top_dim < D + 2:
                        raise ValueError(
                            f"homology of the pairing through degree {D} needs "
                            f"simplices up to dimension {D + 2}; the value at "
                            f"{j}+ has {X.values[j].top_dim} and no completeness guarantee")
                top = min(D + 2, max(V.top_dim + 1, A.top_dim + B.top_dim))
                T, pos = tensor_complex(chain_complex(A, top), chain_complex(B, top), top)
                cone = cone_homology(
                    chain_complex(V, top - 1), T, partial(alexander_whitney, p1, p2, pos),
                    V.vanishes(top), A.complete and B.complete and A.top_dim + B.top_dim <= top)
                iso = all(cone.get(i, (0, ())) == (0, ()) for i in range(D + 2))
                detail[f"homology({k},{l})"] = {"cone": cone, "ok": iso}
                if not iso and witness is None:
                    witness = {"check": "homology", "pair": (k, l), "cone": cone}
    verdict = "special-evidence" if witness is None else "refuted"
    vs, vs_witness = "yes", None
    pres, class_vec = pi0_monoid_of_gamma(X)
    uv = unit_verdicts(pres, vectors=sorted(set(class_vec.values())))
    non_units = [c for c, v in class_vec.items() if not uv.is_unit(v)]
    if non_units:
        vs = "refuted"
        vs_witness = {"non_unit_classes": non_units,
                      "witness": uv.status[class_vec[non_units[0]]]}
    return SpecialVerdict(verdict, witness, vs, vs_witness, detail)


# ---------------------------------------------------------------------------
# Two-variable smash extraction and the Eckmann-Hilton check.
# ---------------------------------------------------------------------------

def smash_index(l):
    """Lexicographic identification of k+ smash l+ with (k*l)+, for every k."""
    def pair_to_point(i, j):
        if i == 0 or j == 0:
            return 0
        return (i - 1) * l + j

    return pair_to_point


@record
class BiGammaT:
    """Two-variable based functor obtained by smashing the arguments."""

    K: int
    gamma: GammaSpaceT

    def act1(self, phi, k, l, k2):
        """Action of phi: k+ -> k2+ in the first variable."""
        sm_dst = smash_index(l)
        image = []
        for i in range(1, k + 1):
            for j in range(1, l + 1):
                image.append(sm_dst(phi[i - 1], j))
        return self.gamma.act(tuple(image), k * l, k2 * l)

    def act2(self, k, phi, l, l2):
        sm_dst = smash_index(l2)
        image = []
        for i in range(1, k + 1):
            for j in range(1, l + 1):
                image.append(sm_dst(i, phi[j - 1]))
        return self.gamma.act(tuple(image), k * l, k * l2)


def bi_gamma_from(A, K, S):
    """BiGammaT with values A_Gamma(k+ smash l+)."""
    gam = gamma_of_monoid(A, K * K, S)
    return BiGammaT(K, gam)


@record
class EckmannHiltonReport:
    passed: bool
    products: dict  # (class a, class b) -> (row product, column product)
    witness: dict | None = None


def eckmann_hilton_check(X):
    """Compare the two fold products on components of the (1+, 1+) value.

    Requires the component pairings through (2+, 1+) and (1+, 2+) to be
    bijective onto pairs; refuses with a witness otherwise.  Then both
    products are computed on every representable class pair and compared.

    At these arguments the check passes by construction: for phi: 2+ -> 1+,
    `act1(phi, 2, 1, 1)` and `act2(1, phi, 2, 1)` are both the action of phi
    on the value at 2+, one cached map.  A real interchange check needs both
    variables at 2+ or more.
    """
    folds = []
    for which, act in (("rows", lambda phi: X.act1(phi, 2, 1, 1)),
                       ("columns", lambda phi: X.act2(1, phi, 2, 1))):
        ok, image, want = _component_pairing(X.gamma, (act((1, 0)), act((0, 1)), act((1, 1))),
                                             1, 1)
        if not ok:
            raise ValueError(f"bi-special component pairing fails for {which}: "
                             f"{len(image)} classes vs {want} pairs")
        folds.append({(a, b): c for a, b, c in image.values()})
    prod_row, prod_col = folds
    products = {}
    witness = None
    for key in sorted(set(prod_row) | set(prod_col)):
        a = prod_row.get(key)
        b = prod_col.get(key)
        products[key] = (a, b)
        if a is not None and b is not None and a != b and witness is None:
            witness = {"pair": key, "row": a, "column": b}
    passed = witness is None and products
    return EckmannHiltonReport(bool(passed), products, witness)
