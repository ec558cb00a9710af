"""Segal-style repackagings of commutative diagram-space monoids.

A GammaSpaceT assigns a based simplicial set to every finite based set k+
up to a bound, with functorial actions of based maps.  The monoid extraction
evaluates based homotopy colimits of box powers; based maps act by deleting,
multiplying and rerouting the box factors.  The module also provides
representables, the special/very-special verdicts, prolongation along a
based simplicial set, the two-variable smash extraction, and the
Eckmann-Hilton coincidence check on components.  In positive degrees the
Segal condition is read through the Alexander-Whitney map, in place of the
product (Eilenberg-Zilber; Eilenberg & Mac Lane, Ann. Math. 58, 1953).
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import product as iproduct
from typing import Callable, Optional

from .simplicial import (
    SMap,
    alexander_whitney,
    apply_s,
    chain_complex,
    cone_homology,
    discrete,
    nd_ref,
    normalize_table,
    pi0,
    point,
    ref_dim,
    tensor_complex,
)
from .ispace import _cell_point, box_multi, hocolim_I, hocolim_map
from .cmon import class_presentation, unit_verdicts


def based_maps(k, l):
    """All based functions k+ -> l+, as length-k tuples over 0..l."""
    return sorted(iproduct(*[range(l + 1)] * k))


def compose_based(psi, phi):
    """psi after phi, for based maps given as image tuples."""
    return tuple(psi[v - 1] if v else 0 for v in phi)


def identity_based(k):
    return tuple(range(1, k + 1))


@dataclass
class GammaSpaceT:
    """Based functor on finite based sets up to a bound, evaluated lazily.

    `act_fn(phi, k, l)` builds the SMap for a based map phi: k+ -> l+; built
    maps are cached.
    """

    K: int
    values: list
    act_fn: Callable
    _cache: dict = field(default_factory=dict, repr=False)

    def act(self, phi, k, l):
        key = (phi, k, l)
        if key not in self._cache:
            self._cache[key] = self.act_fn(phi, k, l)
        return self._cache[key]

    def validate(self, K_check=None):
        bad = []
        if self.values[0].size() != 1:
            bad.append("value at 0+ is not a point")
        K = self.K if K_check is None else min(K_check, self.K)
        for k in range(K + 1):
            for l in range(K + 1):
                for phi in based_maps(k, l):
                    f = self.act(phi, k, l)
                    bad += [f"map {phi}: {m}" for m in f.validate()]
                    bp = self.values[k].basepoint
                    _, _, img = f(nd_ref(0, bp))
                    if img != self.values[l].basepoint:
                        bad.append(f"map {phi} not based")
        if bad:
            return bad
        for k in range(K + 1):
            f = self.act(identity_based(k), k, k)
            if any(f.table[key] != nd_ref(*key) for key in f.src.nondeg_keys()):
                bad.append(f"identity does not act trivially at {k}+")
        for k in range(K + 1):
            for l in range(K + 1):
                for m in range(K + 1):
                    for phi in based_maps(k, l):
                        for psi in based_maps(l, m):
                            lhs = self.act(compose_based(psi, phi), k, m)
                            a = self.act(phi, k, l)
                            b = self.act(psi, l, m)
                            if any(lhs.table[key] != b(a.table[key])
                                   for key in a.src.nondeg_keys()):
                                bad.append(f"functoriality fails at {psi} after {phi}")
        return bad


def representable(k, K):
    """The discrete functor of based maps out of k+."""
    if k > K:
        raise ValueError("representing object exceeds the bound")
    values = []
    index = []
    for l in range(K + 1):
        maps_l = based_maps(k, l)
        idx = {m: i for i, m in enumerate(maps_l)}
        zero = tuple(0 for _ in range(k))
        values.append(discrete(len(maps_l), basepoint=idx[zero]))
        index.append(idx)

    def act_fn(phi, a, b):
        table = {}
        for m, i in index[a].items():
            table[(0, i)] = nd_ref(0, index[b][compose_based(phi, m)])
        return SMap(values[a], values[b], table)

    return GammaSpaceT(K, values, act_fn)


# ---------------------------------------------------------------------------
# Extraction from a commutative monoid.
# ---------------------------------------------------------------------------

def _apply_based_to_raw(A, phi, l, raw):
    """Push a k-factor box raw cell along a based map phi: k+ -> l+.

    Factors sent to the basepoint are deleted; factors in the same fiber are
    multiplied in order; the decomposition injection is rerouted blockwise.
    """
    nvec, a_img, xs = raw
    k = len(nvec)
    offsets = [0]
    for t in nvec:
        offsets.append(offsets[-1] + t)
    new_nvec = []
    new_xs = []
    image = []
    dim = ref_dim(xs[0]) if xs else 0
    for j in range(1, l + 1):
        fiber = [i for i in range(k) if phi[i] == j]
        total = sum(nvec[i] for i in fiber)
        acc = None
        lev = 0
        for i in fiber:
            if acc is None:
                acc, lev = xs[i], nvec[i]
            else:
                acc = A.mul(lev, nvec[i], acc, xs[i])
                lev += nvec[i]
        if acc is None:
            acc = A.unit_ref(dim)
        new_nvec.append(total)
        new_xs.append(acc)
        for i in fiber:
            image.extend(a_img[offsets[i]: offsets[i] + nvec[i]])
    return (tuple(new_nvec), tuple(image), tuple(new_xs))


def gamma_of_monoid(A, K, S):
    """The functor k+ -> based homotopy colimit of the k-fold box power.

    The one-variable value shares the code path of the based homotopy
    colimit of the carrier itself; based maps act on box factors via the
    monoid multiplication.  Box powers and homotopy colimits are built
    through dimension S.
    """
    boxes = [None]
    for k in range(1, K + 1):
        boxes.append(box_multi(tuple(A.space for _ in range(k)), S, based=True))
    tabs = [None]
    for k in range(1, K + 1):
        tabs.append(hocolim_I(boxes[k].space, S, based=True))
    values = [point()] + [t.sset for t in tabs[1:]]

    def act_fn(phi, k, l):
        if k == 0:
            bp = values[l].basepoint
            return SMap(values[0], values[l], {(0, 0): nd_ref(0, bp)})
        if l == 0:
            table = {}
            for d in range(values[k].top_dim + 1):
                for x in range(values[k].card[d]):
                    table[(d, x)] = (tuple(range(d - 1, -1, -1)), 0, 0)
            return SMap(values[k], values[0], table)

        return hocolim_map(tabs[k], tabs[l], lambda n, x: boxes[l].ref(
            n, ref_dim(x), _apply_based_to_raw(A, phi, l, boxes[k].raw(n, x))))

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


@dataclass
class SpecialVerdict:
    verdict: str  # special-evidence | refuted | inconclusive
    witness: Optional[dict] = None
    very_special: Optional[str] = None  # yes | refuted | unknown (only when K < 2)
    very_special_witness: Optional[dict] = None
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
    for (d, v), raw in tabs[k].raw_of.items():
        if d != 0:
            continue
        m, _ = _cell_point(tabs[k], 0, raw)
        c = reps[v]
        out[c] = min(out.get(c, m), m)
    bp = X.values[k].basepoint
    if bp is not None:
        # the quotient keeps a single arbitrary raw for the collapsed vertex
        out[reps[bp]] = 0
    return out


def _component_pairing(G, big, pa, pb, k, l):
    """Components of `big` against pairs of components of G's values at k+, l+.

    Returns (ok, image, pairs): each component representative's components
    under pa and pb, the number of pairs to reach, and whether the image is a
    bijection onto them.  With colimit provenance only pairs within the level
    bound count: truncation bars the full surjection for graded monoids.
    """
    ra, rb, rbig = pi0(G.values[k]), pi0(G.values[l]), pi0(big)
    image = {}
    for v in range(big.card[0]):
        (_, _, a), (_, _, b) = pa(nd_ref(0, v)), pb(nd_ref(0, v))
        image[rbig[v]] = (ra[a], rb[b])
    mla, mlb = _min_levels(G, k), _min_levels(G, l)
    if mla is None or mlb is None:
        n_pairs = len(set(ra.values())) * len(set(rb.values()))
    else:
        n_pairs = sum(1 for ca in set(ra.values()) for cb in set(rb.values())
                      if mla[ca] + mlb[cb] <= G.monoid.N)
    return len(set(image.values())) == len(image) == n_pairs, image, n_pairs


def pi0_monoid_of_gamma(X):
    """The fold-induced monoid on components of the value at 1+.

    Products are defined through components of the value at 2+ when the
    projection pairing reaches them; the result is a presentation over the
    non-basepoint component classes.
    """
    one = X.values[1]
    fold = X.act((1, 1), 2, 1)
    _, image, _ = _component_pairing(X, X.values[2], X.act(projection_map(1, 1, 1), 2, 1),
                                     X.act(projection_map(1, 1, 2), 2, 1), 1, 1)
    r1 = pi0(one)
    # the fold, like the projections, keeps a component in one component
    products = ((a, b, r1[fold(nd_ref(0, c))[2]]) for c, (a, b) in image.items())
    return class_presentation(sorted(set(r1.values())), r1[one.basepoint], products)


def is_special(X, D=0):
    """Evidence verdict for the Segal condition at the truncation.

    Checks that the projections induce component bijections (and homology
    isomorphisms through degree D when D is positive) for all k + l within
    the bound, then tests whether the fold monoid on components is a group.
    The homology check takes the cone of the Alexander-Whitney map
    C(X((k+l)+)) -> C(X(k+)) (x) C(X(l+)) instead of building X(k+) x X(l+)
    (Eilenberg & Mac Lane), from cells through dimension D + 2; it refuses a
    value that is neither complete nor a skeleton through that dimension.
    """
    detail = {}
    witness = None
    for k in range(1, X.K):
        for l in range(1, X.K + 1 - k):
            A, B, V = X.values[k], X.values[l], X.values[k + l]
            p1 = X.act(projection_map(k, l, 1), k + l, k)
            p2 = X.act(projection_map(k, l, 2), k + l, l)
            ok, image, want = _component_pairing(X, V, p1, p2, k, l)
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
    vs = "unknown"
    vs_witness = None
    if X.K >= 2:
        pres, class_vec = pi0_monoid_of_gamma(X)
        uv = unit_verdicts(pres, vectors=sorted(set(class_vec.values())))
        non_units = [c for c, v in class_vec.items() if not uv.is_unit(v)]
        if non_units:
            vs = "refuted"
            vs_witness = {"non_unit_classes": non_units,
                          "witness": uv.status[class_vec[non_units[0]]]}
        else:
            vs = "yes"
        detail["pi0_monoid"] = pres.to_json()
    return SpecialVerdict(verdict, witness, vs, vs_witness, detail)


# ---------------------------------------------------------------------------
# Prolongation.
# ---------------------------------------------------------------------------

def prolong(X, Kbase, dim_bound=None):
    """Evaluate a Gamma-space on a based simplicial set, then take diagonals.

    The based set of s-simplices of the argument is identified with c+ by
    listing the basepoint-degenerate simplex first and the rest in a fixed
    order; structure maps of the argument act through the functor.
    """
    if Kbase.basepoint is None:
        raise ValueError("prolongation needs a based argument")
    if dim_bound is None:
        dim_bound = X.K
    sizes = []
    orders = []
    for s in range(dim_bound + 1):
        simps = Kbase.all_simplices(s)
        bp = (tuple(range(s - 1, -1, -1)), 0, Kbase.basepoint)
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


@dataclass
class BiGammaT:
    """Two-variable based functor obtained by smashing the arguments."""

    K: int
    gamma: GammaSpaceT

    def value(self, k, l):
        return self.gamma.values[k * l]

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

    def validate(self):
        bad = []
        for k in range(self.K + 1):
            if self.value(k, 0).size() != 1 or self.value(0, k).size() != 1:
                bad.append(f"value at ({k}+, 0+) is not a point")
        return bad


def bi_gamma_from(A, K, S):
    """BiGammaT with values A_Gamma(k+ smash l+)."""
    gam = gamma_of_monoid(A, K * K, S)
    return BiGammaT(K, gam)


@dataclass
class EckmannHiltonReport:
    passed: bool
    products: dict  # (class a, class b) -> (row product, column product)
    witness: Optional[dict] = None


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
    r1 = pi0(X.value(1, 1))
    folds = []
    for k, l, which, act in ((2, 1, "rows", lambda phi: X.act1(phi, 2, 1, 1)),
                             (1, 2, "columns", lambda phi: X.act2(1, phi, 2, 1))):
        ok, image, want = _component_pairing(X.gamma, X.value(k, l), act((1, 0)), act((0, 1)),
                                             1, 1)
        if not ok:
            raise ValueError(f"bi-special component pairing fails for {which}: "
                             f"{len(image)} classes vs {want} pairs")
        fold = act((1, 1))  # keeps a component in one component: read it at the representative
        fold_of = {}
        for c, pair in image.items():
            _, _, v = fold(nd_ref(0, c))
            fold_of[pair] = r1[v]
        folds.append(fold_of)
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
