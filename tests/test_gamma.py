import pytest

from ispaces.cmon import c1, cyclic2_monoid, pi0_monoid, sec52_monoid, units
from ispaces.gamma import (
    BiGammaT,
    GammaSpaceT,
    bi_gamma_from,
    eckmann_hilton_check,
    gamma_of_monoid,
    is_special,
    pi0_monoid_of_gamma,
    projection_map,
    smash_index,
)
from ispaces.ispace import _cell_point
from ispaces.simplicial import (
    SMap,
    discrete,
    homology,
    map_cone_homology,
    nd_ref,
    pi0,
    pi0_classes,
    point,
    simplicial_circle,
    validate_sset,
)
from oracles import (
    based_maps,
    compose_based,
    gamma_through_boxes,
    one_block,
    pairing_map,
    product_sset,
    prolong,
    representable,
    validate_bi_gamma,
    validate_gamma,
)


def test_based_map_enumeration():
    assert len(based_maps(1, 2)) == 3
    assert len(based_maps(2, 1)) == 4
    assert compose_based((1, 0), (2, 2)) == (0, 0)


def test_representable_levels_and_functoriality():
    R = representable(1, 3)
    assert [v.card[0] for v in R.values] == [1, 2, 3, 4]
    assert validate_gamma(R, K_check=2) == []
    R2 = representable(2, 2)
    assert R2.values[1].card[0] == 4


def test_gamma_of_monoid_basics():
    G = gamma_of_monoid(c1(2), 2, 2)
    assert sum(G.values[0].card) == 1
    for v in G.values:
        assert validate_sset(v) == []
    assert validate_gamma(G, K_check=2) == []


@pytest.mark.parametrize("phi,k,l", [
    ((3,), 1, 2), ((-1,), 1, 1), ((1, 1, 1), 1, 2), ((1,), 2, 1), ((1,), 1, 3), ((1, 1, 1), 3, 1),
], ids=["entry-above-l", "negative-entry", "too-long", "too-short", "l-above-K", "k-above-K"])
def test_act_refuses_what_is_no_based_map(phi, k, l):
    G = gamma_of_monoid(c1(2), 2, 2)
    with pytest.raises(ValueError, match="no based map"):
        G.act(phi, k, l)
    assert not G._cache


def _identity_on_two_points(from_point):
    """Values a point at 0+ and two points, 0 the basepoint, at 1+ and 2+;
    every based map between 1+ and 2+ acts as the identity, and the point
    at 0+ goes to vertex `from_point`.  No functor: the zero map 1+ -> 1+
    acts as the identity, but its factorisation through 0+ does not."""
    values = [point(), discrete(2, basepoint=0), discrete(2, basepoint=0)]

    def act_fn(phi, k, l):
        if l == 0:
            table = {(0, x): nd_ref(0, 0) for x in range(values[k].card[0])}
        elif k == 0:
            table = {(0, 0): nd_ref(0, from_point)}
        else:
            table = {(0, x): nd_ref(0, x) for x in range(2)}
        return SMap(values[k], values[l], table)

    return GammaSpaceT(2, values, act_fn)


def test_gamma_validator_reports_broken_functoriality():
    bad = validate_gamma(_identity_on_two_points(0))
    assert "functoriality fails at () after (0,)" in bad
    assert all(m.startswith("functoriality fails at ") for m in bad), bad


def test_gamma_validator_reports_a_map_that_is_not_based():
    # the maps 0+ -> 1+ and 0+ -> 2+ send the basepoint to vertex 1
    assert validate_gamma(_identity_on_two_points(1)) == ["map () not based"] * 2


def test_gamma_maps_validate():
    """The maps of the Gamma-space of c1(3) through dimension 3 are
    simplicial: every based map out of 1+ and 2+, and the three projections
    and the fold out of 3+ (all 137 maps out of k+ <= 3+ take about 19 s)."""
    G = gamma_of_monoid(c1(3), 3, 3)
    maps = [(phi, k, l) for k in (1, 2) for l in (1, 2, 3) for phi in based_maps(k, l)]
    maps += [(phi, 3, 1) for phi in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    for phi, k, l in maps:
        assert G.act(phi, k, l).validate() == [], (phi, k, l)


@pytest.mark.parametrize("build,K", [(lambda: c1(3), 3), (lambda: sec52_monoid(2), 4)],
                         ids=["c1-3", "m52-2"])
def test_maps_at_one_match_the_one_factor_box(build, K):
    """Every based map k+ -> l+ with k or l equal to 1 (k, l <= 3) is
    simplicial, and its vertex images are those of the Gamma-space that
    builds 1+ from the one-factor box (`oracles.gamma_through_boxes`),
    vertices matched by their cells (m, x), x read in the box by `one_block`."""
    A = build()
    G = gamma_of_monoid(A, K, 2)
    R, boxes, tabs = gamma_through_boxes(A, K, 2)

    def matching(k):  # vertex of G's value at k+ -> vertex of R's
        if k == 0:
            return {0: 0}
        at = {_cell_point(tabs[k], 0, raw): w for w, raw in enumerate(tabs[k].raw_of[0])}
        out = {}
        for v, raw in enumerate(G.tabs[k].raw_of[0]):
            m, x = _cell_point(G.tabs[k], 0, raw)
            out[v] = at[m, one_block(boxes[1], m, x) if k == 1 else x]
        assert out[G.values[k].basepoint] == R.values[k].basepoint
        assert sorted(out.values()) == list(range(R.values[k].card[0]))
        return out

    match = [matching(k) for k in range(4)]
    for k, l in sorted({(1, l) for l in range(4)} | {(k, 1) for k in range(4)}):
        for phi in based_maps(k, l):
            f, g = G.act(phi, k, l), R.act(phi, k, l)
            assert f.validate() == [], (phi, k, l)
            assert all(match[l][f(nd_ref(0, v))[2]] == g(nd_ref(0, w))[2]
                       for v, w in match[k].items()), (phi, k, l)


def test_gamma_value_one_is_based_hocolim():
    from ispaces.ispace import hocolim_I

    A = c1(2)
    G = gamma_of_monoid(A, 2, 2)
    direct = hocolim_I(A.space, 2, based=True)
    assert G.values[1].card == direct.sset.card


def test_gamma_pi0_classes_of_c1():
    G = gamma_of_monoid(c1(3), 2, 1)
    assert len(pi0_classes(G.values[1])) == 4


def test_gamma_fold_monoid_matches_pi0_monoid():
    A = c1(2)
    G = gamma_of_monoid(A, 2, 2)
    pres_fold, _ = pi0_monoid_of_gamma(G)
    pres_direct, _ = pi0_monoid(A)
    assert len(pres_fold.generators) == len(pres_direct.generators) + 1
    # the fold presentation lists each truncation class; relations reduce
    # them to powers of the degree-one generator
    assert len(pres_fold.relations) >= 1


def test_special_evidence_for_c1():
    G = gamma_of_monoid(c1(3), 3, 2)
    sv = is_special(G, D=0)
    assert sv.verdict == "special-evidence"
    assert sv.very_special == "refuted"
    assert sv.very_special_witness is not None


@pytest.mark.parametrize("K", [1, 0])
def test_special_is_inconclusive_without_a_pair_to_check(K):
    """Below K = 2 no pair (k, l) with k + l <= K exists, so the Segal check
    has nothing to test and the verdict says so instead of passing."""
    sv = is_special(gamma_of_monoid(c1(2), K, 2), D=0)
    assert sv.verdict == "inconclusive"
    assert sv.witness is None
    assert sv.very_special == "unknown"
    assert "no pair (k, l)" in sv.detail["reason"]


def test_gamma_of_monoid_refuses_a_negative_K():
    # a negative size bound names no based set, so no Gamma-space is built
    with pytest.raises(ValueError, match="based-set size bound must be nonnegative"):
        gamma_of_monoid(c1(2), -1, 2)


def test_very_special_refuted_past_a_grading_cap():
    # the fold monoid's only gradings are multiples of (1, 2, 3, 4), so no
    # search over gradings with values up to 3 settles its classes
    sv = is_special(gamma_of_monoid(c1(4), 3, 1), D=0)
    assert sv.very_special == "refuted"


def test_special_at_degree_zero_pushes_vertices_only():
    # the component check reads images of vertices, so no action map it
    # builds computes the image of a higher simplex
    G = gamma_of_monoid(c1(3), 3, 2)
    assert is_special(G, D=0).verdict == "special-evidence"
    assert G._cache
    for f in G._cache.values():
        assert f.table and {k for k, _ in f.table} == {0}


def test_special_at_degree_zero_makes_no_top_row_slots():
    # the component check reads vertices and edges, so the top face rows of
    # every value, a based quotient, get no slots
    G = gamma_of_monoid(c1(3), 3, 3)
    assert is_special(G, D=0).verdict == "special-evidence"
    tops = [X.face[X.top_dim] for X in G.values[1:]]
    assert len(tops) == 3 and all(rows.rows is None for rows in tops)


def test_special_refuted_for_broken_functor():
    # X(2+) a point cannot project onto a 2-point X(1+) squared
    values = [point(), discrete(2, basepoint=0), point()]
    bp = SMap(values[2], values[1], {(0, 0): nd_ref(0, 0)})

    def act_fn(phi, k, l):
        if l == 1 and k == 2:
            return bp
        table = {(0, x): nd_ref(0, 0 if l != 1 else min(x, 1))
                 for x in range(values[k].card[0])}
        return SMap(values[k], values[l], table)

    X = GammaSpaceT(2, values, act_fn)
    sv = is_special(X, D=0)
    assert sv.verdict == "refuted"
    assert sv.witness["pair"] == (1, 1)


def _constant_point():
    values = [point(), point(), point()]

    def act_fn(phi, k, l):
        return SMap(values[k], values[l], {(0, 0): nd_ref(0, 0)})

    return GammaSpaceT(2, values, act_fn)


def test_special_for_constant_point():
    X = _constant_point()
    sv = is_special(X, D=0)
    assert sv.verdict == "special-evidence"
    assert sv.very_special == "yes"
    # with D >= 1 the Segal maps are checked on homology too
    sv = is_special(X, D=1)
    assert sv.verdict == "special-evidence"
    assert sv.detail["homology(1,1)"]["ok"]


@pytest.mark.parametrize("build, K, S, D", [
    (lambda: cyclic2_monoid(2), 2, 2, 0),
    # the units of m52: the grouplike monoid of the paper's units construction
    (lambda: units(sec52_monoid(3)).units_monoid, 2, 1, 0),
    # its Segal maps are homology isomorphisms through degree 1, for every
    # pair (k, l) with k + l <= 3
    (lambda: units(sec52_monoid(3)).units_monoid, 3, 3, 1),
], ids=["z2", "m52-units", "m52-units-D1"])
def test_very_special_for_group_model(build, K, S, D):
    G = gamma_of_monoid(build(), K, S)
    sv = is_special(G, D=D)
    assert sv.verdict == "special-evidence"
    assert sv.very_special == "yes"
    cones = [v for key, v in sv.detail.items() if key.startswith("homology")]
    assert len(cones) == (K * (K - 1) // 2 if D else 0)
    assert all(v["ok"] for v in cones)


def _product_path_cone(X, k, l, D):
    """The cone of the pairing into the product X(k+) x X(l+), through
    degree D + 1: the Segal check of `is_special` before the
    Alexander-Whitney map replaced the product."""
    A, B = X.values[k], X.values[l]
    top = min(D + 2, A.top_dim + B.top_dim)
    P = product_sset(A, B, dim_bound=top)
    f = pairing_map(P, X.act(projection_map(k, l, 1), k + l, k),
                    X.act(projection_map(k, l, 2), k + l, l), top)
    return map_cone_homology(f, D + 1)


@pytest.mark.parametrize("build, torsion", [
    (lambda: gamma_of_monoid(cyclic2_monoid(2), 2, 3), None),
    # the pairing for c1(2) is no homology isomorphism, and its cone has
    # groups Z^3, (Z/2)^4 and Z/2
    (lambda: gamma_of_monoid(c1(2), 2, 3), {0: (3, ()), 1: (0, (2, 2, 2, 2)), 2: (0, (2,))}),
    (lambda: gamma_of_monoid(sec52_monoid(2), 2, 3), None),
    (_constant_point, None),
], ids=["z2", "c1", "m52", "constant-point"])
def test_alexander_whitney_cone_matches_product_path(build, torsion):
    # by Eilenberg-Zilber both cones have the same groups, torsion included
    X = build()
    sv = is_special(X, D=1)
    pairs = [(k, l) for k in range(1, X.K) for l in range(1, X.K + 1 - k)]
    for k, l in pairs:
        assert sv.detail[f"homology({k},{l})"]["cone"] == _product_path_cone(X, k, l, 1)
    if torsion is not None:
        assert sv.detail["homology(1,1)"]["cone"] == torsion


def test_smash_identification():
    sm = smash_index(2)
    assert sm(0, 1) == 0 and sm(1, 0) == 0
    seen = {sm(i, j) for i in (1, 2) for j in (1, 2)}
    assert seen == {1, 2, 3, 4}


def test_bi_gamma_values():
    A = c1(2)
    X = bi_gamma_from(A, 2, 2)
    # the value at (k+, l+) is the one-variable functor's at (k * l)+
    G = gamma_of_monoid(A, 4, 2)
    for k, l in ((1, 1), (2, 2)):
        assert X.gamma.values[k * l].card == G.values[k * l].card
    assert validate_bi_gamma(X) == []


def test_bi_gamma_validator_reports_a_value_that_is_not_a_point():
    # the value at (k+, 0+) is that of the one-variable functor at 0+
    two = discrete(2, basepoint=0)
    G = GammaSpaceT(1, [two, two], lambda phi, k, l: SMap(two, two, {}))
    assert validate_bi_gamma(BiGammaT(1, G)) == ["value at (0+, 0+) is not a point",
                                                 "value at (1+, 0+) is not a point"]


@pytest.mark.parametrize("build", [lambda: c1(2), lambda: sec52_monoid(2)])
def test_eckmann_hilton_products_coincide(build):
    X = bi_gamma_from(build(), 2, 2)
    rep = eckmann_hilton_check(X)
    assert rep.passed
    assert rep.witness is None


def test_eckmann_hilton_refuses_a_failed_pairing():
    # X(2+) a point cannot pair onto the four pairs of components of a 2-point X(1+)
    values = [point(), discrete(2, basepoint=0), point()]
    G = GammaSpaceT(2, values, lambda phi, k, l: SMap(values[k], values[l], {
        (0, x): nd_ref(0, 0) for x in range(values[k].card[0])}))
    with pytest.raises(ValueError, match="fails for rows: 1 classes vs 4 pairs"):
        eckmann_hilton_check(BiGammaT(2, G))


@pytest.mark.parametrize("build", [lambda: c1(2), lambda: sec52_monoid(2)])
def test_eckmann_hilton_compares_one_map_with_itself(build):
    """At (2+, 1+) and (1+, 2+) the row and column actions are the same
    based map 2+ -> 1+ of the one-variable functor, so both return one
    cached map and the Eckmann-Hilton check passes by construction."""
    X = bi_gamma_from(build(), 2, 2)
    for phi in ((1, 0), (0, 1), (1, 1)):
        assert X.act1(phi, 2, 1, 1) is X.act2(1, phi, 2, 1)


def test_pi0_is_kept_once_per_value():
    """Each value's pi0 is computed once and kept on it: the verdicts read
    that one dict and leave it as it was."""
    G, X = gamma_of_monoid(c1(3), 3, 2), bi_gamma_from(c1(2), 2, 2)
    values = G.values + X.gamma.values
    kept = [pi0(v) for v in values]
    copies = [dict(r) for r in kept]
    assert is_special(G).verdict == "special-evidence" and eckmann_hilton_check(X).passed
    assert all(pi0(v) is r and r == c for v, r, c in zip(values, kept, copies))


def test_special_refuses_skeleta_below_the_homology_check():
    # the pairing's cone through degree D + 1 needs cells through D + 2
    with pytest.raises(ValueError, match="dimension 3.* has 2"):
        is_special(gamma_of_monoid(cyclic2_monoid(2), 2, 2), D=1)
    sv = is_special(gamma_of_monoid(cyclic2_monoid(2), 2, 3), D=1)
    assert sv.verdict == "special-evidence"


def test_prolong_representable_recovers_argument():
    S1 = simplicial_circle()
    P = prolong(representable(1, 3), S1, dim_bound=3)
    assert P.card[:2] == (1, 1)
    h = homology(P, 1)
    assert h.group(1) == (1, ())


def test_prolong_c1_circle_h1():
    S1 = simplicial_circle()
    for N in (2, 3):
        G = gamma_of_monoid(c1(N), 3, 2)
        P = prolong(G, S1, dim_bound=2)
        assert len(pi0_classes(P)) == 1
        assert homology(P, 1).group(1) == (1, ())


def test_prolong_refuses_oversized_argument():
    # the circle has two degenerate non-basepoint 2-simplices, exceeding a
    # functor bounded at 1+
    with pytest.raises(ValueError):
        prolong(representable(1, 1), simplicial_circle(), dim_bound=2)
