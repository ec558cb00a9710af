import gc
import random
import types
import weakref
from itertools import combinations, product
from math import prod
from operator import ge

import pytest

from ispaces import cmon, ispace
from ispaces.cmon import (
    CIMonoidT,
    CommMonoidPres,
    _complete,
    _normal_form,
    bar,
    bar_comparison,
    c1,
    classifying_space_homology,
    cyclic2_monoid,
    grothendieck_group,
    integers_monoid,
    merged_classes,
    monoid_ispace,
    pi0_monoid,
    restrict_monoid,
    sec52_monoid,
    unit_verdicts,
    units,
    validate_monoid,
)
from ispaces.icat import coded_injections, identity, injections, subset_inclusion
from ispaces.ispace import (ISpaceT, _chain_sum, constant_ispace, free_ispace, hocolim_I,
                            power_ispace, terminal_ispace)
from ispaces.scenarios import build_monoid
from ispaces.simplicial import Chains, SMap, homology, pi0_classes, vertex_ref

from oracles import (
    bar_comparison_once_reference,
    bar_monoid,
    bar_mul_reference,
    bar_of_hocolim_reference,
    bounded_congruence,
    bounded_tuples,
    bounded_unit_search,
    chain_cells,
    chain_mul,
    chain_sum_reference,
    codes_of,
    decode_bar_cell,
    decode_chain,
    free_cmonoid,
    hocolim_deg,
    hocolim_faces,
    is_grouplike,
    iterated_bar_spectrum,
    sigma2_homology,
    sphere,
    tail_level,
    tuples_bounded,
    two_sided_bar_reference,
)


def test_monoid_axioms_on_models():
    for build in (lambda: c1(2), lambda: sec52_monoid(2),
                  lambda: integers_monoid(2), lambda: cyclic2_monoid(2)):
        A = build()
        assert validate_monoid(A) == []


def _with_mul(A, mul_of):
    """A with its product replaced by mul_of(A.mul)."""
    return CIMonoidT(A.space, A.unit, mul_of(A.mul))


def _c1_union(good):
    # the subsets of the two factors united without shifting the second past the first
    pts = c1(2).meta["points"]
    index = [{p: i for i, p in enumerate(level)} for level in pts]
    return lambda m, n, rx, ry: (rx[0], 0, index[m + n][pts[m][rx[2]] | pts[n][ry[2]]])


def _left_band(x, y):
    return y if x == 0 else x


_NON_ASSOCIATIVE = {(1, 1): 2, (1, 2): 1, (2, 2): 1}  # (1 + 1) + 2 = 1, 1 + (1 + 2) = 2


def _without_an_identity_map():
    # c1(1) whose identity at level 1 has no image of either vertex
    A = c1(1)
    maps = dict(A.space.maps)
    maps[identity(1)] = SMap(A.level(1), A.level(1), {})
    return CIMonoidT(ISpaceT(1, A.space.levels, maps), A.unit, A.mul)


@pytest.mark.parametrize("build, expected", [
    # every product a vertex, the unit laws failing with it
    (lambda: _with_mul(c1(1), lambda good: lambda m, n, rx, ry: good(
        m, n, vertex_ref(0, rx[2]), vertex_ref(0, ry[2]))),
     ["left unit fails at level 0", "left unit fails at level 1",
      "mul(0,0) changes dimension", "mul(0,1) changes dimension",
      "mul(1,0) changes dimension", "right unit fails at level 0",
      "right unit fails at level 1"]),
    # every product of edges the degenerate empty subset, vertex 0 of each level
    (lambda: _with_mul(c1(1), lambda good: lambda m, n, rx, ry: vertex_ref(1, 0) if rx[0]
                       else good(m, n, rx, ry)),
     ["left unit fails at level 1", "mul(0,1) does not commute with d_0",
      "mul(0,1) does not commute with d_1", "mul(1,0) does not commute with d_0",
      "mul(1,0) does not commute with d_1", "right unit fails at level 1"]),
    (lambda: _with_mul(c1(2), _c1_union),
     ["commutativity fails at (1,1)",
      "naturality fails at (Injection(0->1, ()),Injection(1->1, (1,)))"]),
    (lambda: monoid_ispace([0, 1, 2], _left_band, lambda e: 0, 0, 1),
     [f"commutativity fails at {mn}" for mn in ("(0,0)", "(0,1)", "(1,0)")]),
    (lambda: monoid_ispace([0, 1, 2], lambda x, y: 2, lambda e: 0, 0, 1),
     [f"{side} unit fails at level {n}" for side in ("left", "right") for n in (0, 1)]),
    (lambda: monoid_ispace(
        [0, 1, 2], lambda x, y: _left_band(x, y) if 0 in (x, y) else
        _NON_ASSOCIATIVE[min(x, y), max(x, y)], lambda e: 0, 0, 1),
     [f"associativity fails at {t}" for t in ("(0,0,0)", "(0,0,1)", "(0,1,0)", "(1,0,0)")]),
    # a carrier that fails its own validation is reported before any law is checked
    (_without_an_identity_map,
     [f"map at Injection(1->1, (1,)): missing image of (0, {v})" for v in (0, 1)]),
], ids=["dimension", "faces", "naturality", "commutativity", "unit", "associativity",
        "carrier"])
def test_validate_monoid_reports_each_broken_law(build, expected):
    assert validate_monoid(build()) == expected


# the reduced rewriting system of each model, the same at every truncation
PI0_PRESENTATIONS = {
    "c1": (["(1, 1)"], []),  # free on one generator
    # 0' is 2-torsion and absorbed by the positive part
    "m52": (["(0, 1)", "(1, 2)"], [((0, 0), (2, 0)), ((0, 1), (1, 1))]),
    "z": (["(1, 0)", "(1, 2)"], [((0, 0), (1, 1))]),
    "z2": (["(0, 1)"], [((0,), (2,))]),
}


@pytest.mark.parametrize("trunc", [2, 3, 4, 5])
@pytest.mark.parametrize("model", sorted(PI0_PRESENTATIONS))
def test_pi0_presentation_does_not_move_with_the_truncation(model, trunc):
    pres, class_vec = pi0_monoid(build_monoid(model, trunc))
    assert ([str(g) for g in pres.generators], pres.relations) == PI0_PRESENTATIONS[model]
    # each generator is its own class's normal form
    for i, g in enumerate(pres.generators):
        assert class_vec[g] == tuple(int(i == j) for j in range(len(pres.generators)))


def test_completion_agrees_with_bounded_congruence_search():
    # seed 38: g <= 4 generators, at most 5 relations, entries 0..2
    rng = random.Random(38)
    derived = apart = 0
    for _ in range(100):
        g = rng.randint(1, 4)
        rels = [tuple(tuple(rng.randint(0, 2) for _ in range(g)) for _ in range(2))
                for _ in range(rng.randint(0, 5))]
        rules = _complete(rels)
        shuffled = [pair[::-1] if rng.random() < 0.5 else pair
                    for pair in rng.sample(rels, len(rels))]
        assert _complete(shuffled) == rules, rels
        # reduced: left sides an antichain above normal right sides
        for lhs, rhs in rules.items():
            assert lhs[::-1] > rhs[::-1]
            assert _normal_form(rhs, rules) == rhs
            assert not any(all(map(ge, lhs, other)) for other in rules if other != lhs)
        for u, v in rels:
            assert _normal_form(u, rules) == _normal_form(v, rules)
        words = sorted({tuple(rng.randint(0, 2) for _ in range(g)) for _ in range(6)})
        for u, v in combinations(words, 2):
            same = _normal_form(u, rules) == _normal_form(v, rules)
            found = bounded_congruence(u, v, rels)
            # a derivation makes the normal forms agree; differing ones admit none
            assert same or not found, (rels, u, v)
            derived += found
            apart += not same
    assert derived > 0 and apart > 0


def test_merged_classes_c1():
    A = c1(3)
    _, classes, unit_cls = merged_classes(A)
    assert len(classes) == 4
    assert unit_cls in classes


def test_grothendieck_groups():
    assert grothendieck_group(CommMonoidPres(["g"], [])) == (1, ())
    two = CommMonoidPres(["a", "b"], [((0, 2), (0, 0)), ((1, 1), (1, 0))])
    assert grothendieck_group(two) == (1, ())
    tor = CommMonoidPres(["t"], [((2,), (0,))])
    assert grothendieck_group(tor) == (0, (2,))


def test_unit_verdicts_with_witnesses():
    pres = CommMonoidPres(["a", "b"], [((1, 1), (0, 0))])
    uv = unit_verdicts(pres)
    assert uv.is_unit((1, 0)) and uv.is_unit((0, 1))
    free = CommMonoidPres(["g"], [])
    uv2 = unit_verdicts(free)
    assert uv2.status[(1,)][0] == "non-unit"


def _support(vec):
    return {j for j, t in enumerate(vec) if t}


def _replay(pres, vec, status):
    """Check a unit verdict's certificate against the presentation alone."""
    rels = set(pres.relations)
    kind, cert = status
    if kind == "unit":
        # each relation is given, and its source side is already reached
        reached = set()
        for p, q in cert:
            assert (p, q) in rels or (q, p) in rels
            assert _support(p) <= reached
            reached |= _support(q)
        assert _support(vec) <= reached
    else:
        # a set closed under every relation, both ways, that misses vec
        closed = set(cert)
        for u, v in pres.relations:
            for p, q in ((u, v), (v, u)):
                assert not _support(p) <= closed or _support(q) <= closed
        assert not _support(vec) <= closed


def test_unit_closure_agrees_with_bounded_search():
    # about a third of these classes are "unknown" to the bounded search
    rng = random.Random(13)
    unknown = 0
    for _ in range(100):
        g = rng.randint(1, 4)
        rels = [tuple(tuple(rng.randint(0, 2) for _ in range(g)) for _ in range(2))
                for _ in range(rng.randint(0, 4))]
        pres = CommMonoidPres([f"x{i}" for i in range(g)], rels)
        vecs = sorted({tuple(rng.randint(0, 1) for _ in range(g)) for _ in range(3)}
                      | {tuple(int(i == j) for j in range(g)) for i in range(g)})
        uv = unit_verdicts(pres, vectors=vecs)
        ref = bounded_unit_search(rels, g, vecs)
        for vec in vecs:
            _replay(pres, vec, uv.status[vec])
            if ref[vec] == "unknown":
                unknown += 1
            else:
                assert uv.status[vec][0] == ref[vec], (rels, vec)
    assert unknown > 0


def test_grouplike_detection():
    assert is_grouplike(cyclic2_monoid(2))
    assert is_grouplike(integers_monoid(2))
    assert not is_grouplike(c1(2))


def test_units_of_m52():
    rep = units(sec52_monoid(3))
    assert len(rep.unit_classes) == 2
    assert rep.closed_under_mul
    assert rep.absorption
    assert validate_monoid(rep.units_monoid) == []
    assert is_grouplike(rep.units_monoid)
    for n, f in rep.inclusion.items():
        assert f.validate() == [], n


def test_units_merges_classes_once(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return merged_classes(A)

    monkeypatch.setattr(cmon, "merged_classes", counted)
    assert len(units(sec52_monoid(3)).unit_classes) == 2
    assert len(calls) == 1


def test_units_decomposition_covers_everything():
    A = sec52_monoid(3)
    rep = units(A)
    for n in range(A.N + 1):
        us, nus = rep.level_split[n]
        assert sorted(us + nus) == list(range(A.level(n).card[0]))


def test_free_cmonoid_on_f1_matches_subsets_model():
    C = free_cmonoid(free_ispace(1, 3))
    A = c1(3)
    for n in range(4):
        assert C.space.level(n).card[0] == A.space.level(n).card[0]
    assert validate_monoid(C) == []


def test_bsigma2_component_homology():
    from ispaces.scenarios import RunConfig, run_scenario

    r = run_scenario("c1-bsigma2", RunConfig(trunc=3, deg=1))
    assert r.passed(), r.checks
    oracle = sigma2_homology(1)
    assert oracle[1] == (0, (2,))


def test_bar_construction_validates():
    A = c1(2)
    B = bar(A, 2)
    M = bar_monoid(A, B)
    assert validate_monoid(M) == []


def test_bar_of_hocolim_connected_with_h1_z():
    for build in (lambda: c1(2), lambda: sec52_monoid(2)):
        h, tab = classifying_space_homology(build(), 1)
        assert len(pi0_classes(tab.sset)) == 1
        assert h.group(1) == (1, ())


def test_bar_comparison_refuses_non_flat():
    with pytest.raises(ValueError):
        bar_comparison(sec52_monoid(2), 1)


def test_bar_comparison_c1_small():
    rep = bar_comparison(c1(2), 1)
    assert rep.pi0 == {"left": 1, "middle": 1, "right": 1}
    for term in ("left", "middle", "right"):
        assert rep.homology[term].group(1) == (1, ())
    assert rep.map_iso == {"middle_to_left": True, "middle_to_right": True}


def test_bar_comparison_of_the_trivial_monoid():
    """The trivial monoid's bar construction has no nondegenerate simplex
    above dimension 0, a diagram of sets; its homotopy colimit, the left
    term, is still built on chains of injection codes, onto which the middle
    term's cells are pushed."""
    A = cmon.discrete_monoid(2, [[()] for _ in range(3)], lambda a, p: (),
                             lambda m, n, s, t: (), ())
    rep = bar_comparison(A, 1)
    assert rep.pi0 == {"left": 1, "middle": 1, "right": 1}
    assert rep.map_iso == {"middle_to_left": True, "middle_to_right": True}


def test_restrict_monoid_truncates():
    A = restrict_monoid(c1(3), 2)
    assert A.N == 2
    assert validate_monoid(A) == []


def test_iterated_bar_first_two_levels():
    out = iterated_bar_spectrum(cyclic2_monoid(2), 1, 1)
    assert len(out) == 2
    # level 0: the based colimit of the constant Z/2 diagram is connected
    # only after one bar step
    assert out[1][1].group(0) == (1, ())


def test_grothendieck_matches_bar_h1():
    # the first homology of the classifying space recovers the group
    # completion for the subset model and the filtered integers model
    for build, expect in ((lambda: c1(2), (1, ())),
                          (lambda: integers_monoid(2), (1, ()))):
        A = build()
        pres, _ = pi0_monoid(A)
        assert grothendieck_group(pres) == expect
        h, _ = classifying_space_homology(A, 1)
        assert h.group(1) == expect


def test_tuples_bounded_matches_oracle():
    """The bar cell enumerators (`tuples_bounded`, and `cmon._bounded` by
    position where the pools are whole) against a filtered itertools.product, in order.

    For k <= 3 slots, the pools are those of the one-sided bar (k copies of
    the codes of the raw k-cells of the homotopy colimit, with their head
    levels) and of the two-sided bar (a pool of terminal-diagram k-cells at
    each end).  A full product can reach 4.9e10 tuples (c1(3), k = 3), so
    pools whose product exceeds 10^6 tuples are thinned by a common stride,
    which keeps the order of each pool.  The oracle reads the cells decoded
    to nested (levels, arrows, x), each pool once.
    """
    for N in (2, 3):
        raws = chain_cells(c1(N).space, 3, range(len(injections(N))))
        t_raws = chain_cells(terminal_ispace(N), 3, range(len(injections(N))))
        for k in range(4):
            for chains in ([raws[k]] * k, [t_raws[k]] + [raws[k]] * k + [t_raws[k]]):
                step = 1
                while prod(len(c[::step]) for c in chains) > 10 ** 6:
                    step += 1
                codes = [range(len(c))[::step] for c in chains]
                nested = [{j: decode_chain(N, c[j]) for j in js} for c, js in zip(chains, codes)]
                pools = [[(j, c[j][0]) for j in js] for c, js in zip(chains, codes)]
                want = bounded_tuples([list(d.values()) for d in nested], N)
                cells = tuples_bounded(pools, N)
                assert [tuple(d[j] for d, j in zip(nested, t)) for t in cells] == want
                if step == 1 and chains:  # the bars' own enumerator, on whole pools
                    heads = [tuple(z[0] for z in c) for c in chains]
                    cells = Chains(*cmon._bounded(heads, N), None)
                    assert [tuple(d[j] for d, j in zip(nested, t)) for t in cells] == want


def test_tuples_bounded_is_the_filtered_product():
    """`tuples_bounded`, and the cells by position of `cmon._bounded` that the
    bar tops are, are itertools.product filtered by the budget, in product
    order: on seeded random pools, on no pools and with an empty pool.  A
    positional cell needs a slot, so the cases with no pools give it none."""
    rng = random.Random(37)
    cases = [([], 0), ([], 3), ([[(0, 0), (1, 1)], []], 3), ([[], [(0, 0)]], 1)]
    for _ in range(300):
        pools = [[(f"{p}.{j}", rng.randint(0, 3)) for j in range(rng.randint(0, 4))]
                 for p in range(rng.randint(0, 4))]
        cases.append((pools, rng.randint(0, 4)))
    for pools, budget in cases:
        want = [tuple(z for z, _ in t) for t in product(*pools) if sum(h for _, h in t) <= budget]
        assert tuples_bounded(pools, budget) == want
        if pools:
            heads = [tuple(h for _, h in pool) for pool in pools]
            top = Chains(*cmon._bounded(heads, budget), None)
            assert len(top) == len(want)
            assert [tuple(pool[j][0] for pool, j in zip(pools, cell)) for cell in top] == want


CODED_BAR_MONOIDS = {"c1-2": lambda: c1(2), "c1-3": lambda: c1(3),
                     "m52-3": lambda: sec52_monoid(3), "z2-3": lambda: cyclic2_monoid(3)}


@pytest.mark.parametrize("name", sorted(CODED_BAR_MONOIDS))
@pytest.mark.parametrize("build, reference", [
    (cmon.bar_of_hocolim, bar_of_hocolim_reference),
    (cmon.two_sided_bar_of_hocolim, two_sided_bar_reference),
], ids=["one-sided", "two-sided"])
def test_coded_bars_match_raw_reference(name, build, reference):
    """Both bars on chain codes against the raw-tuple builders at K = 2, the
    truncation of `bar_comparison(A, 0)`, and at K = 3, the two dimensions
    whose face rows `_ChainCodes.bar_faces` unrolls, and for c1(2) at K = 4,
    where its generic rule multiplies entries of 4-cells: the cells decoded
    through the chain tables, the cells per dimension, the basepoint, every
    face row, and the ref of every top cell, degenerate ones included, are
    the reference's.  A tuple that is no cell, of the wrong length or with a
    code past its pool, raises KeyError from `ref_of`."""
    A = CODED_BAR_MONOIDS[name]()
    for K in (2, 3, 4) if name == "c1-2" else (2, 3):
        got, want = build(A, K), reference(A, K)
        assert ([[decode_bar_cell(got, k, cell) for cell in cells]
                 for k, cells in enumerate(got.raw_of)] == want.raw_of)
        assert (got.sset.card, got.sset.basepoint) == (want.sset.card, want.sset.basepoint)
        assert [list(rows) for rows in got.sset.face] == [list(rows) for rows in want.sset.face]
        if build is cmon.bar_of_hocolim:
            tabs = [got.cat] * K
        else:
            tabs = [got.cat[0]] + [got.cat[1]] * K + [got.cat[0]]
        top = tuples_bounded([list(enumerate(tab.heads[K])) for tab in tabs], A.N)
        assert len(top) > got.sset.card[K]
        assert [got.ref_of[cell] for cell in top] == [
            want.ref_of[decode_bar_cell(got, K, cell)] for cell in top]
        past = [len(tab.heads[K]) if t == len(tabs) // 2 else 0 for t, tab in enumerate(tabs)]
        for cell in ((0,) * (len(tabs) + 1), tuple(past)):
            with pytest.raises(KeyError):
                got.ref_of[cell]


def test_bar_top_holds_no_ref_until_one_is_looked_up():
    """The top of `bar_of_hocolim(c1(3), 3)` is given by position: its table
    holds no top ref after the build, and a lookup of the degenerate cell of
    three unit chains makes its ref s_2 s_1 s_0 of the basepoint, and no other."""
    tab = cmon.bar_of_hocolim(c1(3), 3)
    assert [cell for cell in tab.ref_of if len(cell) == 3] == []
    unit = (tab.cat.unit[3],) * 3
    assert tab.ref_of[unit] == ((2, 1, 0), 0, tab.sset.basepoint)
    assert [cell for cell in tab.ref_of if len(cell) == 3] == [unit]


@pytest.mark.parametrize("build, D", [(lambda: c1(2), 1), (lambda: c1(3), 0)],
                         ids=["c1-2", "c1-3"])
def test_bar_comparison_matches_raw_reference(monkeypatch, build, D):
    """Every field of the bar comparison, with its stability flag, equals the
    comparison of the raw-tuple reference bars, whose left term is the
    diagonal on raw chains (`oracles.coded_chains_reference`); and both maps
    out of the middle term, at N and N - 1, are simplicial."""
    maps, real = [], cmon.map_from_tables

    def recorded(*args):
        maps.append(real(*args))
        return maps[-1]

    monkeypatch.setattr(cmon, "map_from_tables", recorded)
    got = bar_comparison(build(), D)
    assert len(maps) == 4 and [f.validate() for f in maps] == [[]] * 4
    monkeypatch.setattr(cmon, "_bar_comparison_once", bar_comparison_once_reference)
    assert got == bar_comparison(build(), D)


def test_bar_comparison_builds_one_chain_table_per_truncation(monkeypatch):
    """`bar_comparison(c1(3), 0)` builds the chain table of A_hI once per
    truncation, N = 3 and N = 2, for both bars, and one table each of the
    terminal diagram and of bar(A, 2).space, whose diagonal is the left term:
    six tables, where a table per bar made eight.  The block sums by position
    rely on two facts checked here: the tables of one truncation list the same
    chains of arrows, and the terminal diagram's codes are its chain positions
    (one simplex per level and dimension).  With the cyclic collector off,
    every table dies with the call."""
    builds, chains, init = [], {}, cmon._ChainCodes.__init__

    def counted(ch, X, K, arrows, A=None):
        builds.append((X.N, K, A is not None, weakref.ref(ch)))
        init(ch, X, K, arrows, A)
        chains.setdefault(X.N, []).append(ch.chains)
        if all(level.card == (1,) for level in X.levels):  # the terminal diagram
            assert ch.off == [list(range(len(level) + 1)) for level in ch.chains]

    monkeypatch.setattr(cmon._ChainCodes, "__init__", counted)
    gc.collect()
    gc.disable()
    try:
        bar_comparison(c1(3), 0)
        assert sorted(b[:3] for b in builds) == [(2, 2, False)] * 2 + [(2, 2, True)] + [
            (3, 2, False)] * 2 + [(3, 2, True)]
        assert [b[3]() for b in builds] == [None] * 6
        assert sorted(chains) == [2, 3]
        assert all(len(tables) == 3 and tables.count(tables[0]) == 3
                   for tables in chains.values())
    finally:
        gc.enable()


def test_bar_comparison_once_matches_raw_reference_off_flat():
    """sec52_monoid is not flat, so `bar_comparison` refuses it; one
    comparison at N = 3 still equals the reference's in every field."""
    A = sec52_monoid(3)
    assert cmon._bar_comparison_once(A, 0) == bar_comparison_once_reference(A, 0)


CHAIN_TABLES = {
    "c1": lambda: (c1(3).space, c1(3)),
    "circle-power": lambda: (power_ispace(sphere(1), 2), None),
    "constant-circle": lambda: (constant_ispace(sphere(1), 3), None),
    "sec52": lambda: (sec52_monoid(3).space, sec52_monoid(3)),
    "terminal": lambda: (terminal_ispace(3), None),
}


@pytest.mark.parametrize("name", sorted(CHAIN_TABLES))
def test_chain_codes_match_raw_chains(name):
    """The positional chain table at K = 3, over every code and over the
    linear ones (the standard inclusions m -> n), against the raw chains of
    `oracles.chain_cells` over the same codes, on diagrams of sets and on the
    two simplicial diagrams that the diagonal serves: every code decodes to
    the raw chain at its position and encodes back, with its head level and
    its tail level and simplex (`point`); its faces and degeneracies are the
    codes of `hocolim_faces` and `hocolim_deg` of its raw chain; and, over a
    monoid and every code, its product with every code whose head level fits
    with its own in N is the code of the chain product, and the unit is the
    code of the unit chain."""
    X, A = CHAIN_TABLES[name]()
    I, faces, products = coded_injections(X.N), hocolim_faces(X), 0
    for arrows in (range(len(I.morphisms)), codes_of(X.N, lambda m, n: [subset_inclusion(m, n)])):
        every = len(arrows) == len(I.morphisms)
        ch, raws = cmon._ChainCodes(X, 3, arrows, A if every else None), chain_cells(X, 3, arrows)
        for k, level in enumerate(raws):
            assert [ch.decode(k, j) for j in range(len(level))] == level
            assert [ch.encode(k, raw) for raw in level] == list(range(len(level)))
            assert list(ch.heads[k]) == [raw[0] for raw in level]
            assert [ch.point(k, j) for j in range(len(level))] == [
                (tail_level(I, raw), raw[-1]) for raw in level]
            for j, raw in enumerate(level):
                if k:
                    assert tuple(ch.decode(k - 1, f[j]) for f in ch.faces[k]) == faces(raw)
                if k < 3:
                    assert [ch.decode(k + 1, s[j]) for s in ch.deg[k]] == [
                        hocolim_deg(I, raw, i) for i in range(k + 1)]
                for l, other in enumerate(level if A and every else ()):
                    if raw[0] + other[0] <= 3:
                        assert ch.decode(k, ch.mul[k][j, l]) == chain_mul(A, I, raw, other)
                        products += 1
            if A and every:
                assert ch.decode(k, ch.unit[k]) == (0,) + (I.ident[0],) * k + (A.unit_ref(k),)
    assert products == {"c1": 49 + 278 + 1479 + 8102, "sec52": 85 + 533 + 2885 + 15629}.get(
        name, 0)


def test_chain_table_holds_no_raw_chain():
    """After the homology of the classifying space of c1(3), the chain table
    in the bar's `cat` holds no dict keyed by raw chains and no list or tuple of
    raw chains: a raw chain (m_0, a_1, ..., a_k, x) ends in a simplex ref, and
    no container that the table holds has one as a key or an item.  Its chains
    of arrows, one per run of codes, are fewer than the top codes, and with
    the cyclic collector off the table dies with the bar that holds it."""
    rep, tab = classifying_space_homology(c1(3), 2)
    ch = tab.cat
    assert rep.groups == {0: (1, ()), 1: (1, ()), 2: (0, (2,))}
    seen, stack, held = set(), [ch], []
    while stack:  # through attributes, memos, partials and closures, but no module globals
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, dict)):
            held.append(obj)
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, (list, tuple, set, dict)) or hasattr(obj, "__dict__"):
            stack += gc.get_referents(obj)

    def is_raw(z):  # a raw chain ends in a simplex ref (word, base_dim, base_id)
        return type(z) is tuple and len(z) >= 2 and type(z[-1]) is tuple and len(z[-1]) == 3

    assert len(held) > 20 and not any(is_raw(z) for obj in held for z in obj)
    assert max(map(len, ch.chains)) < len(ch.heads[3]) / 3
    gc.collect()
    gc.disable()
    try:  # its memos hold it weakly, so no cycle keeps a table once the bar is dropped
        table = weakref.ref(classifying_space_homology(c1(3), 2)[1].cat)
        assert table() is None
    finally:
        gc.enable()


def test_chain_mul_called_once_per_pair(monkeypatch):
    """The one-sided bar reads each chain product from its table: while the
    classifying space of c1(3) is built and its homology read, the positional
    product (`_ChainCodes.product`) runs exactly once for each pair of codes
    that it multiplies, the block sum of chains of arrows (`_chain_sum`) once
    for each pair of them, and A.mul once for each pair of simplices."""
    calls = {"product": [], "sum": [], "mul": []}

    def counted(name, real, key=lambda *args: args):
        def wrapper(*args):
            calls[name].append(key(*args))
            return real(*args)
        return wrapper

    A = c1(3)
    A.mul = counted("mul", A.mul)
    monkeypatch.setattr(cmon._ChainCodes, "product",
                        counted("product", cmon._ChainCodes.product, lambda ch, k, jl: (k, jl)))
    monkeypatch.setattr(ispace, "_chain_sum",
                        counted("sum", ispace._chain_sum, lambda I, z, w: (z, w)))
    classifying_space_homology(A, 2)
    assert all(seen and len(seen) == len(set(seen)) for seen in calls.values())
    assert len(calls["sum"]) < len(calls["product"])


def test_chain_sum_matches_block_sum_of_injections():
    """The block sum on codes against concatenated checked injections, on
    raw chains of the terminal diagram at truncation 4 decoded to nested
    (levels, arrows, x): every pair of equal-length chains whose head levels
    sum to at most 4 through dimension 2, and every pair of 3-chains whose
    head levels are at most 2, so every pair of chains at truncation 2."""
    I = coded_injections(4)
    cells = chain_cells(terminal_ispace(4), 3, range(len(I.morphisms)))
    pairs = 0
    for pool in cells[:3] + [[raw for raw in cells[3] if raw[0] <= 2]]:
        chains = [raw[:-1] + (None,) for raw in pool]
        fits = [[w for w in chains if w[0] <= b] for b in range(5)]
        for z in chains:
            for w in fits[4 - z[0]]:
                want = chain_sum_reference(decode_chain(4, z), decode_chain(4, w), "x")
                assert decode_chain(4, _chain_sum(I, z, w, "x")) == want
                pairs += 1
    assert pairs == 15 + 290 + 5451 + 42 ** 2


def test_bar_monoid_mul_matches_reference():
    """bar_monoid's block interleaving against the shuffle of checked
    injections, on every pair of bar cells of equal dimension."""
    A = c1(3)
    B = bar(A, 2)
    mul = bar_monoid(A, B).mul
    pairs = 0
    for m in range(4):
        for n in range(4 - m):
            for k in range(3):
                for rx in B.space.level(m).all_simplices(k):
                    for ry in B.space.level(n).all_simplices(k):
                        assert mul(m, n, rx, ry) == bar_mul_reference(A, B, m, n, rx, ry)
                        pairs += 1
    assert pairs > 0
