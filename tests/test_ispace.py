import pytest

from ispaces import ispace, simplicial
from ispaces.cmon import c1, sec52_monoid
from ispaces.gamma import gamma_of_monoid
from ispaces.icat import (
    Injection,
    comma_under,
    compose,
    enumerate_injections,
    identity,
    injections,
    shuffle,
    subset_inclusion,
)
from ispaces.ispace import (
    R_functor,
    _based_quotient,
    _elements,
    box_multi,
    collapsing_ispace,
    constant_ispace,
    free_ispace,
    hocolim_I,
    hocolim_N,
    hocolim_map,
    is_flat,
    power_ispace,
    restrict,
    semistability_diagnostic,
    terminal_ispace,
)
from ispaces.simplicial import (
    chain_complex,
    discrete,
    homology,
    nd_ref,
    nerve,
    pi0_classes,
    reduced_homology_trivial,
    simplicial_circle,
)

from oracles import (based_quotient_reference, chain_cells, codes_of, count_injections,
                     decode_chain, decode_element_chain, hocolim_face_reference, hocolim_faces,
                     hocolim_reference, is_injective, latching, opposite_ref, pairing_map,
                     product_sset, refs_by_lookup, rho, sphere, subsets_of)


S0 = discrete(2, basepoint=0)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_functoriality_exhaustive(N):
    for build in (lambda: terminal_ispace(N), lambda: free_ispace(1, N),
                  lambda: power_ispace(S0, N),
                  lambda: collapsing_ispace(N)):
        assert build().validate() == []


def test_free_ispace_levels_count_injections():
    F2 = free_ispace(2, 3)
    for n in range(4):
        assert F2.level(n).card[0] == count_injections(2, n)


def test_power_ispace_levels():
    P = power_ispace(S0, 3)
    for n in range(4):
        assert P.level(n).card[0] == 2 ** n


def test_box_of_frees_is_free_on_the_sum():
    B = box_multi((free_ispace(1, 3), free_ispace(1, 3)), 1)
    F2 = free_ispace(2, 3)
    for n in range(4):
        assert B.space.level(n).card[0] == F2.level(n).card[0]
    assert B.space.validate() == []


def test_box_unit_isomorphism():
    X = free_ispace(1, 2)
    B = box_multi((X, terminal_ispace(2)), 1)
    for n in range(3):
        for k in range(2):
            assert (len(B.space.level(n).all_simplices(k))
                    == len(X.level(n).all_simplices(k)))


def test_box_symmetry_isomorphism():
    X = free_ispace(1, 2)
    Y = power_ispace(S0, 2)
    BXY = box_multi((X, Y), 1)
    BYX = box_multi((Y, X), 1)
    for n in range(3):
        assert BXY.space.level(n).card == BYX.space.level(n).card


@pytest.mark.parametrize("build, dim_bound", [
    (lambda: (free_ispace(1, 2), free_ispace(1, 2)), 1),
    (lambda: (c1(2).space, power_ispace(sphere(1), 2)), 2),
], ids=["free-free", "c1-circle-power"])
def test_rho_comparison_is_defined_and_simplicial(build, dim_bound):
    # a map into X(n) x Y(n) is simplicial exactly when both components are;
    # the pairing into the oracle's product set checks the same thing again
    X, Y = build()
    B = box_multi((X, Y), dim_bound)
    maps = rho(B, X, Y)
    assert len(maps) == B.space.N + 1
    for n, (p_x, p_y) in enumerate(maps):
        assert p_x.src is p_y.src is B.space.level(n)
        assert p_x.validate() == [], n
        assert p_y.validate() == [], n
        P = product_sset(X.level(n), Y.level(n))
        assert pairing_map(P, p_x, p_y, dim_bound).validate() == [], n


def test_rho_of_frees_is_the_inclusion_of_injective_pairs():
    # F_1 box F_1 = F_2, and rho(n) embeds I(2, n) into I(1, n) x I(1, n)
    F1 = free_ispace(1, 3)
    B = box_multi((F1, F1), 1)
    for n, (p_x, p_y) in enumerate(rho(B, F1, F1)):
        pairs = [(p_x(nd_ref(0, v)), p_y(nd_ref(0, v)))
                 for v in range(B.space.level(n).card[0])]
        assert len(set(pairs)) == len(pairs) == n * (n - 1)
        assert all(a != b for a, b in pairs)


def test_level_shift_composite_identity():
    # the composite of j with the shifted box class map stays a monoid-style
    # identity: acting by the level-shift injection commutes with box classes
    A = free_ispace(1, 3)
    B = box_multi((A, A), 1)
    RX, j = R_functor(B.space)
    for n in range(3):
        alpha = Injection(n, 1 + n, range(2, n + 2))
        f = B.space.act(alpha)
        for x in range(B.space.level(n).card[0]):
            assert j[n](nd_ref(0, x)) == f(nd_ref(0, x))


def test_hocolim_terminal_is_nerve_of_category():
    X = terminal_ispace(2)
    tab = hocolim_I(X, 2)
    assert reduced_homology_trivial(tab.sset, 1)


@pytest.mark.parametrize("n, cells", [(1, (6, 34, 178, 898)), (2, (8, 44, 224, 1124))])
def test_hocolim_of_free_is_nerve_of_under_category(n, cells):
    """By Yoneda, hocolim_I of F_n = I(n, -) is the nerve of n/I.

    The two sides are built by different code paths: chains of injections
    with the diagram's face maps, and composable chains of the comma category.
    """
    X = hocolim_I(free_ispace(n, 3), 3).sset
    Y = nerve(comma_under(n, 3), 3).sset
    assert X.card == Y.card == cells
    assert homology(X, 2).groups == homology(Y, 2).groups
    assert len(chain_complex(X).boundaries[3]) == len(chain_complex(Y).boundaries[3])


def test_hocolim_c1_pi0_classes():
    from ispaces.cmon import c1

    A = c1(3)
    tab = hocolim_I(A.space, 1)
    assert len(pi0_classes(tab.sset)) == 4
    tabn = hocolim_N(A.space, 1)
    assert len(pi0_classes(tabn.sset)) == 8


def test_hocolim_comparison_map_validates():
    from ispaces.cmon import c1

    X = c1(2).space
    f = hocolim_map(hocolim_N(X, 2), hocolim_I(X, 2), lambda m, x: x)
    assert f.validate() == []
    # a map joins two tables of one path: c1 is discrete, the circle power is not
    with pytest.raises(ValueError):
        hocolim_map(hocolim_N(X, 2), hocolim_I(power_ispace(sphere(1), 2), 2), lambda m, x: x)


def test_snf_reads_few_top_columns_of_the_terminal_hocolim():
    """The terminal diagram's homotopy colimit is the nerve of its category
    of elements, whose cell order lets SNF meet its pivots early: homology
    through degree 2 at truncation 4 reads 1,912 of the 46,404 columns of
    d_3 (the Bousfield-Kan diagonal's order read 13,654).  A column is summed
    from the faces of its cell when it is read (`simplicial.FaceRows.faces`),
    so the columns read are counted per call of `faces_fn`; a pass in order
    keeps no row."""
    tab = hocolim_I(terminal_ispace(4), 3)
    top = tab.sset.face[3]
    assert isinstance(top, simplicial.FaceRows) and len(top) == 46404
    built, faces = [], top.faces_fn
    top.faces_fn = lambda raw: built.append(raw) or faces(raw)
    assert homology(tab.sset, 2).groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    assert 0 < len(built) <= 2000 and top.rows is None


def test_semistability_maps_validate(monkeypatch):
    """Each map that the semistability diagnostic builds on c1(3) joins two
    homotopy colimits of one path and is simplicial."""
    built = []
    real = ispace.hocolim_map

    def recorded(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(ispace, "hocolim_map", recorded)
    semistability_diagnostic(c1(3).space)
    assert len(built) == 4
    for f in built:
        assert f.validate() == []


KERNEL_DIAGRAMS = {
    "terminal": lambda: terminal_ispace(3),
    "terminal-based": lambda: terminal_ispace(3, based=True),
    "free-1": lambda: free_ispace(1, 3),
    "c1": lambda: c1(3).space,
}
KERNEL_ARROWS = {  # index categories as the callbacks of the references
    "injections": enumerate_injections,
    "linear": lambda m, n: [subset_inclusion(m, n)],
}


@pytest.mark.parametrize("arrows", sorted(KERNEL_ARROWS))
@pytest.mark.parametrize("diagram", sorted(KERNEL_DIAGRAMS))
def test_hocolim_faces_kernel_matches_reference(diagram, arrows):
    """The memoised row kernel of the raw-chain reference gives the faces of
    the one-face formula on every raw chain cell, degenerate ones included,
    over both index categories."""
    X = KERNEL_DIAGRAMS[diagram]()
    cells = chain_cells(X, 3, codes_of(X.N, KERNEL_ARROWS[arrows]))
    faces = hocolim_faces(X)
    for s in range(1, 4):
        for raw in cells[s]:
            nested = decode_chain(X.N, raw)
            want = tuple(hocolim_face_reference(X, nested, i) for i in range(s + 1))
            assert tuple(decode_chain(X.N, f) for f in faces(raw)) == want, raw


REFERENCE_DIAGRAMS = {
    "terminal": lambda based: terminal_ispace(3, based=based),
    "free-1": lambda based: free_ispace(1, 3),
    "c1": lambda based: c1(3).space,
    "circle-power": lambda based: power_ispace(sphere(1), 2),
    "constant-circle": lambda based: constant_ispace(sphere(1), 3),
}


@pytest.mark.parametrize("based", [False, True], ids=["unbased", "based"])
@pytest.mark.parametrize("arrows", sorted(KERNEL_ARROWS))
@pytest.mark.parametrize("diagram", sorted(REFERENCE_DIAGRAMS))
def test_hocolim_matches_nested_reference(diagram, arrows, based):
    """Against the homotopy colimit on nested cells (levels, arrows, x).

    A diagram of sets gives the nerve of its category of elements, the
    reference's opposite: decoding its raw cells (`decode_element_chain`) is
    a bijection of nondegenerate cells that sends face i to face s - i, with
    the same cells per dimension and basepoint.  A simplicial diagram (the
    circle power, the constant circle) gives the reference's normalized set
    itself on codes of its chain table, the `cat`: each raw cell decodes
    there to the reference's cell of that id, and each raw chain, encoded,
    has its ref.  The free diagram has no basepoint, and both refuse its
    based form."""
    X = REFERENCE_DIAGRAMS[diagram](based)
    build = hocolim_I if arrows == "injections" else hocolim_N
    if based and not X.is_based():
        with pytest.raises(ValueError):
            build(X, 3, based=True)
        with pytest.raises(ValueError):
            hocolim_reference(X, 3, KERNEL_ARROWS[arrows], True)
        return
    got = build(X, 3, based=based)
    want = hocolim_reference(X, 3, KERNEL_ARROWS[arrows], based)
    if diagram in ("circle-power", "constant-circle"):
        ch = got.cat  # a raw k-cell is a k-code shifted past the codes below
        assert got.sset == want.sset
        assert [[decode_chain(X.N, ch.decode(k, raw - ch.shift[k])) for raw in raws]
                for k, raws in enumerate(got.raw_of)] == want.raw_of
        cells = chain_cells(X, 3, codes_of(X.N, KERNEL_ARROWS[arrows]))
        assert {decode_chain(X.N, raw): got.ref_of[ch.shift[k] + ch.encode(k, raw)]
                for k, level in enumerate(cells) for raw in level} == want.ref_of
        return
    assert got.sset.card == want.sset.card
    assert got.sset.basepoint == want.sset.basepoint
    ids = [{} for _ in got.sset.card]
    for k, raws in enumerate(got.raw_of):
        for x, raw in enumerate(raws):
            degs, base_dim, ids[k][x] = want.ref_of[decode_element_chain(X.N, got, k, raw)]
            assert (degs, base_dim) == ((), k)
    assert [sorted(ids[k].values()) for k in range(4)] == [list(range(n)) for n in want.sset.card]
    for k in range(1, 4):
        for x, row in enumerate(got.sset.face[k]):
            want_row = want.sset.face[k][ids[k][x]]
            assert [opposite_ref(r, ids) for r in reversed(row)] == list(want_row)


def _element_chains(C, S):
    """Every raw cell of the nerve of C through dimension S: object codes,
    then the composable tuples of morphism codes (`icat.CodedCategory`)."""
    src, dst = C.src, C.dst
    chains = [[(f,) for f in range(len(src))]]
    for _ in range(S - 1):
        chains.append([ch + (f,) for ch in chains[-1] for f in range(len(src))
                       if src[f] == dst[ch[-1]]])
    return [list(range(len(C.objects)))] + chains


def test_based_quotient_refs_match_eager_push():
    """The based quotient pushes each ref on its first lookup; forced on
    every raw cell, the refs equal the eager {raw: push(ref)} dict, and a
    raw cell without a ref raises KeyError.  c1 is a diagram of sets, whose
    raw cells are chains in its category of elements, quotiented from its
    nerve in the based order (basepoint objects and the morphisms out of
    them first); the circle power's are the codes of its chain table, each
    dimension's shifted past the codes below."""
    for diagram in ("c1", "circle-power"):
        X = REFERENCE_DIAGRAMS[diagram](True)
        if diagram == "c1":
            unbased = nerve(_elements(X, range(len(injections(X.N))), based=True), 3)
            cells = _element_chains(unbased.cat, 3)
        else:
            unbased = hocolim_I(X, 3)
            sh = unbased.cat.shift
            cells = [range(sh[k], sh[k + 1]) for k in range(4)]
        tab = _based_quotient(X, unbased)
        lazy = tab.ref_of
        assert len(lazy) == 0
        push, refs = lazy.fn.args  # of the partial over `_pushed_ref`
        eager = {raw: push(r) for raw, r in refs_by_lookup(unbased, cells).items()}
        assert set(refs) == set(eager)  # the unbased refs hold the raw cells and no more
        assert {raw: lazy[raw] for level in cells for raw in level} == eager
        assert dict(lazy) == eager
        with pytest.raises(KeyError):
            lazy[(0, nd_ref(1, 0))]


def test_based_quotient_refuses_a_nerve_not_coded_basepoints_first():
    """The based quotient of a nerve of elements slices each level at the cells
    over the basepoints, which `_elements(X, arrows, based=True)` codes first.
    The label-order nerve of c1(3)'s diagram, whose second basepoint object
    comes after a non-basepoint one, is refused for its coding, not for a
    basepoint that the diagram, which moves none, would move."""
    X = c1(3).space
    arrows = range(len(injections(X.N)))
    labels = nerve(_elements(X, arrows), 3)
    with pytest.raises(ValueError, match="not coded basepoints first"):
        _based_quotient(X, labels)
    assert _based_quotient(X, nerve(_elements(X, arrows, based=True), 3)).sset.basepoint == 0


QUOTIENT_CASES = {
    "gamma-c1": lambda: gamma_of_monoid(c1(3), 3, 3),
    "gamma-m52": lambda: gamma_of_monoid(sec52_monoid(2), 4, 2),
    "circle-power": lambda: hocolim_I(REFERENCE_DIAGRAMS["circle-power"](True), 3, based=True),
}


@pytest.mark.parametrize("case", sorted(QUOTIENT_CASES))
def test_based_quotient_matches_reference(monkeypatch, case):
    """Every based quotient that the case builds against the reference that
    decodes and pushes every cell: the cells per dimension, every face row,
    the raw cells, the basepoint and the ref of every raw cell.  The
    gamma cases quotient nerves of elements; the circle power, chains of
    injection codes."""
    seen = []

    def both(X, tab):
        got = _based_quotient(X, tab)
        seen.append((got, based_quotient_reference(X, tab), tab))
        return got

    monkeypatch.setattr(ispace, "_based_quotient", both)
    QUOTIENT_CASES[case]()
    assert seen
    for got, want, unbased in seen:
        assert (got.sset.card, got.sset.basepoint) == (want.sset.card, want.sset.basepoint)
        assert [list(rows) for rows in got.sset.face] == [list(rows) for rows in want.sset.face]
        assert got.raw_of == want.raw_of
        for raw in unbased.raw_of[-1][:1]:
            unbased.ref_of[raw]  # the top refs are made on the first lookup that misses
        cells = list(unbased.ref_of)  # every raw cell but the degenerate ones of a nerve's top
        top = unbased.ref_of.degenerate_ref  # ... which its `Chains` of all top chains holds
        cells += getattr(top, "__self__", ())
        assert {raw: got.ref_of[raw] for raw in cells} == {raw: want.ref_of[raw] for raw in cells}


@pytest.mark.parametrize("monoid", [c1, sec52_monoid], ids=["c1", "m52"])
def test_based_nerve_opens_each_level_with_the_collapsed_cells(monkeypatch, monoid):
    """The based Gamma-values k = 1, 2, 3 of c1(3) and sec52_monoid(3) are
    quotients of nerves of elements coded basepoints first.  In every
    dimension the nondegenerate cells whose first object is a basepoint
    object (`_cell_point`) form an initial block, and the other cells,
    decoded to object and morphism labels, come in the order of the nerve of
    the same category coded in label order, the unbased one, which spreads
    its collapsed cells out."""
    seen, real = [], ispace._based_quotient

    def record(X, tab):
        seen.append((X, tab))
        return real(X, tab)

    def split(X, tab, k):  # (collapsed?, labels) of each nondegenerate k-cell
        C = tab.cat
        for raw in tab.raw_of[k]:
            m, (_, _, p) = ispace._cell_point(tab, k, raw)
            label = tuple(C.morphisms[f] for f in raw) if k else C.objects[raw]
            yield p == X.level(m).basepoint, label

    monkeypatch.setattr(ispace, "_based_quotient", record)
    gamma_of_monoid(monoid(3), 3, 3)
    assert len(seen) == 3
    spread = 0
    for X, tab in seen:
        unbased = nerve(_elements(X, range(len(injections(X.N)))), 3)
        for k in range(4):
            got, want = (list(split(X, t, k)) for t in (tab, unbased))
            flags = [c for c, _ in got]
            assert flags == sorted(flags, reverse=True) and sum(flags) == sum(c for c, _ in want)
            assert [z for c, z in got if not c] == [z for c, z in want if not c]
            spread += [c for c, _ in want] != sorted((c for c, _ in want), reverse=True)
    assert spread


def test_diagonal_builds_no_head_levels():
    """Only the bars read a chain table's head levels: after the homology
    through degree 1 of the Bousfield-Kan diagonal of the constant circle at
    N = 3, its table holds them for no dimension."""
    tab = hocolim_I(constant_ispace(simplicial_circle(), 3), 3)
    assert homology(tab.sset, 1).groups == {0: (1, ()), 1: (1, ())}
    assert len(tab.cat.heads) == 0


@pytest.mark.parametrize("S", [1, 2, 3])
def test_hocolim_N_of_an_empty_diagram(S):
    """F_1 restricted to truncation 0 is empty (there is no injection 1 -> 0),
    so its category of elements has no object: its homotopy colimit is the
    empty set, complete, with zero homology."""
    tab = hocolim_N(restrict(free_ispace(1, 2), 0), S)
    assert tab.sset.card == (0,) * (S + 1) and tab.sset.complete
    assert homology(tab.sset, S).groups == {k: (0, ()) for k in range(S + 1)}


@pytest.mark.parametrize("S", [1, 2])
def test_based_hocolim_refuses_a_diagram_that_moves_its_basepoint(S):
    """The closure check of a based quotient reads the morphisms out of the
    basepoint objects, which a based nerve of elements codes first: the
    inclusion 0 -> 1 sends the basepoint 0 of level 0 to the point 0 of
    level 1, whose basepoint is 1, so the morphism out of the basepoint
    object (0, 0) ends at (1, 0), which is no basepoint object, whether the
    edges are the top dimension (S = 1) or below it (S = 2).  With
    basepoints 0 and 0 the diagram is based, and its quotient keeps the
    basepoint and the two objects (m, 1)."""
    def build(basepoints):
        return ispace._discrete_ispace(1, [[0, 1], [0, 1]], lambda a, p: p, basepoints)

    with pytest.raises(ValueError, match="basepoint"):
        hocolim_I(build([0, 1]), S, based=True)
    assert hocolim_I(build([0, 0]), S, based=True).sset.card[0] == 3


@pytest.mark.parametrize("path", ["elements", "chains"])
@pytest.mark.parametrize("S", [1, 2, 3])
def test_based_hocolim_refuses_a_basepoint_moved_out_of_level_0(path, S):
    """A functorial diagram over I(2) whose maps are identities: two points
    (elements), or a circle and a point (chains of injection codes).  With
    basepoint 1 at level 0 and 0 above it, every map out of level 0 sends the
    basepoint to a point that is not one, while the maps between levels 1 and
    2 keep it: the based homotopy colimit refuses on both paths, at every S,
    on elements because a morphism out of a basepoint object ends at no
    basepoint object, on chains because a collapsed edge has a face that is
    not collapsed.  With basepoint 0 throughout it collapses the copy of the
    index nerve over the basepoints."""
    from ispaces.simplicial import SMap, SSet, identity_map

    def build(basepoints):
        if path == "elements":
            return ispace._discrete_ispace(2, [[0, 1]] * 3, lambda a, p: p, basepoints)
        loop = ([], [(nd_ref(0, 0), nd_ref(0, 0))])
        levels = tuple(SSet((2, 1), loop, complete=True, basepoint=b) for b in basepoints)
        table = identity_map(levels[0]).table
        return ispace.ISpaceT(2, levels, {f: SMap(levels[f.src], levels[f.dst], table)
                                          for f in injections(2)})

    assert build([0, 0, 0]).validate() == []  # functorial; with [1, 0, 0] not based
    assert build([1, 0, 0]).validate() == [f"basepoint not preserved by Injection(0->{n}, ())"
                                           for n in (1, 2)]
    with pytest.raises(ValueError, match="moves a basepoint off the basepoints"):
        hocolim_I(build([1, 0, 0]), S, based=True)
    tab = hocolim_I(build([0, 0, 0]), S, based=True)
    assert tab.sset.basepoint == 0 and tab.sset.card[0] == 1 + 3  # (m, 1) for m = 0, 1, 2


def test_based_hocolim_collapses_unit_nerve():
    X = terminal_ispace(2, based=True)
    tab = hocolim_I(X, 2, based=True)
    assert sum(tab.sset.card) == 1


def test_latching_map_injective_for_free():
    X = free_ispace(1, 3)
    for n in (1, 2, 3):
        _, f = latching(X, n, dim_bound=1)
        assert is_injective(f)


def test_flat_certificates():
    from ispaces.cmon import c1, cyclic2_monoid, sec52_monoid

    assert is_flat(c1(3).space).flat
    assert is_flat(free_ispace(2, 3)).flat
    assert is_flat(power_ispace(S0, 3)).flat
    assert is_flat(cyclic2_monoid(3).space).flat
    cert = is_flat(collapsing_ispace(3))
    assert not cert.flat
    assert cert.replay(collapsing_ispace(3))
    cert2 = is_flat(sec52_monoid(3).space)
    assert not cert2.flat
    assert cert2.replay(sec52_monoid(3).space)


def test_semistability_refuted_for_power():
    v = semistability_diagnostic(power_ispace(S0, 3), D=1)
    assert v.verdict == "refuted"
    assert v.witness["check"].startswith("pi0")


def test_semistability_evidence_for_constant():
    X = constant_ispace(simplicial_circle(), 3)
    v = semistability_diagnostic(X, D=1)
    assert v.verdict == "evidence-for"


def test_semistability_needs_two_truncations():
    v = semistability_diagnostic(terminal_ispace(1), D=0)
    assert v.verdict == "inconclusive"


def test_semistability_inconclusive_when_no_check_fails_twice():
    # at N = 3 only the N-vs-I homology fails, at N = 2 only the jX checks
    v = semistability_diagnostic(collapsing_ispace(3), D=1)
    assert v.verdict == "inconclusive" and v.witness is None
    failed = {at: [name for name, ok, _ in res if not ok] for at, res in v.detail.items()}
    assert failed == {"at_N": ["homology-N-vs-I"], "at_N_minus_1": ["pi0-jX", "homology-jX"]}


def test_c1_subset_model_matches_power_model():
    # C(F_1) and the one-generator subsets model agree levelwise with the
    # based power construction on S^0
    from ispaces.cmon import c1

    A = c1(3)
    P = power_ispace(S0, 3)
    for n in range(4):
        assert A.space.level(n).card[0] == len(subsets_of(n))
        assert P.level(n).card[0] == 2 ** n


def test_structure_map_composition_is_functorial():
    X = power_ispace(S0, 3)
    for g in enumerate_injections(1, 2):
        for f in enumerate_injections(0, 1):
            lhs = X.act(compose(g, f))
            rhs_g, rhs_f = X.act(g), X.act(f)
            for x in range(X.level(0).card[0]):
                assert lhs(nd_ref(0, x)) == rhs_g(rhs_f(nd_ref(0, x)))


def test_shuffle_acts_trivially_on_terminal():
    X = terminal_ispace(3)
    t = shuffle(1, 2)
    assert X.act(t)(nd_ref(0, 0)) == nd_ref(0, 0)
