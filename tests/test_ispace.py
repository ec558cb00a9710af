import pytest

from ispaces import ispace, simplicial
from ispaces.cmon import c1
from ispaces.icat import (
    Injection,
    TruncatedI,
    comma_under,
    compose,
    identity,
    shuffle,
    subset_inclusion,
)
from ispaces.ispace import (
    R_functor,
    _based_quotient,
    _chain_cells,
    _hocolim_faces,
    box_multi,
    collapsing_ispace,
    constant_ispace,
    free_ispace,
    hocolim_I,
    hocolim_N,
    hocolim_map,
    is_flat,
    latching,
    power_ispace,
    rho,
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
    sphere,
)

from oracles import (count_injections, decode_chain, decode_element_chain,
                     hocolim_face_reference, hocolim_reference, is_injective, opposite_ref,
                     pairing_map, product_sset, refs_by_lookup, subsets_of)


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
    maps = rho(B)
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
    for n, (p_x, p_y) in enumerate(rho(B)):
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
    through degree 2 at truncation 4 reads 1,913 of the 46,404 rows of d_3
    (the Bousfield-Kan diagonal's order read 13,654).  The top rows are built
    when read (`simplicial.FaceRows`), so the rows built are the rows read."""
    tab = hocolim_I(terminal_ispace(4), 3)
    top = tab.sset.face[3]
    assert isinstance(top, simplicial.FaceRows) and len(top) == 46404
    assert homology(tab.sset, 2).groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    assert 0 < sum(row is not None for row in top.rows) <= 2000


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
KERNEL_ARROWS = {
    "injections": lambda N: TruncatedI(N).hom,
    "linear": lambda N: lambda m, n: [subset_inclusion(m, n)],
}


@pytest.mark.parametrize("arrows", sorted(KERNEL_ARROWS))
@pytest.mark.parametrize("diagram", sorted(KERNEL_DIAGRAMS))
def test_hocolim_faces_kernel_matches_reference(diagram, arrows):
    """The memoised row kernel gives the faces of the one-face formula on
    every raw chain cell, degenerate ones included, over both index
    categories."""
    X = KERNEL_DIAGRAMS[diagram]()
    cells = _chain_cells(X, 3, KERNEL_ARROWS[arrows](X.N))
    faces = _hocolim_faces(X)
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
}


@pytest.mark.parametrize("based", [False, True], ids=["unbased", "based"])
@pytest.mark.parametrize("arrows", sorted(KERNEL_ARROWS))
@pytest.mark.parametrize("diagram", sorted(REFERENCE_DIAGRAMS))
def test_hocolim_matches_nested_reference(diagram, arrows, based):
    """Against the homotopy colimit on nested cells (levels, arrows, x).

    A diagram of sets gives the nerve of its category of elements, the
    reference's opposite: decoding its raw cells (`decode_element_chain`) is
    a bijection of nondegenerate cells that sends face i to face s - i, with
    the same cells per dimension and basepoint.  A simplicial diagram gives
    the reference's normalized set itself on coded chains, each raw cell
    decoding to the reference's cell of that id and having its ref.  The
    free diagram has no basepoint, and both refuse its based form."""
    X = REFERENCE_DIAGRAMS[diagram](based)
    build = hocolim_I if arrows == "injections" else hocolim_N
    if based and not X.is_based():
        with pytest.raises(ValueError):
            build(X, 3, based=True)
        with pytest.raises(ValueError):
            hocolim_reference(X, 3, KERNEL_ARROWS[arrows](X.N), True)
        return
    got = build(X, 3, based=based)
    want = hocolim_reference(X, 3, KERNEL_ARROWS[arrows](X.N), based)
    if diagram == "circle-power":
        assert got.sset == want.sset
        assert [[decode_chain(X.N, raw) for raw in raws] for raws in got.raw_of] == want.raw_of
        cells = _chain_cells(X, 3, KERNEL_ARROWS[arrows](X.N))
        assert {decode_chain(X.N, raw): got.ref_of[raw]
                for level in cells for raw in level} == want.ref_of
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
    raw cells are chains in its category of elements; the circle power's
    are chains of injection codes."""
    for diagram in ("c1", "circle-power"):
        X = REFERENCE_DIAGRAMS[diagram](True)
        unbased = hocolim_I(X, 3)
        if diagram == "c1":
            cells = _element_chains(unbased.cat, 3)
        else:
            cells = _chain_cells(X, 3, TruncatedI(X.N).hom)
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


def test_based_hocolim_collapses_unit_nerve():
    X = terminal_ispace(2, based=True)
    tab = hocolim_I(X, 2, based=True)
    assert tab.sset.size() == 1


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
    cat = TruncatedI(3)
    for g in cat.hom(1, 2):
        for f in cat.hom(0, 1):
            lhs = X.act(compose(g, f))
            rhs_g, rhs_f = X.act(g), X.act(f)
            for x in range(X.level(0).card[0]):
                assert lhs(nd_ref(0, x)) == rhs_g(rhs_f(nd_ref(0, x)))


def test_shuffle_acts_trivially_on_terminal():
    X = terminal_ispace(3)
    t = shuffle(1, 2)
    assert X.act(t)(nd_ref(0, 0)) == nd_ref(0, 0)
