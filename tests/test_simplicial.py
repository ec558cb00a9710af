import gc
import platform
from functools import partial
from itertools import combinations

import pytest

from ispaces import cmon, ispace
from ispaces.simplicial import (
    Chains,
    FaceRows,
    SSet,
    alexander_whitney,
    apply_s,
    apply_word,
    chain_complex,
    component_subcomplex,
    cone_homology,
    discrete,
    homology,
    map_cone_homology,
    map_from_tables,
    nd_ref,
    nerve,
    pi0_classes,
    point,
    reduced_homology_trivial,
    ref_dim,
    simplicial_circle,
    tensor_complex,
    validate_sset,
)

from ispaces.icat import FinCategory, coded_injections, comma_under
from oracles import (based_maps, chain_boundary_reference, chains_where, comma_under_fincategory,
                     cyclic_group_category, entries, map_table_reference, nerve_reference,
                     nondegenerate_chains_reference, normalize_pair_ref, normalize_reference,
                     pairing_map, product_sset, quotient, rational_rank, sphere, standard_simplex,
                     truncated_fincategory, validate_chain_complex)


def test_point_and_empty():
    assert sum(point().card) == 1
    assert sum(discrete(0).card) == 0
    assert validate_sset(point()) == []


def test_degeneracy_normal_form():
    r = nd_ref(0, 3)
    r = apply_s(0, r)
    r = apply_s(1, r)
    r = apply_s(0, r)
    degs, base_dim, base_id = r
    assert base_dim == 0 and base_id == 3
    assert list(degs) == sorted(degs, reverse=True)
    assert r == ((2, 1, 0), 0, 3) and ref_dim(r) == 3


def test_degeneracy_words_come_from_one_table():
    """s_i after a word, for every strictly decreasing word of length at most
    4 on 0..7 and every i <= 5: the word is the closed formula's, and equal
    words are one shared tuple, looked up rather than built per call."""
    for length in range(5):
        for degs in combinations(range(7, -1, -1), length):
            for i in range(6):
                want = (tuple(j + 1 for j in degs if j >= i) + (i,)
                        + tuple(j for j in degs if j < i))
                got, again = apply_s(i, (degs, 2, 7)), apply_s(i, (tuple(list(degs)), 0, 1))
                assert got == (want, 2, 7) and got[0] is again[0]


def test_apply_word_matches_single_degeneracies():
    """The concatenation shortcut of apply_word against s_i one at a time."""
    for k in range(5):
        words = [w for r in range(k + 1) for w in combinations(range(k - 1, -1, -1), r)]
        for degs in words:
            ref = (degs, 1, 0)
            for r in range(4):
                for word in combinations(range(k + r - 1, -1, -1), r):
                    want = ref
                    for j in reversed(word):
                        want = apply_s(j, want)
                    assert apply_word(word, ref) == want


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="tuple untracking is a detail of the CPython collector")
def test_refs_and_face_rows_leave_the_cyclic_collector():
    """Refs are exact tuples of atoms, so a full collection stops tracking
    them and the face rows that hold them; a tuple subclass is never
    untracked, and would keep every ref and face row on the collector's
    lists for as long as the simplicial set lives."""
    from ispaces.ispace import hocolim_I, terminal_ispace

    tabs = [nerve(comma_under(1, 3), 3),
            hocolim_I(terminal_ispace(3, based=True), 3, based=True)]
    refs = [tab.ref_of[raw] for tab in tabs for raws in tab.raw_of for raw in raws]
    refs += [r for tab in tabs for r in tab.ref_of.values()]
    rows = [row for tab in tabs for level in tab.sset.face[:-1] for row in level]
    gc.collect()
    assert refs and rows
    assert all(type(r) is tuple for r in refs)
    assert all(type(r) is tuple for row in rows for r in row)
    assert not any(gc.is_tracked(row) for row in rows)
    # The top rows are built on first read, here, after the refs they hold
    # (and a quotient pushes new refs, with new degeneracy words, as it
    # builds them).  A collection untracks a tuple only if it finds its items
    # untracked already, and it may meet a new row before its new ref and a
    # ref before its word: one collection per level of that nesting.
    top = [row for tab in tabs for row in tab.sset.face[-1]]
    for _ in range(3):
        gc.collect()
    assert top and all(type(r) is tuple for row in top for r in row)
    assert not any(gc.is_tracked(row) for row in top)


def test_face_rows_keep_a_row_read_by_id_and_no_row_of_a_pass():
    """A row read by id is built once and kept; a pass in order reads it
    from its slot and builds every other row, keeping none of them.  The
    pass of `faces` that boundary columns are summed from reads the faces of
    every other cell too, but builds no row: it gives their refs unbuilt."""
    X = nerve(comma_under(1, 3), 3).sset
    top = X.face[3]
    built, faces = [], top.faces_fn
    top.faces_fn = lambda raw: built.append(raw) or faces(raw)
    x = len(top) // 2
    row = top[x]
    assert top[x] is row and built == [top.raws[x]]
    for _ in range(2):
        rows = list(top)
        assert rows[x] is row and rows == [tuple(map(top.ref, faces(raw))) for raw in top.raws]
    assert len(built) == 1 + 2 * (len(top) - 1) and built.count(top.raws[x]) == 1
    passed = list(top.faces())
    assert passed[x] is row and len(built) == 3 * len(top) - 2
    assert [type(refs) is tuple for refs in passed] == [y == x for y in range(len(top))]
    assert [y for y, kept in enumerate(top.rows) if kept is not None] == [x]
    assert list(X.face[2]) and X.face[2].rows is None


def test_a_pass_over_the_trunc_4_nerve_holds_no_row():
    """After the reduced homology of (1 | I) at truncation 4, one pass of
    `len` over every boundary of a fresh chain complex reads all 124,354
    top rows in order.  It builds each row again and keeps none, so its
    traced Python allocations peak within 2 MB of where they start (a pass
    that keeps its rows holds about 8.5 MB of them)."""
    import tracemalloc

    X = nerve(comma_under(1, 4), 3).sset
    assert reduced_homology_trivial(X, 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert [len(d) for d in chain_complex(X).boundaries][3] > 3 * 124354
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 2 * 2 ** 20


GUARDED_TABLES = {
    "nerve-under-1": lambda: nerve(comma_under(1, 3), 3),
    "hocolim-terminal": lambda: ispace.hocolim_I(ispace.terminal_ispace(3), 3),
    "hocolim-c1-based": lambda: ispace.hocolim_I(cmon.c1(3).space, 3, based=True),
    "diagonal-circle-power": lambda: ispace.hocolim_I(ispace.power_ispace(sphere(1), 2), 3),
}


def _degenerate_top_cell(tab):
    """A degenerate raw cell of the top dimension: s_0 of the first cell below
    it, on a nerve a chain with an identity, on a diagonal the code of s_0
    (`deg`) in its chain table, shifted past the codes below."""
    top, C = tab.sset.top_dim, tab.cat
    y = tab.raw_of[top - 1][0]
    if isinstance(C, ispace._ChainCodes):  # the chain table of a Bousfield-Kan diagonal
        return C.shift[top] + C.deg[top - 1][0][y - C.shift[top - 1]]
    return (C.ident[C.src[y[0]]],) + y


@pytest.mark.parametrize("name", sorted(GUARDED_TABLES))
@pytest.mark.parametrize("lookup", [False, True])
def test_tables_are_freed_by_reference_counting_alone(name, lookup):
    """With the cyclic collector off, a table's refs and its top face rows
    die on `del`, after homology and after a degenerate top lookup: nothing
    in a table refers back to it, so no cycle keeps it (a ref function
    stored as a closure over its own `ref_of` would)."""
    import weakref

    gc.collect()
    gc.disable()
    try:
        tab = GUARDED_TABLES[name]()
        homology(tab.sset, tab.sset.top_dim - 1)
        if lookup:
            degs, _, _ = tab.ref_of[_degenerate_top_cell(tab)]
            assert degs
        refs, rows = weakref.ref(tab.ref_of), weakref.ref(tab.sset.face[-1])
        del tab
        assert refs() is None and rows() is None
    finally:
        gc.enable()


def test_standard_simplex_counts():
    d2 = standard_simplex(2)
    assert d2.card == (3, 3, 1)
    assert validate_sset(d2) == []
    assert reduced_homology_trivial(d2, 2)


def test_circle_homology():
    h = homology(simplicial_circle(), 2)
    assert h.group(0) == (1, ())
    assert h.group(1) == (1, ())
    assert h.group(2) == (0, ())


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_homology(n):
    h = homology(sphere(n), n)
    assert h.group(0) == (1, ())
    assert h.group(n) == (1, ())
    assert all(h.group(k) == (0, ()) for k in range(1, n))


def test_torus_from_product():
    s1 = simplicial_circle()
    t2 = product_sset(s1, s1).sset
    assert validate_sset(t2) == []
    h = homology(t2, 2)
    assert h.group(0) == (1, ())
    assert h.group(1) == (2, ())
    assert h.group(2) == (1, ())


def test_product_interval_counts():
    d1 = standard_simplex(1)
    sq = product_sset(d1, d1).sset
    assert sq.card == (4, 5, 2)


def test_product_projections_and_pairing():
    d1 = standard_simplex(1)
    prod = product_sset(d1, d1)
    # diagonal via the pairing of two identities
    table = {}
    for k in range(d1.top_dim + 1):
        for x in range(d1.card[k]):
            table[(k, x)] = normalize_pair_ref(prod, nd_ref(k, x), nd_ref(k, x))
    assert all(ref_dim(r) == k for (k, _), r in table.items())


def test_quotient_collapse_boundary():
    d2 = standard_simplex(2)
    sub = {0: {0, 1, 2}, 1: {0, 1, 2}}
    q, push = quotient(d2, sub)
    assert validate_sset(q) == []
    h = homology(q, 2)
    assert h.group(2) == (1, ())
    assert h.group(1) == (0, ())
    assert push(nd_ref(0, 0)) == push(nd_ref(0, 1))


@pytest.mark.parametrize("sub, message", [
    ({}, "empty subcomplex"),
    ({0: set(), 1: set()}, "empty subcomplex"),
    ({1: {0}}, "not closed under faces"),  # the edge of the 1-simplex without its vertices
    ({0: {0}, 1: {0}}, "not closed under faces"),  # ... with one of them
])
def test_quotient_refuses_empty_and_unclosed_subcomplexes(sub, message):
    with pytest.raises(ValueError, match=message):
        quotient(standard_simplex(1), sub)


def test_quotient_shares_each_face_ref():
    """A quotient pushes each distinct face ref once: the rows that hold
    equal refs hold one object.  Checked on the based homotopy colimit of
    c1(3), the quotient of the unbased one by the cells over the basepoints."""
    from ispaces.cmon import c1
    from ispaces.ispace import hocolim_I

    Q = hocolim_I(c1(3).space, 3, based=True).sset
    for k in range(1, Q.top_dim + 1):
        refs = [r for row in Q.face[k] for r in row]
        assert len(refs) > len(set(refs)) > 0
        assert len({id(r) for r in refs}) == len(set(refs))


def test_pi0_disjoint_union_of_components():
    x = discrete(3)
    assert len(pi0_classes(x)) == 3
    comp, _ = component_subcomplex(x, {1})
    assert comp.card[0] == 1


def test_cone_detects_iso_and_non_iso():
    from ispaces.simplicial import SMap, identity_map

    s1 = simplicial_circle()
    ident = identity_map(s1)
    # an H_k-isomorphism for k <= 1 has an acyclic cone through degree 2
    assert all(map_cone_homology(ident, 2).get(k, (0, ())) == (0, ()) for k in range(3))
    collapse = SMap(s1, point(), {
        (0, 0): nd_ref(0, 0), (1, 0): ((0,), 0, 0)})
    # the cone of S^1 -> point is a suspension: H_2 = Z refutes the iso
    cone = map_cone_homology(collapse, 2)
    assert cone.get(2, (0, ())) == (1, ())


def _counted(cx, reads):
    """cx with each column read from its d_k appended to reads[k]."""
    from ispaces.simplicial import ChainComplex
    from ispaces.zlinalg import ColumnMatrix

    def source(k, mat):
        for x, col in mat.source():
            reads.setdefault(k, []).append(x)
            yield x, col

    return ChainComplex(cx.counts, [ColumnMatrix(partial(source, k, mat))
                                    for k, mat in enumerate(cx.boundaries)])


def test_acyclic_cone_reads_no_column_past_its_rank_bound():
    """The cone of the identity of Delta^4 is acyclic, so the rank of its d_k
    meets the shape bound at the end of the source block, -dx + x for each
    (k-1)-simplex x.  SNF reads that block once, sees the bound at its last
    pivot, and reads no column of the target's d_k."""
    X = standard_simplex(4)
    cx, cy = chain_complex(X), chain_complex(X)
    src_reads, dst_reads, f_reads = {}, {}, {}
    groups = cone_homology(_counted(cx, src_reads), _counted(cy, dst_reads),
                           lambda k, x: f_reads.setdefault(k, []).append(x) or {x: 1}, True, True)
    assert groups == {k: (0, ()) for k in range(6)}
    for k in range(1, 6):
        assert f_reads[k - 1] == list(range(cx.count(k - 1)))
        assert src_reads.get(k - 1, []) == list(range(cx.count(k - 1) if k > 1 else 0))
        assert dst_reads.get(k, []) == []
    assert sum(map(len, dst_reads.values())) == 0 < sum(X.card[1:]) == 26


def _apply(column_of, chain):
    """The image of a chain {basis: coefficient} under a map given by columns."""
    out = {}
    for x, v in chain.items():
        for r, w in column_of(x).items():
            out[r] = out.get(r, 0) + v * w
    return {r: v for r, v in out.items() if v}


def _aw_cone(f, g, top):
    """The cone of the Alexander-Whitney map of (f, g) through degree top,
    after checking that the tensor differential squares to zero and that
    the map commutes with the differentials."""
    X, Y, Z = f.dst, g.dst, f.src
    T, pos = tensor_complex(chain_complex(X, top), chain_complex(Y, top), top)
    cz = chain_complex(Z, top - 1)
    aw = partial(alexander_whitney, f, g, pos)
    assert validate_chain_complex(T) == []
    for n in range(1, len(cz.counts)):
        for z in range(cz.count(n)):
            d_aw = _apply(lambda r: T.boundary_cols(n).get(r, {}), aw(n, z))
            assert d_aw == _apply(partial(aw, n - 1), cz.boundary_cols(n).get(z, {}))
    return cone_homology(cz, T, aw, Z.vanishes(top),
                         X.complete and Y.complete and X.top_dim + Y.top_dim <= top)


@pytest.mark.parametrize("X, Y", [
    (standard_simplex(1), standard_simplex(2)),
    (simplicial_circle(), simplicial_circle()),
    (simplicial_circle(), sphere(2)),
], ids=["d1-d2", "s1-s1", "s1-s2"])
def test_alexander_whitney_cone_of_a_product_vanishes(X, Y):
    # Eilenberg-Zilber: the projections of X x Y pair to a chain homotopy
    # equivalence C(X x Y) -> C(X) (x) C(Y), so its cone is acyclic
    P = product_sset(X, Y)
    top = P.sset.top_dim + 1
    assert _aw_cone(P.proj1, P.proj2, top) == {k: (0, ()) for k in range(top + 1)}


@pytest.mark.parametrize("X, acyclic", [
    (standard_simplex(2), True),
    # the diagonal of a sphere misses a class of the product
    (simplicial_circle(), False),
    (sphere(2), False),
], ids=["d2", "s1", "s2"])
def test_alexander_whitney_cone_of_a_diagonal_matches_the_product(X, acyclic):
    from ispaces.simplicial import identity_map

    ident = identity_map(X)
    P = product_sset(X, X)
    cone = map_cone_homology(pairing_map(P, ident, ident, P.sset.top_dim), 2 * X.top_dim - 1)
    assert _aw_cone(ident, ident, 2 * X.top_dim) == cone
    assert all(g == (0, ()) for g in cone.values()) == acyclic


def test_boundary_squares_to_zero():
    from ispaces.simplicial import chain_complex

    for x in (standard_simplex(3), sphere(2), product_sset(simplicial_circle(),
                                                           standard_simplex(1)).sset):
        c = chain_complex(x, top=x.top_dim)
        assert validate_chain_complex(c) == []


def test_boundary_entries_match_reference_in_order():
    from ispaces.cmon import c1
    from ispaces.ispace import hocolim_I
    from ispaces.simplicial import chain_complex

    collapsed_edge = quotient(standard_simplex(3), {0: {0, 1}, 1: {0}})[0]
    based = hocolim_I(c1(2).space, 2, based=True).sset
    for x in (collapsed_edge, based):  # quotients with degenerate faces
        assert any(degs for rows in x.face for faces in rows for degs, _, _ in faces)
    for x in (simplicial_circle(), sphere(2), collapsed_edge, based):
        cx = chain_complex(x)
        for k in range(1, x.top_dim + 1):
            assert entries(cx.boundaries[k]) == chain_boundary_reference(x, k)
    assert len(chain_complex(simplicial_circle()).boundaries[1]) == 0  # d_0 = d_1 cancel


def test_snf_rank_matches_rational_rank():
    from ispaces.simplicial import chain_complex
    from ispaces.zlinalg import rank_and_torsion

    x = product_sset(simplicial_circle(), simplicial_circle()).sset
    c = chain_complex(x, top=2)
    for k in (1, 2):
        mat = c.boundaries[k]
        nrows, ncols = c.counts[k - 1], c.counts[k]
        rank, _ = rank_and_torsion(mat, nrows, ncols)
        dense = [[mat.cols.get(col, {}).get(r, 0) for col in range(ncols)]
                 for r in range(nrows)]
        assert rank == rational_rank(dense, ncols)


def test_nerve_of_poset_is_contractible():
    from ispaces.icat import FinCategory

    objects = [0, 1]
    morphisms = ["id0", "id1", "f"]
    cat = FinCategory(
        objects, morphisms,
        src={"id0": 0, "id1": 1, "f": 0},
        dst={"id0": 0, "id1": 1, "f": 1},
        comp={("id0", "id0"): "id0", ("id1", "id1"): "id1",
              ("f", "id0"): "f", ("id1", "f"): "f"},
        ident={0: "id0", 1: "id1"},
    )
    n = nerve(cat.coded(), 2).sset
    assert reduced_homology_trivial(n, 2)


@pytest.mark.parametrize("D", [1, 2, 3])
def test_nerve_of_the_empty_category(D):
    """The category with no objects has an empty nerve: no cell in any
    dimension, complete, with zero homology.  A chain looked up in it is no
    chain of its top, a KeyError, not an IndexError of its prefixes."""
    from ispaces.icat import coded_category

    tab = nerve(coded_category([], [], None, None, None), D)
    assert tab.sset.card == (0,) * (D + 1) and tab.sset.complete
    assert list(tab.raw_of[D]) == [] and validate_sset(tab.sset) == []
    assert homology(tab.sset, D).groups == {k: (0, ()) for k in range(D + 1)}
    with pytest.raises(KeyError):
        tab.ref_of[(0,) * D]


def test_homology_refuses_incomplete_skeleton():
    s1 = simplicial_circle()
    trimmed = type(s1)(s1.card, s1.face, complete=False, basepoint=None)
    with pytest.raises(ValueError):
        homology(trimmed, 1)


def test_pairing_map_lands_in_product():
    d1 = standard_simplex(1)
    prod = product_sset(d1, d1)
    from ispaces.simplicial import identity_map

    f = pairing_map(prod, identity_map(d1), identity_map(d1), d1.top_dim)
    assert f.validate() == []


def _assert_on_demand_matches_reference(f):
    """Force every image of a map built by map_from_tables and compare the
    table with the eager tabulation of the same raw map."""
    t = f.table
    want = map_table_reference(*t.fn.args)  # the partial's (src_tab, dst_tab, raw_fn)
    got = {key: f.table[key] for key in f.src.nondeg_keys()}
    assert got == want
    assert dict(t) == want


def test_on_demand_images_match_eager_reference():
    from ispaces.cmon import c1
    from ispaces.gamma import gamma_of_monoid
    from ispaces.ispace import (R_functor, hocolim_I, hocolim_map, hocolim_N, power_ispace,
                                restrict)

    G = gamma_of_monoid(c1(2), 2, 2)
    for k in range(1, 3):
        for l in range(1, 3):
            for phi in based_maps(k, l):
                f = G.act(phi, k, l)
                assert not f.table  # nothing is pushed before it is asked for
                _assert_on_demand_matches_reference(f)
    # the comparison maps of the semistability diagnostic on c1 at trunc 3
    X = c1(3).space
    RX, j = R_functor(X)
    for f in (hocolim_map(hocolim_N(X, 3), hocolim_I(X, 3), lambda m, x: x),
              hocolim_map(hocolim_N(restrict(X, 2), 3), hocolim_N(RX, 3), lambda m, x: j[m](x))):
        _assert_on_demand_matches_reference(f)
    P = power_ispace(sphere(1), 2)
    for f in P.maps.values():
        _assert_on_demand_matches_reference(f)


def test_validate_reports_an_image_that_cannot_be_resolved():
    tab = nerve(coded_injections(1), 2)
    assert map_from_tables(tab, tab, lambda k, raw: raw).validate() == []
    lost = tab.raw_of[1][0]
    f = map_from_tables(tab, tab, lambda k, raw: "nowhere" if raw == lost else raw)
    assert f.validate() == ["missing image of (1, 0)"]


# name -> (the coded category, the same category as explicit tables)
NERVE_CATEGORIES = {
    **{f"under-{n}": (lambda n=n: (comma_under(n, 3), comma_under_fincategory(n, 3)))
       for n in range(4)},
    "I2": lambda: (coded_injections(2), truncated_fincategory(2)),
    "Z3": lambda: (cyclic_group_category(3).coded(), cyclic_group_category(3)),
}


@pytest.mark.parametrize("name, D", [pytest.param(name, 3, id=name)
                                     for name in sorted(NERVE_CATEGORIES)]
                         + [pytest.param(name, 4, id=f"{name}-D4")
                            for name in ("Z3", "under-1", "under-2")])
def test_coded_nerve_matches_tagged_reference(name, D):
    """The nerve on morphism codes equals the nerve on tagged chains of
    morphisms of the same category given as explicit tables, and each raw
    cell decodes through the labels of the coded category to the
    reference's cell of that id.  Face rows are built directly in
    dimensions 2 and 3 and by the general loop above them, which the D = 4
    cases reach."""
    cat, tables = NERVE_CATEGORIES[name]()
    got = nerve(cat, D)
    want = nerve_reference(tables, D)
    assert got.sset == want.sset
    objects, morphisms = cat.objects, cat.morphisms

    def decode(raw):
        if isinstance(raw, tuple):
            return ("c", tuple(morphisms[f] for f in raw))
        return ("o", objects[raw])

    code = {f: c for c, f in enumerate(morphisms)}

    def encode(cell):
        tag, x = cell
        return tuple(code[f] for f in x) if tag == "c" else objects.index(x)

    assert [[decode(raw) for raw in raws] for raws in got.raw_of] == want.raw_of
    assert {cell: got.ref_of[encode(cell)] for cell in want.ref_of} == want.ref_of
    assert {decode(raw): ref for raw, ref in got.ref_of.items()} == want.ref_of


def test_nerve_codes_its_category_once(monkeypatch):
    """nerve reads the coded record it is given and checks nothing: a
    category built coded reaches it without FinCategory, and hand-built
    tables are validated and coded once, by FinCategory.coded."""
    calls = []
    for name in ("coded", "validate"):
        real = getattr(FinCategory, name)
        monkeypatch.setattr(FinCategory, name,
                            lambda self, name=name, real=real: calls.append(name) or real(self))
    cat = comma_under(1, 3)
    assert nerve(cat, 3).sset == nerve_reference(comma_under_fincategory(1, 3), 3).sset
    assert calls == []
    tables = cyclic_group_category(3)
    assert nerve(tables.coded(), 3).sset == nerve_reference(tables, 3).sset
    assert calls == ["coded", "validate"]


class _CountedRows(list):
    """One dimension of a face table that counts the rows read through it."""

    read = 0

    def __iter__(self):
        for row in super().__iter__():
            self.read += 1
            yield row


def test_homology_builds_few_top_rows_of_the_trunc_4_nerve(monkeypatch):
    """The faces of a nerve's top cell are read when SNF reads its column,
    and SNF stops at its rank bound, the 5,362 rows of d_3 less those
    cleared in degree 2: the reduced homology of (1 | I) at truncation 4
    reads the faces of 5,145 of its 124,354 top cells, counted per call of
    `faces_fn`, and none past its last pivot.  The faces below the top are
    read per column too: SNF meets the bound of d_2 after 217 of its 5,362
    columns.  Both the cell order and the pivot choice fix these counts.
    SNF reads the columns in one pass in order, which keeps no row."""
    import ispaces.simplicial as simplicial

    X = nerve(comma_under(1, 4), 3).sset
    top = X.face[3]
    assert isinstance(top, FaceRows) and len(top) == 124354
    built = {2: [], 3: []}

    def counted(k, build, raw):
        built[k].append(raw)
        return build(raw)

    calls, snf = [], simplicial.rank_and_torsion

    def recorded(mat, nrows, ncols, drop_rows=(), pivots=None):
        calls.append(snf(mat, nrows, ncols, drop_rows, pivots) + (nrows - len(drop_rows), ncols))
        return calls[-1][:2]

    for k in built:
        X.face[k].faces_fn = partial(counted, k, X.face[k].faces_fn)
    monkeypatch.setattr(simplicial, "rank_and_torsion", recorded)
    assert reduced_homology_trivial(X, 2)
    rank, _, bound, ncols = calls[-1]
    assert rank == bound < 5362 and ncols == 124354
    assert len(built[3]) == 5145 and top.rows is None
    assert len(X.face[2]) == 5362 and len(built[2]) == 217 and X.face[2].rows is None


def test_homology_reads_only_a_prefix_of_the_top_degree():
    """Columns of d_3 are summed only when SNF reads them, and SNF stops at
    its rank bound: on this nerve after at most a quarter of them."""
    X = nerve(comma_under(1, 3), 3).sset
    rows = _CountedRows(X.face[3])
    counted = SSet(X.card, X.face[:3] + (rows,))
    assert homology(counted, 2).groups == homology(X, 2).groups
    assert len(rows) == 898
    assert 0 < rows.read <= len(rows) // 4


def _recorded_nerve(monkeypatch, C, D):
    """nerve(C, D) and the arguments of the one normalize_table call it makes,
    which calls deg_fn on no image in the top dimension: the nerve's top
    `Chains` gives its own degeneracies."""
    import ispaces.simplicial as simplicial

    real, calls, probed = simplicial.normalize_table, [], set()

    def record(cells, faces_fn, deg_fn, top):
        calls.append((cells, faces_fn, deg_fn, top))
        return real(cells, faces_fn, lambda k, raw, i: probed.add(k) or deg_fn(k, raw, i), top)

    monkeypatch.setattr(simplicial, "normalize_table", record)
    tab = nerve(C, D)
    monkeypatch.undo()
    (args,) = calls
    assert probed == set(range(D - 1))
    return tab, args


def _random_poset(seed, n, p=0.4):
    """A random poset on range(n) (the transitive closure of i < j edges
    drawn with probability p), coded: a morphism (a, b) for each a <= b."""
    import random

    from ispaces.icat import coded_category

    rng = random.Random(seed)
    below = [{a} for a in range(n)]
    for b in range(n):
        for a in range(b):
            if rng.random() < p:
                below[b] |= below[a]
    return coded_category(list(range(n)), sorted((a, b) for b in range(n) for a in below[b]),
                          lambda f: f, lambda o: (o, o), lambda g, f: (f[0], g[1]))


def _oracle_categories():
    """name -> coded category: comma_under(n, N) for n <= N <= 3, the
    categories of elements of every registry diagram of sets at truncation
    N <= 3 over all injections and over 0 < 1 < ... < N, and random posets
    (seeds 0-5 on 5-8 elements, edge probability 0.4)."""
    from ispaces.cli import _models_at
    from ispaces.icat import injections, subset_inclusion
    from ispaces.ispace import _elements
    from ispaces.scenarios import MONOID_MODELS, build_ispace
    from oracles import codes_of

    cats = {f"under-{n}-{N}": comma_under(n, N) for N in range(4) for n in range(N + 1)}
    for N in range(1, 4):
        for m in MONOID_MODELS + tuple(_models_at(N)):
            X = build_ispace(m, N)
            if not any(c for L in X.levels for c in L.card[1:]):
                cats[f"elements-{m}-{N}"] = _elements(X, range(len(injections(N))))
                cats[f"elements-N-{m}-{N}"] = _elements(
                    X, codes_of(N, lambda a, b: [subset_inclusion(a, b)]))
    cats.update({f"poset-{seed}": _random_poset(seed, 5 + seed % 4) for seed in range(6)})
    return cats


def _elements_of_c1():
    from ispaces.icat import injections
    from ispaces.ispace import _elements

    return _elements(cmon.c1(3).space, range(len(injections(3))))


KEPT_CASES = {f"under-{n}-{N}-D{D}": (partial(comma_under, n, N), D)
              for N in range(5) for n in range(min(N, 2) + 1) for D in (1, 2, 3)}
KEPT_CASES.update({f"elements-c1-D{D}": (_elements_of_c1, D) for D in (1, 2, 3)})
KEPT_CASES["poset-D1"] = (partial(_random_poset, 3, 8), 1)


@pytest.mark.parametrize("name", sorted(KEPT_CASES))
def test_kept_view_is_the_list_of_chains_with_no_identity(name):
    """A nerve's nondegenerate top is a `Chains` of its own that holds per
    prefix, not per position: its prefixes, their lists of non-identity
    morphisms (at most one list per object, shared) and their cumulative
    counts.  It reads as the list of the top chains that hold no identity,
    filtered by brute force: by iteration, by every id, by negative ids and by
    slices, with a list's IndexError.  `oracles.chains_where(top, keep)` is the `Chains` of the
    chains whose prefix passes `keep`."""
    make, D = KEPT_CASES[name]
    C = make()
    tab, want = nerve(C, D), nondegenerate_chains_reference(C, D)
    top, every = tab.raw_of[D], tab.ref_of.degenerate_ref.__self__
    assert isinstance(top, Chains) and sorted(vars(top)) == ["C", "ext", "off", "prefixes"]
    assert len(top.prefixes) == len(top.ext) == len(top.off) - 1 <= len(every.prefixes)
    assert top.C is every.C and len({id(e) for e in top.ext}) <= len(C.ident)
    assert len(top) == len(want) and list(top) == want
    assert [top[x] for x in range(len(top))] == want
    assert [top[x] for x in range(-len(top), 0)] == want
    for cut in (slice(None), slice(None, None, -1), slice(1, -1, 3), slice(-5, None),
                slice(7, 2, -2), slice(len(want) + 3, None)):
        assert top[cut] == want[cut], cut
    for x in (len(top), -len(top) - 1):
        with pytest.raises(IndexError):
            top[x]
    for keep in (lambda p: True, lambda p: False, lambda p: sum(p) % 3 != 1,
                 lambda p: not p or C.src[p[0]] % 2 == 0):
        view, kept = chains_where(top, keep), [z for z in want if keep(z[:-1])]
        assert isinstance(view, Chains) and view.C is top.C
        assert {id(e) for e in view.ext} <= {id(e) for e in top.ext}
        assert list(view) == [view[x] for x in range(len(view))] == kept
        assert view[::-2] == kept[::-2] and view[-1:] == kept[-1:]


def test_positional_top_matches_reference_on_full_cell_lists(monkeypatch):
    """The nerve with its top degree by position (`simplicial.Chains`) equals
    `normalize_reference` run on its cells as fully built lists: cards, the
    raw cells of every id, every face row, and the ref of every raw cell,
    looked up one by one.  Each category is cut at D = 1, 2 and 3, and the
    posets at D = 4 as well."""
    cats = _oracle_categories()
    assert len(cats) == 70
    for name, C in cats.items():
        for D in (1, 2, 3, 4) if name.startswith("poset") else (1, 2, 3):
            _assert_nerve_matches_reference(monkeypatch, f"{name}-D{D}", C, D)


def _assert_nerve_matches_reference(monkeypatch, name, C, D):
    tab, (cells, faces_fn, deg_fn, _) = _recorded_nerve(monkeypatch, C, D)
    assert type(cells[D]) is not list, name
    full = [list(level) for level in cells]
    assert len(full[D]) == len(cells[D]), name
    want = normalize_reference(full, faces_fn, deg_fn, D)
    assert tab.sset.card == want.sset.card, name
    top, fresh = tab.raw_of[D], nerve(C, D)  # by id, backwards, by negative id and slice, in order
    ids = range(len(top) - 1, -1, -1)
    assert [top[x] for x in ids] == [want.raw_of[D][x] for x in ids], name
    assert [fresh.sset.face[D][x] for x in ids] == [want.sset.face[D][x] for x in ids], name
    assert [top[x] for x in range(-len(top), 0)] == want.raw_of[D], name
    assert top[-1:] + top[::3] == want.raw_of[D][-1:] + want.raw_of[D][::3], name
    assert [list(raws) for raws in tab.raw_of] == want.raw_of, name
    assert [list(rows) for rows in tab.sset.face] == list(want.sset.face), name
    assert {raw: tab.ref_of[raw] for level in full for raw in level} == want.ref_of, name


def test_trunc_4_nerve_counts_its_top_and_decodes_only_what_snf_reads(monkeypatch):
    """nerve(comma_under(1, 4), 3) hands normalize_table a top degree whose
    length, 141,128 with the degenerate chains, is the number of composable
    3-chains counted apart from it (the entries of M^3, M[a][b] the number of
    morphisms a -> b), and which `simplicial.raw_cells` counts.  Building the
    nerve decodes no top chain, homology decodes one top chain per column
    of d_3 that SNF reads (its nondegenerate `Chains` holds no chain with an
    identity), and no list or set of top chains is made on the way."""
    import ispaces.simplicial as simplicial

    C = comma_under(1, 4)
    n = len(C.ident)
    M = [[0] * n for _ in range(n)]
    for a, b in zip(C.src, C.dst):
        M[a][b] += 1
    paths = [row[:] for row in M]
    for _ in range(2):
        paths = [[sum(paths[a][c] * M[c][b] for c in range(n)) for b in range(n)]
                 for a in range(n)]
    tab, (cells, *_) = _recorded_nerve(monkeypatch, C, 3)
    assert len(cells[3]) == sum(map(sum, paths)) == 141128
    top = tab.raw_of[3]
    assert tab.ref_of.degenerate_ref.__self__ is cells[3]
    assert type(top) is simplicial.Chains and len(top) == tab.sset.card[3] == 124354

    decoded = []  # every top chain decoded, by iteration or by id, of every `Chains`
    it, item = simplicial.Chains.__iter__, simplicial.Chains.__getitem__
    monkeypatch.setattr(simplicial.Chains, "__iter__",
                        lambda self: (decoded.append(z) or z for z in it(self)))
    monkeypatch.setattr(simplicial.Chains, "__getitem__",
                        lambda self, i: decoded.append(i) or item(self, i))
    assert nerve(C, 3).sset.card == tab.sset.card and decoded == []
    top_rows, built = tab.sset.face[3], []
    faces = top_rows.faces_fn
    top_rows.faces_fn = lambda raw: built.append(raw) or faces(raw)
    assert reduced_homology_trivial(tab.sset, 2)
    assert len(decoded) == len(built) == 5145 and top_rows.rows is None
    top_rows.faces_fn = faces  # the counting wrapper holds the chains it read
    _assert_holds_no_top_chain(tab)


def test_based_hocolim_of_elements_holds_no_top_chain():
    """The based homotopy colimit of c1(3), a quotient of the nerve of its
    category of elements, keeps its top as the `Chains` of the prefixes whose
    first object is not a basepoint: after homology it holds no decoded top
    chain."""
    tab = ispace.hocolim_I(cmon.c1(3).space, 3, based=True)
    assert isinstance(tab.raw_of[3], Chains) and len(tab.raw_of[3]) == tab.sset.card[3] > 0
    homology(tab.sset, 2)
    _assert_holds_no_top_chain(tab)


def test_based_hocolim_of_elements_holds_no_list_over_its_top():
    """The based quotient computes the new id of a cell from the sorted
    collapsed ids and reads each row from its kept raw cell, so after
    homology `hocolim_I(c1(3).space, 3, based=True)` holds no list, set or
    bytes object as long as half its top: no new id per cell, no list of
    kept ids, no row slots of the nerve it quotients (2,137 top cells, of
    which 1,585 are kept) and, since SNF reads the top rows in one pass in
    order, no slots of its own top rows."""
    tab = ispace.hocolim_I(cmon.c1(3).space, 3, based=True)
    homology(tab.sset, 2)
    held = _held_containers(tab)
    assert tab.sset.card[3] == 1585 and tab.sset.face[3].rows is None
    assert [len(obj) for obj in held if len(obj) >= 1585 / 2] == []


def _held_containers(tab):
    """Every list, set or bytes object that the table holds, through closures
    and bound methods (a `LazyDict`'s `__getitem__`) but not module globals."""
    import types

    seen, stack, containers = set(), [tab], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, set, frozenset, bytes, bytearray)):
            containers.append(obj)
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
        elif isinstance(obj, (list, tuple, set, frozenset, dict, types.BuiltinMethodType)) \
                or hasattr(obj, "__dict__"):
            stack += gc.get_referents(obj)
    return containers


def _assert_holds_no_top_chain(tab):
    """No list or set that the table holds has a 3-chain of morphism codes."""
    containers = _held_containers(tab)
    assert len(containers) > 10

    def is_chain(z):
        return type(z) is tuple and len(z) == 3 and all(type(f) is int for f in z)

    assert not any(is_chain(z) for obj in containers for z in obj)
