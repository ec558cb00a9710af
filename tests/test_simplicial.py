import gc
import platform
from functools import partial
from itertools import combinations

import pytest

from ispaces.simplicial import (
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
    quotient,
    reduced_homology_trivial,
    ref_dim,
    simplicial_circle,
    sphere,
    standard_simplex,
    tensor_complex,
    validate_sset,
)

from ispaces.icat import FinCategory, coded_injections, comma_under
from oracles import (chain_boundary_reference, comma_under_fincategory, cyclic_group_category,
                     entries, map_table_reference, nerve_reference, normalize_pair_ref,
                     pairing_map, product_sset, rational_rank, truncated_fincategory)


def test_point_and_empty():
    assert point().size() == 1
    assert discrete(0).size() == 0
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
    assert T.validate() == []
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
        assert c.validate() == []


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
    from ispaces.gamma import based_maps, gamma_of_monoid
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


def test_homology_builds_few_top_rows_of_the_trunc_4_nerve():
    """The top face rows of a nerve are built when SNF reads them, and SNF
    stops at its rank bound: the reduced homology of (1 | I) at truncation
    4 builds 5,146 of its 124,354 rows of d_3, counted as they are built."""
    X = nerve(comma_under(1, 4), 3).sset
    top = X.face[3]
    assert isinstance(top, FaceRows) and len(top) == 124354
    built, build = [], top.row_fn

    def counted(raw):
        built.append(raw)
        return build(raw)

    top.row_fn = counted
    assert reduced_homology_trivial(X, 2)
    assert 0 < len(built) <= 6000
    assert len(built) == sum(row is not None for row in top.rows)


def test_homology_reads_only_a_prefix_of_the_top_degree():
    """Columns of d_3 are summed only when SNF reads them, and SNF stops at
    its rank bound: on this nerve after at most a quarter of them."""
    X = nerve(comma_under(1, 3), 3).sset
    rows = _CountedRows(X.face[3])
    counted = SSet(X.card, X.face[:3] + (rows,))
    assert homology(counted, 2).groups == homology(X, 2).groups
    assert len(rows) == 898
    assert 0 < rows.read <= len(rows) // 4
