"""Normal-form assembly against the cell-by-cell reference oracle.

`simplicial.normalize_table` finds degenerate cells from the level below,
or takes them from a top that gives its own (a nerve's `simplicial.Chains`);
`oracles.normalize_reference` tests each raw cell with its own faces and
degeneracies.  Every call made while building the objects below runs both,
and the two `NormTable`s (normalized set with its face table and basepoint,
and `raw_of`) must be equal, as must the refs of every raw cell, looked up
one by one: the library makes its nondegenerate top refs, and the
degenerate ones of a `Chains` top, on the first lookup that misses
(`simplicial.TopRefs`).

The face rows of every dimension are built on their first read
(`simplicial.FaceRows`).  Each call is therefore made again after the
object is built, and the rows of fresh results are read by every reader of a
whole dimension, against an eagerly built copy.
"""

import pytest

from ispaces import cmon, gamma, icat, ispace, simplicial
from ispaces.simplicial import (SMap, SSet, component_subcomplex, identity_map, pi0, ref_dim,
                                validate_sset)

from oracles import normalize_reference, product_sset, quotient, refs_by_lookup, sphere


@pytest.fixture
def checked(monkeypatch):
    """Route every normalize_table call through both paths; count the calls."""
    real = simplicial.normalize_table
    calls = []

    def both(*args, **kwargs):
        got = real(*args, **kwargs)
        want = normalize_reference(*args, **kwargs)
        assert got == want
        top = args[3] if len(args) > 3 else kwargs["top_dim"]
        cells = args[0][:top + 1]
        own = hasattr(cells[top], "degenerate_ref")  # a top that gives its own degeneracies
        if top or kwargs.get("based_raw") is None:  # a top vertex looked up makes them all
            assert dict(got.ref_of) == {raw: r for raw, r in want.ref_of.items()
                                        if ref_dim(r) < top or r[0] and not own}
        assert refs_by_lookup(got, cells) == dict(got.ref_of) == want.ref_of
        calls.append(got.sset.card)
        return got

    for mod in (simplicial, ispace, cmon, gamma):
        monkeypatch.setattr(mod, "normalize_table", both)
    return calls


@pytest.fixture
def recorded(monkeypatch):
    """Record every normalize_table call: its arguments, the set it returned
    with no row built yet in any dimension, and the reference set made at the call."""
    real = simplicial.normalize_table
    calls = []

    def record(*args, **kwargs):
        got = real(*args, **kwargs)
        assert all(rows.rows is None for rows in got.sset.face[1:])
        calls.append((args, kwargs, got.sset, normalize_reference(*args, **kwargs).sset))
        return got

    for mod in (simplicial, ispace, cmon, gamma):
        monkeypatch.setattr(mod, "normalize_table", record)
    return real, calls


CASES = {
    "nerve-under-0": lambda: simplicial.nerve(icat.comma_under(0, 3), 3),
    "nerve-under-1": lambda: simplicial.nerve(icat.comma_under(1, 3), 3),
    "hocolim-terminal": lambda: ispace.hocolim_I(ispace.terminal_ispace(3), 3),
    "hocolim-terminal-based": lambda: ispace.hocolim_I(
        ispace.terminal_ispace(3, based=True), 3, based=True),
    "hocolim-free-1": lambda: ispace.hocolim_I(ispace.free_ispace(1, 3), 3),
    "hocolim-N-c1": lambda: ispace.hocolim_N(cmon.c1(3).space, 3),
    "hocolim-c1-based": lambda: ispace.hocolim_I(cmon.c1(3).space, 3, based=True),
    "hocolim-circle-power": lambda: ispace.hocolim_I(
        ispace.power_ispace(sphere(1), 2), 3),
    "nerve-elements-c1": lambda: simplicial.nerve(
        ispace._elements(cmon.c1(3).space, range(len(icat.injections(3)))), 3),
    "power-circle": lambda: ispace.power_ispace(sphere(1), 3),
    "product": lambda: product_sset(sphere(1), sphere(2)),
    "bar-c1": lambda: cmon.bar(cmon.c1(2), 3),
    "bar-c1-top-rows": lambda: cmon.bar(cmon.c1(3), 2),
    "bar-of-hocolim-c1": lambda: cmon.bar_of_hocolim(cmon.c1(2), 3),
    "two-sided-bar-of-hocolim-c1": lambda: cmon.two_sided_bar_of_hocolim(cmon.c1(2), 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_normalize_table_matches_reference(checked, name):
    CASES[name]()
    assert checked, "no normalize_table call was made"


def _eager(X):
    """X with every dimension of its face table a list."""
    return SSet(X.card, tuple(list(rows) for rows in X.face), X.complete, X.basepoint)


def _quotient_set(X):
    """The subcomplex of every simplex below the top and the first top one."""
    top = X.top_dim
    return {k: set(range(X.card[k] if k < top else min(X.card[k], 1))) for k in range(top + 1)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lazy_top_rows_match_reference_and_eager_copy(recorded, name):
    """Every call returns a set with no row built yet (`recorded`).  Its top
    rows, read in id order once the object is built, equal the reference
    rows made at the call.  Made again, every reader of a whole dimension agrees on a
    fresh result with an eagerly built copy; a quotient builds only the top
    rows of its subcomplex, and none of its own.  A faces_fn that names a
    cell outside `cells` in any dimension raises KeyError when its row is
    read, by any reader."""
    real, calls = recorded
    CASES[name]()
    assert calls
    for args, kwargs, got, want in calls:
        cells, faces_fn, deg_fn, top = args[:4]
        if top:
            assert isinstance(got.face[top], simplicial.FaceRows)
            assert [got.face[top][x] for x in range(got.card[top])] == want.face[top]
        assert got == want
        eager = _eager(got)

        def fresh():
            return real(*args, **kwargs).sset

        assert validate_sset(fresh()) == validate_sset(eager) == []
        X, sub = fresh(), _quotient_set(eager)
        Q = quotient(X, sub)[0]
        if top:  # the closure check reads the rows in sub; the rest wait for a reader of Q
            assert sum(row is not None for row in X.face[top].rows or ()) == len(sub[top])
            assert isinstance(Q.face[top], simplicial.FaceRows)
            assert Q.face[top].rows is None
        assert Q == quotient(eager, sub)[0]
        reps = {pi0(eager)[0]} if eager.card[0] else set()
        assert component_subcomplex(fresh(), reps) == component_subcomplex(eager, reps)
        ident = identity_map(eager).table
        assert SMap(fresh(), eager, ident).validate() == []
        assert SMap(eager, fresh(), ident).validate() == []
        assert fresh() == eager and eager == fresh() and fresh() == fresh()
        if not (top and got.card[top]):
            continue

        for bad in range(1, top + 1):
            def poisoned(k, raw):
                row = tuple(faces_fn(k, raw))
                return (object(),) + row[1:] if k == bad else row

            bad_args = (cells, poisoned, deg_fn, top) + args[4:]
            for read in (lambda X: X.face[bad][0], validate_sset, _eager,
                         lambda X: quotient(X, _quotient_set(eager)),
                         lambda X: component_subcomplex(X, reps), lambda X: X == eager):
                with pytest.raises(KeyError):
                    read(real(*bad_args, **kwargs).sset)


def test_a_face_outside_the_cells_raises_key_error():
    """A row naming a vertex that is not a cell raises KeyError when it is
    read, in the top dimension (top_dim 1) and below it (top_dim 2): every
    row is built on its first read, so the table itself builds."""
    cells = [[0, 1], [("a",), ("b",)], []]
    faces = {("a",): (1, 0), ("b",): (1, 9)}

    def faces_fn(k, raw):
        return faces[raw]

    def deg_fn(k, raw, i):
        return ("s", i, raw)

    for top in (1, 2):
        tab = simplicial.normalize_table(cells, faces_fn, deg_fn, top)
        assert tab.sset.card == (2, 2, 0)[:top + 1]
        assert tab.sset.face[1][0] == (simplicial.nd_ref(0, 1), simplicial.nd_ref(0, 0))
        with pytest.raises(KeyError):
            tab.sset.face[1][1]
        with pytest.raises(KeyError):
            simplicial.homology(tab.sset, top - 1)


def test_homology_of_a_nerve_makes_no_top_ref(monkeypatch):
    """Homology reads no ref, so after a nerve's homology its refs hold no top
    cell (the ref counterpart of the top rows that `recorded` finds unbuilt).
    A degenerate top lookup makes that one ref, a nondegenerate one makes
    every nondegenerate ref, and every raw cell's ref, looked up, then
    equals the reference's."""
    real, calls = simplicial.normalize_table, []

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplicial, "normalize_table", record)
    tab = simplicial.nerve(icat.comma_under(1, 3), 3)
    assert simplicial.reduced_homology_trivial(tab.sset, 2)
    (args,) = calls
    want = normalize_reference(*args).ref_of
    below = {raw: r for raw, r in want.items() if ref_dim(r) < 3}
    assert dict(tab.ref_of) == below
    degenerate = [raw for raw in args[0][3] if want[raw][0]]
    assert degenerate and tab.ref_of[degenerate[-1]] == want[degenerate[-1]]
    assert dict(tab.ref_of) == {**below, degenerate[-1]: want[degenerate[-1]]}
    top = tab.raw_of[3]
    assert tab.ref_of[top[-1]] == simplicial.nd_ref(3, len(top) - 1)
    assert len(tab.ref_of) == len(below) + 1 + len(top)
    assert refs_by_lookup(tab, args[0]) == dict(tab.ref_of) == want


def _edge_table(top_dim):
    """A table whose degeneracy images are mostly not cells, and whose vertex
    "x" is listed again among the edges, where it is also its own s_0."""
    cells = [[0, "x", 2], [("s", 0, 0), "x", ("e",)], [("f",)]][:top_dim + 1]
    faces = {("s", 0, 0): (0, 0), "x": ("x", "x"), ("e",): ("x", 0),
             ("f",): (("e",), ("s", 0, 0), ("e",))}

    def faces_fn(k, raw):
        return faces[raw]

    def deg_fn(k, raw, i):
        return raw if raw == "x" else ("s", i, raw)

    return cells, faces_fn, deg_fn


@pytest.mark.parametrize("top_dim", [1, 2])
def test_refs_of_images_outside_the_cells_and_of_repeated_cells(top_dim):
    """A degeneracy image that is not a cell of its level gets no ref, in the
    top dimension and below it, and a cell repeated from a lower level keeps
    the lower level's ref, as `_box_table`'s empty product ((), (), ()) does
    in dimensions 0 and 1.  Cells are distinct within a level."""
    _assert_edge_table_refs(top_dim, by_position=False)


class _OwnDegeneracies(list):
    """A top level that gives its own degeneracies, as a nerve's
    `simplicial.Chains` does, found here by probing every image of the level
    below; it holds no cell of a lower level."""

    def __init__(self, cells, below, deg_fn, k):
        super().__init__(cells)
        self.images = [(deg_fn(k - 1, y, i), i, y) for i in range(k) for y in below]

    def nondegenerate(self, ref_of):
        hit = {z for z, _, _ in self.images}
        self.kept = [z for z in self if z not in hit]
        return self.kept

    def degenerate_ref(self, ref_of, z):
        if z not in self:
            raise KeyError(z)
        return next((simplicial.apply_s(i, ref_of[y]) for w, i, y in self.images if w == z),
                    None)


def test_a_top_by_position_gives_images_outside_it_no_ref():
    """The same table with a top level that gives its own degeneracies: no
    image is formed for it, its images that are not cells get no ref, and
    its nondegenerate cells are the ones its `nondegenerate` returns."""
    _assert_edge_table_refs(2, by_position=True)


def _assert_edge_table_refs(top_dim, by_position):
    cells, faces_fn, deg_fn = _edge_table(top_dim)
    probed = []
    if by_position:
        cells[top_dim] = _OwnDegeneracies(cells[top_dim], cells[top_dim - 1], deg_fn, top_dim)
    tab = simplicial.normalize_table(
        cells, faces_fn, lambda k, raw, i: probed.append(k) or deg_fn(k, raw, i), top_dim)
    assert (top_dim - 1 in probed) != by_position
    want = normalize_reference(cells, faces_fn, deg_fn, top_dim).ref_of
    assert (tab.raw_of[top_dim] is getattr(cells[top_dim], "kept", None)) == by_position
    assert tab.raw_of[1:] == [[("e",)], [("f",)]][:top_dim]
    assert refs_by_lookup(tab, cells) == dict(tab.ref_of) == want
    assert tab.ref_of["x"] == simplicial.nd_ref(0, 1)
    assert tab.ref_of[("s", 0, 0)] == ((0,), 0, 0)
    for image in (("s", 0, 2), ("s", 0, ("e",)), ("s", 1, ("e",))):
        with pytest.raises(KeyError):
            tab.ref_of[image]
