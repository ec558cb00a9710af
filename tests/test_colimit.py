"""The box-power colimit kernel against the brute-force colimit oracle.

The library takes the colimit over the skeleton of sorted decompositions,
whose images increase on every block, and joins raw cells there along the
cofaces q - 1 -> q only, one slot at a time; other raw cells are resolved
on lookup.  The oracle joins every raw cell along every morphism of the
decomposition category.  Both must give the same canonical representatives.
The record's decoder `raw` and encoder `ref` must also be inverse to each
other on every simplex.
"""

from itertools import product
from math import factorial, prod

import pytest

from ispaces import ispace
from ispaces.cmon import _bar_deg, _bar_face, _based_action, bar, c1, cyclic2_monoid, sec52_monoid
from ispaces.icat import Injection
from ispaces.ispace import (_box_classes, box_multi, collapsing_ispace, constant_ispace,
                            free_ispace, power_ispace)
from ispaces.simplicial import LazyDict, SSet, apply_s, nd_ref, ref_dim, simplicial_circle

from oracles import box_colimit, is_injective, latching, one_block, sphere, words


def _assert_matches_oracle(classes, oracle):
    """The stored cells are raw cells with the oracle's representatives, every
    raw cell of the oracle looks up to its representative, and the two sets
    of representatives are equal."""
    stored = dict(classes)
    assert stored.keys() <= oracle.keys()
    assert all(stored[raw] == oracle[raw] for raw in stored)
    assert all(classes[raw] == least for raw, least in oracle.items())
    assert set(stored.values()) == set(oracle.values())


def test_box_multi_matches_oracle():
    """The box powers that the registry scenarios build, the one-fold powers
    of their factors and a pair of two different factors, through the
    dimensions given."""
    C, M = c1(3).space, sec52_monoid(2).space
    for factors, dim_bound, based in (((C,), 3, True), ((C, C), 3, True), ((C, C, C), 3, True),
                                      ((M,), 2, False), ((M, M), 2, False), ((M,) * 3, 2, False),
                                      ((M,) * 4, 2, False), ((C, free_ispace(1, 3)), 2, False)):
        B = box_multi(factors, dim_bound, based=based)
        for n in range(B.space.N + 1):
            for dim in range(dim_bound + 1):
                _assert_matches_oracle(B.canon[n][dim], box_colimit(factors, n, dim, n))


@pytest.mark.parametrize("name", ["sphere-power", "constant-circle", "collapsing"])
def test_skeleton_matches_oracle_off_the_scenarios(name):
    """Box squares that no scenario takes: a power of S^1 and a constant
    circle, whose structure maps carry higher simplices, and the collapsing
    diagram, whose structure maps are not injective."""
    X = {"sphere-power": lambda: power_ispace(sphere(1), 2),
         "constant-circle": lambda: constant_ispace(simplicial_circle(), 2),
         "collapsing": lambda: collapsing_ispace(2)}[name]()
    for factors in ((X, X), (X, free_ispace(1, 2))):
        for n in range(3):
            for dim in range(3):
                _assert_matches_oracle(_box_classes(factors, n, dim, n, {}),
                                       box_colimit(factors, n, dim, n))


@pytest.mark.parametrize("name", ["c1", "m52", "constant-circle"])
def test_the_one_factor_box_is_its_factor(name):
    """x -> the class of ((n,), (1..n), (x,)) is, at each level n, a bijection
    of the nondegenerate simplices of X(n) onto those of the one-factor box
    through its top dimension, and it commutes with faces and with every
    structure map; the constant circle has simplices above dimension 0."""
    X = {"c1": lambda: c1(3).space, "m52": lambda: sec52_monoid(2).space,
         "constant-circle": lambda: constant_ispace(simplicial_circle(), 2)}[name]()
    top = 2
    B = box_multi((X,), top)
    for n in range(X.N + 1):
        Xn, Bn = X.level(n), B.space.level(n)
        for k in range(top + 1):
            nondeg = [nd_ref(k, x) for x in range(Xn.card[k] if k < len(Xn.card) else 0)]
            assert sorted(one_block(B, n, r) for r in nondeg) == [
                nd_ref(k, y) for y in range(Bn.card[k])], (n, k)
            for r in nondeg if k else ():
                for i in range(k + 1):
                    assert one_block(B, n, Xn.d(i, r)) == Bn.d(i, one_block(B, n, r)), (n, r, i)
    for alpha, f in X.maps.items():
        for k in range(top + 1):
            for r in X.level(alpha.src).all_simplices(k):
                assert one_block(B, alpha.dst, f(r)) == B.space.act(alpha)(
                    one_block(B, alpha.src, r)), (alpha, r)


def test_a_key_that_is_no_raw_cell_raises_key_error():
    C = c1(3).space
    x0, x9, e0 = nd_ref(0, 0), nd_ref(0, 99), apply_s(0, nd_ref(0, 0))
    classes = _box_classes((C, C), 3, 0, 3, {})
    assert classes[((1, 1), (2, 1), (x0, x0))] == classes[((1, 1), (1, 2), (x0, x0))]
    for key in (((1, 1), (1, 2), (x0, x9)),  # a sorted object, no simplex of C(1)
                ((2, 0), (2, 1), (x9, x0)),  # an unsorted object, no simplex of C(2)
                ((2, 0), (2, 1), (e0, x0)),  # a simplex of the wrong dimension
                ((2, 0), (1, 1), (x0, x0)),  # not injective
                ((2, 0), (4, 1), (x0, x0)),  # out of range
                ((2, 0), (2, 1, 3), (x0, x0)),  # an image longer than the blocks
                ((2, 2), (4, 3, 2, 1), (x0, x0)),  # more than total_max
                ((1, 1, 0), (2, 1), (x0, x0, x0))):  # too many blocks
        with pytest.raises(KeyError):
            classes[key]
    single = box_multi((C,), 1).canon[3][0]
    assert single[((2,), (3, 1), (x0,))] == box_colimit((C,), 3, 0, 3)[((2,), (3, 1), (x0,))]
    for key in (((2,), (3, 3), (x0,)), ((2,), (3, 1), (x9,)), ((2,), (3, 1), (e0,)),
                ((4,), (1, 2, 3, 4), (x0,))):
        with pytest.raises(KeyError):
            single[key]


def test_cells_are_numbered_at_sorted_objects_only(monkeypatch):
    """On the cube of c1(3), the kernel numbers a cell for each sorted object
    (nvec, image) and each tuple of simplices: n!/((n - s)! q_1! ... q_k!)
    images for s = sum(nvec), not the n!/(n - s)! of all injections."""
    X = c1(3).space
    sizes, real = [], ispace.least_roots

    def counted(size, pairs):
        sizes.append(size)
        return real(size, pairs)

    monkeypatch.setattr(ispace, "least_roots", counted)
    for n in range(4):
        for dim in range(4):
            _box_classes((X,) * 3, n, dim, n, {})
            assert sizes.pop() == sum(
                factorial(n) // (factorial(n - sum(nvec)) * prod(map(factorial, nvec)))
                * prod(len(X.level(q).all_simplices(dim)) for q in nvec)
                for nvec in product(range(n + 1), repeat=3) if sum(nvec) <= n)


def test_generators_act_once_per_factor_level(monkeypatch):
    """Within one `_box_classes` call on the cube of c1(3), each coface's
    action is built once and moves each simplex of a factor level once, not
    once per decomposition object that it joins."""
    X = c1(3).space
    real = X.act
    for n in range(4):
        for dim in range(4):
            built, moved = [], []

            def act(alpha):
                built.append(alpha)
                f = real(alpha)

                def counted(x):
                    moved.append((alpha, x))
                    return f(x)
                return counted

            monkeypatch.setattr(X, "act", act)
            _box_classes((X,) * 3, n, dim, n, {})
            assert bool(built) == (n > 0)
            assert len(built) == len(set(built)) and len(moved) == len(set(moved))


def test_box_power_builds_each_level_table_once(monkeypatch):
    """`box_multi` of the cube of c1(3) builds each factor level's sorted
    simplices and each coface's moves once for the whole construction, not
    once per level n and per equal factor: every simplex list is asked for
    once per (level, dim), and each coface acts on one dimension once."""
    X = c1(3).space
    lists, real_all = [], SSet.all_simplices
    monkeypatch.setattr(SSet, "all_simplices",
                        lambda self, k: lists.append((id(self), k)) or real_all(self, k))
    built, real_act = [], X.act

    def act(alpha):  # records the dimensions that the action is applied in
        f, dims = real_act(alpha), set()
        built.append((alpha, dims))
        return lambda x: dims.add(ref_dim(x)) or f(x)

    monkeypatch.setattr(X, "act", act)
    box_multi((X,) * 3, 3)
    assert len(lists) == len(set(lists)) == 4 * (X.N + 1)
    cofaces = [(alpha, dim) for alpha, dims in built if alpha.src < alpha.dst for dim in dims]
    assert cofaces and len(cofaces) == len(set(cofaces))


def test_bar_powers_match_oracle():
    A = c1(3)
    B = bar(A, 3)
    for n in range(4):
        for k in range(4):
            _assert_matches_oracle(B.canon[n][k], box_colimit((A.space,) * k, n, k, n))


def _bar_face_formula(A, factors, raw, i):
    """d_i of a raw bar k-cell, written out: d_i in every block, then block 0
    dropped (i = 0), block k - 1 dropped (i = k) or blocks i - 1 and i merged."""
    nvec, a_img, xs = ispace._box_face(factors, raw, i)
    k = len(nvec)
    if i == 0:
        return (nvec[1:], a_img[nvec[0]:], xs[1:])
    if i == k:
        return (nvec[:-1], a_img[:len(a_img) - nvec[-1]], xs[:-1])
    merged = A.mul(nvec[i - 1], nvec[i], xs[i - 1], xs[i])
    return (nvec[:i - 1] + (nvec[i - 1] + nvec[i],) + nvec[i + 1:], a_img,
            xs[:i - 1] + (merged,) + xs[i + 1:])


def _bar_deg_formula(A, raw, i):
    """s_i of a raw bar k-cell, written out: s_i in every block, then an empty
    unit block inserted at position i."""
    nvec, a_img, xs = ispace._box_deg(raw, i)
    return (nvec[:i] + (0,) + nvec[i:], a_img, xs[:i] + (A.unit_ref(len(nvec) + 1),) + xs[i:])


@pytest.mark.parametrize("build", [c1, sec52_monoid, cyclic2_monoid], ids=["c1", "m52", "z2"])
def test_bar_operators_are_the_circle_maps(build):
    """The bar's faces and degeneracies, the action of the simplicial
    circle's based maps (`cmon._based_action`), agree with the formulas on
    every stored raw cell and on the raw cell of every simplex below the top."""
    A = build(3)
    B, factors = bar(A, 3), (A.space,) * 3
    for n in range(A.N + 1):
        raw_of = B.tables[n].raw_of
        for k in range(1, len(raw_of)):
            for raw in raw_of[k]:
                for i in range(k + 1):
                    assert _bar_face(A, factors, raw, i) == _bar_face_formula(A, factors, raw, i)
        for k in range(3):
            for r in B.space.level(n).all_simplices(k):
                raw = B.raw(n, r)
                for i in range(k + 1):
                    assert _bar_deg(A, raw, i) == _bar_deg_formula(A, raw, i), (n, r, i)


def test_based_action_gives_the_unit_of_the_dimension_asked():
    # s_0 of the bar's empty 0-cell needs the unit 1-simplex, which the
    # empty cell itself cannot tell
    A = c1(2)
    assert _based_action(A, (), 2, 1, ((), (), ())) == ((0, 0), (), (A.unit_ref(1),) * 2)


def _round_trip_misses(B):
    """(simplex count, the simplices r with B.ref(n, dim r, B.raw(n, r)) != r),
    degenerate ones included, through every dimension that B has classes in."""
    total, misses = 0, []
    for n in range(B.space.N + 1):
        for k in range(len(B.canon[n])):
            for r in B.space.level(n).all_simplices(k):
                total += 1
                if B.ref(n, ref_dim(r), B.raw(n, r)) != r:
                    misses.append((n, r))
    return total, misses


def test_raw_cells_round_trip():
    C = c1(3).space
    for B, total in ((box_multi((C, C), 2, based=True), 120), (box_multi((C,), 2), 45),
                     (bar(c1(3), 3), 144)):
        assert _round_trip_misses(B) == (total, [])


@pytest.mark.parametrize("build", [
    lambda: bar(c1(2), 2),
    lambda: bar(sec52_monoid(2), 2),
    lambda: box_multi((c1(2).space,) * 2, 2, based=True),
], ids=["bar-c1", "bar-m52", "box-c1-based"])
def test_structure_maps_of_the_box_builder(build):
    # the maps of box products and bar constructions are functorial and keep
    # basepoints, and each is made on demand: no image is pushed at build
    B = build()
    assert all(isinstance(f.table, LazyDict) and not f.table for f in B.space.maps.values())
    assert B.space.validate() == []


def test_words_round_trip_but_for_the_empty_word():
    # the empty word's raw cell ((), (), ()) is the same in every dimension,
    # so it encodes to the unit vertex; oracles.free_cmonoid's mul re-degenerates it
    W = words(free_ispace(1, 3))
    total, misses = _round_trip_misses(W)
    assert total == 30
    assert misses == [(n, ((0,), 0, W.ref(n, 0, ((), (), ()))[2])) for n in range(4)]


def test_latching_matches_oracle():
    # the colimit runs over all proper injections into n, automorphisms of
    # the smaller levels included; for F_2 and the subsets model at n = 3
    # the latching map is then injective, as flatness requires
    for X in (free_ispace(1, 3), free_ispace(2, 3), c1(3).space):
        for n in range(4):
            L, f = latching(X, n, dim_bound=1)
            reps = sorted(set(box_colimit((X,), n, 0, n - 1).values()))
            assert L.card == (len(reps), 0)
            for i, ((m,), img, (x,)) in enumerate(reps):
                assert f.table[(0, i)] == X.act(Injection(m, n, img))(x)
            assert is_injective(f)


def test_latching_of_subsets_model_is_the_proper_subsets():
    X = c1(3).space
    for n in range(4):
        L, _ = latching(X, n)
        assert L.card[0] == 2 ** n - 1
