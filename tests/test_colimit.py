"""The box-power colimit kernel against the brute-force colimit oracle.

The library joins raw cells along generating morphisms only (standard
inclusions and adjacent transpositions, one slot at a time); the oracle
joins them along every morphism of the decomposition category.  Both must
give the same canonical representatives.
The record's decoder `raw` and encoder `ref` must also be inverse to each
other on every simplex.
"""

from ispaces.cmon import bar, c1, sec52_monoid
from ispaces.icat import Injection
from ispaces.ispace import _box_classes, box_multi, free_ispace
from ispaces.simplicial import ref_dim

from oracles import box_colimit, is_injective, latching, words


def test_box_multi_matches_oracle():
    """The box powers that the registry scenarios build, and a pair of two
    different factors, through the dimensions given."""
    C, M = c1(3).space, sec52_monoid(2).space
    for factors, dim_bound, based in (((C, C), 3, True), ((C, C, C), 3, True),
                                      ((M, M), 2, False), ((M,) * 3, 2, False),
                                      ((M,) * 4, 2, False), ((C, free_ispace(1, 3)), 2, False)):
        B = box_multi(factors, dim_bound, based=based)
        for n in range(B.space.N + 1):
            for dim in range(dim_bound + 1):
                assert B.canon[n][dim] == box_colimit(factors, n, dim, n)


def test_generators_act_once_per_factor_level(monkeypatch):
    """Within one `_box_classes` call on the cube of c1(3), each generator's
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
            _box_classes((X,) * 3, n, dim, n)
            assert bool(built) == (n > 0)
            assert len(built) == len(set(built)) and len(moved) == len(set(moved))


def test_bar_powers_match_oracle():
    A = c1(3)
    B = bar(A, 3)
    for n in range(4):
        for k in range(4):
            assert B.canon[n][k] == box_colimit((A.space,) * k, n, k, n)


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
