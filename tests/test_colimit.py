"""The box-power colimit kernel against the brute-force colimit oracle.

The library joins raw cells along generating morphisms only (standard
inclusions and adjacent transpositions, one slot at a time, plus adjacent
block swaps for words); the oracle joins them along every morphism of the
decomposition category.  Both must give the same canonical representatives.
"""

from ispaces.cmon import _word_classes, bar, c1
from ispaces.icat import Injection
from ispaces.ispace import box_multi, free_ispace, latching

from oracles import box_colimit, is_injective


def test_box_multi_matches_oracle():
    C = c1(3).space
    F = free_ispace(1, 3)
    for factors in ((C, F), (C, C, C)):
        B = box_multi(factors, 1)
        for n in range(4):
            for dim in range(2):
                assert B.data[n].canon[dim] == box_colimit(factors, n, dim, n)


def test_bar_powers_match_oracle():
    A = c1(3)
    B = bar(A, 3)
    for n in range(4):
        for k in range(4):
            assert B.canon[n][k] == box_colimit((A.space,) * k, n, k, n)


def test_free_cmonoid_words_match_oracle():
    F = free_ispace(1, 3)
    for n in range(4):
        for dim in range(2):
            want = {}
            for k in range(F.N + 1):
                want.update(box_colimit((F,) * k, n, dim, n, symmetric=True))
            assert _word_classes(F, n, dim) == want


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
