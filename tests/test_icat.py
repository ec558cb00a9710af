import pytest

from ispaces.icat import (
    Injection,
    TruncatedI,
    comma_under,
    compose,
    concat,
    enumerate_injections,
    identity,
    shuffle,
    subset_inclusion,
)
from ispaces.simplicial import nerve, pi0_classes

from oracles import comma_under_counts, count_injections


def test_injection_rejects_bad_data():
    with pytest.raises(ValueError):
        Injection(2, 3, (1, 1))
    with pytest.raises(ValueError):
        Injection(2, 2, (1, 3))


def test_hom_counts_match_brute_force():
    cat = TruncatedI(4)
    for m in range(5):
        for n in range(5):
            assert len(cat.hom(m, n)) == count_injections(m, n)


def test_composition_and_units():
    f = Injection(2, 3, (3, 1))
    g = Injection(3, 4, (2, 4, 1))
    gf = compose(g, f)
    assert gf.image == (1, 2)
    assert compose(identity(3), f) == f
    assert compose(f, identity(2)) == f


def test_concat_is_block_sum():
    f = subset_inclusion(1, 2)
    g = Injection(1, 1, (1,))
    assert concat(f, g).image == (1, 3)


def test_shuffle_swaps_blocks():
    t = shuffle(2, 1)
    assert t.image == (2, 3, 1)
    # tau is its own inverse up to the opposite shuffle
    assert compose(shuffle(1, 2), t) == identity(3)


def test_truncated_category_validates():
    cat = TruncatedI(2).as_fincategory()
    assert cat.validate() == []
    assert len(pi0_classes(nerve(cat, 1).sset)) == 1


@pytest.mark.parametrize("n,N", [(0, 2), (1, 2), (1, 3), (2, 3)])
def test_comma_under_matches_oracle(n, N):
    cat = comma_under(n, N)
    assert cat.validate() == []
    objs, mors = comma_under_counts(n, N)
    assert len(cat.objects) == objs
    assert len(cat.morphisms) == mors


def test_enumeration_is_sorted_and_complete():
    injs = enumerate_injections(2, 3)
    assert injs == sorted(injs)
    assert len(injs) == 6
    assert enumerate_injections(3, 2) == []
