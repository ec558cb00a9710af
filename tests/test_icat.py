import pytest

from ispaces.icat import (
    FinCategory,
    Injection,
    TruncatedI,
    coded_injections,
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


@pytest.mark.parametrize("N", range(4))
def test_coded_injections_name_composites_and_block_sums(N):
    """The coded tables of TruncatedI(N) against checked injections: code and
    arrow are inverse, src, dst and ident name the endpoints and identities,
    after[g][f] is g o f for every composable pair and plus[(f, g)] the block
    sum f + g for every pair whose target is at most N."""
    I = coded_injections(N)
    assert I is coded_injections(N)
    assert I.arrow == sorted(TruncatedI(N).arrows())
    assert {f: c for c, f in enumerate(I.arrow)} == I.code
    assert [(f.src, f.dst) for f in I.arrow] == list(zip(I.src, I.dst))
    assert [I.arrow[c] for c in I.ident] == [identity(n) for n in range(N + 1)]
    composites = {(g, f): I.code[compose(I.arrow[g], I.arrow[f])]
                  for g in I.code.values() for f in I.code.values() if I.dst[f] == I.src[g]}
    assert {(g, f): gf for g, row in enumerate(I.after) for f, gf in row.items()} == composites
    sums = {(f, g): I.code[concat(I.arrow[f], I.arrow[g])]
            for f in I.code.values() for g in I.code.values() if I.dst[f] + I.dst[g] <= N}
    assert I.plus == sums


def test_enumeration_is_sorted_and_complete():
    injs = enumerate_injections(2, 3)
    assert injs == sorted(injs)
    assert len(injs) == 6
    assert enumerate_injections(3, 2) == []


# ---------------------------------------------------------------------------
# Diagnostics of broken categories, message for message and in order.
# ---------------------------------------------------------------------------

def _cyclic(n, order):
    """Z/n as a one-object category, its morphisms listed in the given order."""
    return FinCategory([0], list(order), src=dict.fromkeys(order, 0),
                       dst=dict.fromkeys(order, 0),
                       comp={(g, f): (g + f) % n for g in order for f in order},
                       ident={0: 0})


def _arrow_pair():
    """Objects 0 and 1, two arrows f, g: 0 -> 1, listed out of sorted order."""
    return FinCategory(
        [0, 1], ["id1", "g", "f", "id0"],
        src={"id0": 0, "id1": 1, "f": 0, "g": 0},
        dst={"id0": 0, "id1": 1, "f": 1, "g": 1},
        comp={("id0", "id0"): "id0", ("id1", "id1"): "id1",
              ("f", "id0"): "f", ("id1", "f"): "f",
              ("g", "id0"): "g", ("id1", "g"): "g"},
        ident={0: "id0", 1: "id1"},
    )


def test_validate_names_every_broken_associativity():
    cat = _cyclic(3, [2, 0, 1])
    cat.comp[(1, 1)] = 0
    assert cat.validate() == [
        "associativity fails at (2, 2, 1)",
        "associativity fails at (2, 1, 1)",
        "associativity fails at (1, 2, 2)",
        "associativity fails at (1, 1, 2)",
    ]
    cat = TruncatedI(2).as_fincategory()
    swap = Injection(2, 2, (2, 1))
    cat.comp[(swap, swap)] = swap
    assert cat.validate() == [
        "associativity fails at (Injection(2->2, (2, 1)), Injection(2->2, (2, 1)),"
        " Injection(1->2, (1,)))",
        "associativity fails at (Injection(2->2, (2, 1)), Injection(2->2, (2, 1)),"
        " Injection(1->2, (2,)))",
    ]


def test_validate_names_broken_units():
    cat = _cyclic(3, [2, 0, 1])
    cat.comp[(1, 0)] = 2
    assert cat.validate() == [
        "right unit fails at 1",
        "associativity fails at (2, 2, 0)",
        "associativity fails at (2, 1, 0)",
        "associativity fails at (1, 2, 1)",
        "associativity fails at (1, 0, 2)",
        "associativity fails at (1, 0, 1)",
        "associativity fails at (1, 1, 2)",
        "associativity fails at (1, 1, 0)",
    ]
    cat = _arrow_pair()
    assert cat.validate() == []
    cat.comp[("id1", "f")] = "g"
    assert cat.validate() == ["left unit fails at f"]


def test_validate_names_a_missing_composite():
    cat = _arrow_pair()
    del cat.comp[("id1", "g")]
    assert cat.validate() == ["missing composite of id1 after g"]
    cat = _cyclic(3, [2, 0, 1])
    del cat.comp[(0, 2)]
    del cat.comp[(1, 1)]
    assert cat.validate() == ["missing composite of 0 after 2",
                              "missing composite of 1 after 1"]
