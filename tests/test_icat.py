import pytest

from ispaces.icat import (
    FinCategory,
    Injection,
    coded_injections,
    comma_under,
    compose,
    concat,
    enumerate_injections,
    identity,
    injections,
    shuffle,
    subset_inclusion,
)
from ispaces.cli import _models_at
from ispaces.ispace import _elements
from ispaces.scenarios import MONOID_MODELS, build_ispace
from ispaces.simplicial import nerve, pi0_classes

from oracles import (
    codes_of,
    comma_under_counts,
    comma_under_fincategory,
    count_injections,
    elements_fincategory,
    truncated_fincategory,
)


def test_injection_rejects_bad_data():
    with pytest.raises(ValueError):
        Injection(2, 3, (1, 1))
    with pytest.raises(ValueError):
        Injection(2, 2, (1, 3))


def test_hom_counts_match_brute_force():
    arrows = injections(4)
    for m in range(5):
        for n in range(5):
            assert sum((f.src, f.dst) == (m, n) for f in arrows) == count_injections(m, n)


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
    cat = truncated_fincategory(2)
    assert cat.validate() == []
    assert len(pi0_classes(nerve(cat.coded(), 1).sset)) == 1


@pytest.mark.parametrize("n,N", [(0, 2), (1, 2), (1, 3), (2, 3)])
def test_comma_under_matches_oracle(n, N):
    """Objects and morphisms of the coded comma category, counted by brute
    force; every table has one entry per code."""
    cat = comma_under(n, N)
    objs, mors = comma_under_counts(n, N)
    assert len(cat.objects) == len(cat.ident) == objs
    assert len(cat.morphisms) == len(cat.src) == len(cat.dst) == len(cat.after) == mors


def _tables(C):
    return C.objects, C.morphisms, C.src, C.dst, C.ident, C.after


def _set_diagrams(N):
    """Every registry model at truncation N that is a diagram of sets."""
    spaces = {m: build_ispace(m, N) for m in MONOID_MODELS + tuple(_models_at(N))}
    return {m: X for m, X in spaces.items() if not any(n for L in X.levels for n in L.card[1:])}


BY_CONSTRUCTION = (
    [pytest.param("injections", N, id=f"I{N}") for N in range(5)]
    + [pytest.param("under", (n, N), id=f"under-{n}-{N}")
       for N in range(5) for n in range(N + 1) if N < 4 or n < 2]
    + [pytest.param("elements", N, id=f"elements-{N}") for N in range(1, 4)]
)


@pytest.mark.parametrize("kind, arg", BY_CONSTRUCTION)
def test_categories_by_construction_match_validated_tables(kind, arg):
    """The coded tables that coded_injections, comma_under and
    ispace._elements build directly equal those of the same category given
    as explicit tables with checked composites, which FinCategory.coded
    validates (unit and associativity laws) before it codes them.  The
    categories of elements are those of every registry diagram of sets,
    over all injections and over the inclusions 0 < 1 < ... < N."""
    if kind == "injections":
        assert _tables(coded_injections(arg)) == _tables(truncated_fincategory(arg).coded())
    elif kind == "under":
        assert _tables(comma_under(*arg)) == _tables(comma_under_fincategory(*arg).coded())
    else:
        diagrams = _set_diagrams(arg)
        assert {"c1", "terminal", "f1"} <= set(diagrams)
        for name, X in diagrams.items():
            for arrows_of in (enumerate_injections, lambda m, n: [subset_inclusion(m, n)]):
                want = elements_fincategory(X, arrows_of).coded()
                assert _tables(_elements(X, codes_of(arg, arrows_of))) == _tables(want), name


@pytest.mark.parametrize("N", range(4))
def test_coded_injections_name_composites_and_block_sums(N):
    """The coded tables of injections(N) against checked injections: the
    morphisms are every injection m -> n for m, n <= N in sorted order,
    enumerated here hom by hom, and code is their inverse; src, dst and ident
    name the endpoints and identities, after[g][f] is g o f for every
    composable pair and plus[(f, g)] the block sum f + g for every pair whose
    target is at most N."""
    I = coded_injections(N)
    assert I is coded_injections(N)
    assert not hasattr(I, "arrow")
    assert I.morphisms == sorted(f for m in range(N + 1) for n in range(N + 1)
                                 for f in enumerate_injections(m, n))
    assert tuple(I.morphisms) == injections(N)
    assert {f: c for c, f in enumerate(I.morphisms)} == I.code
    assert [(f.src, f.dst) for f in I.morphisms] == list(zip(I.src, I.dst))
    assert [I.morphisms[c] for c in I.ident] == [identity(n) for n in range(N + 1)]
    composites = {(g, f): I.code[compose(I.morphisms[g], I.morphisms[f])]
                  for g in I.code.values() for f in I.code.values() if I.dst[f] == I.src[g]}
    assert {(g, f): gf for g, row in enumerate(I.after) for f, gf in row.items()} == composites
    sums = {(f, g): I.code[concat(I.morphisms[f], I.morphisms[g])]
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
    cat = truncated_fincategory(2)
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


BROKEN = {
    "bad-identity": (_arrow_pair, lambda cat: cat.ident.update({1: "f"})),
    "missing-composite": (_arrow_pair, lambda cat: cat.comp.pop(("id1", "g"))),
    "left-unit": (_arrow_pair, lambda cat: cat.comp.update({("id1", "f"): "g"})),
    "right-unit": (lambda: _cyclic(3, [2, 0, 1]), lambda cat: cat.comp.update({(1, 0): 2})),
    "associativity": (lambda: _cyclic(3, [2, 0, 1]), lambda cat: cat.comp.update({(1, 1): 0})),
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_broken_tables_are_refused_on_their_way_to_nerve(broken):
    """A hand-built table reaches `nerve` only through FinCategory.coded,
    which raises ValueError naming every defect that validate finds."""
    build, breaks = BROKEN[broken]
    cat = build()
    assert cat.validate() == []
    breaks(cat)
    bad = cat.validate()
    assert bad
    with pytest.raises(ValueError) as err:
        nerve(cat.coded(), 2)
    assert str(err.value) == "composition table is not a category: " + "; ".join(bad)
