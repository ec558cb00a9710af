"""Acceptance suite: eleven numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Each criterion also enforces its own wall-clock budget.  Criterion 6
has a separate test for its free-diagram clause, which checks that the
diagnostic refutes semistability for the free diagram F_1 = I(1, -) on one
generator.  F_1 is the diagram-space analogue of the free symmetric spectrum
F_1 S^1, the standard non-semistable spectrum (Hovey-Shipley-Smith, Symmetric
spectra, Ex. 3.1.10): at truncation N its linear colimit has N components
(level k is the k injections 1 -> k, and the standard inclusions fix points),
while its full colimit is the nerve of (1 | I), which has the initial object
id_1 and so is connected.
"""

import random
import time

import pytest

from ispaces import icat, simplicial
from ispaces.cmon import (
    CommMonoidPres,
    bar_comparison,
    c1,
    grothendieck_group,
    merged_classes,
    pi0_monoid,
    sec52_monoid,
    units,
)
from ispaces.gamma import bi_gamma_from, eckmann_hilton_check, gamma_of_monoid, is_special
from ispaces.icat import Injection
from ispaces.ispace import (
    R_functor,
    box_multi,
    collapsing_ispace,
    constant_ispace,
    free_ispace,
    is_flat,
    power_ispace,
    semistability_diagnostic,
    terminal_ispace,
)
from ispaces.scenarios import RunConfig, run_scenario
from ispaces.simplicial import (
    discrete,
    nd_ref,
    simplicial_circle,
    validate_sset,
)
from ispaces.zlinalg import rank_and_torsion

from oracles import (bareiss_rank, columns, product_sset, rational_rank, sigma2_homology, sphere,
                     validate_chain_complex)


def _report(num, label, budget, body):
    t0 = time.perf_counter()
    try:
        body()
        ok = True
        err = None
    except AssertionError as exc:
        ok = False
        err = exc
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  "
          f"{label}  [{elapsed:.1f}s]", flush=True)
    if err is not None:
        raise err
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_1_pi0_of_subset_model():
    def body():
        A = c1(3)
        pres, _ = pi0_monoid(A)
        assert len(pres.generators) == 1
        assert pres.relations == []
        _, classes, _ = merged_classes(A)
        assert len(classes) == 4

    _report(1, "pi0 of the colimit of the subset model is free on one "
            "generator with four classes", 10, body)


def test_criterion_2_degree_two_component_homology():
    def body():
        r = run_scenario("c1-bsigma2", RunConfig(trunc=3, deg=1))
        assert r.passed(), r.checks
        oracle = sigma2_homology(1)
        assert oracle[0] == (1, ())
        assert oracle[1] == (0, (2,))

    _report(2, "degree-2 component has H0=Z, H1=Z/2 matching the "
            "two-element-group bar oracle", 120, body)


def test_criterion_3_under_categories_contractible():
    def body():
        for N in range(1, 5):
            for n in range(N + 1):
                cat = icat.comma_under(n, N)
                nerve = simplicial.nerve(cat, 3).sset
                assert simplicial.reduced_homology_trivial(nerve, 2), (n, N)

    _report(3, "nerves of under-categories have trivial reduced homology "
            "through degree 2 for n <= N <= 4", 120, body)


def test_criterion_4_grothendieck_groups():
    def body():
        two = CommMonoidPres(["a", "b"],
                             [((0, 2), (0, 0)), ((1, 1), (1, 0))])
        assert grothendieck_group(two) == (1, ())
        assert grothendieck_group(CommMonoidPres(["g"], [])) == (1, ())

    _report(4, "Grothendieck groups of the two reference presentations "
            "are both Z", 1, body)


def test_criterion_5_flatness_certificates():
    def body():
        assert is_flat(c1(3).space).flat
        for n in (1, 2, 3):
            assert is_flat(free_ispace(n, 3)).flat
        assert is_flat(power_ispace(discrete(2, basepoint=0), 3)).flat
        cert = is_flat(collapsing_ispace(3))
        assert not cert.flat
        assert cert.witness is not None
        assert cert.replay(collapsing_ispace(3))

    _report(5, "flatness certificates pass for subset/free/power models and "
            "fail with a replayable witness for the collapsing model", 30, body)


def test_criterion_6_semistability():
    def body():
        v = semistability_diagnostic(c1(3).space, D=1)
        assert v.verdict == "refuted"
        counts = next(data for name, _, data in v.detail["at_N"]
                      if name == "pi0-N-vs-I")
        assert counts == {"pi0_N": 8, "pi0_I": 4}
        X = constant_ispace(simplicial_circle(), 3)
        assert semistability_diagnostic(X, D=1).verdict == "evidence-for"

    _report(6, "semistability refuted for the subset model with 2^N vs N+1 "
            "component counts; evidence-for on a constant diagram", 60, body)


def test_criterion_6_free_diagram_clause():
    # Checks the refutation: the pi0 check fails at N (N vs 1 components) and
    # at N - 1, and a check failing at both truncations refutes.
    def body():
        N = 3
        v = semistability_diagnostic(free_ispace(1, N), D=1)
        assert v.verdict == "refuted", v.verdict
        assert v.witness == {"check": "pi0-N-vs-I",
                             "data": {"pi0_N": N, "pi0_I": 1}}, v.witness

    _report(6, "(free-diagram clause) semistability refuted for the free "
            "diagram on one generator with N vs 1 component counts", 60, body)


def test_criterion_7_bar_comparison_stable():
    def body():
        for N in (2, 3):
            rep = bar_comparison(c1(N), 1)
            assert rep.pi0 == {"left": 1, "middle": 1, "right": 1}
            for term in ("left", "middle", "right"):
                assert rep.homology[term].group(1) == (1, ())
            assert rep.map_iso == {"middle_to_left": True,
                                   "middle_to_right": True}
        pres, _ = pi0_monoid(c1(3))
        assert grothendieck_group(pres) == (1, ())

    _report(7, "classifying-space comparison for the subset model is "
            "connected with H1=Z, stable across truncations, matching "
            "the Grothendieck oracle", 300, body)


def test_criterion_8_units_decomposition():
    def body():
        A = sec52_monoid(3)
        rep = units(A)
        assert len(rep.unit_classes) == 2
        assert rep.closed_under_mul and rep.absorption
        for n in range(A.N + 1):
            us, nus = rep.level_split[n]
            assert sorted(us + nus) == list(range(A.level(n).card[0]))

    _report(8, "unit classes of the filtered two-zero monoid are {0, 0'} "
            "and the unit/non-unit split covers every level", 5, body)


def test_criterion_9_special_evidence():
    def body():
        G = gamma_of_monoid(c1(3), 3, 2)
        sv = is_special(G, D=0)
        assert sv.verdict == "special-evidence"
        assert sv.very_special == "refuted"
        assert sv.very_special_witness is not None

    _report(9, "the Gamma-object of the subset model is special on "
            "component classes with very-special refuted", 180, body)


def test_criterion_10_eckmann_hilton():
    def body():
        for build in (lambda: c1(2), lambda: sec52_monoid(2)):
            X = bi_gamma_from(build(), 2, 2)
            rep = eckmann_hilton_check(X)
            assert rep.passed
            assert rep.witness is None

    _report(10, "the two products on components of the bi-indexed object "
            "coincide for both monoid models", 60, body)


def test_criterion_11_property_suites():
    def body():
        # simplicial identities on generated complexes
        S1 = simplicial_circle()
        for X in (S1, sphere(2), product_sset(S1, S1).sset,
                  simplicial.nerve(icat.coded_injections(2), 2).sset):
            assert validate_sset(X) == []
            assert validate_chain_complex(simplicial.chain_complex(X)) == []
        # functoriality, exhaustively through truncation 4
        for N in (1, 2, 3, 4):
            for build in (terminal_ispace, lambda n: free_ispace(1, n),
                          lambda n: power_ispace(discrete(2, basepoint=0), n),
                          collapsing_ispace):
                assert build(N).validate() == []
        # integer rank agrees with the rational oracle on random matrices
        rng = random.Random(11)
        for _ in range(15):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            mat = {(i, j): rng.randint(-3, 3)
                   for i in range(rows) for j in range(cols)
                   if rng.random() < 0.6}
            rank, _ = rank_and_torsion(columns(mat), rows, cols)
            assert rank == bareiss_rank(columns(mat))
            assert rank == rational_rank(
                [[mat.get((i, j), 0) for j in range(cols)]
                 for i in range(rows)], cols)
        # box unit and symmetry up to level counts
        F1 = free_ispace(1, 2)
        P = power_ispace(discrete(2, basepoint=0), 2)
        BU = box_multi((F1, terminal_ispace(2)), 1)
        for n in range(3):
            for k in range(2):
                assert (len(BU.space.level(n).all_simplices(k))
                        == len(F1.level(n).all_simplices(k)))
        BXY = box_multi((F1, P), 1)
        BYX = box_multi((P, F1), 1)
        for n in range(3):
            assert BXY.space.level(n).card == BYX.space.level(n).card
        # the level-shift composite agrees with the shift structure map
        B = box_multi((free_ispace(1, 3), free_ispace(1, 3)), 1)
        _, j = R_functor(B.space)
        for n in range(3):
            f = B.space.act(Injection(n, 1 + n, range(2, n + 2)))
            for x in range(B.space.level(n).card[0]):
                assert j[n](nd_ref(0, x)) == f(nd_ref(0, x))

    _report(11, "property suites: simplicial identities, functoriality, "
            "boundary-squared-zero, rank agreement, box unit/symmetry, "
            "level-shift composite", 600, body)
