"""Scenario registry: named pipelines with expected values baked in.

Each scenario builds its inputs from the library, runs the relevant checks
and compares against frozen expectations.  Reports are deterministic given
the configuration; stability flags always come from an actual re-run at the
next lower truncation.
"""

import gc
import json
import re
import time

from . import cmon, gamma, icat, ispace, simplicial
from .util import record


@record
class RunConfig:
    trunc: int = 3
    deg: int = 1
    chains: int | None = None  # defaults to deg + 2
    scenarios: list | None = None
    out: str | None = None
    jobs: int = 1
    timings: bool = False

    @property
    def S(self):
        return self.chains if self.chains is not None else self.deg + 2

    def validate(self):
        bad = []
        if self.trunc < 1:
            bad.append("truncation must be at least 1")
        if self.deg < 0:
            bad.append("homology degree must be nonnegative")
        if self.S < self.deg + 1:
            bad.append("chain bound must be at least deg + 1")
        if self.jobs < 1:
            bad.append("parallelism width must be at least 1")
        return bad

    def echo(self):
        # "unit_bound" is retired; it stays until perfbench/expected is re-recorded.
        return {"trunc": self.trunc, "deg": self.deg, "chains": self.S,
                "unit_bound": 4, "jobs": self.jobs}


@record
class ScenarioReport:
    name: str
    config: dict
    checks: list  # dicts: name, expected, computed, verdict, optional stable
    elapsed: float = 0.0

    def passed(self):
        return all(c["verdict"] in ("pass", "skipped") for c in self.checks)

    def to_json(self, timings=False):
        payload = {"name": self.name, "config": self.config,
                   "checks": self.checks, "passed": self.passed()}
        if timings:
            payload["elapsed"] = round(self.elapsed, 2)
        return payload


def _check(name, expected, computed, **extra):
    entry = {"name": name, "expected": expected, "computed": computed,
             "verdict": "pass" if expected == computed else "fail"}
    entry.update(extra)
    return entry


def _skip(name, reason):
    return {"name": name, "expected": None, "computed": None,
            "verdict": "skipped", "reason": reason}


def _fail(name, reason):
    return {"name": name, "expected": None, "computed": None,
            "verdict": "fail", "reason": reason}


def _groups_json(groups):
    return {str(k): [r, list(t)] for k, (r, t) in sorted(groups.items())}


# ---------------------------------------------------------------------------
# Model registry shared with the command-line interface.
# ---------------------------------------------------------------------------

MONOIDS = {"c1": cmon.c1, "m52": cmon.sec52_monoid, "z": cmon.integers_monoid,
           "z2": cmon.cyclic2_monoid}
MONOID_MODELS = tuple(MONOIDS)
ISPACE_MODELS = ("terminal", "f1", "f2", "f3", "s0pow", "collapsing",
                 "constant-s1")


def build_monoid(name, N):
    if name not in MONOIDS:
        raise ValueError(f"unknown monoid model {name!r}")
    return MONOIDS[name](N)


def build_ispace(name, N):
    if name in MONOID_MODELS:
        return build_monoid(name, N).space
    if name == "terminal":
        return ispace.terminal_ispace(N)
    if re.fullmatch("f[1-9][0-9]*", name):  # F_n for n > 0, written in ASCII without a leading 0
        return ispace.free_ispace(int(name[1:]), N)
    if name == "s0pow":
        return ispace.power_ispace(simplicial.discrete(2, basepoint=0), N)
    if name == "collapsing":
        return ispace.collapsing_ispace(N)
    if name == "constant-s1":
        return ispace.constant_ispace(simplicial.simplicial_circle(), N)
    raise ValueError(f"unknown diagram model {name!r}")


# ---------------------------------------------------------------------------
# Scenarios.
# ---------------------------------------------------------------------------

def scenario_terminal_sanity(cfg):
    X = build_ispace("terminal", cfg.trunc)
    checks = [_check("diagram-valid", [], X.validate())]
    tab = ispace.hocolim_I(X, cfg.S)
    checks.append(_check(
        "hocolim-connected", 1, len(simplicial.pi0_classes(tab.sset))))
    h = simplicial.homology(tab.sset, cfg.deg)
    expected = {str(k): [1 if k == 0 else 0, []] for k in range(cfg.deg + 1)}
    checks.append(_check("hocolim-homology", expected, _groups_json(h.groups)))
    return checks


def scenario_c1_pi0(cfg):
    A = build_monoid("c1", cfg.trunc)
    pres, _ = cmon.pi0_monoid(A)
    checks = [
        _check("free-on-one-generator", {"gens": 1, "rels": []},
               {"gens": len(pres.generators),
                "rels": [[list(u), list(v)] for u, v in pres.relations]}),
    ]
    tab = ispace.hocolim_I(A.space, max(cfg.S, 1))
    checks.append(_check("component-count", cfg.trunc + 1,
                         len(simplicial.pi0_classes(tab.sset))))
    rank, tors = cmon.grothendieck_group(pres)
    checks.append(_check("grothendieck", [1, []], [rank, list(tors)]))
    return checks


SIGMA2_HOMOLOGY = {0: (1, ()), 1: (0, (2,)), 2: (0, ()), 3: (0, (2,))}
# integral group homology of the order-two group, odd degrees Z/2


def scenario_c1_bsigma2(cfg):
    A = build_monoid("c1", cfg.trunc)
    tab = ispace.hocolim_I(A.space, cfg.S)
    v = _degree_component(A, tab, 2)
    comp, _ = simplicial.component_subcomplex(
        tab.sset, {simplicial.pi0(tab.sset)[v]})
    h = simplicial.homology(comp, cfg.deg)
    expected = {str(k): [SIGMA2_HOMOLOGY[k][0], list(SIGMA2_HOMOLOGY[k][1])]
                for k in range(min(cfg.deg, 3) + 1)}
    got = {k: v for k, v in _groups_json(h.groups).items()
           if int(k) <= min(cfg.deg, 3)}
    return [_check("bsigma2-homology", expected, got)]


def _degree_component(A, tab, degree):
    """A vertex of the homotopy colimit lying in the given degree component."""
    for v, raw in enumerate(tab.raw_of[0]):
        m, (_, _, base_id) = ispace._cell_point(tab, 0, raw)
        # subset-model vertices know their degree via the subset size
        if len(A.meta["points"][m][base_id]) == degree:
            return v
    raise ValueError(f"no vertex of degree {degree} at this truncation")


def scenario_comma_contractible(cfg):
    checks = []
    top = min(cfg.trunc, 4)
    for n in range(top + 1):
        cat = icat.comma_under(n, top)
        nerve = simplicial.nerve(cat, cfg.deg + 1).sset
        ok = simplicial.reduced_homology_trivial(nerve, cfg.deg)
        checks.append(_check(f"nerve-contractible-n{n}", True, ok))
    return checks


def scenario_flat_suite(cfg):
    checks = []
    free = tuple(f"f{n}" for n in range(1, min(cfg.trunc, 3) + 1))
    for name in ("c1",) + free + ("s0pow", "z2"):
        X = build_ispace(name, cfg.trunc)
        cert = ispace.is_flat(X)
        checks.append(_check(f"flat-{name}", True, cert.flat))
    if cfg.trunc < 2:  # the two points of collapsing_ispace merge in level 2 only
        return checks + [_skip(check, "insufficient truncation")
                         for check in ("nonflat-collapsing", "witness-replays")]
    X = build_ispace("collapsing", cfg.trunc)
    cert = ispace.is_flat(X)
    checks.append(_check("nonflat-collapsing", False, cert.flat))
    if not cert.flat:
        checks.append(_check("witness-replays", True, cert.replay(X)))
    return checks


def scenario_semistable_suite(cfg):
    checks = []
    A = build_monoid("c1", cfg.trunc)
    v = ispace.semistability_diagnostic(A.space, D=cfg.deg)
    checks.append(_check("c1-refuted", "refuted", v.verdict))
    counts = next(data for name, _, data in v.detail["at_N"]
                  if name == "pi0-N-vs-I")
    checks.append(_check(
        "c1-pi0-counts",
        {"pi0_N": 2 ** cfg.trunc, "pi0_I": cfg.trunc + 1}, counts))
    for name in ("terminal", "constant-s1"):
        X = build_ispace(name, cfg.trunc)
        v = ispace.semistability_diagnostic(X, D=cfg.deg)
        checks.append(_check(f"{name}-evidence", "evidence-for", v.verdict))
    return checks


def scenario_semistable_f1(cfg):
    # the free diagram on one generator is not semistable at any truncation:
    # its linear colimit has one component per level but the full colimit is
    # connected.  The expected "evidence-for" below is known to be wrong (the
    # right value is "refuted" with pi0 counts N vs 1, as the acceptance test
    # asserts); it stays until a change that re-records the benchmark's
    # expected registry output, which compares this report byte for byte
    X = build_ispace("f1", cfg.trunc)
    v = ispace.semistability_diagnostic(X, D=cfg.deg)
    return [_check("f1-evidence", "evidence-for", v.verdict,
                   witness=v.witness)]


def scenario_grothendieck(cfg):
    p1 = cmon.CommMonoidPres(["a", "b"], [((0, 2), (0, 0)), ((1, 1), (1, 0))])
    p2 = cmon.CommMonoidPres(["g"], [])
    checks = []
    for name, pres in (("two-generator", p1), ("free-rank-one", p2)):
        rank, tors = cmon.grothendieck_group(pres)
        checks.append(_check(f"{name}-group", [1, []], [rank, list(tors)]))
    return checks


def scenario_units_m52(cfg):
    A = build_monoid("m52", cfg.trunc)
    rep = cmon.units(A)
    checks = [
        _check("unit-class-count", 2, len(rep.unit_classes)),
        _check("closed-under-mul", True, rep.closed_under_mul),
        _check("absorption", True, rep.absorption),
        _check("units-monoid-valid", [], cmon.validate_monoid(rep.units_monoid)),
    ]
    us, _ = rep.level_split[0]
    checks.append(_check("level0-units", 2, len(us)))
    return checks


def scenario_bar_c1(cfg):
    A = build_monoid("c1", min(cfg.trunc, 3))
    rep = cmon.bar_comparison(A, min(cfg.deg, 1))
    checks = []
    for term in ("left", "middle", "right"):
        checks.append(_check(f"{term}-connected", 1, rep.pi0[term]))
        rank, tors = rep.homology[term].group(1)
        checks.append(_check(f"{term}-H1", [1, []], [rank, list(tors)]))
    for m in ("middle_to_left", "middle_to_right"):
        checks.append(_check(f"{m}-iso", True, rep.map_iso[m]))
    checks.append(_check("stable", True, rep.stable))
    return checks


def scenario_gamma_c1_special(cfg):
    A = build_monoid("c1", cfg.trunc)
    G = gamma.gamma_of_monoid(A, 3, max(cfg.S, 2))
    sv = gamma.is_special(G, D=0)
    return [
        _check("special", "special-evidence", sv.verdict, witness=sv.witness),
        _check("very-special", "refuted", sv.very_special),
    ]


def scenario_eckmann_hilton(cfg):
    N = min(cfg.trunc, 2)
    checks = []
    for name in ("c1", "m52"):
        A = build_monoid(name, N)
        X = gamma.bi_gamma_from(A, 2, 2)
        try:
            rep = gamma.eckmann_hilton_check(X)
            checks.append(_check(f"{name}-products-coincide", True, rep.passed))
        except ValueError as e:
            checks.append(_fail(f"{name}-products-coincide", str(e)))
    return checks


REGISTRY = {
    "terminal-sanity": (scenario_terminal_sanity, 1),
    "c1-pi0": (scenario_c1_pi0, 1),
    "c1-bsigma2": (scenario_c1_bsigma2, 2),
    "comma-contractible": (scenario_comma_contractible, 1),
    "flat-suite": (scenario_flat_suite, 1),
    "semistable-suite": (scenario_semistable_suite, 2),
    "semistable-f1": (scenario_semistable_f1, 2),
    "grothendieck": (scenario_grothendieck, 1),
    "units-m52": (scenario_units_m52, 1),
    "bar-c1": (scenario_bar_c1, 2),
    "gamma-c1-special": (scenario_gamma_c1_special, 2),
    "eckmann-hilton": (scenario_eckmann_hilton, 2),
}


def run_scenario(name, cfg):
    """Run one scenario with the cyclic collector paused: no ispaces object
    is in a reference cycle, so reference counting frees each table
    (`test_scenarios_leave_no_cycles`); the caller's collector state comes
    back on every exit (`test_run_scenario_restores_the_collector`)."""
    if name not in REGISTRY:
        raise ValueError(f"unknown scenario {name!r}")
    bad = cfg.validate()
    if bad:
        raise ValueError("; ".join(bad))
    fn, min_trunc = REGISTRY[name]
    t0 = time.perf_counter()
    if cfg.trunc < min_trunc:
        checks = [_skip(name, "insufficient truncation")]
    else:
        enabled = gc.isenabled()
        gc.disable()
        try:
            checks = fn(cfg)
        except MemoryError:
            checks = [_fail(name, "budget exhausted: out of memory")]
        except RecursionError:
            checks = [_fail(name, "budget exhausted: recursion depth")]
        except ValueError as e:
            checks = [_fail(name, f"refused: {e}")]
        finally:
            if enabled:
                gc.enable()
    return ScenarioReport(name, cfg.echo(), checks, time.perf_counter() - t0)


def run_all(cfg):
    bad = cfg.validate()
    if bad:
        raise ValueError("; ".join(bad))
    names = cfg.scenarios if cfg.scenarios else sorted(REGISTRY)
    for name in names:
        if name not in REGISTRY:
            raise ValueError(f"unknown scenario {name!r}")
    if cfg.jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            reports = list(pool.map(_run_one, [(n, cfg) for n in names]))
    else:
        reports = [run_scenario(n, cfg) for n in names]
    return reports


def _run_one(args):
    return run_scenario(*args)


def reports_to_json(reports, cfg):
    return json.dumps(
        {"reports": [r.to_json(timings=cfg.timings) for r in reports],
         "passed": all(r.passed() for r in reports)},
        indent=2, sort_keys=True)
