"""The four benchmark workloads: fixed inputs, their operations, and checks.

The inputs are fixed mathematical objects. A workload's seed only orders its
operations within a pass. Every operation returns a JSON-able ``output``,
compared with the committed record on every pass, and, where the operation
builds one simplicial set, that set (``live``) for the untimed verification
of its chain-level invariants.

Importing this module imports ``ispaces``; the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

import json
import random
from pathlib import Path

from ispaces import cmon, icat, ispace, scenarios, simplicial

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Registry scenarios of registry-t3: all but bar-c1, whose machinery bar-t3
# covers and which would take most of the pass.
REGISTRY_T3 = tuple(sorted(n for n in scenarios.REGISTRY if n != "bar-c1"))


def groups_json(groups):
    """Homology groups {k: (rank, torsion)} as {"k": [rank, [torsion]]}."""
    return {str(k): [r, list(t)] for k, (r, t) in sorted(groups.items())}


TRIVIAL_D2 = groups_json({0: (1, ()), 1: (0, ()), 2: (0, ())})


def _bar_comparison_json(rep):
    return {
        "homology": {t: groups_json(h.groups) for t, h in sorted(rep.homology.items())},
        "pi0": dict(sorted(rep.pi0.items())),
        "map_iso": dict(sorted(rep.map_iso.items())),
        "cones": {m: groups_json(g) for m, g in sorted(rep.cones.items())},
        "stable": rep.stable,
        "trunc": rep.trunc,
    }


# A workload class builds its inputs in __init__ (set-up), names its
# operations in op_names(), and runs one with run(op), which returns
# (output, live simplicial set or None).

class NerveT4:
    name = "nerve-t4"
    why = ("nerve of comma_under(n, 4) for n in {0, 1} and its reduced homology:"
           " SNF, normalization, chain assembly and icat validation")

    def op_names(self):
        return ("n=0", "n=1")

    def run(self, op):
        n = int(op[2:])
        cat = icat.comma_under(n, 4)
        sset = simplicial.nerve(cat, 3).sset
        trivial = simplicial.reduced_homology_trivial(sset, 2)
        return {"cells": list(sset.card), "reduced_homology_trivial": trivial}, sset


class HocolimT4:
    name = "hocolim-t4"
    why = ("hocolim_I of the terminal diagram at truncation 4: the n = 0 nerve of"
           " nerve-t4 reached through Injection face maps, SNF on another cell order")

    def __init__(self):
        self.space = ispace.terminal_ispace(4)

    def op_names(self):
        return ("hocolim",)

    def run(self, op):
        sset = ispace.hocolim_I(self.space, 3).sset
        groups = simplicial.homology(sset, 2).groups
        return {"cells": list(sset.card), "homology": groups_json(groups)}, sset


class BarT3:
    name = "bar-t3"
    why = ("bar constructions of c1(3): bar-cell enumeration and normalization"
           " dominate and SNF is about 1%, so SNF or nerve changes should not move it")

    def __init__(self):
        self.monoid = cmon.c1(3)

    def op_names(self):
        return ("classifying_space_homology", "bar_comparison")

    def run(self, op):
        if op == "classifying_space_homology":
            rep, tab = cmon.classifying_space_homology(self.monoid, 2)
            return {"homology": groups_json(rep.groups), "cells": list(tab.sset.card)}, None
        return _bar_comparison_json(cmon.bar_comparison(self.monoid, 0)), None


class RegistryT3:
    name = "registry-t3"
    why = ("every registry scenario but bar-c1 at trunc 3, reports compared byte for"
           " byte: the only workload on gamma and the semistability and flatness checks")

    def op_names(self):
        return REGISTRY_T3

    def run(self, op):
        cfg = scenarios.RunConfig(trunc=3, scenarios=[op])
        return scenarios.reports_to_json(scenarios.run_all(cfg), cfg), None


WORKLOADS = {w.name: w for w in (NerveT4, HocolimT4, BarT3, RegistryT3)}


def build(name):
    """Build a workload's inputs."""
    return WORKLOADS[name]()


def load_expected(name):
    with open(EXPECTED_DIR / f"{name}.json") as fh:
        return json.load(fh)


def invariants(sset, output):
    """Chain-level invariants of a live simplicial set, for nerve and hocolim.

    Boundary nonzeros come from a fresh ``chain_complex``. The SNF ranks are
    not among them: they follow from the cells and the homology, which the
    output check covers, and traced runs check the live ranks against the
    recorded ``zlinalg.rank`` count.
    """
    cx = simplicial.chain_complex(sset, 3)
    if "homology" in output:
        homology = output["homology"]
    else:
        homology = TRIVIAL_D2 if output["reduced_homology_trivial"] else None
    return {
        "cells": list(sset.card),
        "boundary_nnz": [len(cx.boundaries[k]) for k in (1, 2, 3)],
        "homology": homology,
    }


def snf_ranks(inv):
    """SNF ranks r_1..r_3 from cells and homology: H_k has free rank c_k - r_k - r_(k+1)."""
    cells, homology = inv["cells"], inv["homology"]
    if homology is None:
        return None
    ranks = [cells[0] - homology["0"][0]]
    for k in (1, 2):
        ranks.append(cells[k] - ranks[-1] - homology[str(k)][0])
    return ranks


# The Yoneda pair: hocolim_I of the terminal diagram and the nerve of
# comma_under(0, N) are the same simplicial set reached by two code paths.
YONEDA = {"nerve-t4": ("n=0", "hocolim-t4", "hocolim"),
          "hocolim-t4": ("hocolim", "nerve-t4", "n=0")}


def yoneda_disagreements(a, b):
    """Where two invariant records differ on cells, degree-3 nonzeros or homology."""
    bad = [k for k in ("cells", "homology") if a[k] != b[k]]
    if a["boundary_nnz"][2] != b["boundary_nnz"][2]:
        bad.append("boundary_nnz.d3")
    return bad


def yoneda_check(workload, live_invariants):
    """Compare this path's live invariants with the other path's record.

    Returns (ok, detail); workloads outside the pair pass trivially.
    """
    if workload not in YONEDA:
        return True, "not applicable"
    op, other, other_op = YONEDA[workload]
    mine = live_invariants.get(op)
    if mine is None:
        return False, f"no live invariants for {op}"
    bad = yoneda_disagreements(mine, load_expected(other)["ops"][other_op]["invariants"])
    if bad:
        return False, f"{workload}:{op} disagrees with {other}:{other_op} on {', '.join(bad)}"
    return True, f"{workload}:{op} agrees with {other}:{other_op}"


def seeded_order(workload, seed, pass_index):
    """The operation order of one pass: fixed by the seed and the pass index."""
    names = list(workload.op_names())
    random.Random(f"{seed}:{pass_index}").shuffle(names)
    return names
