"""The benchmark's tracer against the library: its names resolve, its counts hold.

`perfbench/spans.py` replaces the library functions that its `FUNCTIONS`
table names, under every name by which a module holds them, and counts work
at their boundaries; the traced benchmark runs compare those counts exactly
with a record.  This smoke test runs the tracer on two small inputs, so that
a renamed entry point, or a matrix whose `len` is no longer its nonzero
count, fails here first.  The module is read from its file and executed,
which leaves `perfbench/` untouched.
"""

import types
from pathlib import Path

from ispaces import cmon, icat, scenarios, simplicial

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def _bindings(spans):
    """Every module attribute, class method and registry entry that a tracer may replace."""
    out = {(name, attr): value for name, mod in spans.MODULES.items()
           for attr, value in vars(mod).items()}
    # read by attribute, as the tracer wraps it: a move of the class fails here first
    out[("icat.FinCategory", "validate")] = icat.FinCategory.validate
    out.update((("REGISTRY", name), entry) for name, entry in scenarios.REGISTRY.items())
    return out


def test_every_traced_function_resolves():
    spans = _spans()
    for layer, fname in spans.FUNCTIONS:
        assert callable(getattr(spans.MODULES[layer], fname, None)), f"{layer}.{fname}"


def test_tracer_counts_and_uninstall():
    spans = _spans()
    before = _bindings(spans)
    tracer = spans.Tracer("smoke")
    tracer.install()
    try:
        for mod in (simplicial, cmon):  # SNF is traced under the name each module calls
            assert mod.rank_and_torsion is not before[("zlinalg", "rank_and_torsion")]
        sset = simplicial.nerve(icat.comma_under(0, 3), 3).sset
        assert simplicial.homology(sset, 2).groups == {0: (1, ()), 1: (0, ()), 2: (0, ())}
        nerve = tracer.take_counts()
        nerve_spans = {span[2] for span in tracer.spans}
        assert scenarios.run_scenario("grothendieck", scenarios.RunConfig(trunc=2)).passed()
        grothendieck = tracer.take_counts()
    finally:
        tracer.uninstall()
    assert nerve == {
        "zlinalg.snf_calls": 3, "zlinalg.snf_nnz_in": 2392, "zlinalg.rank": 111,
        "simplicial.raw_cells": 1120, "simplicial.cells.d0": 4, "simplicial.cells.d1": 20,
        "simplicial.cells.d2": 108, "simplicial.cells.d3": 552,
        "simplicial.boundary_nnz.d1": 28, "simplicial.boundary_nnz.d2": 294,
        "simplicial.boundary_nnz.d3": 2070}
    # a coded category reaches nerve unvalidated; the validate wrapper stays installed
    assert {"icat.comma_under", "simplicial.nerve"} <= nerve_spans
    assert "icat.validate" not in nerve_spans
    assert grothendieck == dict.fromkeys(spans.COUNT_NAMES, 0) | {
        "zlinalg.snf_calls": 2, "zlinalg.snf_nnz_in": 2, "zlinalg.rank": 1}
    assert _bindings(spans) == before  # functions compare by identity
