"""Normal-form assembly against the cell-by-cell reference oracle.

`simplicial.normalize_table` finds degenerate cells from the level below;
`oracles.normalize_reference` tests each raw cell with its own faces and
degeneracies.  Every call made while building the objects below runs both,
and the two `NormTable`s (normalized set with its face table and basepoint,
`ref_of` and `raw_of`) must be equal.
"""

import pytest

from ispaces import cmon, gamma, icat, ispace, simplicial

from oracles import normalize_reference, product_sset


@pytest.fixture
def checked(monkeypatch):
    """Route every normalize_table call through both paths; count the calls."""
    real = simplicial.normalize_table
    calls = []

    def both(*args, **kwargs):
        got = real(*args, **kwargs)
        assert got == normalize_reference(*args, **kwargs)
        calls.append(got.sset.card)
        return got

    for mod in (simplicial, ispace, cmon, gamma):
        monkeypatch.setattr(mod, "normalize_table", both)
    return calls


CASES = {
    "nerve-under-0": lambda: simplicial.nerve(icat.comma_under(0, 3), 3),
    "nerve-under-1": lambda: simplicial.nerve(icat.comma_under(1, 3), 3),
    "hocolim-terminal": lambda: ispace.hocolim_I(ispace.terminal_ispace(3), 3),
    "hocolim-terminal-based": lambda: ispace.hocolim_I(
        ispace.terminal_ispace(3, based=True), 3, based=True),
    "hocolim-free-1": lambda: ispace.hocolim_I(ispace.free_ispace(1, 3), 3),
    "hocolim-N-c1": lambda: ispace.hocolim_N(cmon.c1(3).space, 3),
    "hocolim-c1-based": lambda: ispace.hocolim_I(cmon.c1(3).space, 3, based=True),
    "hocolim-circle-power": lambda: ispace.hocolim_I(
        ispace.power_ispace(simplicial.sphere(1), 2), 3),
    "nerve-elements-c1": lambda: simplicial.nerve(
        ispace._elements(cmon.c1(3).space, icat.TruncatedI(3).hom), 3),
    "power-circle": lambda: ispace.power_ispace(simplicial.sphere(1), 3),
    "product": lambda: product_sset(simplicial.sphere(1), simplicial.sphere(2)),
    "bar-c1": lambda: cmon.bar(cmon.c1(2), 3),
    "bar-of-hocolim-c1": lambda: cmon.bar_of_hocolim(cmon.c1(2), 3),
    "two-sided-bar-of-hocolim-c1": lambda: cmon.two_sided_bar_of_hocolim(cmon.c1(2), 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_normalize_table_matches_reference(checked, name):
    CASES[name]()
    assert checked, "no normalize_table call was made"
