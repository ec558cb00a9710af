"""The record helper of `ispaces.util`, on the library's own record classes,
and the start-up cost it keeps away: no module of `ispaces` imports
`dataclasses`, `inspect` or `typing`.

Look at the import cost of the package with
`python -X importtime -c "import ispaces.scenarios"`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ispaces.cmon import CIMonoidT, c1
from ispaces.gamma import EckmannHiltonReport, GammaSpaceT
from ispaces.icat import CodedCategory, comma_under
from ispaces.ispace import FlatCertificate, SemistabilityVerdict
from ispaces.scenarios import RunConfig
from ispaces.simplicial import (ChainComplex, HomologyReport, NormTable, SMap, SSet, discrete,
                                nerve, simplicial_circle)
from ispaces.util import replace

SRC = Path(__file__).resolve().parent.parent / "src"
POINT = discrete(1)
GROUPS = {0: (1, ())}

# the classes built per operation, which keep an `__init__` of plain stores
PER_OPERATION = (SSet, NormTable, SMap, ChainComplex, HomologyReport, CodedCategory)

# case -> (build, the class and vars() of the record it builds), or (build, TypeError);
# `FlatCertificate`, `EckmannHiltonReport`, `RunConfig` and the verdicts take `record`'s own
CASES = {
    "positional": (lambda: SMap(POINT, POINT, {}),
                   (SMap, {"src": POINT, "dst": POINT, "table": {}})),
    "keyword": (lambda: SMap(table={}, dst=POINT, src=POINT),
                (SMap, {"src": POINT, "dst": POINT, "table": {}})),
    "class defaults": (lambda: SSet((1,), ([],)),
                       (SSet, {"card": (1,), "face": ([],), "complete": False,
                               "basepoint": None})),
    "mixed": (lambda: SSet((1,), face=([],), basepoint=0),
              (SSet, {"card": (1,), "face": ([],), "complete": False, "basepoint": 0})),
    "field default": (lambda: NormTable(POINT, {}, [[0]]),
                      (NormTable, {"sset": POINT, "ref_of": {}, "raw_of": [[0]], "cat": None})),
    "default_factory": (lambda: SemistabilityVerdict("refuted"),
                        (SemistabilityVerdict, {"verdict": "refuted", "witness": None,
                                                "detail": {}})),
    "record positional": (lambda: EckmannHiltonReport(True, {}),
                          (EckmannHiltonReport, {"passed": True, "products": {},
                                                 "witness": None})),
    "record keyword": (lambda: FlatCertificate(witness={}, flat=False),
                       (FlatCertificate, {"flat": False, "witness": {}})),
    "record defaults": (lambda: RunConfig(jobs=2),
                        (RunConfig, {"trunc": 3, "deg": 1, "chains": None, "scenarios": None,
                                     "out": None, "jobs": 2, "timings": False})),
    "all positional": (lambda: HomologyReport(GROUPS, 0, True),
                       (HomologyReport, {"groups": GROUPS, "skeleton_dim": 0,
                                         "complete": True})),
    "replace": (lambda: replace(discrete(2, basepoint=1), complete=False),
                (SSet, {"card": (2,), "face": ([],), "complete": False, "basepoint": 1})),
    "replace two": (lambda: replace(ChainComplex([1], []), counts=[2], boundaries=[None]),
                    (ChainComplex, {"counts": [2], "boundaries": [None]})),
    "missing": (lambda: SMap(POINT, POINT), TypeError),
    "missing keyword": (lambda: HomologyReport(GROUPS, complete=True), TypeError),
    "unknown": (lambda: SMap(POINT, POINT, {}, extra=1), TypeError),
    "repeated": (lambda: SMap(POINT, POINT, {}, src=POINT), TypeError),
    "too many": (lambda: ChainComplex([1], [], None), TypeError),
    "replace unknown": (lambda: replace(POINT, cells=1), TypeError),
    "record missing": (lambda: FlatCertificate(), TypeError),
    "record missing keyword": (lambda: SemistabilityVerdict(witness=None), TypeError),
    "record unknown": (lambda: FlatCertificate(True, extra=1), TypeError),
    "record repeated": (lambda: FlatCertificate(True, flat=True), TypeError),
    "record too many": (lambda: FlatCertificate(True, None, 1), TypeError),
}


@pytest.mark.parametrize("case", CASES)
def test_record_construction(case):
    """A record takes its fields by position or keyword and fills the rest
    from its defaults; `replace` builds a record of the same class with only
    the named fields changed; a missing, unknown, repeated or extra argument
    raises TypeError."""
    build, expected = CASES[case]
    if expected is TypeError:
        with pytest.raises(TypeError):
            build()
        return
    obj = build()
    assert (type(obj), vars(obj)) == expected


def test_per_operation_records_keep_plain_stores():
    """A closure `__init__` costs about three times a compiled one, so the
    classes built per operation write their own, which `record` keeps."""
    for cls in PER_OPERATION:
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert FlatCertificate.__init__.__qualname__ == "record.<locals>.__init__"


def test_default_factory_is_called_per_record():
    C = c1(1)
    A, B = CIMonoidT(C.space, C.unit, C.mul), CIMonoidT(C.space, C.unit, C.mul)
    assert A.meta == B.meta == {} and A.meta is not B.meta and A == B
    v, w = SemistabilityVerdict("refuted"), SemistabilityVerdict("refuted")
    assert v == w and v.detail is not w.detail
    g, h = GammaSpaceT(1, [POINT, POINT], None), GammaSpaceT(1, [POINT, POINT], None)
    assert g._cache is not h._cache
    # a `field(...)` leaves no class attribute: one of a mutable type slows every read
    assert not {"meta", "_cache", "ref_of", "cat"} & (vars(CIMonoidT).keys() | vars(GammaSpaceT).keys()
                                                     | vars(NormTable).keys())


def test_equality_repr_and_hash():
    """`==` compares records of one class on the fields not marked
    compare=False (`NormTable` leaves out ref_of and cat), and repr shows
    every field.  Records are unhashable."""
    tab = nerve(comma_under(0, 2), 2)
    same = NormTable(tab.sset, {}, tab.raw_of)
    assert same == tab and tab.cat is not None
    assert NormTable(tab.sset, tab.ref_of, tab.raw_of[:1], tab.cat) != tab
    assert repr(same) == f"NormTable(sset={tab.sset!r}, ref_of={{}}, raw_of={tab.raw_of!r}, cat=None)"
    assert repr(HomologyReport(GROUPS, 0, True)) == \
        "HomologyReport(groups={0: (1, ())}, skeleton_dim=0, complete=True)"
    g = GammaSpaceT(1, [POINT], None)
    assert g == GammaSpaceT(1, [POINT], None)
    g._cache["key"] = POINT
    assert g != GammaSpaceT(1, [POINT], None)
    assert repr(g) == f"GammaSpaceT(K=1, values=[{POINT!r}], act_fn=None, _cache={{'key': {POINT!r}}})"
    assert HomologyReport(GROUPS, 0, True) != (GROUPS, 0, True)
    cat = CodedCategory([0], [0], [0], [0], [0], [[0]])
    assert cat == replace(cat) and cat != replace(cat, after=[[1]])
    for obj in (POINT, tab, cat):
        with pytest.raises(TypeError):
            hash(obj)


def test_sset_is_frozen_but_caches_components():
    X = simplicial_circle()
    with pytest.raises(AttributeError):
        X.card = (1,)
    with pytest.raises(AttributeError):
        X.components = {}
    assert X.card == (1, 1) and X.components == {0: 0}
    assert "components" in vars(X)
    assert replace(X) == X and "components" not in vars(replace(X))


def test_start_up_imports_no_dataclasses_inspect_or_typing():
    """Importing every module of the package, the CLI included, in a fresh
    interpreter without `site` loads none of `dataclasses`, `inspect` (which
    would add `ast`, `dis` and `tokenize`) and `typing`."""
    modules = sorted(p.stem for p in (SRC / "ispaces").glob("*.py"))
    assert "cli" in modules and "util" in modules
    code = "".join(f"import ispaces.{m}\n" for m in modules) + \
        "import sys\nprint(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
