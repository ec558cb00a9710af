"""The benchmark's record against the library: every operation repeats it.

`perfbench/expected/*.json` holds, per operation of each benchmark workload,
its output, the exact counts that its traced run makes and, where the
operation builds one simplicial set, that set's chain-level invariants.  A
change that moves none of them on purpose must leave them as they are.  This
test runs each operation once under the tracer and compares all three with
the record, as `perfbench/make_expected.py` made it.  The modules are read
from their files and executed, which leaves `perfbench/` untouched.
"""

import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads, spans = _load("workloads"), _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_repeats_the_record(name):
    """Output, traced counts and invariants of each operation, in record order."""
    wl, expected = workloads.build(name), workloads.load_expected(name)
    assert sorted(expected["ops"]) == sorted(wl.op_names())
    tracer, live = spans.Tracer(f"record/{name}"), {}
    for op in wl.op_names():
        rec = expected["ops"][op]
        tracer.install()
        try:
            output, sset = wl.run(op)
        finally:
            tracer.uninstall()
        assert output == rec["output"], op
        assert tracer.take_counts() == rec["counts"], op
        assert (sset is None) == ("invariants" not in rec), op
        if sset is not None:
            inv = live[op] = workloads.invariants(sset, output)
            assert inv | {"snf_rank": workloads.snf_ranks(inv)} == rec["invariants"], op
    assert workloads.yoneda_check(name, live)[0]
