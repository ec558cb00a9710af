"""Record the expected outputs of the benchmark workloads.

    python3 perfbench/make_expected.py --label <commit>

Runs every operation of each workload once, under the span wrappers, and
writes ``perfbench/expected/<workload>.json`` with, per operation:

- ``output``: what every benchmark pass compares with (registry reports are
  the exact text of ``scenarios.reports_to_json`` without timings);
- ``invariants`` (nerve-t4 and hocolim-t4): cells per dimension, boundary
  nonzeros, SNF ranks and homology of the operation's simplicial set;
- ``counts``: the exact boundary counts, which traced runs must repeat.

The two halves of the Yoneda pair are computed live here and must agree
before anything is written. Regenerate only when an output changes on
purpose, and say which value changed and why.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import spans  # noqa: E402
import workloads  # noqa: E402


def record(name, label):
    wl = workloads.build(name)
    ops = {}
    tracer = spans.Tracer(f"expected/{name}")
    for op in wl.op_names():
        tracer.install()
        try:
            output, sset = wl.run(op)
        finally:
            tracer.uninstall()
        entry = {"output": output, "counts": tracer.take_counts()}
        if sset is not None:
            inv = workloads.invariants(sset, output)
            inv["snf_rank"] = workloads.snf_ranks(inv)
            if sum(inv["snf_rank"]) != entry["counts"]["zlinalg.rank"]:
                raise SystemExit(f"{name} {op}: SNF ranks {inv['snf_rank']} do not sum "
                                 f"to the traced rank {entry['counts']['zlinalg.rank']}")
            entry["invariants"] = inv
        ops[op] = entry
        print(f"{name} {op}: {json.dumps(entry['counts'])}", flush=True)
    return {"workload": name, "recorded_at": label, "ops": ops}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="commit the outputs are taken at")
    args = ap.parse_args(argv)
    records = {name: record(name, args.label) for name in workloads.WORKLOADS}
    a = records["nerve-t4"]["ops"]["n=0"]["invariants"]
    b = records["hocolim-t4"]["ops"]["hocolim"]["invariants"]
    bad = workloads.yoneda_disagreements(a, b)
    if bad:
        raise SystemExit(f"Yoneda pair disagrees on {', '.join(bad)}: {a} vs {b}")
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, rec in records.items():
        with open(workloads.EXPECTED_DIR / f"{name}.json", "w") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
