"""Run every workload several times and summarise the end-to-end metrics.

    python3 perfbench/suite.py                    # one untraced run per workload
    python3 perfbench/suite.py --runs 10 --trace  # ten interleaved runs, then traced ones

Runs ``run.py`` one process at a time, interleaving the workloads, with seeds
``--seed``, ``--seed + 1``, ... For every workload and end-to-end metric it
prints the median, the quartiles, their spread as a share of the median
(compared with a third of the bound in ``BENCHMARK.json``) and the tail
percentile, and ``fail_frac`` over all runs. It prints the same for the
wall-clock times beside the normalised ones (``wall_s`` and ``setup_wall_s``),
and for ``setup_s`` taken from the workload process alone
(``setup_single_s``), for comparison. Every run checks its outputs;
the suite fails if any run was not correct. The result set, with the
environment before and after, is written to ``perfbench/out/``.

Times compare only between interleaved runs on one machine; the exact
counts of traced runs must match exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = (("wall_s", "s"), ("setup_wall_s", "s"), ("setup_single_s", "s"))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    with open(HERE / "out" / f"run-{workload}-seed{seed}-trace{trace}.json") as fh:
        events = json.load(fh)
    passes = [e for e in events["events"] if e["event"] == "pass"]
    setups = events["setup_s"]
    result["raw"] = {  # the workload process's own set-up sample sits in the middle
        "wall_s": statistics.median(e["wall_s"] for e in passes),
        "setup_wall_s": statistics.median(e["setup_wall_s"] for e in setups),
        "setup_single_s": setups[len(setups) // 2]["setup_s"],
    }
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    env_before = bench.environment()
    results = {w: [] for w in names}
    started = time.monotonic()
    for i in range(args.runs):
        for w in names:
            res = run_once(w, args.seed + i, seconds, 0)
            results[w].append(res)
            vals = ", ".join([f"{k} {m['value']:.4f}" for k, m in res["metrics"].items()]
                             + [f"{k} {v:.4f}" for k, v in res["raw"].items()])
            print(f"{w} seed {args.seed + i}: correct {res['correct']}, {vals}", flush=True)
    traced = {}
    if args.trace:
        traced = {w: run_once(w, args.seed, seconds, 1) for w in names}

    print(f"\n{args.runs} run(s) per workload, {seconds:g} s each, "
          f"{time.monotonic() - started:.0f} s in all")
    ok = True
    summary = {}
    for w in names:
        runs = results[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and failed == 0
        print(f"{w}: correct {correct}; fail_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} operations)")
        summary[w] = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
        for name, unit in bench.END_TO_END + RAW:
            values = [r["metrics"][name]["value"] if name in r["metrics"] else r["raw"][name]
                      for r in runs]
            line = "  " + bench.summary(name, values, unit)
            entry = {"unit": unit, "median": statistics.median(values), "n": len(values),
                     "values": values}
            if len(values) >= 2:
                q1, q3, s = spread(values)
                entry.update(q1=q1, q3=q3, spread=s)
                line += f"; quartiles {q1:.4f}-{q3:.4f}, spread {s:.4f}"
                if name in bounds:
                    line += f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f}"
                    line += ", ok)" if s < bounds[name] / 3 else ", WIDE)"
            summary[w]["metrics"][name] = entry
            print(line)
        if w in traced:
            t = traced[w]
            ok = ok and t["correct"]
            print(f"  traced run: correct {t['correct']}, "
                  f"coverage {t['metrics']['trace.coverage']['value']:.2f} %, "
                  f"overhead {t['metrics']['trace.overhead_s']['value']:.4f} s")
            summary[w]["traced"] = t
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"suite-{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}.json"
    with open(path, "w") as fh:
        json.dump({"env_before": env_before, "env_after": bench.environment(),
                   "runs": args.runs, "seed": args.seed, "seconds": seconds,
                   "workloads": summary, "raw": results}, fh, indent=1)
    print(f"result set: {path.relative_to(ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
