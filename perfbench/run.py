"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nerve-t4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each run starts one fresh single-threaded
workload process (``worker.py``), a closed loop with one client that repeats
passes over the workload's operations until ``--seconds`` have gone by, and
checks every output against ``perfbench/expected``. A run is given a
deadline; on timeout the process is killed and its unfinished operations
count as failed. Set-up time is sampled in further fresh processes that stop
once set-up is done.

Times are taken on ``speed.Clock``: wall seconds, and normalised seconds,
which take out the machine's changes of speed. The time metrics are
normalised; the wall times are printed beside them.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
tracing off. With ``--trace 1`` the passes alternate between untraced and
traced ones; the result holds the per-layer metrics. The last line of stdout
is the JSON result; the lines before it are for people.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 11  # the workload process plus ten set-up-only processes
DEADLINE_S = 155.0  # the workload process and the set-up samples before it
SETUP_TIMEOUT_S = 3.0  # each set-up sample; five run after the deadline
END_TO_END = (("norm_wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def environment():
    """Python version, CPU count and model, load average."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def tail_percentile(values):
    """(p, value) of the highest whole percentile with >= 10 samples above it."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summary(name, values, unit):
    """One line: median with its sample count, and the tail percentile."""
    line = f"{name}: median {statistics.median(values):.4f} {unit} (n={len(values)}"
    tail = tail_percentile(values)
    line += f", p{tail[0]} {tail[1]:.4f} {unit})" if tail else ", no percentile with 10 samples above it)"
    return line


def worker_cmd(args, t0, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)]
    return cmd + ["--setup-only"] if setup_only else cmd


def spawn(cmd, timeout):
    """Run a fresh process; return (events, returncode or None on timeout, seconds)."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    events = [json.loads(ln) for ln in out.splitlines() if ln.startswith("{")]
    if code not in (0, None):
        sys.stderr.write(err)
    return events, code, time.perf_counter() - started


def setup_sample(args):
    events, code, _ = spawn(worker_cmd(args, time.time(), setup_only=True), SETUP_TIMEOUT_S)
    ready = [e for e in events if e["event"] == "ready"]
    if code != 0 or not ready:
        raise SystemExit(f"set-up failed for {args.workload} (exit {code})")
    return ready[0]


def run(args):
    sources = ROOT / "src" / "ispaces" / "__init__.py"
    if not sources.is_file():
        raise SystemExit(f"no ispaces sources at {sources.relative_to(ROOT)}; "
                         "run from the root of an ispaces checkout")
    started = time.monotonic()
    env = environment()
    # half the set-up-only samples before the workload process, half after,
    # so that the median does not rest on one stretch of machine speed
    setups = [setup_sample(args) for _ in range(SETUP_SAMPLES // 2)]
    deadline = DEADLINE_S - (time.monotonic() - started)
    events, code, elapsed = spawn(worker_cmd(args, time.time()), deadline)
    if code not in (0, None):
        raise SystemExit(f"workload process failed (exit {code})")
    ready = [e for e in events if e["event"] == "ready"]
    if not ready:
        raise SystemExit("workload process ended before set-up finished")
    setups.append(ready[0])
    setups += [setup_sample(args) for _ in range(SETUP_SAMPLES // 2)]
    return env, setups, events, code is None, elapsed


def tally(workload, events, timed_out):
    """Attempted and failed operations, counting the unfinished ones on timeout."""
    ops = [e for e in events if e["event"] == "op"]
    attempted = len(ops)
    failed = sum(not e["ok"] for e in ops)
    if timed_out:
        with open(HERE / "expected" / f"{workload}.json") as fh:
            per_pass = len(json.load(fh)["ops"])
        unfinished = per_pass - len(ops) % per_pass  # the rest of the pass under way
        attempted += unfinished
        failed += unfinished
    return attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("nerve-t4", "hocolim-t4", "bar-t3", "registry-t3"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env, setups, events, timed_out, elapsed = run(args)
    last = {e["event"]: e for e in events}
    passes = [e for e in events if e["event"] == "pass"]
    verify = last.get("verify")
    attempted, failed = tally(args.workload, events, timed_out)
    correct = (not timed_out and failed == 0 and verify is not None
               and verify["invariants_ok"] and verify["yoneda_ok"])

    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, passes {len(passes)}" + (", TIMED OUT" if timed_out else ""))
    for e in passes:
        print(f"  pass {e['pass_index']}{' traced' if e['traced'] else ''}: "
              f"{e['norm_wall_s']:.4f} s normalised, {e['wall_s']:.4f} s wall, "
              f"order {e['order']}")
    for e in events:
        if e["event"] == "op" and not e["ok"]:
            print(f"  FAILED pass {e['pass_index']} {e['op']}: {e['detail']}")
    if verify:
        print(f"invariants: {'ok' if verify['invariants_ok'] else verify['invariants_detail']}")
        print(f"yoneda: {'ok' if verify['yoneda_ok'] else 'FAILED'} ({verify['yoneda_detail']})")
    print(f"fail_frac: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    if "done" in last:
        print(f"speed clock: {last['done']['clock_ticks']} kernel runs, "
              f"{last['done']['clock_tick_s']:.3f} s in all")

    if args.trace == 0:
        # a run killed before its first pass ends reports the wall time until the kill
        values = {"norm_wall_s": [e["norm_wall_s"] for e in passes] or [elapsed],
                  "peak_rss_mb": [last["done"]["peak_rss_kb"] / 1024.0 if "done" in last else 0.0],
                  "setup_s": [e["setup_s"] for e in setups]}
        metrics = {}
        for name, unit in END_TO_END:
            print(summary(name, values[name], unit))
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        print(summary("wall_s", [e["wall_s"] for e in passes] or [elapsed], "s"))
        print(summary("setup_wall_s", [e["setup_wall_s"] for e in setups], "s"))
    else:
        layer = last.get("per_layer") or _no_per_layer()
        metrics = layer["metrics"]
        correct = correct and layer["counts_repeat"] and not layer["counts_vs_record"]
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        print(f"counts repeat in all {layer['traced_passes']} traced passes: "
              + ("yes" if layer["counts_repeat"] else "NO"))
        print("counts vs record: " + ("identical" if not layer["counts_vs_record"]
                                      else "; ".join(layer["counts_vs_record"])))

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "args": vars(args), "result": result, "setup_s": setups,
                   "events": events}, fh, indent=1)
    print(json.dumps(result))


def _no_per_layer():
    """Per-layer result of a run killed before its traced passes ended."""
    with open(ROOT / "BENCHMARK.json") as fh:
        names = json.load(fh)["per_layer"]
    return {"metrics": {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in names},
            "traced_passes": 0, "counts_repeat": False, "counts_vs_record": []}


if __name__ == "__main__":
    main()
