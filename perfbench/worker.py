"""One workload process: set up, run passes in a closed loop, report events.

Started fresh by ``run.py`` for each run (and, with ``--setup-only``, for
each extra set-up sample). A ``speed.Clock`` starts before ``ispaces`` is
imported and times everything after it in wall and in normalised seconds.
The process prints one JSON event per line on stdout:

- ``ready``: set-up time, from just before the process was started (the
  ``--t0`` wall-clock stamp of the parent) until ``ispaces`` is imported,
  the inputs are built and the expected outputs are loaded;
- ``op``: one operation of one pass, with its times and check;
- ``pass``: the pass's times (the sums of its operation times) and, when
  traced, its per-layer metrics and counts;
- ``verify``: chain invariants and the Yoneda cross-check, both untimed;
- ``done``: peak RSS of this process.

With ``--trace 1`` the passes alternate between untraced and traced,
starting untraced, and there are at least ``TRACED_MIN_PASSES`` of them.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

CLOCK = speed.Clock()  # before ispaces is imported, so that set-up is on it

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
TRACED_MIN_PASSES = 4  # two untraced and two traced

sys.path.insert(0, str(ROOT / "src"))
import ispaces  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def _diff(expected, got):
    return f"expected {json.dumps(expected)[:300]}, got {json.dumps(got)[:300]}"


def run_passes(wl, expected, args):
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{wl.name}/seed={args.seed}/pid={os.getpid()}",
                              clock=lambda: CLOCK.read()[1])
    live = {}
    passes = []
    start = CLOCK.read()[0]
    p = 0
    while (p == 0 or CLOCK.read()[0] - start < args.seconds
           or (args.trace and p < TRACED_MIN_PASSES)):
        traced = bool(args.trace) and p % 2 == 1
        if traced:
            tracer.install()
        first_span = len(tracer.spans) if traced else 0
        wall = norm = 0.0
        order = workloads.seeded_order(wl, args.seed, p)
        op_counts = {}
        for op in order:
            rec = expected["ops"][op]
            w0, n0 = CLOCK.read()
            try:
                output, sset = wl.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                output, sset, detail = None, None, repr(exc)[:500]
            else:
                detail = "" if output == rec["output"] else _diff(rec["output"], output)
            w1, n1 = CLOCK.read()
            wall += w1 - w0
            norm += n1 - n0
            emit("op", pass_index=p, op=op, ok=output is not None and not detail,
                 wall_s=w1 - w0, norm_s=n1 - n0, detail=detail)
            if traced:
                op_counts[op] = tracer.take_counts()
            if p == 0 and sset is not None:
                live[op] = workloads.invariants(sset, output)
            del output, sset
        if traced:
            tracer.uninstall()
        event = {"pass_index": p, "order": order, "wall_s": wall, "norm_wall_s": norm,
                 "traced": traced}
        if traced:
            event["metrics"] = tracer.metrics(first_span, norm, workloads.REGISTRY_T3)
            event["op_counts"] = op_counts
        emit("pass", **event)
        passes.append(event)
        p += 1
    CLOCK.stop()
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}-pid{os.getpid()}.json"
        tracer.write(path)
        emit("per_layer", spans_file=str(path.relative_to(ROOT)), span_count=len(tracer.spans),
             **per_layer(expected, passes))
    return live


def per_layer(expected, passes):
    """Per-layer metrics of a traced run: medians over its traced passes.

    Span times are normalised seconds. The overhead is the median pass time
    of the traced passes minus that of the untraced ones. Counts must repeat
    exactly in every traced pass and match the recorded counts; each
    difference from the record is listed.
    """
    traced = [e for e in passes if e["traced"]]
    untraced = [e for e in passes if not e["traced"]]
    totals = []
    for e in traced:
        total = dict.fromkeys(spans.COUNT_NAMES, 0)
        for counts in e["op_counts"].values():
            for k, v in counts.items():
                total[k] += v
        totals.append(total)
    seconds = {k: statistics.median(e["metrics"][k] for e in traced) for k in traced[0]["metrics"]}
    seconds["trace.overhead_s"] = (statistics.median(e["norm_wall_s"] for e in traced)
                                   - statistics.median(e["norm_wall_s"] for e in untraced))
    metrics = {}
    for name, unit, _ in spans.per_layer_metrics(workloads.REGISTRY_T3):
        metrics[name] = {"value": totals[0][name] if unit == "count" else seconds[name],
                         "unit": unit}
    differ = sorted({f"{op} {k}: {expected['ops'][op]['counts'].get(k)} -> {v}"
                     for e in traced for op, counts in e["op_counts"].items()
                     for k, v in counts.items() if expected["ops"][op]["counts"].get(k) != v})
    return {"metrics": metrics, "traced_passes": len(traced),
            "counts_repeat": all(t == totals[0] for t in totals), "counts_vs_record": differ}


def verify(wl, expected, live):
    """Untimed checks of the first pass's simplicial sets."""
    bad = []
    for op, inv in sorted(live.items()):
        rec = {k: expected["ops"][op]["invariants"][k] for k in inv}
        if inv != rec:
            bad.append(f"{op}: {_diff(rec, inv)}")
    ok, detail = workloads.yoneda_check(wl.name, live)
    emit("verify", invariants_ok=not bad, invariants_detail="; ".join(bad),
         yoneda_ok=ok, yoneda_detail=detail)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(ispaces.__file__).resolve().parent != ROOT / "src" / "ispaces":
        sys.exit(f"ispaces imported from {ispaces.__file__}, not from this checkout")
    wl = workloads.build(args.workload)
    expected = workloads.load_expected(args.workload)
    emit("ready", setup_s=CLOCK.since_wall(args.t0), setup_wall_s=time.time() - args.t0)
    if args.setup_only:
        CLOCK.stop()
        return
    live = run_passes(wl, expected, args)
    verify(wl, expected, live)
    emit("done", peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
         clock_ticks=CLOCK.ticks, clock_tick_s=CLOCK.tick_s)


if __name__ == "__main__":
    main()
