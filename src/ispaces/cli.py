"""Command-line workbench over the scenario registry and the core library.

Every subcommand prints a deterministic JSON document; exit status is zero
exactly when all selected checks pass or are explicitly skipped.
"""

import argparse
import json
import sys

from . import cmon, gamma, ispace, simplicial
from .scenarios import (
    ISPACE_MODELS,
    MONOID_MODELS,
    RunConfig,
    _groups_json,
    build_ispace,
    build_monoid,
    reports_to_json,
    run_all,
)


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _models_at(N):
    """The diagram models that exist at truncation N: f<n> only for n <= N."""
    return [m for m in ISPACE_MODELS if not (m[0] == "f" and m[1:].isdigit()) or int(m[1:]) <= N]


def cmd_validate(args, cfg):
    results = {}
    ok = True
    for name in args.model or sorted(set(MONOID_MODELS) | set(_models_at(cfg.trunc))):
        X = build_ispace(name, cfg.trunc)
        bad = X.validate()
        if name in MONOID_MODELS:
            bad += cmon.validate_monoid(build_monoid(name, cfg.trunc))
        results[name] = bad
        ok = ok and not bad
    return {"validate": results}, ok


def cmd_hocolim(args, cfg):
    X = build_ispace(args.model[0], cfg.trunc)
    fn = ispace.hocolim_N if args.over == "N" else ispace.hocolim_I
    tab = fn(X, cfg.S, based=args.based)
    sset = tab.sset
    return {
        "model": args.model[0],
        "over": args.over,
        "cells": list(sset.card),
        "pi0": len(simplicial.pi0_classes(sset)),
    }, True


def cmd_homology(args, cfg):
    X = build_ispace(args.model[0], cfg.trunc)
    tab = ispace.hocolim_I(X, cfg.S)
    h = simplicial.homology(tab.sset, cfg.deg)
    return {"model": args.model[0], "homology": _groups_json(h.groups)}, True


def cmd_flat(args, cfg):
    results = {}
    for name in args.model or _models_at(cfg.trunc):
        X = build_ispace(name, cfg.trunc)
        cert = ispace.is_flat(X)
        results[name] = {"flat": cert.flat, "witness": cert.witness}
    return {"flat": results}, True


def cmd_semistable(args, cfg):
    X = build_ispace(args.model[0], cfg.trunc)
    v = ispace.semistability_diagnostic(X, D=cfg.deg)
    return {
        "model": args.model[0],
        "verdict": v.verdict,
        "witness": v.witness,
    }, v.verdict != "refuted"


def cmd_pi0(args, cfg):
    A = build_monoid(args.model[0], cfg.trunc)
    pres, _ = cmon.pi0_monoid(A)
    rank, tors = cmon.grothendieck_group(pres)
    return {
        "model": args.model[0],
        "presentation": pres.to_json(),
        "grothendieck": [rank, list(tors)],
    }, True


def cmd_units(args, cfg):
    A = build_monoid(args.model[0], cfg.trunc)
    rep = cmon.units(A)
    return {
        "model": args.model[0],
        "unit_classes": [str(c) for c in rep.unit_classes],
        "nonunit_classes": [str(c) for c in rep.nonunit_classes],
        "closed_under_mul": rep.closed_under_mul,
        "absorption": rep.absorption,
    }, rep.closed_under_mul and rep.absorption


def cmd_bar(args, cfg):
    A = build_monoid(args.model[0], cfg.trunc)
    if args.full:
        rep = cmon.bar_comparison(A, cfg.deg)
        return {
            "model": args.model[0],
            "pi0": rep.pi0,
            "homology": {t: _groups_json(h.groups) for t, h in rep.homology.items()},
            "map_iso": rep.map_iso,
            "stable": rep.stable,
        }, all(rep.map_iso.values())
    h, _ = cmon.classifying_space_homology(A, cfg.deg)
    return {"model": args.model[0], "homology": _groups_json(h.groups)}, True


def cmd_gamma(args, cfg):
    A = build_monoid(args.model[0], cfg.trunc)
    G = gamma.gamma_of_monoid(A, args.K, max(cfg.S, 2))
    sv = gamma.is_special(G, D=0)
    return {
        "model": args.model[0],
        "K": args.K,
        "special": sv.verdict,
        "very_special": sv.very_special,
        "witness": sv.witness,
        "detail": {k: v for k, v in sv.detail.items() if k != "pi0_monoid"},
    }, sv.verdict != "refuted"


def cmd_scenario(args, cfg):
    reports = run_all(cfg)
    text = reports_to_json(reports, cfg)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return None, all(r.passed() for r in reports)


COMMANDS = {
    "validate": cmd_validate,
    "hocolim": cmd_hocolim,
    "homology": cmd_homology,
    "flat": cmd_flat,
    "semistable": cmd_semistable,
    "pi0": cmd_pi0,
    "units": cmd_units,
    "bar": cmd_bar,
    "gamma": cmd_gamma,
    "scenario": cmd_scenario,
}

NEEDS_MODEL = ("hocolim", "homology", "semistable", "pi0", "units", "bar",
               "gamma")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ispaces",
        description="Workbench for truncated diagram spaces over injections.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--trunc", type=int, default=3,
                       help="level truncation bound N")
        p.add_argument("--deg", type=int, default=1,
                       help="top homology degree reported")
        p.add_argument("--chains", type=int, default=None,
                       help="chain length bound for homotopy colimits")
        p.add_argument("--jobs", type=int, default=1,
                       help="scenario-level parallelism width")
        p.add_argument("--out", default=None, help="write JSON to this path")
        if name in NEEDS_MODEL:
            p.add_argument("model", nargs=1)
        if name in ("validate", "flat"):
            p.add_argument("model", nargs="*")
        if name == "hocolim":
            p.add_argument("--over", choices=("I", "N"), default="I")
            p.add_argument("--based", action="store_true")
        if name == "bar":
            p.add_argument("--full", action="store_true",
                           help="run the three-term comparison")
        if name == "gamma":
            p.add_argument("--K", type=int, default=3,
                           help="based-set size bound")
        if name == "scenario":
            p.add_argument("--name", action="append", default=None,
                           help="scenario to run (repeatable; default all)")
            p.add_argument("--timings", action="store_true",
                           help="include wall-clock timings in reports")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        trunc=args.trunc, deg=args.deg, chains=args.chains,
        scenarios=getattr(args, "name", None), jobs=args.jobs, out=args.out,
        timings=getattr(args, "timings", False))
    bad = cfg.validate()
    if bad:
        print(json.dumps({"error": "; ".join(bad)}, sort_keys=True))
        return 2
    try:
        payload, ok = COMMANDS[args.command](args, cfg)
    except ValueError as e:
        print(json.dumps({"error": str(e)}, sort_keys=True))
        return 2
    if payload is not None:
        _emit(payload, cfg.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
