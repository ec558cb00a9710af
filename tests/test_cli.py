import concurrent.futures
import gc
import json

import pytest

from ispaces.cli import main
from ispaces.scenarios import REGISTRY, RunConfig, reports_to_json, run_all, run_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_config_invariants():
    assert RunConfig(trunc=0).validate()
    assert RunConfig(deg=-1).validate()
    assert RunConfig(deg=2, chains=2).validate()
    assert RunConfig().validate() == []


def test_malformed_config_rejected_before_execution(capsys):
    code, payload = run_cli(capsys, "scenario", "--deg", "2", "--chains", "1")
    assert code == 2
    assert "error" in payload


def test_unknown_scenario_is_an_error():
    with pytest.raises(ValueError):
        run_scenario("no-such-scenario", RunConfig())


@pytest.mark.parametrize("name", sorted(n for n, (_, least) in REGISTRY.items() if least == 2))
def test_scenario_skips_below_minimum_truncation(name):
    """run_scenario skips a scenario below its minimum truncation with one
    check named after it, before the scenario runs."""
    r = run_scenario(name, RunConfig(trunc=1))
    assert [(c["name"], c["verdict"]) for c in r.checks] == [(name, "skipped")]
    assert r.passed()


def test_flat_suite_skips_the_collapsing_checks_at_truncation_one():
    # collapsing_ispace(1) has no level 2, where its two points would merge
    r = run_scenario("flat-suite", RunConfig(trunc=1))
    skipped = [c["name"] for c in r.checks if c["verdict"] == "skipped"]
    assert skipped == ["nonflat-collapsing", "witness-replays"]
    assert r.passed()


def _stub(outcome, seen):
    def scenario(cfg):
        seen.append(gc.isenabled())
        if outcome is not None:
            raise outcome("stub")
        return []
    return scenario


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome, reason", [
    (None, None),
    (ValueError, "refused: stub"),
    (MemoryError, "budget exhausted: out of memory"),
    (KeyError, None),
])
def test_run_scenario_restores_the_collector(monkeypatch, enabled, outcome, reason):
    """A scenario runs with the cyclic collector paused, and `run_scenario`
    leaves the collector as it found it, whether the scenario returns, is
    refused, runs out of memory or raises past it."""
    seen = []
    monkeypatch.setitem(REGISTRY, "stub", (_stub(outcome, seen), 1))
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome is KeyError:
            with pytest.raises(KeyError):
                run_scenario("stub", RunConfig(trunc=1))
        else:
            r = run_scenario("stub", RunConfig(trunc=1))
            assert [c["reason"] for c in r.checks] == ([reason] if reason else [])
        assert seen == [False] and gc.isenabled() is enabled
    finally:
        gc.enable()


def test_reports_are_deterministic():
    cfg = RunConfig(trunc=2, deg=1)
    a = reports_to_json([run_scenario("c1-pi0", cfg)], cfg)
    b = reports_to_json([run_scenario("c1-pi0", cfg)], cfg)
    assert a == b


def test_parallel_matches_serial():
    names = ["c1-pi0", "grothendieck", "terminal-sanity"]
    serial = run_all(RunConfig(trunc=2, scenarios=names, jobs=1))
    parallel = run_all(RunConfig(trunc=2, scenarios=names, jobs=2))
    assert [(r.name, r.checks) for r in serial] == \
        [(r.name, r.checks) for r in parallel]


def test_cli_named_scenarios_run_in_parallel(capsys, monkeypatch):
    """`--name a --name b --jobs 2` goes through the process pool, in the
    order named; a stub pool runs the jobs in this process."""
    used = []

    class Pool:
        def __init__(self, max_workers):
            used.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    code, payload = run_cli(capsys, "scenario", "--trunc", "2", "--jobs", "2",
                            "--name", "terminal-sanity", "--name", "c1-pi0")
    assert code == 0
    assert used == [2]
    assert [r["name"] for r in payload["reports"]] == ["terminal-sanity", "c1-pi0"]


def test_cli_unknown_scenario_name_exits_2(capsys):
    code, payload = run_cli(capsys, "scenario", "--name", "no-such-scenario")
    assert code == 2
    assert "unknown scenario" in payload["error"]


def test_cli_validate(capsys):
    code, payload = run_cli(capsys, "validate", "--trunc", "2", "c1", "terminal")
    assert code == 0
    assert payload["validate"] == {"c1": [], "terminal": []}


@pytest.mark.parametrize("trunc, free", [("1", ["f1"]), ("2", ["f1", "f2"])])
def test_cli_validate_and_flat_default_to_the_models_at_the_truncation(capsys, trunc, free):
    code, payload = run_cli(capsys, "validate", "--trunc", trunc)
    assert code == 0
    assert sorted(n for n in payload["validate"] if n[0] == "f") == free
    assert not any(payload["validate"].values())
    code, payload = run_cli(capsys, "flat", "--trunc", trunc)
    assert code == 0
    assert sorted(n for n in payload["flat"] if n[0] == "f") == free
    assert payload["flat"]["collapsing"]["flat"] is (trunc == "1")


def test_cli_hocolim_over_both_categories(capsys):
    code, payload = run_cli(capsys, "hocolim", "--trunc", "2", "--deg", "0",
                            "--chains", "1", "c1")
    assert code == 0
    assert payload["pi0"] == 3
    code, payload = run_cli(capsys, "hocolim", "--trunc", "2", "--deg", "0",
                            "--chains", "1", "--over", "N", "c1")
    assert payload["pi0"] == 4


def test_cli_homology(capsys):
    code, payload = run_cli(capsys, "homology", "--trunc", "2", "--deg", "0",
                            "terminal")
    assert code == 0
    assert payload["homology"]["0"] == [1, []]


def test_cli_flat(capsys):
    code, payload = run_cli(capsys, "flat", "--trunc", "2", "c1", "collapsing")
    assert code == 0
    assert payload["flat"]["c1"]["flat"] is True
    assert payload["flat"]["collapsing"]["flat"] is False
    assert payload["flat"]["collapsing"]["witness"] is not None


def test_cli_semistable_exit_code(capsys):
    code, payload = run_cli(capsys, "semistable", "--trunc", "2", "c1")
    assert code == 1
    assert payload["verdict"] == "refuted"


def test_cli_pi0_and_units(capsys):
    code, payload = run_cli(capsys, "pi0", "--trunc", "2", "c1")
    assert code == 0
    assert payload["grothendieck"] == [1, []]
    code, payload = run_cli(capsys, "units", "--trunc", "2", "m52")
    assert code == 0
    assert len(payload["unit_classes"]) == 2


def test_cli_pi0_presentation_is_the_same_at_trunc_3_and_4(capsys):
    _, at3 = run_cli(capsys, "pi0", "--trunc", "3", "z")
    _, at4 = run_cli(capsys, "pi0", "--trunc", "4", "z")
    assert at3 == at4
    assert at4["presentation"]["rels"] == [[[0, 0], [1, 1]]]


def test_cli_bar_summary(capsys):
    code, payload = run_cli(capsys, "bar", "--trunc", "2", "m52")
    assert code == 0
    assert payload["homology"]["1"] == [1, []]


def test_cli_bar_full_compares_the_three_terms(capsys):
    code, payload = run_cli(capsys, "bar", "--full", "--trunc", "2", "c1")
    assert code == 0
    assert payload["pi0"] == {"left": 1, "middle": 1, "right": 1}
    assert payload["homology"] == {term: {"0": [1, []], "1": [1, []]}
                                   for term in ("left", "middle", "right")}
    assert payload["map_iso"] == {"middle_to_left": True, "middle_to_right": True}
    assert payload["stable"] is True


def test_cli_bar_refusal_renders_the_flatness_witness_as_json(capsys):
    code, payload = run_cli(capsys, "bar", "--full", "--deg", "0", "--trunc", "2", "z")
    assert code == 2
    prefix = "carrier is not flat: "
    assert payload["error"].startswith(prefix)
    witness = json.loads(payload["error"][len(prefix):])
    assert witness == {"dim": 0, "kind": "intersection", "triple": [1, 0, 1]}
    assert payload["error"][len(prefix):] == json.dumps(witness, sort_keys=True)


@pytest.mark.parametrize("model", ["f01", "f\u0661", "f0", "f", "f+1", "f 1", "f1\n", "F1"],
                         ids=["leading-zero", "arabic-indic-digit", "zero", "no-digits", "sign",
                              "space", "newline", "capital"])
def test_cli_free_models_are_f_and_a_positive_ascii_integer(capsys, model):
    code, payload = run_cli(capsys, "hocolim", "--trunc", "2", "--deg", "0", model)
    assert code == 2
    assert payload == {"error": f"unknown diagram model {model!r}"}


def test_cli_free_model_at_and_above_the_truncation(capsys):
    code, payload = run_cli(capsys, "hocolim", "--trunc", "2", "--deg", "0", "f2")
    assert code == 0 and payload["model"] == "f2"
    code, payload = run_cli(capsys, "hocolim", "--trunc", "2", "--deg", "0", "f10")
    assert code == 2 and payload == {"error": "generator level exceeds the truncation"}


def test_cli_gamma(capsys):
    code, payload = run_cli(capsys, "gamma", "--trunc", "2", "--K", "2", "c1")
    assert code == 0
    assert payload["special"] == "special-evidence"
    assert payload["very_special"] == "refuted"


@pytest.mark.parametrize("K", ["1", "0"])
def test_cli_gamma_below_two_is_inconclusive(capsys, K):
    code, payload = run_cli(capsys, "gamma", "--trunc", "2", "--K", K, "c1")
    assert code == 0
    assert payload["special"] == "inconclusive"
    assert payload["very_special"] == "unknown"
    assert "no pair (k, l)" in payload["detail"]["reason"]


def test_cli_gamma_negative_K_is_refused(capsys):
    # a negative size bound names no based set, so it is a malformed configuration
    code, payload = run_cli(capsys, "gamma", "--trunc", "2", "--K", "-1", "c1")
    assert code == 2
    assert payload == {"error": "based-set size bound must be nonnegative"}


def test_cli_scenario_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload = run_cli(capsys, "scenario", "--trunc", "2",
                            "--name", "c1-pi0", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == payload
    assert payload["passed"] is True


def test_cli_out_file_on_another_command(tmp_path, capsys):
    # every command but scenario writes through _emit: the printed document and a newline
    out = tmp_path / "pi0.json"
    code, payload = run_cli(capsys, "pi0", "--trunc", "2", "--out", str(out), "c1")
    assert code == 0 and payload["model"] == "c1"
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_cli_scenario_timings(capsys):
    # --timings adds each report's elapsed seconds and changes nothing else
    code, timed = run_cli(capsys, "scenario", "--trunc", "2", "--name", "c1-pi0", "--timings")
    assert code == 0
    _, plain = run_cli(capsys, "scenario", "--trunc", "2", "--name", "c1-pi0")
    [report] = timed["reports"]
    elapsed = report.pop("elapsed")
    assert isinstance(elapsed, float) and elapsed >= 0
    assert timed == plain and "elapsed" not in plain["reports"][0]


def test_registry_covers_acceptance_surfaces():
    needed = {"c1-pi0", "c1-bsigma2", "comma-contractible", "flat-suite",
              "semistable-suite", "grothendieck", "units-m52", "bar-c1",
              "gamma-c1-special", "eckmann-hilton"}
    assert needed <= set(REGISTRY)
