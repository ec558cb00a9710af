import concurrent.futures
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


def test_scenario_skips_below_minimum_truncation():
    r = run_scenario("semistable-suite", RunConfig(trunc=1))
    assert all(c["verdict"] == "skipped" for c in r.checks)
    assert r.passed()


def test_flat_suite_skips_the_collapsing_checks_at_truncation_one():
    # collapsing_ispace(1) has no level 2, where its two points would merge
    r = run_scenario("flat-suite", RunConfig(trunc=1))
    skipped = [c["name"] for c in r.checks if c["verdict"] == "skipped"]
    assert skipped == ["nonflat-collapsing", "witness-replays"]
    assert r.passed()


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


def test_cli_bar_summary(capsys):
    code, payload = run_cli(capsys, "bar", "--trunc", "2", "m52")
    assert code == 0
    assert payload["homology"]["1"] == [1, []]


def test_cli_gamma(capsys):
    code, payload = run_cli(capsys, "gamma", "--trunc", "2", "--K", "2", "c1")
    assert code == 0
    assert payload["special"] == "special-evidence"
    assert payload["very_special"] == "refuted"


def test_cli_scenario_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload = run_cli(capsys, "scenario", "--trunc", "2",
                            "--name", "c1-pi0", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == payload
    assert payload["passed"] is True


def test_registry_covers_acceptance_surfaces():
    needed = {"c1-pi0", "c1-bsigma2", "comma-contractible", "flat-suite",
              "semistable-suite", "grothendieck", "units-m52", "bar-c1",
              "gamma-c1-special", "eckmann-hilton"}
    assert needed <= set(REGISTRY)
