"""Exit codes and report.json of the command-line runner, on tiny configs."""

import json

import pytest
from click.testing import CliRunner

from uhfflow.cli import main

# Partial-state evolution on a 2-site window: every verdict passes.
EVOLVE = """\
[algebra]
n = 2
d = 1
[generator]
kind = partial_state
rho = 0.7 0 0.1 0 ; 0.1 0 0.3 0
[observables]
x = 1 0 ; 0:1,0 1:0,1
[run]
t_grid = 0 0.5 1
window = 0 1
"""

# r = sx(x)sx + sz: its translates do not commute, and the iterated Leibniz
# expansion of sx under L_1 L_0 misses by 4, so lemma.identity_defect FAILs.
LEMMA_FAIL = """\
[algebra]
n = 2
d = 1
[generator]
kind = translation_covariant
kraus = 1 0 ; 0:1,0 1:1,0 | 1 0 ; 0:0,1
[observables]
x = 1 0 ; 0:1,0
[run]
instances = 20
n_max = 2
"""


def _invoke(tmp_path, args, config=None):
    argv = list(args)
    if config is not None:
        path = tmp_path / "run.ini"
        path.write_text(config)
        argv += ["--config", str(path)]
    return CliRunner().invoke(main, argv + ["--out", str(tmp_path / "out")])


def _report(tmp_path):
    return json.loads((tmp_path / "out" / "report.json").read_text())


def test_passing_run_exits_0(tmp_path):
    res = _invoke(tmp_path, ["evolve"], EVOLVE)
    assert res.exit_code == 0, res.output
    report = _report(tmp_path)
    assert set(report) == {"command", "config_digest", "seed", "outputs", "verdicts",
                           "wall_time_s", "passed"}
    assert report["command"] == "evolve" and report["passed"] is True
    assert [v["name"] for v in report["verdicts"]] == [
        "evolve.x.oracle", "evolve.x.closed_form", "evolve.unitality"]
    assert set(report["verdicts"][0]) == {"name", "passed", "value", "threshold", "note"}
    assert (tmp_path / "out" / "results" / "evolve_x.csv").exists()


def test_failed_verdict_exits_1(tmp_path):
    res = _invoke(tmp_path, ["lemma"], LEMMA_FAIL)
    assert res.exit_code == 1, res.output
    verdicts = {v["name"]: v for v in _report(tmp_path)["verdicts"]}
    assert not verdicts["lemma.identity_defect"]["passed"]
    assert verdicts["lemma.bounds"]["passed"]
    assert "[FAIL] lemma.identity_defect" in res.output


def test_missing_section_exits_2(tmp_path):
    config = EVOLVE.replace("[algebra]\nn = 2\nd = 1\n", "")
    res = _invoke(tmp_path, ["evolve"], config)
    assert res.exit_code == 2
    assert "algebra" in res.output
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command", ["evolve", "ergodicity", "flow", "lemma"])
def test_jobs_is_a_usage_error(tmp_path, command):
    res = _invoke(tmp_path, [command, "--jobs", "2"], EVOLVE)
    assert res.exit_code == 2
    assert "--jobs" in res.output


def test_unknown_method_exits_3(tmp_path):
    res = _invoke(tmp_path, ["evolve"], EVOLVE + "method = bogus\n")
    assert res.exit_code == 3
    assert "bogus" in res.output
