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


# Two observables on a single-site Kraus family: the default window is
# their bounding box, sites 0 and 1.  x = 2 sz has l1 norm 2, y = sx has 1.
FLOW = """\
[algebra]
n = 2
d = 1
[generator]
kind = translation_covariant
kraus = 1 0 ; 0:1,0
[observables]
x = 2 0 ; 0:0,1
y = 1 0 ; 1:1,0
[modes.f]
grid = 1 2
modes =
    0/0: 0.5 0, 0.25 0
[run]
t_grid = 0 0.5 1
pairs = x,y
shift = 1
contraction_t = 0.5
"""


def test_flow_report_solves_once(tmp_path, monkeypatch):
    import uhfflow.fock as fock

    calls = {"flow_element": 0, "pair_element": 0}
    for name in calls:
        def counted(*args, _fn=getattr(fock, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fock, name, counted)
    res = _invoke(tmp_path, ["flow"], FLOW)
    assert res.exit_code == 0, res.output
    assert [v["name"] for v in _report(tmp_path)["verdicts"]] == [
        "flow.unitality", "flow.x.adjoint_symmetry", "flow.y.adjoint_symmetry",
        "flow.homomorphism.x,y", "flow.pair_consistency.x,y",
        "flow.covariance.x", "flow.covariance.y",
        "flow.contraction.x", "flow.contraction_positive.x",
        "flow.contraction.y", "flow.contraction_positive.y"]
    # Both orientations, the shifted problem, and the three pairs of the
    # two-member contraction family; one pair solve for every pair.
    assert calls == {"flow_element": 6, "pair_element": 1}
    # The err column is l1(x) times the per-string estimate.
    rows = {name: (tmp_path / "out" / "results" / f"flow_{name}.csv").read_text()
            .splitlines()[1:] for name in ("x", "y")}
    for row_x, row_y in zip(rows["x"], rows["y"]):
        assert float(row_x.split(",")[-1]) == 2 * float(row_y.split(",")[-1])


def test_flow_default_window_covers_every_observable(tmp_path):
    config = FLOW.replace("y = 1 0 ; 1:1,0", "y = 1 0 ; 3:1,0")
    config = config[:config.index("[modes.f]")] + "[run]\nt_grid = 0 0.5\n"
    res = _invoke(tmp_path, ["flow"], config)
    assert res.exit_code == 0, res.output
    names = [v["name"] for v in _report(tmp_path)["verdicts"]]
    assert "flow.y.vacuum_reduction" in names
