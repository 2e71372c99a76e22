"""Exit codes and report.json of the command-line runner, on tiny configs."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from uhfflow.algebra import WeylLabel
from uhfflow.cli import main

# The benchmark's recorded verdicts; read here, never written.
BATTERY_REFERENCE = (Path(__file__).resolve().parents[1]
                     / "bench" / "reference" / "verify_battery.json")

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


def test_evolve_assembles_one_generator_per_observable(tmp_path, monkeypatch):
    import uhfflow.lindblad as lindblad

    calls = []

    def counted(*args, _fn=lindblad.generator_matrix, **kwargs):
        calls.append(args[1])
        return _fn(*args, **kwargs)

    monkeypatch.setattr(lindblad, "generator_matrix", counted)
    config = EVOLVE.replace("x = 1 0 ; 0:1,0 1:0,1", "x = 1 0 ; 0:1,0 1:0,1\ny = 1 0 ; 1:1,1")
    res = _invoke(tmp_path, ["evolve"], config)
    assert res.exit_code == 0, res.output
    # evolve.unitality reads the observables' window matrices: no identity solve.
    assert len(calls) == 2
    verdicts = _report(tmp_path)["verdicts"]
    assert verdicts[-1]["name"] == "evolve.unitality" and verdicts[-1]["value"] == 0.0


def test_identity_image_fails_unitality(tmp_path, monkeypatch):
    import scipy.sparse

    from uhfflow.kernel import WindowKernel

    generator = WindowKernel.generator

    def planted(self, members):
        # A nonzero entry in the identity's column: L_W(1) != 0.
        mat, leak = generator(self, members)
        plant = scipy.sparse.csr_matrix(([1e-6], ([1], [self.index[WeylLabel.identity()]])),
                                        shape=mat.shape)
        return mat + plant, leak

    monkeypatch.setattr(WindowKernel, "generator", planted)
    res = _invoke(tmp_path, ["evolve"], EVOLVE)
    assert res.exit_code == 1, res.output
    unitality = _report(tmp_path)["verdicts"][-1]
    assert unitality["name"] == "evolve.unitality" and not unitality["passed"]
    assert unitality["value"] == pytest.approx(1e-6)


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


def test_unknown_method_exits_2(tmp_path):
    res = _invoke(tmp_path, ["evolve"], EVOLVE + "method = bogus\n")
    assert res.exit_code == 2
    assert "config error: [run] method: must be ode, got 'bogus'" in res.output
    assert not (tmp_path / "out" / "report.json").exists()


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
    # Both orientations, the shifted problem, and the two diagonal pairs of
    # the two-member contraction family (its pair (u, f; v, g) at t = 0.5 is
    # read from the forward solve); one pair solve for every pair.
    assert calls == {"flow_element": 5, "pair_element": 1}
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


# Partial-state decay of two observables and the perturbed semigroup at
# two weights; y's fitted rate is one of the known default-seed FAILs.
ERGODICITY = """\
[algebra]
n = 2
d = 1
[generator]
kind = partial_state
rho = 0.7 0 0.1 0 ; 0.1 0 0.3 0
kraus = 1 0 ; 0:1,0
[observables]
x = 1 0 ; 0:1,0
y = 1 0 ; 0:0,1 1:1,0
[run]
t_grid = linspace 0 3 7
c_values = 0 0.5
"""


# One case per schema error; each is caught before any computation and
# named by section and field.
SCHEMA_ERRORS = {
    "site": ("evolve", EVOLVE.replace("window = 0 1", "window = 0 a"),
             "[run] window: bad site 'a'"),
    "window_support": ("evolve", EVOLVE.replace("window = 0 1", "window = 0"),
                       "[run] window: misses observable 'x'"),
    "flow_window_support": ("flow", FLOW.replace("pairs = x,y", "pairs = x,y\nwindow = 0"),
                            "[run] window: misses observable 'y'"),
    "rho": ("evolve", EVOLVE.replace("0.3 0\n", "0.9 0\n"),
            "[generator] rho: invalid density matrix"),
    "t_grid": ("evolve", EVOLVE.replace("t_grid = 0 0.5 1", "t_grid = 0 1 0.5"), "[run] t_grid:"),
    "modes": ("flow", FLOW.replace("0/0: 0.5 0, 0.25 0", "0/0: 0.5 0"),
              "[modes.f] modes: mode '0/0'"),
    "closure": ("evolve", EVOLVE + "closure = open\n", "[run] closure:"),
    "c_values": ("ergodicity", ERGODICITY.replace("c_values = 0 0.5", "c_values = 0 -0.5"),
                 "[run] c_values: must be >= 0, got -0.5"),
    "instances": ("lemma", LEMMA_FAIL.replace("instances = 20", "instances = many"),
                  "[run] instances: expected one int, got 'many'"),
    "n_max": ("lemma", LEMMA_FAIL.replace("n_max = 2", "n_max = 4"),
              "[run] n_max: must be in 1..3, got 4"),
    "n_max_zero": ("lemma", LEMMA_FAIL.replace("n_max = 2", "n_max = 0"),
                   "[run] n_max: must be in 1..3, got 0"),
    "pairs": ("flow", FLOW.replace("pairs = x,y", "pairs = x,z"),
              "[run] pairs: each pair must name two observables: 'x,z'"),
    "shift": ("flow", FLOW.replace("shift = 1", "shift = right"), "[run] shift: bad site 'right'"),
    "contraction_t": ("flow", FLOW.replace("contraction_t = 0.5", "contraction_t = -0.5"),
                      "[run] contraction_t: must be >= 0, got -0.5"),
    "method_exact": ("evolve", EVOLVE + "method = exact\n",
                     "[run] method: must be ode, got 'exact'"),
    "method_series": ("evolve", EVOLVE + "method = series\n",
                      "[run] method: must be ode, got 'series'"),
    "member": ("flow", FLOW.replace("0/0: 0.5 0", "0/1: 0.5 0"),
               "[modes.f] modes: mode '0/1': the generator has no Kraus member 1"),
    "tol": ("evolve", EVOLVE + "tol = 0\n", "[run] tol: must be > 0"),
    "unknown_key": ("flow", FLOW.replace("contraction_t", "contraction_time"),
                    "[run] contraction_time: unknown key"),
    "shared_grid": ("flow", FLOW + "[modes.g]\ngrid = 2 2\nmodes =\n    1/0: 0.5 0, 0 1\n",
                    "[modes.g] grid: must equal [modes.f] grid (1 2)"),
    "lemma_kind": ("lemma", ERGODICITY,
                   "[generator] kind: lemma suites need a single-operator translation family"),
    "lemma_kraus": ("lemma", LEMMA_FAIL.replace("kraus = 1 0 ; 0:1,0 1:1,0 | 1 0 ; 0:0,1",
                                                "kraus = 1 0 ; 0:1,0\n    1 0 ; 0:0,1"),
                    "[generator] kraus: lemma suites need a single-operator translation family"),
    "ergodicity_rho": ("ergodicity", LEMMA_FAIL,
                       "[generator] rho: ergodicity needs a partial-state rho"),
    "evolve_observables": ("evolve", EVOLVE.replace("[observables]\nx = 1 0 ; 0:1,0 1:0,1\n", ""),
                           "[observables]: evolve needs at least one observable"),
    "flow_observables": ("flow", FLOW.replace("pairs = x,y\n", "").replace(
        "[observables]\nx = 2 0 ; 0:0,1\ny = 1 0 ; 1:1,0\n", ""),
        "[observables]: flow needs at least one observable"),
    "ergodicity_observables": ("ergodicity", ERGODICITY.replace(
        "[observables]\nx = 1 0 ; 0:1,0\ny = 1 0 ; 0:0,1 1:1,0\n", ""),
        "[observables]: ergodicity needs at least one observable"),
}


@pytest.mark.parametrize("case", SCHEMA_ERRORS)
def test_config_schema_error_exits_2(tmp_path, case):
    command, config, where = SCHEMA_ERRORS[case]
    res = _invoke(tmp_path, [command], config)
    assert res.exit_code == 2, res.output
    assert f"config error: {where}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["shift", "pairs", "contraction_t", "member",
                                  "window_support", "flow_window_support",
                                  "evolve_observables", "flow_observables",
                                  "ergodicity_observables"])
def test_config_error_comes_before_any_solve(tmp_path, monkeypatch, case):
    import uhfflow.fock as fock
    import uhfflow.lindblad as lindblad

    def solve(*_args, **_kwargs):
        raise AssertionError("solved before the config was checked")

    monkeypatch.setattr(fock, "flow_element", solve)
    monkeypatch.setattr(lindblad, "evolve", solve)
    command, config, where = SCHEMA_ERRORS[case]
    res = _invoke(tmp_path, [command], config)
    assert res.exit_code == 2, res.output
    assert f"config error: {where}" in res.output




def _tables(tmp_path):
    return {path.name: path.read_text().splitlines()
            for path in sorted((tmp_path / "out" / "results").glob("*.csv"))}


def test_ergodicity_report(tmp_path):
    res = _invoke(tmp_path, ["ergodicity"], ERGODICITY)
    assert res.exit_code in (0, 1), res.output
    report = _report(tmp_path)
    assert report["command"] == "ergodicity"
    assert [v["name"] for v in report["verdicts"]] == [
        f"ergodicity.{name}.{check}" for name in ("x", "y")
        for check in ("rate", "r2", "perturbed_c0", "rates_positive", "rates_nonincreasing")]
    assert report["passed"] == all(v["passed"] for v in report["verdicts"])
    out = tmp_path / "out" / "results"
    assert report["outputs"] == [str(out / "ergodicity.csv"), str(out / "perturbed_rates.csv")]
    tables = _tables(tmp_path)
    assert tables["ergodicity.csv"][0] == "observable,phi_re,phi_im,rate,r2"
    assert [row.split(",")[0] for row in tables["ergodicity.csv"][1:]] == ["x", "y"]
    assert tables["perturbed_rates.csv"][0] == "observable,c,rate,r2"
    assert [row.split(",")[:2] for row in tables["perturbed_rates.csv"][1:]] == [
        ["x", "0"], ["x", "0.5"], ["y", "0"], ["y", "0.5"]]


def test_lemma_report(tmp_path):
    config = LEMMA_FAIL.replace("instances = 20", "instances = 6")
    res = _invoke(tmp_path, ["lemma"], config)
    assert res.exit_code in (0, 1), res.output
    report = _report(tmp_path)
    assert report["command"] == "lemma"
    assert [v["name"] for v in report["verdicts"]] == ["lemma.identity_defect", "lemma.bounds"]
    assert report["verdicts"][1]["note"] == "6 instances"
    assert report["outputs"] == [str(tmp_path / "out" / "results" / "lemma.csv")]
    rows = _tables(tmp_path)["lemma.csv"]
    assert rows[0] == "instance,observable,mode,n,lhs,rhs"
    assert [row.split(",")[0] for row in rows[1:]] == [str(i) for i in range(6)]
    assert {row.split(",")[2] for row in rows[1:]} <= {"pure", "mixed"}


def test_selftest_battery_passes(tmp_path):
    res = _invoke(tmp_path, ["selftest"])
    assert res.exit_code == 0, res.output
    verdicts = _report(tmp_path)["verdicts"]
    assert [v["name"] for v in verdicts if not v["passed"]] == []
    recorded = json.loads(BATTERY_REFERENCE.read_text())["selftest"]["verdicts"]
    assert sorted(v["name"] for v in verdicts) == sorted(recorded)
