"""Tests of the benchmark harness itself (tracer, gate, run contract).

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, make_jobs  # noqa: E402

PROGRAM = run.load_program()


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """verify_battery at the default seed: an untraced and a traced pass."""
    work = tmp_path_factory.mktemp("battery")
    jobs, paths = run.prepare(PROGRAM, "verify_battery", DEFAULT_SEED, work)
    before = Tracer.targets()
    seen = []
    invoke = run.invoke

    def spying_invoke(*args):
        seen.append(Tracer.targets())
        return invoke(*args)

    run.invoke = spying_invoke
    try:
        wall_plain, results = run.run_pass(PROGRAM, jobs, paths, work, DEFAULT_SEED)
        plain_seen = list(seen)
        seen.clear()
        tracer = Tracer()
        wall_traced, _ = run.run_pass(PROGRAM, jobs, paths, work, DEFAULT_SEED, tracer)
    finally:
        run.invoke = invoke
    return {
        "jobs": jobs, "results": results, "tracer": tracer, "before": before,
        "plain_seen": plain_seen, "traced_seen": list(seen), "after": Tracer.targets(),
        "overhead": wall_traced - wall_plain,
    }


def test_spans_nest_inside_parents(battery):
    spans = battery["tracer"].spans
    assert spans
    for sp in spans:
        if sp.parent < 0:
            assert sp.name == ROOT
            continue
        parent = spans[sp.parent]
        assert parent.job == sp.job
        assert parent.start <= sp.start <= sp.end <= parent.end


def test_self_times_sum_to_job_time(battery):
    tracer = battery["tracer"]
    tolerance = abs(battery["overhead"]) + 1e-9
    for root in (sp for sp in tracer.spans if sp.parent < 0):
        total = sum(sp.self_time for sp in tracer.job_spans(root.job))
        for (job, _name), (_calls, _incl, self_) in tracer.light.items():
            if job == root.job:
                assert self_ >= -1e-12
                total += self_
        assert all(sp.self_time >= -1e-12 for sp in tracer.job_spans(root.job))
        assert abs(total - root.duration) <= tolerance


def test_untraced_run_leaves_attributes_unwrapped(battery):
    before = battery["before"]
    assert all(v is not None for v in before.values()), "a tracer target is missing"
    assert battery["plain_seen"] and all(s == before for s in battery["plain_seen"])
    assert battery["after"] == before
    # The traced pass did replace every target.
    for snapshot in battery["traced_seen"]:
        assert all(snapshot[k] is not before[k] for k in before)


def _checked(battery, reference):
    checker = gate.Gate("verify_battery", DEFAULT_SEED)
    checker.reference = reference
    checker.check(battery["jobs"], battery["results"])
    return checker


def test_reference_matches_program(battery):
    checker = _checked(battery, gate.load_reference("verify_battery"))
    assert checker.failed == 0, checker.problems
    assert checker.verdicts_failed == [5]


def test_perturbed_reference_trips_failed_frac(battery):
    reference = gate.load_reference("verify_battery")

    bad_csv = copy.deepcopy(reference)
    table = bad_csv["lemma_n2"]["tables"]["lemma.csv"]
    col = table["header"].index("lhs")
    table["rows"][0][col] = repr(float(table["rows"][0][col]) * (1 + 1e-3))
    checker = _checked(battery, bad_csv)
    assert checker.failed == 1 and checker.failed / checker.attempted > 0

    bad_verdict = copy.deepcopy(reference)
    verdict = bad_verdict["ergodicity_n2"]["verdicts"]["ergodicity.x.rate"]
    verdict["value"] += 10 * verdict["threshold"]
    assert _checked(battery, bad_verdict).failed == 1


def test_newly_failing_verdict_trips_failed_frac_at_any_seed(battery):
    # At a seed other than the default only structure and passing
    # verdicts are checked: a verdict that passes in the reference and
    # FAILs now fails its job.  Here the program's FAIL of
    # rates_nonincreasing is made to pass in the reference.
    reference = gate.load_reference("verify_battery")
    seed = DEFAULT_SEED + 1
    checker = gate.Gate("verify_battery", seed)
    checker.reference = reference
    checker.check(battery["jobs"], battery["results"])
    assert checker.failed == 0, checker.problems

    flipped = copy.deepcopy(reference)
    flipped["ergodicity_n2"]["verdicts"]["ergodicity.x.rates_nonincreasing"]["passed"] = True
    checker = gate.Gate("verify_battery", seed)
    checker.reference = flipped
    checker.check(battery["jobs"], battery["results"])
    assert checker.failed == 1 and checker.failed / checker.attempted > 0
    assert checker.verdicts_failed == [5]


def test_bound_type_verdict_is_pinned():
    reference = gate.load_reference("flow_pair")["flow_n2_w4"]
    assert gate.compare(reference, reference) == []
    moved = copy.deepcopy(reference)
    moved["verdicts"]["flow.contraction.x"]["value"] *= 1.1
    assert gate.compare(moved, reference)


def test_inflated_error_column_does_not_widen_tolerance():
    ref = {"header": ["t", "label", "re", "im", "err"],
           "rows": [["0.5", "x", "1.0", "0", "1e-6"]]}
    new = {"header": ref["header"], "rows": [["0.5", "x", "1.5", "0", "1.0"]]}
    problems = gate.compare_tables("x.csv", new, ref)
    assert any(".re:" in p for p in problems) and any(".err:" in p for p in problems)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    names = set(run.layer_metrics(tracer, range(0)))
    names |= {"trace.overhead_s", "failed_frac", "verdicts_failed"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert all(run._unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_workload_shapes_do_not_depend_on_seed():
    for workload in run.WORKLOADS:
        a, b = make_jobs(workload, 1), make_jobs(workload, 2)
        assert [(j.name, j.command) for j in a] == [(j.name, j.command) for j in b]
        assert make_jobs(workload, 1) == a


def test_gate_reads_missing_rows_as_zero():
    ref = {"header": ["t", "label", "re", "im", "err"],
           "rows": [["0", "a", "1e-16", "0", "1e-9"], ["0", "b", "0.5", "0", "1e-9"]]}
    new = {"header": ref["header"], "rows": [["0", "b", "0.5", "0", "1e-9"]]}
    assert gate.compare_tables("x.csv", new, ref) == []
    new["rows"][0][2] = "0.6"
    assert gate.compare_tables("x.csv", new, ref)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_during_a_pass_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            calibrate.probe_unit()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.count >= 3
    assert 0 < probe.sampled < probe.total < 0.3
    unit = probe.unit_seconds()
    assert probe.normalised(1.0) == pytest.approx((1.0 - probe.total) * calibrate.REF_UNIT_S / unit)
    # A machine twice as slow doubles both the pass and the unit time:
    # the normalised time does not move.
    probe.total, probe.sampled = 2 * probe.total, 2 * probe.sampled
    assert probe.normalised(2.0) == pytest.approx((1.0 - probe.total / 2) * calibrate.REF_UNIT_S / unit)
    assert calibrate.SpeedProbe().normalised(1.5) == 1.5
