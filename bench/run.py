"""uhfflow benchmark: CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload evolve_window --seed 1 --seconds 30 --trace 0

The program under test is the ``uhfflow`` package in ``src/`` of the same
checkout, driven in-process through its public CLI (``uhfflow.cli.main``).
One run sets up (imports, config generation and parsing, one-time
caches) several times and reports the median as ``setup_s``, then
repeats *passes* over the workload's jobs for about ``--seconds``.  The
import and untraced pass times are scaled to reference speed by a speed
probe that samples the machine while they run (see ``calibrate.py``).  Each
pass is gated for correctness (see ``gate.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (jobs), and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

``--record-reference`` runs one pass at the default seed and stores its
outputs as the reference the gate compares against.  See README.md for
the workloads, the metrics and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

# One BLAS thread, whatever the caller's environment: every run measures
# the same single-threaded configuration, which on a shared machine is
# also the steadiest.  The count in effect is recorded in the output.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import gate  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Job, make_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); from calibrate import SpeedProbe\n"
    "with SpeedProbe() as probe:\n"
    "    t = time.perf_counter(); import uhfflow.cli; t = time.perf_counter() - t\n"
    "print(probe.normalised(t))"
)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable uhfflow package under src/."""


def load_program():
    """Import uhfflow from ``src/`` of this checkout, and nowhere else."""
    if not (SRC / "uhfflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no uhfflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uhfflow.cli

    if not Path(uhfflow.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"uhfflow imported from {uhfflow.__file__}, not {SRC}")
    return uhfflow


# -- environment ---------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count of each bundled OpenBLAS (numpy's and scipy's)."""
    out = {}
    for pkg in ("numpy", "scipy"):
        spec = sys.modules.get(pkg)
        if spec is None:
            continue
        libdir = Path(spec.__file__).resolve().parent.parent / f"{pkg}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    out[pkg] = int(getattr(lib, fn)())
                    break
    return out


def environment() -> dict:
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "versions": versions,
        "machine": platform.machine(),
    }


# -- set-up ----------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter, at reference speed.

    Interpreter start-up is excluded.  The speed probe runs in the child,
    so it samples the same process as the import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE)], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def prepare(program, workload: str, seed: int, work: Path):
    """Generate, write and parse the configs; reset and fill one-time caches."""
    jobs = make_jobs(workload, seed)
    paths = []
    Ns = set()
    for job in jobs:
        if job.config is None:
            paths.append(None)
            continue
        path = work / "configs" / f"{job.name}.ini"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(job.config)
        paths.append(path)
        Ns.add(program.config.load_config(path).params.N)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("uhfflow"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    clock_shift = getattr(program.dense, "clock_shift", None)
    if clock_shift is not None:
        for N in sorted(Ns):
            clock_shift(N)
    return jobs, paths


def setup(program, workload: str, seed: int, work: Path):
    """Set up SETUP_REPEATS times; return the median time, jobs and configs.

    A set-up is the import at reference speed plus the preparation of
    the configs, a few milliseconds timed as they are.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        jobs, paths = prepare(program, workload, seed, work)
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), jobs, paths


# -- passes ------------------------------------------------------------------------


def invoke(program, job: Job, config: Path | None, out_dir: Path):
    """Run one CLI job in-process; returns (exit code or None, error or None)."""
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            program.cli.main.main(args=job.argv(config, out_dir), prog_name="uhfflow",
                                  standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return code, None
    except Exception as exc:  # noqa: BLE001 - a raising job is a failed job, keep going
        return None, f"{type(exc).__name__}: {exc}"
    return 0, None


def run_pass(program, jobs, paths, work: Path, seed: int, tracer: Tracer | None = None,
             first_job_id: int = 0, probe: SpeedProbe | None = None):
    """One pass over the jobs; returns (wall seconds, [(code, error, out_dir)]).

    With ``probe``, the speed probe samples the machine throughout the
    pass; its samples are inside the returned wall time.
    """
    dirs = [work / "out" / job.name for job in jobs]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    results = []
    with (tracer.installed() if tracer else contextlib.nullcontext(),
          probe if probe else contextlib.nullcontext()):
        t0 = time.perf_counter()
        for i, (job, config, out_dir) in enumerate(zip(jobs, paths, dirs)):
            # scipy's onenormest (inside expm_multiply) draws from the global RNG.
            np.random.seed(seed % 2**32)
            with tracer.job(first_job_id + i) if tracer else contextlib.nullcontext():
                code, error = invoke(program, job, config, out_dir)
            results.append((code, error, out_dir))
        wall = time.perf_counter() - t0
    return wall, results


# -- per-layer metrics -----------------------------------------------------------------


def layer_metrics(tracer: Tracer, job_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the jobs ``job_ids``)."""
    job_ids = set(job_ids)
    spans = [sp for sp in tracer.spans if sp.job in job_ids]
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def outermost(sp) -> bool:
        p = sp.parent
        while p >= 0:
            if tracer.spans[p].name == sp.name:
                return False
            p = tracer.spans[p].parent
        return True

    def incl(name):
        return sum(sp.duration for sp in by_name[name] if outermost(sp))

    def self_s(name):
        return sum(sp.self_time for sp in by_name[name])

    def calls(name):
        return len(by_name[name])

    def light(name, field):
        return sum(vals[field] for (job, n), vals in tracer.light.items()
                   if n == name and job in job_ids)

    def count(name):
        return sum(v for (job, n), v in tracer.counts.items() if n == name and job in job_ids)

    def attr_max(name, key):
        return max([sp.attrs[key] for sp in by_name[name] if sp.attrs and key in sp.attrs],
                   default=0)

    def distinct_frac(name):
        keys = [sp.attrs["key"] for sp in by_name[name] if sp.attrs and "key" in sp.attrs]
        return len(set(keys)) / len(keys) if keys else 1.0

    return {
        "algebra.mul.calls": light("algebra.mul", 0),
        "algebra.mul.s": light("algebra.mul", 1),
        "algebra.weyl_mul.calls": count("algebra.weyl_mul"),
        "lindblad.generator_matrix.s": incl("lindblad.generator_matrix"),
        "lindblad.generator_matrix.calls": calls("lindblad.generator_matrix"),
        "lindblad.generator_matrix.distinct_frac": distinct_frac("lindblad.generator_matrix"),
        "lindblad.truncation_rates.s": incl("lindblad.truncation_rates"),
        "lindblad.evolve.self_s": self_s("lindblad.evolve"),
        "lindblad.lemma.s": incl("lindblad.lemma_bound_report")
        + incl("lindblad.leibniz_expansion_check"),
        "lindblad.basis_dim": attr_max("lindblad.generator_matrix", "basis_dim"),
        "lindblad.generator_nnz": attr_max("lindblad.generator_matrix", "nnz"),
        "dense.superoperator.s": incl("dense.superoperator"),
        "dense.superoperator.calls": calls("dense.superoperator"),
        "dense.superoperator.distinct_frac": distinct_frac("dense.superoperator"),
        "dense.expm_evolve.s": incl("dense.expm_evolve"),
        "dense.expm_evolve.calls": calls("dense.expm_evolve"),
        "dense.operator_norm.s": light("dense.operator_norm", 1),
        "dense.operator_norm.calls": light("dense.operator_norm", 0),
        "fock.build_generator_system.s": incl("fock.build_generator_system"),
        "fock.build_generator_system.calls": calls("fock.build_generator_system"),
        "fock.build_generator_system.distinct_frac": distinct_frac("fock.build_generator_system"),
        "fock.pair_element.self_s": self_s("fock.pair_element"),
        "fock.pair_dim": attr_max("fock.pair_element", "pair_dim"),
        "fock.noise_modes": attr_max("fock.build_generator_system", "noise_modes"),
        "fock.expm_multiply.s": incl("fock.expm_multiply"),
        "fock.expm_multiply.calls": calls("fock.expm_multiply"),
        "fock.flow_element.self_s": self_s("fock.flow_element"),
        "config.load_config.s": incl("config.load_config"),
        "cli.self_s": self_s(ROOT_SPAN),
    }


def time_tables(tracer: Tracer, job_ids) -> dict[str, dict[str, float]]:
    """Self and inclusive seconds by span name (light targets included)."""
    job_ids = set(job_ids)
    self_s, incl_s = defaultdict(float), defaultdict(float)
    for sp in tracer.spans:
        if sp.job in job_ids:
            self_s[sp.name] += sp.self_time
            incl_s[sp.name] += sp.duration
    for (job, name), (_calls, incl, self_) in tracer.light.items():
        if job in job_ids:
            self_s[name] += self_
            incl_s[name] += incl
    ranked = lambda table: dict(sorted(table.items(), key=lambda kv: -kv[1]))  # noqa: E731
    return {"self_s_by_span": ranked(self_s), "inclusive_s_by_span": ranked(incl_s)}


# -- the run ---------------------------------------------------------------------------


def _unit(name: str) -> str:
    if name.endswith("distinct_frac") or name == "failed_frac":
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def measure(program, workload: str, seed: int, seconds: float, trace: bool, work: Path):
    setup_s, jobs, paths = setup(program, workload, seed, work)
    checker = gate.Gate(workload, seed)
    tracer = Tracer() if trace else None
    walls = {False: [], True: []}
    normalised = []
    probe_units = []
    layer = []
    last_traced = range(0)
    started = time.perf_counter()
    # Untraced passes only; with tracing, untraced and traced passes alternate.
    i = 0
    while True:
        traced = trace and i % 2 == 1
        jobs_ids = range(i * len(jobs), (i + 1) * len(jobs))
        probe = None if trace else SpeedProbe()
        wall, results = run_pass(program, jobs, paths, work, seed,
                                 tracer if traced else None, jobs_ids.start, probe)
        walls[traced].append(wall)
        if probe is not None:
            probe_units.append(probe.unit_seconds())
            normalised.append(probe.normalised(wall))
        checker.check(jobs, results)
        if traced:
            layer.append(layer_metrics(tracer, jobs_ids))
            last_traced = jobs_ids
        i += 1
        nxt = trace and i % 2 == 1
        if walls[nxt] and (walls[True] or not trace):
            if time.perf_counter() - started + statistics.median(walls[nxt]) > seconds:
                break
    failed_frac = checker.failed / checker.attempted
    summary = {
        "workload": workload, "seed": seed, "passes": {str(k): v for k, v in walls.items() if v},
        "setup_s": setup_s, "failed_jobs": checker.failed, "problems": checker.problems[:20],
        "verdicts_failed_per_pass": checker.verdicts_failed,
        "normalised_walls": normalised, "probe_unit_s": probe_units,
    }
    if not trace:
        metrics = {
            "wall_s": statistics.median(normalised),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["failed_frac"] = failed_frac
        metrics["verdicts_failed"] = statistics.median(checker.verdicts_failed)
        units = {k: _unit(k) for k in metrics}
        summary.update(time_tables(tracer, last_traced))
        summary["missing_targets"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload}-{seed}.json",
                    {"summary": summary, "environment": environment()})
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, summary


def record_reference(program, workload: str, work: Path):
    jobs, paths = prepare(program, workload, DEFAULT_SEED, work)
    _wall, results = run_pass(program, jobs, paths, work, DEFAULT_SEED)
    reference = {}
    for job, (code, error, out_dir) in zip(jobs, results):
        if error is not None or code not in (0, 1):
            raise RuntimeError(f"{job.name}: cannot record a failing job ({error or code})")
        reference[job.name] = gate.read_outputs(out_dir)
    gate.REFERENCE.mkdir(exist_ok=True)
    with open(gate.REFERENCE / f"{workload}.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default seed's outputs as the gate's reference")
    args = parser.parse_args(argv)
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(program, args.workload, work)
            return 0
        result, summary = measure(program, args.workload, args.seed, args.seconds,
                                  bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
