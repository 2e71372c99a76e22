"""Config-driven experiment runner: ``uhfflow <command> --config ... --out ...``.

Commands dispatch to the engine modules and write ``results/*.csv`` plus a
``report.json`` with one pass/fail verdict per named check.  Exit codes:
0 all verdicts pass, 1 verdict failure, 2 configuration error, 3 engine
error.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import dense, fock, lindblad
from .algebra import LocalOperator, gns_inner, gns_norm, seminorm_one
from .config import ExperimentConfig, load_config
from .errors import ConfigError, UhfflowError
from .selftest import Verdict, _ge, _le, run_all

DEFAULT_OUT_ENV = "UHFFLOW_OUT"


def _write_trajectory_csv(path, grid, rows):
    """rows: iterable of (label_text, values, errs)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "label", "re", "im", "err"])
        for label, values, errs in rows:
            for t, val, err in zip(grid, values, errs):
                writer.writerow(
                    [f"{t:.17g}", label, f"{val.real:.17g}", f"{val.imag:.17g}", f"{err:.6e}"]
                )


class RunReport:
    def __init__(self, command: str, digest: str, seed: int):
        self.command = command
        self.digest = digest
        self.seed = seed
        self.outputs: list[str] = []
        self.verdicts: list[Verdict] = []
        self.started = time.time()

    def add(self, verdict: Verdict):
        self.verdicts.append(verdict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def write(self, out_dir: Path):
        payload = {
            "command": self.command,
            "config_digest": self.digest,
            "seed": self.seed,
            "outputs": self.outputs,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "wall_time_s": round(time.time() - self.started, 3),
            "passed": self.passed,
        }
        with open(out_dir / "report.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def echo(self):
        for v in self.verdicts:
            status = "PASS" if v.passed else "FAIL"
            note = f"  ({v.note})" if v.note else ""
            click.echo(f"[{status}] {v.name}: value={v.value:.3e} threshold={v.threshold:.3e}{note}")
        click.echo(f"{'ALL CHECKS PASSED' if self.passed else 'CHECK FAILURES PRESENT'}")


def _prepare_out(out: str | None) -> Path:
    out_dir = Path(out or os.environ.get(DEFAULT_OUT_ENV, "uhfflow-out"))
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    return out_dir


def _finish(report: RunReport, out_dir: Path):
    report.write(out_dir)
    report.echo()
    sys.exit(0 if report.passed else 1)


def _run_guarded(fn):
    try:
        fn()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (UhfflowError, ValueError) as exc:
        click.echo(f"engine error: {exc}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Simulation and verification engine for lattice flow semigroups."""


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path(exists=True))(fn)
    fn = click.option("--out", "out", default=None, help="output directory")(fn)
    fn = click.option("--seed", "seed", default=None, type=int, help="override config seed")(fn)
    return fn


def _load(config_path, seed) -> ExperimentConfig:
    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    return cfg


# -- evolve -------------------------------------------------------------------


@main.command("evolve")
@_common_options
def cmd_evolve(config_path, out, seed):
    """Semigroup evolution with oracle and closed-form cross-checks.

    Each observable is evolved by ``lindblad.evolve`` (the Weyl kernel and
    ``expm_multiply``).  Where the window basis is within
    ``dense.SUPEROP_DIM_GUARD``, ``evolve.<name>.oracle`` compares it with
    ``dense.hilbert_evolve``, which integrates the Heisenberg equation on
    the realized window matrices; partial-state generators also get the
    closed form, and the identity is checked to stay fixed.
    """

    def body():
        cfg = _load(config_path, seed)
        out_dir = _prepare_out(out)
        report = RunReport("evolve", cfg.digest, cfg.seed)
        L = cfg.generator
        one = LocalOperator.identity(cfg.params)

        for name, x in sorted(cfg.observables.items()):
            window = cfg.window or lindblad.default_window(L, x)
            res = lindblad.evolve(L, x, cfg.t_grid, method=cfg.method,
                                  tol=cfg.tol, window=window, closure_mode=cfg.closure)
            path = out_dir / "results" / f"evolve_{name}.csv"
            res.to_csv(path)
            report.outputs.append(str(path))
            dim = cfg.params.N ** (2 * len(window))
            if dim <= dense.SUPEROP_DIM_GUARD:
                oracle = dense.hilbert_evolve(L, dense.window(cfg.params, window), cfg.closure,
                                              cfg.t_grid, x)
                worst = max(val.sup_diff(ref) for val, ref in zip(res.values, oracle))
                report.add(_le(f"evolve.{name}.oracle", worst, max(cfg.tol * 10, 1e-9)))
            if L.kind == "partial":
                worst = max(
                    res.values[i].sup_diff(lindblad.partial_semigroup_exact(L.state, x, t))
                    for i, t in enumerate(cfg.t_grid)
                )
                report.add(_le(f"evolve.{name}.closed_form", worst,
                               1e-10 + res.error_budget.max()))

        window = cfg.window or lindblad.default_window(L, one)
        res1 = lindblad.evolve(L, one, cfg.t_grid, method=cfg.method,
                               tol=cfg.tol, window=window, closure_mode=cfg.closure)
        worst = max(v.sup_diff(one) for v in res1.values)
        report.add(_le("evolve.unitality", worst, 1e-10))
        _finish(report, out_dir)

    _run_guarded(body)


# -- ergodicity ----------------------------------------------------------------


@main.command("ergodicity")
@_common_options
def cmd_ergodicity(config_path, out, seed):
    """Decay tables, rate fits, ergodic and perturbed-ergodic states."""

    def body():
        cfg = _load(config_path, seed)
        out_dir = _prepare_out(out)
        report = RunReport("ergodicity", cfg.digest, cfg.seed)
        if cfg.state is None:
            raise ConfigError("ergodicity needs a partial-state rho", section="generator")
        state = cfg.state
        one = LocalOperator.identity(cfg.params)
        c_values = [float(v) for v in cfg.run.get("c_values", "0").split()]
        rows = []
        rate_table = {}
        for name, x in sorted(cfg.observables.items()):
            phi = lindblad.ergodic_state(state, x)
            dev = [
                lindblad.partial_semigroup_exact(state, x, t) - one * phi
                for t in cfg.t_grid
            ]
            norms = np.array([gns_norm(d) for d in dev])
            mask = norms > 1e-14
            rate = r2 = float("nan")
            if mask.sum() >= 4:
                rate, r2 = lindblad.decay_rate_fit(cfg.t_grid[mask], norms[mask], drop_frac=0.1)
                report.add(_le(f"ergodicity.{name}.rate", abs(rate - 1.0), 1e-3, f"r2={r2:.6f}"))
                report.add(Verdict(f"ergodicity.{name}.r2", r2 >= 0.999, r2, 0.999))
            rows.append((name, phi, rate, r2, norms))

            if cfg.kraus is not None:
                Ltrans = lindblad.Lindbladian.translation_covariant(cfg.kraus)
                phi0, err0 = lindblad.perturbed_ergodic_state(state, Ltrans, 0.0, x)
                report.add(_le(f"ergodicity.{name}.perturbed_c0", abs(phi0 - phi), 1e-6))
                crates = []
                for cval in c_values:
                    Lc = (lindblad.Lindbladian.partial_state(cfg.params, state) if cval == 0
                          else lindblad.Lindbladian.perturbed(cfg.params, state, cfg.kraus, cval))
                    res = lindblad.evolve(Lc, x, cfg.t_grid, method="ode", tol=min(cfg.tol, 1e-10))
                    vals = np.array([seminorm_one(vv) for vv in res.values])
                    mask = vals > 1e-14
                    if mask.sum() >= 4:
                        crate, cr2 = lindblad.decay_rate_fit(
                            cfg.t_grid[mask], vals[mask], drop_frac=0.1)
                        crates.append((cval, crate, cr2))
                if crates:
                    rate_table[name] = crates
                    report.add(Verdict(
                        f"ergodicity.{name}.rates_positive",
                        all(r > 0 for _c, r, _ in crates),
                        min(r for _c, r, _ in crates), 0.0,
                        " ".join(f"c={c_:g}:{r:.4f}" for c_, r, _ in crates),
                    ))
                    nonincreasing = all(
                        crates[i + 1][1] <= crates[i][1] + 1e-6 for i in range(len(crates) - 1)
                    )
                    report.add(Verdict(
                        f"ergodicity.{name}.rates_nonincreasing", nonincreasing,
                        max(crates[i + 1][1] - crates[i][1] for i in range(len(crates) - 1))
                        if len(crates) > 1 else 0.0,
                        1e-6,
                    ))

        path = out_dir / "results" / "ergodicity.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["observable", "phi_re", "phi_im", "rate", "r2"])
            for name, phi, rate, r2, _norms in rows:
                writer.writerow([name, f"{phi.real:.17g}", f"{phi.imag:.17g}",
                                 f"{rate:.12g}", f"{r2:.12g}"])
        report.outputs.append(str(path))
        if rate_table:
            path = out_dir / "results" / "perturbed_rates.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["observable", "c", "rate", "r2"])
                for name, crates in sorted(rate_table.items()):
                    for cval, crate, cr2 in crates:
                        writer.writerow([name, f"{cval:.17g}", f"{crate:.12g}", f"{cr2:.12g}"])
            report.outputs.append(str(path))
        _finish(report, out_dir)

    _run_guarded(body)


# -- flow ------------------------------------------------------------------------


@main.command("flow")
@_common_options
def cmd_flow(config_path, out, seed):
    """F/G trajectories with unitality, homomorphism, vacuum-reduction,
    contraction and covariance verdicts."""

    def body():
        cfg = _load(config_path, seed)
        out_dir = _prepare_out(out)
        report = RunReport("flow", cfg.digest, cfg.seed)
        L = cfg.generator
        one = LocalOperator.identity(cfg.params)
        observables = sorted(cfg.observables.items())
        xs = [x for _name, x in observables]
        window = cfg.window or lindblad.default_window(L, *xs)
        sys_ = fock.build_generator_system(L, window)
        grid = cfg.t_grid
        # One solve per orientation serves every observable, pair and check.
        fwd = fock.flow_element(sys_, cfg.u, cfg.f, cfg.v, cfg.g, grid, tol=cfg.tol)
        bwd = fock.flow_element(sys_, cfg.v, cfg.g, cfg.u, cfg.f, grid, tol=cfg.tol)

        iv = fwd.of_operator(one)
        report.add(_le("flow.unitality", float(np.abs(iv - iv[0]).max()),
                       1e-9 + float(fwd.error_of(one).max())))

        vacuum = not (cfg.f.modes or cfg.g.modes)
        for name, x in observables:
            vals, err = fwd.of_operator(x), fwd.error_of(x)
            path = out_dir / "results" / f"flow_{name}.csv"
            _write_trajectory_csv(path, grid, [(name, vals, err)])
            report.outputs.append(str(path))

            # adjoint symmetry
            dev = float(np.abs(bwd.of_operator(x.adjoint()) - np.conj(vals)).max())
            report.add(_le(f"flow.{name}.adjoint_symmetry", dev,
                           1e-8 + float((err + bwd.error_of(x.adjoint())).max())))

            if vacuum:
                res = lindblad.evolve(L, x, grid, method="ode", tol=min(cfg.tol, 1e-10),
                                      window=window, closure_mode="clipped")
                target = np.array([
                    gns_inner(cfg.u, res.values[i] * cfg.v) for i in range(len(grid))
                ])
                dev = float(np.abs(vals - target).max())
                report.add(_le(
                    f"flow.{name}.vacuum_reduction", dev,
                    1e-8 + float(err.max() + res.error_budget.max()),
                ))

        pairs = [spec.partition(",")[::2] for spec in cfg.run.get("pairs", "").split()]
        if any(name not in cfg.observables for pair in pairs for name in pair):
            raise ConfigError(f"pairs {cfg.run['pairs']!r} reference unknown observables",
                              section="run", field="pairs")
        if pairs:
            gtraj = fock.pair_element(sys_, cfg.u, cfg.f, cfg.v, cfg.g, grid, fwd, tol=cfg.tol)
            reps = fock.homomorphism_defect(
                fwd, gtraj, [(cfg.observables[xn], cfg.observables[yn]) for xn, yn in pairs])
            for (xn, yn), rep in zip(pairs, reps):
                report.add(_le(f"flow.homomorphism.{xn},{yn}", rep.defect,
                               rep.error_estimate + 1e-8))
                report.add(Verdict(f"flow.pair_consistency.{xn},{yn}", rep.consistent,
                                   0.0 if rep.consistent else 1.0, 0.0))

        shift = cfg.run.get("shift")
        if shift and L.kind == "translation":
            j = tuple(int(v) for v in shift.split(","))
            reps = fock.covariance_check(sys_, fwd, xs, cfg.u, cfg.f, cfg.v, cfg.g, j,
                                         tol=cfg.tol)
            for (name, _x), rep in zip(observables, reps):
                report.add(_le(f"flow.covariance.{name}", rep.deviation,
                               max(2 * rep.error_estimate, 1e-9)))

        t_contract = cfg.run.get("contraction_t")
        if t_contract:
            t_c = float(t_contract)
            family = [(1.0, cfg.u, cfg.f), (0.5, cfg.v, cfg.g)]
            # The pair (u, f; v, g) is the forward solve when t_c lies on its grid.
            reps = fock.contraction_check(sys_, xs, family, t_c, tol=cfg.tol,
                                          solved={(0, 1): fwd} if t_c in grid else None)
            for (name, _x), rep in zip(observables, reps):
                report.add(_le(f"flow.contraction.{name}", rep.lhs,
                               rep.rhs + rep.error + 1e-9))
                report.add(_ge(f"flow.contraction_positive.{name}", rep.lhs,
                               -(rep.error + 1e-9)))
        _finish(report, out_dir)

    _run_guarded(body)


# -- lemma -------------------------------------------------------------------------


@main.command("lemma")
@_common_options
def cmd_lemma(config_path, out, seed):
    """Iterated-derivation identity and bound suites."""

    def body():
        cfg = _load(config_path, seed)
        out_dir = _prepare_out(out)
        report = RunReport("lemma", cfg.digest, cfg.seed)
        if cfg.generator.kind != "translation" or len(cfg.generator.kraus.ops) != 1:
            raise ConfigError("lemma suites need a single-operator translation family",
                              section="generator")
        L = cfg.generator
        rng = np.random.default_rng(cfg.seed)
        instances = int(cfg.run.get("instances", "25"))
        n_max = min(int(cfg.run.get("n_max", "2")), 3)
        obs = sorted(cfg.observables.items())
        if not obs:
            raise ConfigError("lemma needs at least one observable", section="observables")
        rows = []
        worst_identity = 0.0
        bounds_ok = True
        for i in range(instances):
            name, x = obs[int(rng.integers(0, len(obs)))]
            n = int(rng.integers(1, n_max + 1))
            kbar = tuple((int(rng.integers(-1, 2)),) * cfg.params.d for _ in range(n))
            worst_identity = max(worst_identity, lindblad.leibniz_expansion_check(L, x, kbar))
            mode = ("pure", "mixed")[int(rng.integers(0, 2))]
            eps = tuple(int(rng.choice([-1, 1])) for _ in range(n))
            if mode == "mixed":
                eps = tuple(0 if rng.random() < 0.4 else e for e in eps)
            rep = lindblad.lemma_bound_report(L, x, n, mode, epsbar=eps)
            bounds_ok = bounds_ok and rep.lhs <= rep.rhs * (1 + 1e-12)
            rows.append((i, name, mode, n, rep.lhs, rep.rhs))
        report.add(_le("lemma.identity_defect", worst_identity, 1e-12))
        report.add(Verdict("lemma.bounds", bounds_ok, 0.0 if bounds_ok else 1.0, 0.0,
                           f"{instances} instances"))
        path = out_dir / "results" / "lemma.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "observable", "mode", "n", "lhs", "rhs"])
            for row in rows:
                writer.writerow(row)
        report.outputs.append(str(path))
        _finish(report, out_dir)

    _run_guarded(body)


# -- selftest -------------------------------------------------------------------------


@main.command("selftest")
@click.option("--out", "out", default=None)
@click.option("--seed", "seed", default=20240817, type=int)
def cmd_selftest(out, seed):
    """Run the worked-example and invariant battery at default sizes."""

    def body():
        out_dir = _prepare_out(out)
        report = RunReport("selftest", "builtin", seed)
        for verdict in run_all(seed):
            report.add(verdict)
        _finish(report, out_dir)

    _run_guarded(body)


if __name__ == "__main__":
    main()
