"""Config-driven experiment runner: ``uhfflow <command> --config ... --out ...``.

Commands dispatch to the engine modules and write ``results/*.csv`` plus a
``report.json`` with one pass/fail verdict per named check.  Exit codes:
0 all verdicts pass, 1 verdict failure, 2 configuration error, 3 engine
error.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import dense, fock, lindblad
from .algebra import LocalOperator, gns_inner, gns_norm, seminorm_one
from .config import ExperimentConfig, check_command, load_config
from .errors import ConfigError, UhfflowError
from .selftest import COVARIANCE_NOTE, UNITALITY_NOTE, Verdict, _ge, _le, run_all

DEFAULT_OUT_ENV = "UHFFLOW_OUT"


def _f17(value: float) -> str:
    """A float with enough digits to read back exactly."""
    return f"{value:.17g}"


class RunReport:
    """Verdicts and result tables of one command run, written under ``out_dir``."""

    def __init__(self, command: str, digest: str, seed: int, out_dir: Path):
        self.command = command
        self.digest = digest
        self.seed = seed
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.verdicts: list[Verdict] = []
        self.started = time.time()

    def add(self, verdict: Verdict):
        self.verdicts.append(verdict)

    def table(self, name: str, header, rows):
        """Write ``results/<name>.csv`` and record it in ``outputs``."""
        path = self.out_dir / "results" / f"{name}.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.outputs.append(str(path))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def write(self):
        payload = {
            "command": self.command,
            "config_digest": self.digest,
            "seed": self.seed,
            "outputs": self.outputs,
            "verdicts": [v.as_dict() for v in self.verdicts],
            "wall_time_s": round(time.time() - self.started, 3),
            "passed": self.passed,
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / "report.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def echo(self):
        for v in self.verdicts:
            status = "PASS" if v.passed else "FAIL"
            note = f"  ({v.note})" if v.note else ""
            click.echo(f"[{status}] {v.name}: value={v.value:.3e} threshold={v.threshold:.3e}{note}")
        click.echo(f"{'ALL CHECKS PASSED' if self.passed else 'CHECK FAILURES PRESENT'}")


def _execute(command: str, out: str | None, start):
    """Run one command: ``start()`` loads and checks its inputs and returns
    (config digest, seed, body); ``body(report)`` adds verdicts and tables.
    The report makes the output directory when it first writes, so a
    configuration error exits 2 before any output exists."""
    try:
        digest, seed, body = start()
        out_dir = Path(out or os.environ.get(DEFAULT_OUT_ENV, "uhfflow-out"))
        report = RunReport(command, digest, seed, out_dir)
        body(report)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except (UhfflowError, ValueError) as exc:
        click.echo(f"engine error: {exc}", err=True)
        sys.exit(3)
    report.write()
    report.echo()
    sys.exit(0 if report.passed else 1)


@click.group()
def main():
    """Simulation and verification engine for lattice flow semigroups."""


def _config_command(name: str):
    """Register ``body(cfg, report)``, which only computes, as ``uhfflow <name>``."""

    def register(body):
        @main.command(name, help=body.__doc__)
        @click.option("--config", "config_path", required=True, type=click.Path(exists=True))
        @click.option("--out", "out", default=None, help="output directory")
        @click.option("--seed", "seed", default=None, type=int, help="override config seed")
        def command(config_path, out, seed):
            def start():
                cfg = load_config(config_path)
                check_command(cfg, name)
                if seed is not None:
                    cfg.seed = seed
                return cfg.digest, cfg.seed, functools.partial(body, cfg)

            _execute(name, out, start)

        return body

    return register


# -- evolve -------------------------------------------------------------------


@_config_command("evolve")
def cmd_evolve(cfg: ExperimentConfig, report: RunReport):
    """Semigroup evolution with oracle and closed-form cross-checks.

    Each observable is evolved by ``lindblad.evolve``: the Weyl kernel's
    window matrix stepped by ``expm_multiply``.  ``evolve.<name>.oracle``
    compares it with the one dense oracle, ``dense.hilbert_evolve``, which
    integrates ``dense.window_action`` on the realized window matrices;
    partial-state generators are also compared with the closed form
    ``lindblad.partial_semigroup_exact`` (``evolve.<name>.closed_form``).
    ``evolve.unitality`` is the largest ``identity_image`` of those
    solves, read from the window matrices they built: no further solve.
    """
    observables = sorted(cfg.observables.items())
    L = cfg.generator
    identity_image = 0.0

    for name, x in observables:
        window = cfg.window or lindblad.default_window(L, x)
        res = lindblad.evolve(L, x, cfg.t_grid, tol=cfg.tol, window=window,
                              closure_mode=cfg.closure)
        identity_image = max(identity_image, res.identity_image)
        report.table(f"evolve_{name}", ["t", "label", "re", "im", "error_budget"], (
            [_f17(t), lab.to_text(), _f17(c.real), _f17(c.imag), f"{err:.6e}"]
            for t, op, err in zip(res.grid, res.values, res.error_budget)
            for lab, c in op.items()))
        oracle = dense.hilbert_evolve(L, dense.window(cfg.params, window), cfg.closure,
                                      cfg.t_grid, x)
        worst = max(val.sup_diff(ref) for val, ref in zip(res.values, oracle))
        report.add(_le(f"evolve.{name}.oracle", worst, max(cfg.tol * 10, 1e-9)))
        if L.kind == "partial":
            worst = max(val.sup_diff(lindblad.partial_semigroup_exact(L.state, x, t))
                        for val, t in zip(res.values, cfg.t_grid))
            report.add(_le(f"evolve.{name}.closed_form", worst,
                           1e-10 + res.error_budget.max()))

    report.add(_le("evolve.unitality", identity_image, 1e-10,
                   "0 by construction: L(1) = 0, so the window matrix's identity "
                   "column is empty"))


# -- ergodicity ----------------------------------------------------------------


@_config_command("ergodicity")
def cmd_ergodicity(cfg: ExperimentConfig, report: RunReport):
    """Decay tables, rate fits, ergodic and perturbed-ergodic states."""
    state = cfg.state
    one = LocalOperator.identity(cfg.params)
    rows = []
    rate_rows = []
    # One generator per c serves every observable, and their member tables with it.
    if cfg.kraus is not None:
        Ltrans = lindblad.Lindbladian.translation_covariant(cfg.kraus)
        generators = [(cval, lindblad.Lindbladian.partial_state(cfg.params, state) if cval == 0
                       else lindblad.Lindbladian.perturbed(cfg.params, state, cfg.kraus, cval))
                      for cval in cfg.c_values]
    for name, x in sorted(cfg.observables.items()):
        phi = lindblad.ergodic_state(state, x)
        norms = np.array([gns_norm(lindblad.partial_semigroup_exact(state, x, t) - one * phi)
                          for t in cfg.t_grid])
        mask = norms > 1e-14
        rate = r2 = float("nan")
        if mask.sum() >= 4:
            rate, r2 = lindblad.decay_rate_fit(cfg.t_grid[mask], norms[mask], drop_frac=0.1)
            report.add(_le(f"ergodicity.{name}.rate", abs(rate - 1.0), 1e-3, f"r2={r2:.6f}"))
            report.add(Verdict(f"ergodicity.{name}.r2", r2 >= 0.999, r2, 0.999))
        rows.append([name, _f17(phi.real), _f17(phi.imag), f"{rate:.12g}", f"{r2:.12g}"])

        if cfg.kraus is not None:
            phi0, _err0 = lindblad.perturbed_ergodic_state(state, Ltrans, 0.0, x)
            report.add(_le(f"ergodicity.{name}.perturbed_c0", abs(phi0 - phi), 1e-6,
                           "0 by construction: perturbed_ergodic_state at c = 0 "
                           "is ergodic_state(x)"))
            crates = []
            for cval, Lc in generators:
                res = lindblad.evolve(Lc, x, cfg.t_grid, tol=min(cfg.tol, 1e-10))
                vals = np.array([seminorm_one(vv) for vv in res.values])
                mask = vals > 1e-14
                if mask.sum() >= 4:
                    crate, cr2 = lindblad.decay_rate_fit(
                        cfg.t_grid[mask], vals[mask], drop_frac=0.1)
                    crates.append((cval, crate, cr2))
            if crates:
                rate_rows += [[name, _f17(c_), f"{r:.12g}", f"{r2_:.12g}"]
                              for c_, r, r2_ in crates]
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

    report.table("ergodicity", ["observable", "phi_re", "phi_im", "rate", "r2"], rows)
    if rate_rows:
        report.table("perturbed_rates", ["observable", "c", "rate", "r2"], rate_rows)


# -- flow ------------------------------------------------------------------------


@_config_command("flow")
def cmd_flow(cfg: ExperimentConfig, report: RunReport):
    """F/G trajectories with unitality, homomorphism, vacuum-reduction,
    contraction and covariance verdicts."""
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
                   1e-9 + float(fwd.error_of(one).max()), UNITALITY_NOTE))

    vacuum = not (cfg.f.modes or cfg.g.modes)
    for name, x in observables:
        vals, err = fwd.of_operator(x), fwd.error_of(x)
        report.table(f"flow_{name}", ["t", "label", "re", "im", "err"], (
            [_f17(t), name, _f17(val.real), _f17(val.imag), f"{e:.6e}"]
            for t, val, e in zip(grid, vals, err)))

        # adjoint symmetry
        dev = float(np.abs(bwd.of_operator(x.adjoint()) - np.conj(vals)).max())
        report.add(_le(f"flow.{name}.adjoint_symmetry", dev,
                       1e-8 + float((err + bwd.error_of(x.adjoint())).max())))

        if vacuum:
            res = lindblad.evolve(L, x, grid, tol=min(cfg.tol, 1e-10), window=window,
                                  closure_mode="clipped")
            target = np.array([gns_inner(cfg.u, val * cfg.v) for val in res.values])
            dev = float(np.abs(vals - target).max())
            report.add(_le(
                f"flow.{name}.vacuum_reduction", dev,
                1e-8 + float(err.max() + res.error_budget.max()),
            ))

    if cfg.pairs:
        gtraj = fock.pair_element(sys_, cfg.u, cfg.f, cfg.v, cfg.g, grid, tol=cfg.tol)
        reps = fock.homomorphism_defect(
            fwd, gtraj, [(cfg.observables[xn], cfg.observables[yn]) for xn, yn in cfg.pairs])
        for (xn, yn), rep in zip(cfg.pairs, reps):
            report.add(_le(f"flow.homomorphism.{xn},{yn}", rep.defect,
                           rep.error_estimate + 1e-8))
            report.add(Verdict(f"flow.pair_consistency.{xn},{yn}", rep.consistent,
                               0.0 if rep.consistent else 1.0, 0.0,
                               "holds by construction: G's identity row and F are "
                               "stepped by the same F pieces"))

    if cfg.shift is not None and L.kind == "translation":
        reps = fock.covariance_check(sys_, fwd, xs, cfg.u, cfg.f, cfg.v, cfg.g, cfg.shift,
                                     tol=cfg.tol)
        for (name, _x), rep in zip(observables, reps):
            report.add(_le(f"flow.covariance.{name}", rep.deviation,
                           max(2 * rep.error_estimate, 1e-9), COVARIANCE_NOTE))

    t_c = cfg.contraction_t
    if t_c is not None:
        family = [(1.0, cfg.u, cfg.f), (0.5, cfg.v, cfg.g)]
        # The pair (u, f; v, g) is the forward solve when t_c lies on its grid.
        reps = fock.contraction_check(sys_, xs, family, t_c, tol=cfg.tol,
                                      solved={(0, 1): fwd} if t_c in grid else None)
        for (name, _x), rep in zip(observables, reps):
            report.add(_le(f"flow.contraction.{name}", rep.lhs,
                           rep.rhs + rep.error + 1e-9))
            report.add(_ge(f"flow.contraction_positive.{name}", rep.lhs,
                           -(rep.error + 1e-9)))


# -- lemma -------------------------------------------------------------------------


@_config_command("lemma")
def cmd_lemma(cfg: ExperimentConfig, report: RunReport):
    """Iterated-derivation identity and bound suites."""
    obs = sorted(cfg.observables.items())
    L = cfg.generator
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_identity = 0.0
    bounds_ok = True
    for i in range(cfg.instances):
        name, x = obs[int(rng.integers(0, len(obs)))]
        n = int(rng.integers(1, cfg.n_max + 1))
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
                       f"{cfg.instances} instances"))
    report.table("lemma", ["instance", "observable", "mode", "n", "lhs", "rhs"], rows)


# -- selftest -------------------------------------------------------------------------


@main.command("selftest")
@click.option("--out", "out", default=None)
@click.option("--seed", "seed", default=20240817, type=int)
def cmd_selftest(out, seed):
    """Run the worked-example and invariant battery at default sizes."""

    def start():
        return "builtin", seed, lambda report: report.verdicts.extend(run_all(seed))

    _execute("selftest", out, start)


if __name__ == "__main__":
    main()
