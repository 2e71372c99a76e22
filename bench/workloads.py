"""Workload definitions: fixed shapes, seed-drawn coefficients.

Every workload is a list of CLI jobs over generated config files.  The
shape of each job (on-site dimension N, lattice dimension d, window,
time grid, test-function cells, pairs, lemma instances, c values) is
fixed here; the seed only draws coefficients: Kraus terms, observables,
the on-site state and step-function values.  Coefficient vectors are
rescaled to a fixed l1 norm (step-function values to a fixed modulus) so
that stiffness, and with it solver step counts, stays close across
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240817

# Label sets (one "site:alpha,beta ..." string per Weyl string).
KRAUS_N2 = ["0:1,0 1:1,0", "0:0,1"]
KRAUS_N3 = ["0:1,0 1:2,0", "0:0,1 1:0,2", "0:1,1", "1:2,1"]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``uhfflow <command> [--config <file>]``."""

    name: str
    command: str
    config: str | None  # config text; None for selftest

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        args = [self.command]
        if config_path is not None:
            args += ["--config", str(config_path)]
        return args + ["--out", str(out_dir)]


def _num(v) -> str:
    return repr(float(v))


def _operator(rng, labels, l1=1.0) -> str:
    """Config text of sum_g c_g U_g with random complex c, sum |c_g| = l1."""
    coeffs = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    coeffs *= l1 / np.abs(coeffs).sum()
    return " | ".join(f"{_num(c.real)} {_num(c.imag)} ; {lab}" for c, lab in zip(coeffs, labels))


def _cells(rng, cells, modulus=0.5) -> str:
    phases = rng.uniform(0.0, 2.0 * np.pi, size=cells)
    vals = modulus * np.exp(1j * phases)
    return ", ".join(f"{_num(v.real)} {_num(v.imag)}" for v in vals)


def _rho(rng) -> str:
    """Random full-rank qubit density matrix, eigenvalues in [0.2, 0.8]."""
    p = rng.uniform(0.2, 0.8)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    q = np.array([[np.cos(theta / 2)], [np.sin(theta / 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))]])
    basis = np.hstack([q, np.array([[-q[1, 0].conjugate()], [q[0, 0].conjugate()]])])
    rho = basis @ np.diag([p, 1.0 - p]) @ basis.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return " ; ".join(" ".join(f"{_num(v.real)} {_num(v.imag)}" for v in row) for row in rho)


def evolve_window(rng) -> list[Job]:
    a = f"""\
[algebra]
n = 2
d = 1
[generator]
kind = translation_covariant
kraus = {_operator(rng, KRAUS_N2)}
[observables]
x = {_operator(rng, ["2:1,0", "2:0,1", "1:1,1 2:1,0"])}
[run]
t_grid = linspace 0 1 3
window = 0 1 2 3 4
closure = interior
method = ode
tol = 1e-9
"""
    b = f"""\
[algebra]
n = 3
d = 1
[generator]
kind = translation_covariant
kraus = {_operator(rng, KRAUS_N3)}
[observables]
x = {_operator(rng, ["1:1,0", "1:0,1", "0:1,2 1:2,1"])}
[run]
t_grid = linspace 0 1 3
window = 0 1 2
closure = clipped
method = ode
tol = 1e-9
"""
    return [Job("evolve_n2_w5", "evolve", a), Job("evolve_n3_w3", "evolve", b)]


def flow_pair(rng) -> list[Job]:
    modes = "\n".join(f"    {k}/0: {_cells(rng, 8)}" for k in (1, 2))
    text = f"""\
[algebra]
n = 2
d = 1
[generator]
kind = translation_covariant
kraus = {_operator(rng, KRAUS_N2)}
[observables]
x = {_operator(rng, ["1:1,0", "1:0,1 2:0,1"])}
y = {_operator(rng, ["2:1,1", "1:1,0 2:1,0"])}
[modes.f]
grid = 1 8
modes =
{modes}
[run]
t_grid = linspace 0 1 3
window = 0 1 2 3
tol = 1e-9
pairs = x,y y,x x,x
shift = 1
contraction_t = 0.5
"""
    return [Job("flow_n2_w4", "flow", text)]


def verify_battery(rng) -> list[Job]:
    lemma = f"""\
[algebra]
n = 2
d = 1
[generator]
kind = translation_covariant
kraus = {_operator(rng, KRAUS_N2)}
[observables]
x = {_operator(rng, ["0:1,0", "0:0,1"])}
y = {_operator(rng, ["0:1,1", "0:1,0"])}
[run]
instances = 60
n_max = 3
"""
    ergodicity = f"""\
[algebra]
n = 2
d = 1
[generator]
kind = partial_state
rho = {_rho(rng)}
kraus = {_operator(rng, ["0:1,0", "0:0,1"])}
[observables]
x = {_operator(rng, ["0:1,0", "0:1,1"])}
y = {_operator(rng, ["0:1,0 1:0,1", "1:1,1"])}
[run]
t_grid = linspace 0 6 25
c_values = 0 0.5 1
tol = 1e-9
"""
    return [
        Job("selftest", "selftest", None),
        Job("lemma_n2", "lemma", lemma),
        Job("ergodicity_n2", "ergodicity", ergodicity),
    ]


WORKLOADS = {
    "evolve_window": evolve_window,
    "flow_pair": flow_pair,
    "verify_battery": verify_battery,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs with coefficients drawn from ``seed``."""
    return WORKLOADS[workload](np.random.default_rng([seed, sorted(WORKLOADS).index(workload)]))
