"""Default-size verification battery behind ``uhfflow selftest``.

Each check returns a Verdict (measured value against a threshold); the
battery covers the worked examples of every operation plus the invariant
suites at sizes small enough to finish in well under five minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dense, fock, lindblad
from .algebra import (
    AlgebraParams,
    LocalOperator,
    c_const,
    commutator,
    gns_norm,
    random_label,
    random_local,
    seminorm_one,
)


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: float
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "note": self.note,
        }


# Notes of verdicts that hold by construction, shared with the CLI's flow report.
UNITALITY_NOTE = ("holds by construction: every structure map sends 1 to 0, "
                  "so F_t(1) moves only by roundoff")
COVARIANCE_NOTE = ("0 by construction: the translated window yields the same matrices, "
                   "so this checks the translation plumbing")


def _le(name, value, threshold, note="") -> Verdict:
    return Verdict(name, value <= threshold, float(value), float(threshold), note)


def _ge(name, value, threshold, note="") -> Verdict:
    return Verdict(name, value >= threshold, float(value), float(threshold), note)


def algebra_checks(rng) -> list[Verdict]:
    p = AlgebraParams(2, 1)
    sx = LocalOperator.site_word(p, (0,), 1, 0)
    sz = LocalOperator.site_word(p, (0,), 0, 1)
    one = LocalOperator.identity(p)
    out = []
    out.append(_le("algebra.sx_sz_product", (sx * sz).sup_diff(
        LocalOperator.site_word(p, (0,), 1, 1)), 0.0))
    out.append(_le("algebra.sz_sx_antiphase", (sz * sx + sx * sz).sup_diff(
        LocalOperator.zero(p)), 0.0))
    out.append(_le("algebra.word_square", ((sx * sz) * (sx * sz) + one).sup_diff(
        LocalOperator.zero(p)), 1e-15))
    out.append(_le("algebra.commutator", commutator(sx, sz).sup_diff(
        LocalOperator.site_word(p, (0,), 1, 1, 2.0)), 0.0))
    out.append(_le("algebra.seminorm_sx", abs(seminorm_one(sx) - 4.0), 1e-12))
    out.append(_le("algebra.seminorm_identity", seminorm_one(one), 0.0))
    out.append(_le("algebra.c_const", abs(c_const(sz) - 2.0), 0.0))

    worst = 0.0
    for nn in (2, 3):
        pn = AlgebraParams(nn, 1)
        win = dense.window(pn, [(0,), (1,)])
        for _ in range(40):
            x = random_local(pn, rng, [(0,), (1,)])
            y = random_local(pn, rng, [(0,), (1,)])
            lhs = dense.realize(x * y, win)
            rhs = dense.realize(x, win) @ dense.realize(y, win)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            worst = max(worst, float(np.abs(
                dense.realize(x.adjoint(), win)
                - dense.realize(x, win).conj().T).max()))
    out.append(_le("algebra.oracle_faithfulness", worst, 1e-12, "80 random pairs, N=2,3"))

    worst = 0.0
    for _ in range(40):
        g = random_label(p, rng, [(0,), (1,), (2,)])
        ug = LocalOperator.weyl(p, g)
        worst = max(worst, (ug.adjoint() * ug).sup_diff(one))
    out.append(_le("algebra.unitarity", worst, 1e-14, "40 random labels"))
    return out


def dense_checks() -> list[Verdict]:
    out = []
    for N in (2, 3, 4):
        U, V = dense.clock_shift(N)
        w = np.exp(2j * np.pi / N)
        out.append(_le(f"dense.clock_shift_N{N}",
                       float(np.linalg.norm(U @ V - w * V @ U)), 1e-13))
    p = AlgebraParams(2, 1)
    sx = LocalOperator.site_word(p, (0,), 1, 0)
    sz = LocalOperator.site_word(p, (0,), 0, 1)
    out.append(_le("dense.norm_sx_plus_sz",
                   abs(dense.operator_norm(sx + sz) - math.sqrt(2)), 1e-12))
    rho = dense.StateSpec(np.eye(2) / 2)
    kraus = dense.state_kraus(rho)
    out.append(_le("dense.kraus_count", abs(len(kraus) - 4), 0.0))
    L = lindblad.Lindbladian.partial_state(p, rho)
    win = dense.window(p, [(0,)])
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)  # the matrix choi_matrix exponentiates
    generator = dense.window_action(L, win, "interior")(units).reshape(4, 4)
    eigs = sorted(np.linalg.eigvals(generator).real)
    out.append(_le("dense.partial_eigenvalues",
                   float(np.abs(np.array(eigs) - np.array([-1, -1, -1, 0])).max()), 1e-12))
    choi_min = min(
        float(np.linalg.eigvalsh(dense.choi_matrix(L, win, "interior", t)).min())
        for t in (0.1, 0.5, 1.0)
    )
    out.append(_ge("dense.choi_psd", choi_min, -1e-9))
    return out


def lindblad_checks(rng) -> list[Verdict]:
    p = AlgebraParams(2, 1)
    sx = LocalOperator.site_word(p, (0,), 1, 0)
    sz = LocalOperator.site_word(p, (0,), 0, 1)
    one = LocalOperator.identity(p)
    rho = dense.StateSpec(np.eye(2) / 2)
    Lp = lindblad.Lindbladian.partial_state(p, rho)
    Lr = lindblad.Lindbladian.single_kraus(sx, unital=True)
    out = []
    out.append(_le("lindblad.delta_example",
                   Lr.derivation(1, (0,), sz).sup_diff(
                       LocalOperator.site_word(p, (0,), 1, 1, -2.0)), 0.0))
    out.append(_le("lindblad.lind_zero_example",
                   Lr.lind_k((0,), sz).sup_diff(sz * -2.0), 0.0))
    worst = 0.0
    sites = [(0,), (1,)]
    for L in (Lp, Lr):
        worst = max(worst, L.apply(one).sup_diff(LocalOperator.zero(p)))
        for _ in range(30):
            x = random_local(p, rng, sites)
            y = random_local(p, rng, sites)
            worst = max(worst, L.apply(x.adjoint()).sup_diff(L.apply(x).adjoint()))
            worst = max(worst, L.cocycle_defect(x, y))
            worst = max(worst, L.apply(x.translate((1,))).sup_diff(L.apply(x).translate((1,))))
    out.append(_le("lindblad.identities", worst, 1e-12, "unitality/adjoint/cocycle/covariance"))

    grid = np.linspace(0.0, 1.0, 5)
    x2 = sx * sx.translate((1,))
    # One solve serves the closed-form and the dense-oracle verdicts.
    res = lindblad.evolve(Lp, x2, grid, window=[(0,), (1,)])
    worst = max(
        res.values[i].sup_diff(lindblad.partial_semigroup_exact(rho, x2, t))
        for i, t in enumerate(grid)
    )
    # Named for the Taylor series it used to read; recorded reports list verdicts by name.
    out.append(_le("lindblad.closed_form_series", worst, 1e-10))
    oracle = dense.hilbert_evolve(Lp, dense.window(p, [(0,), (1,)]), "interior", grid, x2)
    worst = max(val.sup_diff(ref) for val, ref in zip(res.values, oracle))
    # Named for the Pade oracle it used to read; recorded reports list verdicts by name.
    out.append(_le("lindblad.ode_vs_expm", worst, 1e-9))

    ts = np.linspace(0.0, 3.0, 25)
    dev = [
        gns_norm(lindblad.partial_semigroup_exact(rho, sx, t)
                 - one * lindblad.ergodic_state(rho, sx))
        for t in ts
    ]
    rate, r2 = lindblad.decay_rate_fit(ts[1:], dev[1:], drop_frac=0.1)
    out.append(_le("lindblad.ergodic_rate", abs(rate - 1.0), 1e-3, f"r2={r2:.6f}"))

    val0, _ = lindblad.perturbed_ergodic_state(rho, Lr, 0.0, sz)
    out.append(_le("lindblad.perturbed_c0",
                   abs(val0 - lindblad.ergodic_state(rho, sz)), 1e-6,
                   "0 by construction: perturbed_ergodic_state at c = 0 "
                   "is ergodic_state(x)"))

    defect = max(
        lindblad.leibniz_expansion_check(Lr, sz, kbar)
        for kbar in ([(0,)], [(0,), (0,)], [(0,), (1,)])
    )
    out.append(_le("lindblad.leibniz_expansion", defect, 1e-12))
    rep = lindblad.lemma_bound_report(Lr, sz, 1, "pure")
    out.append(_le("lindblad.lemma_bound_example", rep.lhs, rep.rhs, "lhs=2 rhs=4"))
    return out


def fock_checks() -> list[Verdict]:
    p = AlgebraParams(2, 1)
    sx = LocalOperator.site_word(p, (0,), 1, 0)
    sz = LocalOperator.site_word(p, (0,), 0, 1)
    one = LocalOperator.identity(p)
    rho = dense.StateSpec(np.eye(2) / 2)
    z = fock.TestFunction.zero()
    grid = np.linspace(0.0, 2.0, 9)
    out = []

    fc = fock.TestFunction.build(1.0, 4, {((0,), 0): [1, 1, 1, 1]})
    out.append(_le("fock.exp_inner_const", abs(fock.exp_inner(fc, fc) - math.e), 1e-12))

    Lp = lindblad.Lindbladian.partial_state(p, rho)
    sys1 = fock.build_generator_system(Lp, [(0,)])
    traj = fock.flow_element(sys1, sx, z, one, z, grid)
    out.append(_le("fock.vacuum_closed_form",
                   float(np.abs(traj.of_operator(sx) - np.exp(-grid)).max()), 1e-9))
    f = fock.TestFunction.build(1.0, 4, {((0,), 0): [0.9, 0.4, 0.7, 0.2]})
    g = fock.TestFunction.build(1.0, 4, {((0,), 1): [0.2, 0.8, 0.5, 0.3]})
    tid = fock.flow_element(sys1, sx, f, sz, g, grid)
    iv = tid.of_operator(one)
    out.append(_le("fock.unitality", float(np.abs(iv - iv[0]).max()), 1e-9, UNITALITY_NOTE))

    u = sx + 0.3 * sz
    ftraj = fock.flow_element(sys1, u, f, one, g, grid)
    gtraj = fock.pair_element(sys1, u, f, one, g, grid)
    pairs = [(LocalOperator.weyl(p, a), LocalOperator.weyl(p, b))
             for a in sys1.basis for b in sys1.basis]
    worst = max(rep.defect for rep in fock.homomorphism_defect(ftraj, gtraj, pairs))
    out.append(_le("fock.eta_homomorphism_16pairs", worst, 1e-8))

    Lr = lindblad.Lindbladian.single_kraus(sx, unital=True)
    sysr = fock.build_generator_system(Lr, [(0,)])
    g2 = np.linspace(0.0, 0.25, 5)
    depth = fock.smallest_certified_depth(sz, z, 0.25, Lr, 1e-8)
    t_ode = fock.flow_element(sysr, one, z, sz, z, g2)
    t_pic = fock.picard_element(sysr, sz, one, z, sz, z, g2, depth=depth)
    out.append(_le("fock.picard_vs_ode",
                   float(np.abs(t_ode.of_operator(sz) - t_pic.F[:, 0]).max()), 1e-7,
                   f"depth={depth}"))

    rep, = fock.contraction_check(sys1, [sx + sz], [(1.0, one, z), (0.5, sx, f)], 1.0)
    out.append(_le("fock.contraction", rep.lhs, rep.rhs + rep.error + 1e-9,
                   "holds by construction: x*x is twice the identity for "
                   "x = sx + sz, so this re-reads unitality"))

    sysc = fock.build_generator_system(Lr, [(-1,), (0,), (1,)])
    trajc = fock.flow_element(sysc, sz, f, sx, g, grid)
    cov, = fock.covariance_check(sysc, trajc, [sz], sz, f, sx, g, (1,))
    out.append(_le("fock.covariance", cov.deviation, max(2 * cov.error_estimate, 1e-9),
                   COVARIANCE_NOTE))

    scan = fock.eta_ergodicity_scan(rho, sx, sx, f, one, g, np.linspace(0.0, 15.0, 61))
    out.append(_le("fock.ergodic_scan_rate",
                   abs((scan.rate or 0.0) - 1.0), 1e-2, f"r2={scan.r2}"))
    out.append(_le("fock.ergodic_scan_final", float(scan.values[-1]), 1e-6))

    sums = fock.hp_divergence_witness(sx, one, 10)
    worst = max(abs(s - (2 * k + 1)) for k, s in enumerate(sums, start=1))
    out.append(_le("fock.hp_witness", worst, 1e-12))
    return out


def run_all(seed: int = 20240817) -> list[Verdict]:
    rng = np.random.default_rng(seed)
    verdicts = []
    verdicts += algebra_checks(rng)
    verdicts += dense_checks()
    verdicts += lindblad_checks(rng)
    verdicts += fock_checks()
    return verdicts
