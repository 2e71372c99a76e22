import cmath
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import uhfflow.dense as dense
import uhfflow.lindblad as lb
from uhfflow.algebra import AlgebraParams, LocalOperator
from uhfflow.config import load_config
from uhfflow.sparse import CSR

BENCH_WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def to_scipy(m: CSR) -> scipy.sparse.csr_matrix:
    """A package matrix as a scipy CSR matrix on the same arrays, to read it with scipy's API."""
    return scipy.sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def from_scipy(m) -> CSR:
    """A scipy sparse matrix as a canonical package matrix."""
    m = scipy.sparse.csr_matrix(m)
    m.sum_duplicates()
    return CSR(m.data, m.indices, m.indptr, m.shape)


# theta_m, the largest h ||A - mu I||_1 for which m Taylor terms keep the
# backward error of a step below the unit roundoff 2^-53, as scipy's
# ``sparse/linalg/_expm_multiply.py`` has it: m <= 30 from table A.3 of
# Higham & Al-Mohy, Acta Numerica 19 (2010) 159-208, the rest from table
# 3.1 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488-511.  The
# order of the entries breaks ties in the degree choice.
SCIPY_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def scipy_degree_choice(norm: float) -> tuple[int, int]:
    """(m*, s) for a step of h ||A - mu I||_1 = ``norm``: scipy's choice from the 1-norm alone.

    The pair minimising the matvec count m s over ``SCIPY_THETA`` with
    s = ceil(norm / theta_m), as the stepper chose its substeps before one
    cap sized them.
    """
    if norm == 0.0:
        return 0, 1
    best_m = best_s = 0
    for m, theta_m in SCIPY_THETA.items():
        s = math.ceil(norm / theta_m)
        if best_m == 0 or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


@pytest.fixture(scope="session")
def roundoff_stop_matvecs():
    """Matvecs that scipy's stop takes for e^{hA} v with scipy's (m*, s).

    Each substep ends once two consecutive terms sum below 2^-53 times the
    partial sum (max norms), or after m* terms: the stop the stepper used
    before its sums stopped on a certified remainder.
    """
    def count(op, v, h):
        m_star, s = scipy_degree_choice(h * op.norm)
        eta = cmath.exp(h * op.mu / s)
        out, calls = np.array(v, dtype=complex), 0
        for _ in range(s):
            c1 = np.abs(v).max()
            for j in range(m_star):
                v = op.shifted(v) * (h / (s * (j + 1)))
                calls += 1
                c2 = np.abs(v).max()
                out = out + v
                if c1 + c2 <= 2.0**-53 * np.abs(out).max():
                    break
                c1 = c2
            out = v = eta * out
        return calls

    return count


@pytest.fixture(scope="session")
def leak_free():
    """Whether a flow generator system's maps drop no mass outside its window."""
    return lambda sys_: not any(leak.any() for leak in sys_.leak.values())


@pytest.fixture
def p2():
    return AlgebraParams(2, 1)


@pytest.fixture
def p3():
    return AlgebraParams(3, 1)


@pytest.fixture
def p2d2():
    return AlgebraParams(2, 2)


@pytest.fixture
def pauli(p2):
    """sigma_x, sigma_z, sigma_x sigma_z and the identity at site 0."""
    sx = LocalOperator.site_word(p2, (0,), 1, 0)
    sz = LocalOperator.site_word(p2, (0,), 0, 1)
    sxz = LocalOperator.site_word(p2, (0,), 1, 1)
    one = LocalOperator.identity(p2)
    return sx, sz, sxz, one


@pytest.fixture(scope="session")
def weyl_matrix():
    """The dense generator's matrix in the window's Weyl basis, built in the tests.

    Column b holds the Weyl coefficients (``dense._weyl_coefficients``) of
    ``dense.window_action`` applied to the realized string U_b, in
    ``window_basis`` order; it shares no phase convention with the kernel.
    """
    def build(L, win, closure_mode):
        strings = np.array([dense.realize(LocalOperator.weyl(win.params, lab), win)
                            for lab in dense.window_basis(win.params, win.sites)])
        images = dense.window_action(L, win, closure_mode)(strings)
        return dense._weyl_coefficients(images, win.params.N, len(win.sites)).T

    return build


@pytest.fixture(scope="session")
def hilbert_operators():
    """``dense.hilbert_evolve`` read as one ``LocalOperator`` per grid time.

    Row t of the oracle's coefficient array is paired with the labels of
    ``dense.window_basis`` on the window, the order the oracle writes.
    """
    def evolve(L, win, closure_mode, t_grid, x):
        basis = dense.window_basis(win.params, win.sites)
        return [LocalOperator(win.params, zip(basis, row))
                for row in dense.hilbert_evolve(L, win, closure_mode, t_grid, x)]

    return evolve


@pytest.fixture
def bench_config(tmp_path, monkeypatch):
    """Load the config of a benchmark job (``bench/workloads.py``, default seed).

    ``load(workload, job, edit)`` passes the config text through ``edit``
    before it is written and loaded.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)

    def load(workload, job, edit=lambda text: text):
        config, = [j.config for j in workloads.make_jobs(workload, workloads.DEFAULT_SEED)
                   if j.name == job]
        path = tmp_path / f"{job}.ini"
        path.write_text(edit(config))
        return load_config(path)

    return load
