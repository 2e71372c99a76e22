"""Flow matrix elements between exponential vectors on truncated bases.

The quantum stochastic flow j_t driven by one creation/annihilation pair
per (translate, Kraus member) never needs to be built as an operator:
between exponential vectors its matrix elements

    F_t(y) = < u e(f), j_t(y) v e(g) >

satisfy a closed linear ODE on any operator basis stable under the
structure maps,

    dF_t(y)/dt = sum_j [ g_j(t) F_t(delta_j^dag y)
                       + conj(f_j(t)) F_t(delta_j y) ]  + F_t(Lhat y),

with piecewise-constant coefficients for step test functions, so each
cell is solved by a matrix exponential.  The pair elements

    G_t(x, y) = < j_t(x*) u e(f), j_t(y) v e(g) >

satisfy the doubled system carrying one quantum Ito correction term
sum_j G(delta_j^dag x, delta_j y); the homomorphism claim is exactly
F_t(xy) = G_t(x, y).  The F system is listed as pieces between
breakpoints, each with its cell's generator A and leak rate; G's piece
on the same stretch is built from it, with cell generator
A (x) 1 + 1 (x) A + Ito, Ito = sum_j delta_j^dag (x) delta_j.  That
generator is applied, not assembled: it acts on G as an n x n matrix,
G -> A G + G A^T + Ito G, and the Ito sum is its only n^2 x n^2 matrix.
Every piece is stepped by ``lindblad.expm_multiply``, on a generator
prepared once per cell.  Both systems are solved for the whole window
basis, so one solve per (u, f, v, g) and grid serves every observable
and pair, and the checks read those trajectories.  Truncation to a
finite site window drops operator mass outside it; that l1 mass is
recorded per map and drives every error estimate, which bounds one basis
string and is scaled by the observable's l1 norm (``error_of``).

The flows of partial-state semigroups take the same single solve:
``eta_ergodicity_scan`` builds the F system on the support of x alone,
which has no leak because every Kraus member acts on one site; u and v
enter only through F_0, which is read from the product v u* for any
support.  A window beyond ``dense.MAX_WINDOW_DIM`` strings raises ``SizeGuardError``.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from . import dense, lindblad as _lb
from .algebra import (
    AlgebraParams,
    LocalOperator,
    Site,
    WeylLabel,
    c_const,
    gns_inner,
    gns_norm,
    theta,
    weyl_adjoint,
)
from .errors import FitError, SizeGuardError, WindowError
from .kernel import WindowKernel
from .lindblad import StepOperator, cumulative_simpson, expm_multiply, step_operator

PICARD_SUB = 64  # Simpson nodes per piece in picard_element (even)
PICARD_MAX_TERMS = 500_000  # terms summed by picard_tail_bound before it gives inf
CERTIFIED_DEPTH_MAX = 100_000  # deepest Picard depth smallest_certified_depth tries

ModeKey = tuple[Site, int]  # (lattice site of the translate, Kraus member id)


# -- test functions -----------------------------------------------------------


def _norm_key(key, d: int) -> ModeKey:
    site, member = key
    site = tuple(int(c) for c in site)
    if len(site) != d:
        raise ValueError(f"mode site {site} does not have {d} coordinates")
    return site, int(member)


@dataclass(frozen=True)
class TestFunction:
    """Finitely many noise modes, each a step function on a shared grid."""

    t_max: float
    cells: int
    modes: tuple[tuple[ModeKey, tuple[complex, ...]], ...]
    d: int = 1

    @staticmethod
    def build(t_max: float, cells: int, modes: dict, d: int = 1) -> "TestFunction":
        if t_max <= 0 or cells < 1:
            raise ValueError("need t_max > 0 and cells >= 1")
        packed = []
        for key, vals in modes.items():
            vals = tuple(complex(v) for v in vals)
            if len(vals) != cells:
                raise ValueError(f"mode {key}: expected {cells} cell values, got {len(vals)}")
            packed.append((_norm_key(key, d), vals))
        return TestFunction(t_max, cells, tuple(sorted(packed)), d)

    @staticmethod
    def zero(t_max: float = 1.0, cells: int = 1, d: int = 1) -> "TestFunction":
        return TestFunction(t_max, cells, (), d)

    @property
    def dt(self) -> float:
        return self.t_max / self.cells

    def mode_keys(self) -> tuple[ModeKey, ...]:
        return tuple(k for k, _ in self.modes)

    def mode_values(self, key: ModeKey) -> tuple[complex, ...]:
        for k, vals in self.modes:
            if k == key:
                return vals
        return (0j,) * self.cells

    def cell_value(self, key: ModeKey, cell: int | None) -> complex:
        if cell is None:
            return 0j
        return self.mode_values(key)[cell]

    def norm_sq_cell(self, cell: int) -> float:
        return sum(abs(vals[cell]) ** 2 for _k, vals in self.modes)

    def sup_norm(self) -> float:
        if not self.modes:
            return 0.0
        return max(math.sqrt(self.norm_sq_cell(i)) for i in range(self.cells))

    def l2_sq(self) -> float:
        return sum(abs(v) ** 2 for _k, vals in self.modes for v in vals) * self.dt

    def gamma(self, t0: float) -> float:
        """gamma_f(t0) = integral_0^t0 (1 + ||f(s)||^2) ds, exact on the grid."""
        if t0 < 0:
            raise ValueError("t0 must be nonnegative")
        acc = t0
        for i in range(self.cells):
            lo, hi = i * self.dt, (i + 1) * self.dt
            overlap = max(0.0, min(hi, t0) - lo)
            if overlap > 0:
                acc += overlap * self.norm_sq_cell(i)
        return acc

    def inner(self, other: "TestFunction") -> complex:
        """<f, g> = sum_k integral conj(f_k) g_k, conjugate-linear on the left."""
        if self.modes and other.modes and (self.t_max, self.cells) != (other.t_max, other.cells):
            raise ValueError("test functions use different step grids")
        acc = 0j
        keys = set(self.mode_keys()) & set(other.mode_keys())
        for key in keys:
            a = self.mode_values(key)
            b = other.mode_values(key)
            acc += sum(x.conjugate() * y for x, y in zip(a, b)) * self.dt
        return acc

    def shifted(self, j) -> "TestFunction":
        """(f o shift_j)_k = f_{k+j}: relabel mode sites by -j."""
        j = tuple(int(c) for c in j)
        moved = tuple(
            sorted(((tuple(s - dj for s, dj in zip(site, j)), m), vals)
                   for (site, m), vals in self.modes)
        )
        return TestFunction(self.t_max, self.cells, moved, self.d)


def exp_inner(f: TestFunction, g: TestFunction) -> complex:
    """<e(f), e(g)> = exp(<f, g>) for step test functions."""
    return cmath.exp(f.inner(g))


@dataclass(frozen=True)
class ExponentialVectorSpec:
    """The vector u e(f) in h_0 (x) Gamma."""

    u: LocalOperator
    f: TestFunction

    def norm(self) -> float:
        return gns_norm(self.u) * math.exp(0.5 * self.f.l2_sq())


# -- generator systems ---------------------------------------------------------


@dataclass
class FlowGeneratorSystem:
    """Truncated-basis matrices of the structure maps on a site window.

    Matrices are stored transposed (ready to act on matrix-element
    vectors); ``leak`` holds the per-column l1 coefficient mass each map
    pushes outside the window; ``kernel`` is the window (its sites,
    basis and index) that built them.
    """

    lindbladian: "_lb.Lindbladian"
    noise: list[ModeKey]
    delta_t: dict[ModeKey, scipy.sparse.csr_matrix]
    delta_dag_t: dict[ModeKey, scipy.sparse.csr_matrix]
    lhat_t: scipy.sparse.csr_matrix
    leak: dict[object, np.ndarray]
    kernel: WindowKernel

    @property
    def params(self) -> AlgebraParams:
        return self.lindbladian.params

    @property
    def sites(self) -> tuple[Site, ...]:
        return self.kernel.sites

    @property
    def basis(self) -> list[WeylLabel]:
        return self.kernel.basis

    @property
    def index(self) -> dict[WeylLabel, int]:
        return self.kernel.index

    @property
    def dim(self) -> int:
        return self.kernel.dim

    def leak_max(self, key) -> float:
        return float(self.leak[key].max()) if self.dim else 0.0

    def map_l1(self, key) -> float:
        """Largest column l1 mass of delta_k for the mode key ``key``."""
        mat = self.delta_t[key]
        if mat.nnz == 0:
            return 0.0
        return float(np.abs(mat).sum(axis=1).max())

    def leak_free(self) -> bool:
        return all(arr.max() == 0.0 for arr in self.leak.values()) if self.leak else True


def build_generator_system(L: "_lb.Lindbladian", window_sites) -> FlowGeneratorSystem:
    """Assemble delta / delta^dag / Lhat matrices over the window basis.

    One noise index per mode key (translate, Kraus member) of
    ``L.window_translates`` whose member's own support meets the window;
    every other member commutes with the window.  The Weyl kernel builds
    each map as a sum of monomial matrices; images that leave the window
    are kept out of the matrices and counted in ``leak``.
    """
    if not window_sites:
        raise WindowError("window must be nonempty")
    kern = WindowKernel(L.params, window_sites)
    allowed = set(kern.sites)
    acting: dict[ModeKey, LocalOperator] = {
        key: m for key, m, _inside in L.window_translates(kern.sites)
        if allowed.intersection(m.support())}

    delta_t, delta_dag_t, leak = {}, {}, {}
    for key, m_k in acting.items():
        # delta(y) = y m - m y = -[m, y]; delta^dag(y) = [m*, y].
        mat_d, leak[("d", key)] = kern.bracket(m_k)
        mat_dd, leak[("dd", key)] = kern.bracket(m_k.adjoint())
        delta_t[key] = (-mat_d).transpose().tocsr()
        delta_dag_t[key] = mat_dd.transpose().tocsr()

    # Lhat = L.apply: every translate acting on the window, unclipped.
    lhat, leak["lhat"] = kern.generator(acting.values())

    return FlowGeneratorSystem(
        lindbladian=L,
        noise=list(acting),
        delta_t=delta_t,
        delta_dag_t=delta_dag_t,
        lhat_t=lhat.transpose().tocsr(),
        leak=leak,
        kernel=kern,
    )


# -- trajectories ---------------------------------------------------------------


@dataclass
class MatrixElementTrajectory:
    """F_t(U_b) for every window basis label, on a time grid."""

    grid: np.ndarray
    basis: list[WeylLabel]
    index: dict[WeylLabel, int]
    F: np.ndarray  # (T, dim)
    error_estimate: np.ndarray  # (T,)

    def of_label(self, lab: WeylLabel) -> np.ndarray:
        try:
            return self.F[:, self.index[lab]]
        except KeyError:
            raise WindowError(f"label {lab} outside the trajectory basis") from None

    def of_operator(self, x: LocalOperator) -> np.ndarray:
        out = np.zeros(len(self.grid), dtype=complex)
        for lab, c in x.items():
            out += c * self.of_label(lab)
        return out

    def error_of(self, x: LocalOperator) -> np.ndarray:
        """Error budget of ``of_operator(x)``: l1(x) times the per-string estimate."""
        return x.l1() * self.error_estimate


def _observable_trajectory(grid, values, est) -> MatrixElementTrajectory:
    """One observable's values and estimate, stored as the basis [1]."""
    one = WeylLabel.identity()
    return MatrixElementTrajectory(grid, [one], {one: 0}, values.reshape(-1, 1), est)


@dataclass
class PairTrajectory:
    """G_t(U_a, U_b) for every window basis pair, on a time grid."""

    grid: np.ndarray
    basis: list[WeylLabel]
    index: dict[WeylLabel, int]
    G: np.ndarray  # (T, dim, dim)
    error_estimate: np.ndarray

    def of_pair(self, x: LocalOperator, y: LocalOperator) -> np.ndarray:
        cx = dense.coefficient_vector(x, self.index)
        cy = dense.coefficient_vector(y, self.index)
        return np.einsum("tab,a,b->t", self.G, cx, cy)

    def error_of(self, x: LocalOperator, y: LocalOperator) -> np.ndarray:
        """Error budget of ``of_pair(x, y)``: l1(x) l1(y) times the per-pair estimate."""
        return x.l1() * y.l1() * self.error_estimate


# -- shared solving machinery ----------------------------------------------------


def _harmonize(f: TestFunction | None, g: TestFunction | None) -> tuple[TestFunction, TestFunction]:
    f = f if f is not None else TestFunction.zero()
    g = g if g is not None else TestFunction.zero()
    if f.modes and g.modes:
        if (f.t_max, f.cells) != (g.t_max, g.cells):
            raise ValueError("f and g must share the step grid")
        return f, g
    if f.modes and not g.modes:
        return f, TestFunction.zero(f.t_max, f.cells, f.d)
    if g.modes and not f.modes:
        return TestFunction.zero(g.t_max, g.cells, g.d), g
    return f, g


def _breakpoints(grid: np.ndarray, f: TestFunction) -> list[float]:
    pts = {0.0}
    pts.update(float(t) for t in grid)
    if f.modes:
        t_end = float(grid[-1])
        for i in range(1, f.cells + 1):
            e = i * f.dt
            if 0.0 < e < t_end:
                pts.add(e)
        if 0.0 < f.t_max < t_end:
            pts.add(float(f.t_max))
    return sorted(pts)


def _cell_of(t: float, f: TestFunction) -> int | None:
    if t < 0 or t >= f.t_max:
        return None
    return min(int(t / f.dt), f.cells - 1)


def _scale(u, f, v, g) -> float:
    """||u e(f)|| ||v e(g)||, which bounds every unit-norm matrix element."""
    return ExponentialVectorSpec(u, f).norm() * ExponentialVectorSpec(v, g).norm()


def _initial_vector(sys: FlowGeneratorSystem, u, v, f, g) -> np.ndarray:
    """F0[b] = <u, U_b v> exp<f, g> over the window basis, from the one product v u*.

    <u, U_b v> = tau(U_b v u*), and tau(U_b U_e) is nonzero only for
    U_b = omega**-p U_e* (weyl_adjoint's phase p), where it is omega**-p.
    So each term y_e U_e of y = v u* fills the entry of its adjoint's
    label; labels outside the window drop out.
    """
    scale = exp_inner(f, g)
    F0 = np.zeros(sys.dim, dtype=complex)
    for lab, c in (v * u.adjoint()).items():
        p, b = weyl_adjoint(sys.params, lab)
        i = sys.index.get(b)
        if i is not None:
            F0[i] = c * sys.params.root(-p) * scale
    return F0


def _initial_pair_vector(sys: FlowGeneratorSystem, F0: np.ndarray) -> np.ndarray:
    """G0(a, b) = F0(U_a U_b) over all basis pairs, flattened row-major.

    The complex product is spelled out so that every entry is rounded as
    a scalar product is (numpy's array loop may fuse multiply and add).
    """
    phase, rows = sys.kernel.products()
    root, val = sys.kernel.roots[phase].reshape(-1), F0[rows].reshape(-1)
    G0 = np.empty(root.size, dtype=complex)
    G0.real = root.real * val.real - root.imag * val.imag
    G0.imag = root.real * val.imag + root.imag * val.real
    return G0


class _Piece(NamedTuple):
    """The stretch [a, b] between two breakpoints: its cell's generator and leak rate.

    The generator is prepared for the stepper once per cell; the pieces of
    one cell share it.
    """

    a: float
    b: float
    op: StepOperator
    leak_rate: float


def _flow_pieces(sys: FlowGeneratorSystem, grid: np.ndarray, f: TestFunction,
                 g: TestFunction) -> list[_Piece]:
    """The F system between consecutive breakpoints, assembled once per cell.

    On a cell the generator is Lhat + sum_k [g_k delta_k^dag + conj(f_k) delta_k]
    and the leak rate the same combination of the maps' column leak maxima.
    """
    cells: dict = {}
    pieces = []
    bps = _breakpoints(grid, f)
    for a, b in zip(bps[:-1], bps[1:]):
        cell = _cell_of(0.5 * (a + b), f)
        if cell not in cells:
            A = sys.lhat_t.copy()
            rate = sys.leak_max("lhat")
            for key in sys.noise:
                gv = g.cell_value(key, cell)
                fv = f.cell_value(key, cell)
                if gv != 0j:
                    A = A + gv * sys.delta_dag_t[key]
                if fv != 0j:
                    A = A + fv.conjugate() * sys.delta_t[key]
                rate += abs(gv) * sys.leak_max(("dd", key))
                rate += abs(fv) * sys.leak_max(("d", key))
            cells[cell] = (step_operator(A), rate)
        pieces.append(_Piece(a, b, *cells[cell]))
    return pieces


def _pair_operator(cell: StepOperator, ito: StepOperator, n: int) -> StepOperator:
    """The G generator A (x) 1 + 1 (x) A + Ito, applied to G as an n x n matrix.

    On G it is (A - aI) G + G (A - aI)^T + (Ito - cI) G plus the shift
    2a + c, with a = tr A / n and c = tr Ito / n^2, so the shifted kron
    form is never assembled.  2 ||A - aI||_1 + ||Ito - cI||_1 is at least
    its 1-norm.
    """
    def shifted(vec: np.ndarray) -> np.ndarray:
        G = vec.reshape(n, n)
        out = cell.shifted(G)
        out += cell.shifted(G.T).T
        out = out.reshape(-1)
        out += ito.shifted(vec)
        return out

    return StepOperator(2.0 * cell.mu + ito.mu, shifted, 2.0 * cell.norm + ito.norm)


def _pair_pieces(sys: FlowGeneratorSystem, pieces: list[_Piece]) -> list[_Piece]:
    """The doubled G system on the F pieces: A (x) 1 + 1 (x) A + Ito.

    The quantum Ito term sum_k delta_k^dag (x) delta_k is the same on every
    cell and is the only n^2 x n^2 matrix built; each cell's G generator
    acts through its F generator (``_pair_operator``).  Its missing flux
    is bounded per mode by leak x map mass, so the leak rate is 2 x the F
    rate plus that Ito rate.
    """
    n = sys.dim
    ito = scipy.sparse.csr_matrix((n * n, n * n), dtype=complex)
    ito_rate = 0.0
    for key in sys.noise:
        ito = ito + scipy.sparse.kron(sys.delta_dag_t[key], sys.delta_t[key], format="csr")
        # delta_k^dag = * o delta_k o *, and the adjoint permutes the window
        # strings up to phases, so both maps have the same largest column mass.
        ld, ldd, mass = sys.leak_max(("d", key)), sys.leak_max(("dd", key)), sys.map_l1(key)
        ito_rate += ldd * mass + mass * ld + ldd * ld
    ito_op = step_operator(ito)
    doubled: dict = {}
    out = []
    for p in pieces:
        if id(p.op) not in doubled:
            doubled[id(p.op)] = (_pair_operator(p.op, ito_op, n), 2.0 * p.leak_rate + ito_rate)
        out.append(_Piece(p.a, p.b, *doubled[id(p.op)]))
    return out


def _leak_accrual(pieces: list[_Piece]) -> dict[float, float]:
    """Leak budget accrued from 0 to each breakpoint: sum of rate x length per piece."""
    acc = {0.0: 0.0}
    for p in pieces:
        acc[p.b] = acc[p.a] + p.leak_rate * (p.b - p.a)
    return acc


def _propagate(pieces: list[_Piece], F0, grid, tol, scale):
    """Step across the pieces; vectors and leak budgets at the grid points."""
    states = {0.0: F0}
    for p in pieces:
        states[p.b] = expm_multiply(p.op, states[p.a], p.b - p.a)
    leak = _leak_accrual(pieces)
    out = np.array([states[float(t)] for t in grid])
    return out, np.array([tol + scale * leak[float(t)] for t in grid])


# -- the flow front-ends -----------------------------------------------------------


def flow_element(sys: FlowGeneratorSystem, u, f, v, g, t_grid,
                 tol: float = 1e-10) -> MatrixElementTrajectory:
    """F_t(U_b) = <u e(f), j_t(U_b) v e(g)> for every window basis label b.

    Advances piece by piece by the action of the matrix exponential
    (``expm_multiply``), each cell's generator prepared once for all of its
    pieces.  The one solve serves every observable on the window:
    ``of_operator(x)`` reads F_t(x) and ``error_of(x)`` its budget.
    """
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    F, est = _propagate(_flow_pieces(sys, grid, f, g), _initial_vector(sys, u, v, f, g),
                        grid, tol, _scale(u, f, v, g))
    return MatrixElementTrajectory(grid, sys.basis, sys.index, F, est)


def picard_element(sys: FlowGeneratorSystem, x: LocalOperator, u, f, v, g, t_grid,
                   depth: int | None = None, tol: float = 1e-10) -> MatrixElementTrajectory:
    """F_t(x) by Picard sweeps (cumulative Simpson, ``PICARD_SUB`` nodes per piece).

    The iteration tail bound certifies x alone, for single-operator
    families only (others raise ``ValueError``); ``depth=None`` runs to
    ``smallest_certified_depth`` at the last grid time.  The estimate is
    tol + scale (tail + l1(x) leak); the result holds x as the basis [1].
    """
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    cx = dense.coefficient_vector(x, sys.index)  # WindowError outside the window
    L = sys.lindbladian
    if depth is None:
        depth = smallest_certified_depth(x, g, float(grid[-1]), L, tol)
    # The tail bound grows with t0, so quoting it at each grid time is a
    # bound there; at t = 0 it vanishes.
    tail = np.array([picard_tail_bound(x, g, float(t), depth, L) for t in grid])
    flow = _flow_pieces(sys, grid, f, g)
    F0 = _initial_vector(sys, u, v, f, g)
    # Global node array; every breakpoint (hence every grid point) is a node.
    nodes = [0.0]
    pieces = []  # (start_idx, end_idx, h, A)
    for p in flow:
        start = len(nodes) - 1
        seg = np.linspace(p.a, p.b, PICARD_SUB + 1)
        nodes.extend(seg[1:].tolist())
        pieces.append((start, len(nodes) - 1, (p.b - p.a) / PICARD_SUB, p.op))
    nodes = np.asarray(nodes)
    n_nodes = nodes.size

    G = np.tile(F0, (n_nodes, 1))
    for _ in range(depth):
        integ = np.empty_like(G)
        for start, end, _h, op in pieces:
            integ[start:end + 1] = op.apply(G[start:end + 1].T).T
        cum = np.zeros_like(G)
        offset = np.zeros_like(F0)
        for start, end, h, _op in pieces:
            seg = cumulative_simpson(integ[start:end + 1], h)
            cum[start:end + 1] = seg + offset
            offset = cum[end]
        G_new = np.tile(F0, (n_nodes, 1)) + cum
        increment = float(np.max(np.abs(G_new - G)))
        G = G_new
        # Sweeps past the numerical fixed point are no-ops; the
        # certificate is still quoted at the full depth.
        if increment < 1e-15 * max(1.0, float(np.max(np.abs(G)))):
            break

    idx = np.searchsorted(nodes, grid)
    idx = np.clip(idx, 0, n_nodes - 1)
    for i, t in enumerate(grid):
        if abs(nodes[idx[i]] - t) > 1e-12:
            raise AssertionError("grid point missed the picard node lattice")
    values = G[idx] @ cx
    # Leakage accrues per basis string exactly as in the ODE path.
    leak = _leak_accrual(flow)
    leak = np.array([leak[float(t)] for t in grid])
    est = tol + _scale(u, f, v, g) * (tail + x.l1() * leak)
    return _observable_trajectory(grid, values, est)


def _exp_or_inf(log_v: float) -> float:
    """e^log_v, or inf where that overflows a float; never a capped value."""
    try:
        return math.exp(log_v)
    except OverflowError:
        return math.inf


def _picard_log_base(x: LocalOperator, f: TestFunction, t0: float,
                     L: "_lb.Lindbladian") -> float | None:
    """log of base = 3 (1+||r||) (2 theta_1(r) c_x) sqrt(t0 c_f); None if amp or t0 is 0."""
    r = L.single_r()
    amp = 2.0 * theta(r, 1) * c_const(x)
    if amp == 0.0 or t0 == 0.0:
        return None
    cf = 2.0 * math.exp(f.gamma(t0)) * (1.0 + f.sup_norm() ** 2)
    return (math.log(3.0) + math.log1p(dense.operator_norm(r)) + math.log(amp)
            + 0.5 * math.log(t0 * cf))


def picard_error_bound(x: LocalOperator, f: TestFunction, t0: float, n: int,
                       L: "_lb.Lindbladian") -> float:
    """Unit-normalized bound on the n-th Picard increment.

    3^n (t0 c_f)^{n/2} (1+||r||)^n (2 theta_1(r) c_x)^n / sqrt(n!), with
    c_f = 2 e^{gamma_f(t0)} (1 + ||f||_inf^2); per unit norm of the
    evolved exponential vector.  Single-operator families only.  Returns
    inf where the bound overflows a float.
    """
    if n < 1:
        raise ValueError("picard depth must be >= 1")
    if t0 < 0:
        raise ValueError("t0 must be nonnegative")
    log_base = _picard_log_base(x, f, t0, L)
    if log_base is None:
        return 0.0
    return _exp_or_inf(n * log_base - 0.5 * math.lgamma(n + 1))


def picard_tail_bound(x: LocalOperator, f: TestFunction, t0: float, n: int,
                      L: "_lb.Lindbladian") -> float:
    """Upper bound on sum_{m > n} of the increment bounds base^m / sqrt(m!).

    The ratio of term m+1 to term m is base / sqrt(m+1), so the terms rise
    until m + 1 passes base^2, and the tail stays above the n-th term until
    n + 1 > 4 base^2, where the ratio falls below 1/2.  Terms are summed
    until negligible; the rest is closed by the geometric remainder
    term q / (1 - q), q the next ratio, which majorises it because every
    later ratio is smaller.  Returns inf, never a capped value, when the
    sum overflows a float or PICARD_MAX_TERMS run out first.
    """
    log_base = _picard_log_base(x, f, t0, L)
    if log_base is None:
        return 0.0
    total = 0.0
    for m in range(n + 1, n + PICARD_MAX_TERMS):
        term = _exp_or_inf(m * log_base - 0.5 * math.lgamma(m + 1))
        total += term
        if math.isinf(total):
            return total
        # A rising term is at least term 0 = 1 and the largest so far, so it
        # never falls below 1e-30 max(total, 1): the stop lies past the
        # turnover, where q < 1.
        if term < 1e-30 * max(total, 1.0) and m > n + 4:
            q = math.exp(log_base) / math.sqrt(m + 1)
            return total + term * q / (1.0 - q)
    return math.inf


def smallest_certified_depth(x: LocalOperator, f: TestFunction, t0: float,
                             L: "_lb.Lindbladian", tol: float) -> int:
    """Smallest n whose tail bound is below tol."""
    lo, hi = 1, 2
    while picard_tail_bound(x, f, t0, hi, L) >= tol:
        hi *= 2
        if hi > CERTIFIED_DEPTH_MAX:
            raise SizeGuardError(f"no certified depth below {CERTIFIED_DEPTH_MAX}")
    while lo < hi:
        mid = (lo + hi) // 2
        if picard_tail_bound(x, f, t0, mid, L) < tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def pair_element(sys: FlowGeneratorSystem, u, f, v, g, t_grid,
                 tol: float = 1e-10) -> PairTrajectory:
    """Solve the doubled system G_t(U_a, U_b) for every pair of window labels.

    Each piece's G generator acts on the n x n state through the F cell's
    generator plus the one Ito matrix (``_pair_operator``);
    ``dense.MAX_PAIR_DIM`` bounds n^2 (4 sites at N = 2).  Its identity
    row is F of the same (u, f, v, g), stepped by the same F pieces;
    ``homomorphism_defect`` checks that against ``flow_element``'s solve.
    """
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    n = sys.dim
    if n * n > dense.MAX_PAIR_DIM:
        raise SizeGuardError(f"pair basis dimension {n * n} exceeds guard {dense.MAX_PAIR_DIM}")
    G0 = _initial_pair_vector(sys, _initial_vector(sys, u, v, f, g))
    Gflat, est = _propagate(_pair_pieces(sys, _flow_pieces(sys, grid, f, g)), G0, grid, tol,
                            _scale(u, f, v, g))
    return PairTrajectory(grid, sys.basis, sys.index, Gflat.reshape(len(grid), n, n), est)


class HomomorphismReport(NamedTuple):
    defect: float
    error_estimate: float
    defects: np.ndarray
    consistent: bool


def homomorphism_defect(ftraj: MatrixElementTrajectory, gtraj: PairTrajectory,
                        pairs) -> list[HomomorphismReport]:
    """max_t |F_t(xy) - G_t(x, y)| and its error budget, one report per pair (x, y).

    ``ftraj`` and ``gtraj`` are the F and G solves of one (u, f, v, g) on
    one system and grid, else ``ValueError``; every pair reads them.
    ``consistent``: G's identity row is F to within 10 x F's largest
    estimate, which holds by construction (both step the same F pieces).
    """
    if ftraj.basis != gtraj.basis or not np.array_equal(ftraj.grid, gtraj.grid):
        raise ValueError("the F and G solves must share one basis and grid")
    id_row = gtraj.G[:, gtraj.index[WeylLabel.identity()], :]
    violation = float(np.abs(id_row - ftraj.F).max())
    consistent = violation <= 10.0 * float(ftraj.error_estimate.max())
    reports = []
    for x, y in pairs:
        xy = x * y
        D = np.abs(ftraj.of_operator(xy) - gtraj.of_pair(x, y))
        est = ftraj.error_of(xy) + gtraj.error_of(x, y)
        reports.append(HomomorphismReport(float(D.max()), float(est.max()), D, consistent))
    return reports


class ContractionReport(NamedTuple):
    lhs: float
    rhs: float
    error: float


def contraction_check(sys: FlowGeneratorSystem, xs, family, t: float,
                      tol: float = 1e-10, solved=None) -> list[ContractionReport]:
    """Gram form ||j_t(x) xi||^2 against ||x||^2 ||xi||^2, one report per x in ``xs``.

    ``family`` lists (c_i, u_i, f_i) members of xi = sum c_i u_i e(f_i).
    The left side is assembled from F_t(x*x) of each ordered pair of
    members, one solve per pair with i <= j and adjoint symmetry for the
    lower triangle; every x reads the same solves.  ``solved`` maps a
    pair (i, j) to the caller's ``flow_element`` solve of it on ``sys``,
    whose grid must hold t; that pair is read there, not solved again.
    """
    if len(family) > 8:
        raise SizeGuardError("contraction family limited to 8 members")
    solved = solved or {}
    solves = {}
    for i, (_ci, ui, fi) in enumerate(family):
        for j, (_cj, uj, fj) in enumerate(family[i:], start=i):
            if (i, j) in solved:
                at = np.flatnonzero(solved[(i, j)].grid == t)
                if at.size == 0:
                    raise ValueError(f"the solve given for pair {(i, j)} does not hold t = {t}")
                solves[(i, j)] = (solved[(i, j)], int(at[0]))
            else:
                solves[(i, j)] = (flow_element(sys, ui, fi, uj, fj, [t], tol=tol), 0)
    reports = []
    for x in xs:
        xx = x.adjoint() * x
        errs = sum(abs(family[i][0]) * abs(family[j][0]) * float(traj.error_of(xx)[k])
                   * (1 if i == j else 2) for (i, j), (traj, k) in solves.items())
        vals = {pair: traj.of_operator(xx)[k] for pair, (traj, k) in solves.items()}
        lhs = xi_sq = 0j
        for i, (ci, ui, fi) in enumerate(family):
            for j, (cj, uj, fj) in enumerate(family):
                coeff = ci.conjugate() * cj
                val = vals[(i, j)] if i <= j else vals[(j, i)].conjugate()
                lhs += coeff * val
                xi_sq += coeff * gns_inner(ui, uj) * exp_inner(fi, fj)
        rhs = dense.operator_norm(x) ** 2 * xi_sq.real
        reports.append(ContractionReport(lhs.real, rhs, errs + abs(lhs.imag)))
    return reports


class CovarianceReport(NamedTuple):
    deviation: float
    error_estimate: float


def covariance_check(sys: FlowGeneratorSystem, traj: MatrixElementTrajectory, xs,
                     u, f, v, g, j, tol: float = 1e-10) -> list[CovarianceReport]:
    """Shift invariance: F(x; u,f,v,g) against the problem translated by -j.

    ``traj`` is ``flow_element``'s solve of (u, f, v, g) on ``sys``; the
    translated problem is solved once on the translated window, and each
    x in ``xs`` gets one report.
    """
    j = tuple(int(c) for c in j)
    neg = tuple(-c for c in j)
    L = sys.lindbladian
    sites_b = tuple(tuple(s[c] + neg[c] for c in range(L.params.d)) for s in sys.sites)
    traj_b = flow_element(
        build_generator_system(L, sites_b), u.translate(neg), f.shifted(j),
        v.translate(neg), g.shifted(j), traj.grid, tol=tol
    )
    reports = []
    for x in xs:
        xb = x.translate(neg)
        dev = np.abs(traj.of_operator(x) - traj_b.of_operator(xb))
        est = traj.error_of(x) + traj_b.error_of(xb)
        reports.append(CovarianceReport(float(dev.max()), float(est.max())))
    return reports


# -- ergodicity of partial-state flows ---------------------------------------------


@dataclass
class ErgodicityScan:
    grid: np.ndarray
    values: np.ndarray  # |F_t(x) - target|
    trajectory: np.ndarray
    target: complex
    rate: float | None
    r2: float | None
    fit_start: float


def eta_ergodicity_scan(state, x: LocalOperator, u, f, v, g, t_grid) -> ErgodicityScan:
    """|F_t(x) - Phi(x) <u e(f), v e(g)>| and its fitted decay rate.

    F is one ``flow_element`` solve of the partial-state flow on the
    window of x's support (the origin when x is a scalar).  Each Kraus
    member acts on one site, so the maps keep the window's basis, the
    window has no leak and the solve is exact up to the stepper.  u and v
    enter only through F_0 = <u, U_b v> exp<f, g>, read from the one
    symbolic product v u* whatever their supports, and a mode on a site
    outside the window meets no acting member and enters only through
    exp<f, g>.  Raises ``SizeGuardError`` when the window basis exceeds
    ``dense.MAX_WINDOW_DIM`` (x on more than 7 sites at N = 2).
    """
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    L = _lb.Lindbladian.partial_state(x.params, state)
    sys = build_generator_system(L, x.support() or [(0,) * x.params.d])
    values = flow_element(sys, u, f, v, g, grid).of_operator(x)
    target = _lb.ergodic_state(state, x) * gns_inner(u, v) * exp_inner(f, g)
    dev = np.abs(values - target)
    drive_end = 0.0
    if f.modes or g.modes:
        drive_end = max(f.t_max if f.modes else 0.0, g.t_max if g.modes else 0.0)
    fit_start = drive_end + 0.1 * max(grid[-1] - drive_end, 0.0)
    mask = (grid >= fit_start) & (dev > 1e-14)
    rate = r2 = None
    if mask.sum() >= 4:
        try:
            rate, r2 = _lb.decay_rate_fit(grid[mask], dev[mask])
        except FitError:
            rate = r2 = None
    return ErgodicityScan(grid, dev, values, target, rate, r2, fit_start)


def hp_divergence_witness(r: LocalOperator, u: LocalOperator, K: int) -> list[float]:
    """Partial sums S_K' = sum_{|j|_inf <= K'} ||r_j u||^2 for K' = 1..K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    d = r.params.d
    total = gns_norm(r * u) ** 2  # the j = 0 shell
    sums = []
    for kp in range(1, K + 1):
        for j in itertools.product(range(-kp, kp + 1), repeat=d):
            if max(abs(c) for c in j) != kp:
                continue
            total += gns_norm(r.translate(j) * u) ** 2
        sums.append(total)
    return sums
