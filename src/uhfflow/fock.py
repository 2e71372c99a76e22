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
F_t(xy) = G_t(x, y).  Between breakpoints each cell has its generator
A = Lhat + sum_k [g_k delta_k^dag + conj(f_k) delta_k] and leak rate;
G's generator on the cell is A (x) 1 + 1 (x) A + Ito, with
Ito = sum_j delta_j^dag (x) delta_j over every noise mode.

Both systems are solved on the invariant subspace that their initial
vector reaches, and are exactly 0 elsewhere.  Every cell generator's
entries lie in the union pattern of Lhat and the driven modes' maps, so
none links two connected components of that pattern: F lives on the
components that F_0 touches, and G on the component pairs that G_0
touches, closed under the Ito moves of every noise mode, driven or not
(``_pair_support``), which are found from F_0's strings; G_0 is
evaluated on them alone.  F's cell generator is restricted to its set as
one sparse matrix.  G's set is a union of rectangles of string pairs, on
each of which G is a dense block: A (x) 1 + 1 (x) A acts on it through
A restricted to the rectangle's rows and columns, one block-diagonal
matrix per side for all rectangles of one shape, which are listed
together and so fill one slice of the support, and the Ito sum, the
same on every cell, is the one matrix built on pairs (``_pair_pieces``).
The Taylor norms and log-norms are those of the restricted systems, and
the pieces are stepped by the grid driver ``evolve`` uses too,
``lindblad.propagate``; ``_propagate`` only restricts to the support,
scatters each state back into its grid rows and adds the leak term.  A
generator that connects every string gives one component, one rectangle
and the whole basis, through the same code.
One solve per (u, f, v, g) and grid serves every observable and pair;
each trajectory records its system, (u, f, v, g) and the index set it
was solved on, so the checks read from it the problem they check.  Each
error estimate bounds one basis string and is scaled by the observable's
l1 norm (``error_of``).  It has two terms.  The caller's ``tol`` is a
certified bound on the stepper's truncation error at every grid time:
the pieces share it, each one's share shrunk by the growth the later
pieces' log-norms allow (``lindblad.propagate``); roundoff is outside it.
Truncation to a finite site window drops operator mass outside it; that
l1 mass is recorded per map and gives the leak term.

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
from .lindblad import Piece, StepOperator, step_operator
from .sparse import CSR, index_dtype

PICARD_MAX_TERMS = 500_000  # terms summed by picard_tail_bound before it gives inf
CERTIFIED_DEPTH_MAX = 100_000  # deepest Picard depth smallest_certified_depth tries
SCAN_TOL = 1e-15  # eta_ergodicity_scan's solve; its fit reads deviations above 10 x this

ModeKey = tuple[Site, int]  # (lattice site of the translate, Kraus member id)

# The stepper ``lindblad.propagate`` calls, bound here too: the benchmark's
# span tracer (``bench/spans.py``) times it under this module's name.
expm_multiply = _lb.expm_multiply


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
        if not 0 < t_max < math.inf or cells < 1:
            raise ValueError("need a finite t_max > 0 and cells >= 1")
        packed = []
        for key, vals in modes.items():
            key, vals = _norm_key(key, d), tuple(complex(v) for v in vals)
            # The mode as a config names it: site/member.
            name = ",".join(map(str, key[0])) + f"/{key[1]}"
            if len(vals) != cells:
                raise ValueError(f"mode {name!r}: expected {cells} cell values, got {len(vals)}")
            if not all(map(cmath.isfinite, vals)):
                raise ValueError(f"mode {name!r}: a cell value is not finite")
            packed.append((key, vals))
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
    delta_t: dict[ModeKey, CSR]
    delta_dag_t: dict[ModeKey, CSR]
    lhat_t: CSR
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
        return float(self.delta_t[key].abs_row_sums().max(initial=0.0))


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
        delta_t[key] = (-mat_d).transpose()
        delta_dag_t[key] = mat_dd.transpose()

    # Lhat = L.apply: every translate acting on the window, unclipped.
    lhat, leak["lhat"] = kern.generator(acting.values())

    return FlowGeneratorSystem(
        lindbladian=L,
        noise=list(acting),
        delta_t=delta_t,
        delta_dag_t=delta_dag_t,
        lhat_t=lhat.transpose(),
        leak=leak,
        kernel=kern,
    )


# -- trajectories ---------------------------------------------------------------


@dataclass
class MatrixElementTrajectory:
    """F_t(U_b) over the basis of ``sys``: ``problem`` (u, f, v, g) as passed, solved to ``tol``."""

    grid: np.ndarray
    sys: FlowGeneratorSystem
    problem: tuple
    tol: float
    F: np.ndarray  # (T, dim)
    error_estimate: np.ndarray  # (T,)
    support: np.ndarray  # the strings solved on; F is 0 on the others

    def of_label(self, lab: WeylLabel) -> np.ndarray:
        try:
            return self.F[:, self.sys.index[lab]]
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


class PicardTrajectory(NamedTuple):
    """F_t(x) of one observable x on a time grid, and the estimate that certifies it."""

    grid: np.ndarray
    values: np.ndarray
    error_estimate: np.ndarray


@dataclass
class PairTrajectory:
    """G_t(U_a, U_b) for every basis pair of ``sys``, on a time grid, for ``problem``."""

    grid: np.ndarray
    sys: FlowGeneratorSystem
    problem: tuple
    G: np.ndarray  # (T, dim, dim)
    error_estimate: np.ndarray
    support: np.ndarray  # the flat pairs a dim + b solved on, in solve order; G is 0 on the others

    def of_pair(self, x: LocalOperator, y: LocalOperator) -> np.ndarray:
        cx = dense.coefficient_vector(x, self.sys.index)
        cy = dense.coefficient_vector(y, self.sys.index)
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
    return (gns_norm(u) * math.exp(0.5 * f.l2_sq())) * (gns_norm(v) * math.exp(0.5 * g.l2_sq()))


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


def _initial_pair_vector(sys: FlowGeneratorSystem, F0: np.ndarray,
                         pairs: np.ndarray) -> np.ndarray:
    """G0(a, b) = F0(U_a U_b) at the flat pairs a n + b of ``pairs``, in their order.

    The complex product is spelled out so that every entry is rounded as
    a scalar product is (numpy's array loop may fuse multiply and add).
    """
    phase, rows = sys.kernel.products(*np.divmod(pairs, sys.dim))
    root, val = sys.kernel.roots[phase], F0[rows]
    G0 = np.empty(root.size, dtype=complex)
    G0.real = root.real * val.real - root.imag * val.imag
    G0.imag = root.real * val.imag + root.imag * val.real
    return G0


class _Drive(NamedTuple):
    """The F system's cell generators for one drive (f, g), on one sparsity pattern.

    Cell c's generator A_c = Lhat + sum_k [g_k delta_k^dag + conj(f_k) delta_k]
    (stored transposed, as the maps are) has the values ``values(c)`` =
    ``maps @ coef[c]`` at the entries (``rows``, ``cols``).  The columns of ``maps`` are Lhat
    and the delta^dag and delta of each driven mode, one that f or g
    drives on a cell of the solve, on the union of their patterns and the
    diagonal; ``coef[c]`` holds 1, g_k and conj(f_k).  ``comp`` numbers
    the connected components of that pattern, which no A_c mixes.
    ``stretches`` lists the stretches (a, b) between consecutive
    breakpoints with their cells; ``rate`` maps a cell to its leak rate,
    the same combination of the maps' column leak maxima.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    maps: np.ndarray
    comp: np.ndarray
    stretches: list[tuple[float, float, int | None]]
    coef: dict
    rate: dict

    def values(self, cell) -> np.ndarray:
        """A_c's values at the pattern's entries."""
        # Summed elementwise: a threaded BLAS starts its threads for a
        # product this small, which costs milliseconds.
        return (self.maps * self.coef[cell]).sum(axis=1)


def _drive(sys: FlowGeneratorSystem, grid: np.ndarray, f: TestFunction,
           g: TestFunction) -> _Drive:
    """The cell generators, pattern and components of the drive (f, g) over ``grid``."""
    bps = _breakpoints(grid, f)
    stretches = [(a, b, _cell_of(0.5 * (a + b), f)) for a, b in zip(bps[:-1], bps[1:])]
    cells = list(dict.fromkeys(cell for _a, _b, cell in stretches))
    driven = [key for key in sys.noise
              if any(f.cell_value(key, c) != 0j or g.cell_value(key, c) != 0j for c in cells)]
    mats = [sys.lhat_t]
    for key in driven:
        mats += [sys.delta_dag_t[key], sys.delta_t[key]]
    n = sys.dim
    flat = [m.rows() * n + m.indices for m in mats]  # each entry's row * n + column
    keys = np.unique(np.concatenate([np.arange(n) * (n + 1)] + flat))
    maps = np.zeros((keys.size, len(mats)), dtype=complex)
    for j, (m, at) in enumerate(zip(mats, flat)):  # canonical CSR maps: no entry repeats
        maps[np.searchsorted(keys, at), j] = m.data
    rows, cols = np.divmod(keys, n)
    coef, rate = {}, {}
    for cell in cells:
        gv = [g.cell_value(key, cell) for key in driven]
        fv = [f.cell_value(key, cell) for key in driven]
        coef[cell] = np.array([1.0] + [c for gk, fk in zip(gv, fv) for c in (gk, fk.conjugate())])
        rate[cell] = sys.leak_max("lhat")
        for key, gk, fk in zip(driven, gv, fv):
            rate[cell] += abs(gk) * sys.leak_max(("dd", key))
            rate[cell] += abs(fk) * sys.leak_max(("d", key))
    return _Drive(n, rows, cols, maps, _components(n, rows, cols), stretches, coef, rate)


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component number of each node of the undirected graph on range(n) with edges (rows, cols).

    Every node holds a node of its own component, at first itself.  A
    round gives it the least label over its edges and then that label's
    own label (pointer jumping), until no label changes; then every
    component is labelled by its least node, and the components are
    numbered from 0 in the order of those nodes.
    """
    nodes = np.arange(n)
    label = nodes
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            return (np.cumsum(label == nodes) - 1)[label]
        label = new


def _positions(size: int, index: np.ndarray) -> np.ndarray:
    """Position of each entry of ``index`` in it; -1 off it."""
    pos = np.full(size, -1)
    pos[index] = np.arange(index.size)
    return pos


def _flow_support(drive: _Drive, F0: np.ndarray) -> np.ndarray:
    """The strings of every component that F0 touches, in basis order."""
    touched = np.zeros(drive.comp.max() + 1, dtype=bool)
    touched[drive.comp[F0 != 0]] = True
    return np.flatnonzero(touched[drive.comp])


def _pair_support(sys: FlowGeneratorSystem, drive: _Drive,
                  F0: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The component pairs that G's generator reaches from G0's, as rectangles of strings.

    G0 is not built here.  G0(a, b) = F0(U_a U_b) is a root of unity
    times F0 at the string a + b (exponents add), so it is nonzero
    exactly where F0 is nonzero at a + b: for each such string c, G0
    touches the component pairs of (a, c - a) over every string a
    (``WindowKernel.factors``), and no others.

    A (x) 1 and 1 (x) A keep the components of a pair (a, b).  The Ito
    term of a noise mode k takes a component pair (i, j) to each (i', j')
    where delta_k^dag maps a string of i into i' and delta_k one of j into
    j'.  Every noise mode moves pairs, driven or not, since the Ito sum
    runs over all of them: an undriven mode's maps are in no cell
    generator, so it moves i and j together between components.  The
    closure of G0's component pairs under these moves is returned as
    rectangles (rows, cols) of strings in basis order: the row components
    that reach the same column components share one.  The rectangles are
    disjoint, and A (x) 1 and 1 (x) A map each into itself.  Those of one
    shape are listed together, the shapes in the order they first appear,
    so each shape's pairs are one slice of the support (``_pair_pieces``).
    """
    comp = drive.comp
    nc = int(comp.max()) + 1

    def moves(mat: CSR) -> np.ndarray:
        """M[i, i'] = 1 where the map (stored transposed) takes a string of i into i'."""
        out = np.zeros((nc, nc))
        out[comp[mat.indices], comp[mat.rows()]] = 1.0
        return out

    steps = [(moves(sys.delta_dag_t[key]).T, moves(sys.delta_t[key])) for key in sys.noise]
    reach = np.zeros((nc, nc))
    reach[comp, comp[sys.kernel.factors(np.flatnonzero(F0))]] = 1.0
    while True:
        new = reach.copy()
        for dd_t, d in steps:
            new += dd_t @ reach @ d
        new = (new > 0).astype(float)
        if np.array_equal(new, reach):
            break
        reach = new
    classes, which = np.unique(reach > 0, axis=0, return_inverse=True)
    which = which.reshape(-1)
    rects = [(np.flatnonzero(which[comp] == k), np.flatnonzero(cls[comp]))
             for k, cls in enumerate(classes) if cls.any()]
    shapes = dict.fromkeys((rows.size, cols.size) for rows, cols in rects)
    return [rect for shape in shapes for rect in rects if (rect[0].size, rect[1].size) == shape]


def _pair_index(rects: list[tuple[np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """The flat pairs a n + b of the rectangles, row-major within each, in their order."""
    return np.concatenate([np.zeros(0, dtype=int)]
                          + [(rows[:, None] * n + cols).reshape(-1) for rows, cols in rects])


def _restriction(drive: _Drive, blocks: list[np.ndarray]):
    """The cell generators on each string set of ``blocks``, as one block-diagonal matrix.

    Each set is a union of the drive's components in basis order, so a
    pattern entry in one of its rows has its column there too; the
    pattern is sorted by (row, column) and holds the diagonal, so the
    entries in the sets' rows, set after set, are the matrix's data in
    CSR order.  The structure is built once.  Returns
    ``matrix(values, shift)``: the CSR matrix of the generator with
    pattern values ``values``, less ``shift`` on its diagonal; a call
    fills only the data, and every matrix shares the index arrays.
    """
    keep, rows, cols, offset = [], [], [], 0
    for strings in blocks:
        pos = _positions(drive.dim, strings)
        kept = np.flatnonzero(pos[drive.rows] >= 0)
        keep.append(kept)
        rows.append(pos[drive.rows[kept]] + offset)
        cols.append(pos[drive.cols[kept]] + offset)
        offset += strings.size
    keep = np.concatenate(keep)
    indices = np.concatenate(cols)
    indptr = np.searchsorted(np.concatenate(rows), np.arange(offset + 1))
    diag = np.flatnonzero(drive.rows[keep] == drive.cols[keep])

    def matrix(values: np.ndarray, shift: complex = 0j) -> CSR:
        data = values[keep]
        data[diag] -= shift
        return CSR(data, indices, indptr, (offset, offset))

    return matrix


def _pieces(drive: _Drive, cells: dict) -> list[Piece]:
    """One piece per stretch of the drive; ``cells[cell]`` = (generator, leak rate), shared."""
    return [Piece(a, b, *cells[cell]) for a, b, cell in drive.stretches]


def _flow_pieces(drive: _Drive, support: np.ndarray) -> list[Piece]:
    """The F system on the strings ``support``, prepared once per cell.

    ``support`` is a union of the drive's components, so the cell
    generator restricted to it is the whole generator's action there, and
    the norms and log-norm are those of the restriction.
    """
    matrix = _restriction(drive, [support])
    return _pieces(drive, {cell: (step_operator(matrix(drive.values(cell))), drive.rate[cell])
                           for cell in drive.coef})


def _ito(sys: FlowGeneratorSystem, support: np.ndarray, n: int) -> tuple[CSR, float]:
    """The Ito sum on the flat pairs ``support``, which it maps into itself, and its leak rate.

    The sum over every noise mode k of delta_k^dag (x) delta_k, in CSC:
    the returned CSR matrix is its transpose, whose rows are its columns.
    Column (a, b) of a mode's term pairs each entry of column a of
    delta_k^dag with each of column b of delta_k; those entries are
    written straight into the column's slots, after the earlier modes',
    so no copy of the entries is held besides the matrix's own.  Its
    missing flux is bounded per mode by leak x map mass.
    """
    size = support.size
    pos = _positions(n * n, support)
    a, b = np.divmod(support, n)
    # Each map's transpose holds its columns as rows: its CSC arrays.
    maps = [(sys.delta_dag_t[key].transpose(), sys.delta_t[key].transpose())
            for key in sys.noise]
    counts = [np.diff(dd.indptr)[a] * np.diff(d.indptr)[b] for dd, d in maps]
    indptr = np.concatenate([[0], np.cumsum(np.sum(counts, axis=0, dtype=int))])
    idx = index_dtype(max(size, int(indptr[-1])))
    indptr = indptr.astype(idx)
    data, indices = np.empty(indptr[-1], dtype=complex), np.empty(indptr[-1], dtype=idx)
    filled, rate = indptr[:-1].copy(), 0.0
    for key, (dd, d), per in zip(sys.noise, maps, counts):
        col = np.repeat(np.arange(size), per)
        # k: the entry's place among the mode's entries in its column.
        k = np.arange(col.size) - np.repeat(np.cumsum(per) - per, per)
        width = np.diff(d.indptr)[b[col]]
        i = dd.indptr[a[col]] + k // width
        j = d.indptr[b[col]] + k % width
        rows = pos[dd.indices[i] * n + d.indices[j]]
        assert (rows >= 0).all(), "the pair support is not closed"
        slot = filled[col] + k
        data[slot], indices[slot] = dd.data[i] * d.data[j], rows
        filled += per
        # delta_k^dag = * o delta_k o *, and the adjoint permutes the window
        # strings up to phases, so both maps have the same largest column mass.
        ld, ldd, mass = sys.leak_max(("d", key)), sys.leak_max(("dd", key)), sys.map_l1(key)
        rate += ldd * mass + mass * ld + ldd * ld
    # Two modes may reach one pair from one column.
    return CSR(data, indices, indptr, (size, size)).sum_duplicates(), rate


class _PairProduct(NamedTuple):
    """One cell's (A (x) 1 + 1 (x) A + Ito - mu) v on the pair support, as a fresh array.

    ``ito`` is the Ito sum's transpose (``_ito``), so ``ito.tdot`` is its
    product.  ``groups`` holds one entry per run of R consecutive
    rectangles of one shape (h, w): the slice ``at`` of the support their
    pairs fill, and the block-diagonal matrices ``rows`` and ``cols`` of A
    restricted to each rectangle's row strings and to its column strings,
    mu / 2 taken off each diagonal.  Stacked, the group's G blocks take
    A_rows G in one product with ``rows`` and G A_cols^T in one with
    ``cols``, on the one transposed copy of the group's blocks.
    """

    ito: CSR
    groups: list[tuple[slice, int, int, int, CSR, CSR]]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        out = self.ito.tdot(v)
        for at, R, h, w, rows, cols in self.groups:
            G = v[at].reshape(R, h, w)
            block = out[at].reshape(R, h, w)  # a view of out
            block += rows.dot(G.reshape(R * h, w)).reshape(R, h, w)
            block += cols.dot(G.transpose(0, 2, 1).reshape(R * w, h)).reshape(
                R, w, h).transpose(0, 2, 1)
        return out


def _pair_pieces(sys: FlowGeneratorSystem, drive: _Drive,
                 rects: list[tuple[np.ndarray, np.ndarray]]) -> list[Piece]:
    """The doubled G system A (x) 1 + 1 (x) A + Ito on the rectangles ``rects``, once per cell.

    The rectangles (``_pair_support``) hold G's support, in the order of
    ``_pair_index``, and are closed under its generator's moves.  On a
    rectangle (rows, cols) G is a dense block, on which A (x) 1 and
    1 (x) A act as A_rows G + G A_cols^T, with A restricted to the
    rectangle's row strings and to its column strings.  Consecutive
    rectangles of one shape form a group, one slice of the support, whose
    restrictions are the blocks of one block-diagonal matrix for the rows
    and one for the columns; ``_pair_support`` lists each shape's
    rectangles together, so there is one group per shape.  Their
    structure is built once per solve, and per cell only their data
    (``_restriction``), so a product takes 1 + 2 x (shapes) sparse
    products (``_PairProduct``).  The quantum Ito term
    sum_k delta_k^dag (x) delta_k is the same on every cell; it is
    assembled once, on the support (``_ito``).  The norms and log-norm
    are taken pair by pair from the three terms' diagonals and
    off-diagonal row and column sums.  They are those of the restricted
    form, unless an Ito entry falls on an off-diagonal entry of A (x) 1
    or 1 (x) A, where they bound it by the triangle inequality.  The leak
    rate is 2 x the F rate plus the Ito rate.
    """
    n = drive.dim
    support = _pair_index(rects, n)
    size = support.size
    ito, ito_rate = _ito(sys, support, n)
    ito_diag = ito.diagonal()
    # ``ito`` holds the transpose: its column sums are the Ito sum's row sums.
    ito_rows = ito.abs_col_sums() - np.abs(ito_diag)
    ito_cols = ito.abs_row_sums() - np.abs(ito_diag)
    a, b = np.divmod(support, n)
    on_diag = drive.rows == drive.cols  # the pattern holds the diagonal, in basis order
    groups, lo = [], 0
    for (h, w), run in itertools.groupby(rects, lambda rect: (rect[0].size, rect[1].size)):
        row_sets, col_sets = zip(*run)
        R = len(row_sets)
        groups.append((slice(lo, lo + R * h * w), R, h, w,
                       _restriction(drive, row_sets), _restriction(drive, col_sets)))
        lo += R * h * w

    def operator(values: np.ndarray) -> StepOperator:
        off = np.where(on_diag, 0.0, np.abs(values))
        off_rows = np.bincount(drive.rows, off, n)
        off_cols = np.bincount(drive.cols, off, n)
        diag = values[on_diag]
        shifted_diag = diag[a] + diag[b] + ito_diag
        mu = complex(shifted_diag.mean()) if size else 0j
        shifted_diag -= mu
        shifted = _PairProduct(ito, [(at, R, h, w, rows(values, 0.5 * mu), cols(values, 0.5 * mu))
                                     for at, R, h, w, rows, cols in groups])
        off_r = off_rows[a] + off_rows[b] + ito_rows
        off_c = off_cols[a] + off_cols[b] + ito_cols
        return StepOperator(mu, shifted, float((np.abs(shifted_diag) + off_c).max(initial=0.0)),
                            float((np.abs(shifted_diag) + off_r).max(initial=0.0)),
                            mu.real + float((shifted_diag.real + off_r).max(initial=-math.inf)))

    return _pieces(drive, {cell: (operator(drive.values(cell)), 2.0 * drive.rate[cell] + ito_rate)
                           for cell in drive.coef})


def _leak_accrual(pieces: list[Piece]) -> dict[float, float]:
    """Leak budget accrued from 0 to each breakpoint: sum of rate x length per piece."""
    acc = {0.0: 0.0}
    for p in pieces:
        acc[p.b] = acc[p.a] + p.leak_rate * (p.b - p.a)
    return acc


def _propagate(pieces: list[Piece], x0: np.ndarray, support: np.ndarray, grid, tol, scale):
    """Step x0 across the pieces on ``support``; full vectors and error estimates at grid points.

    The pieces' generators act on the index set ``support``, which holds
    every nonzero of x0 and which the full generator leaves invariant, so
    the exact solution is 0 off it at all times: the states come back
    with x0's length, exactly 0 there.  ``lindblad.propagate`` steps x0's
    entries on ``support`` within ``tol`` of the truncated system, and
    each state it yields is written into its grid rows here.  The
    estimate adds the leak budget accrued by each grid time.
    """
    out = np.zeros((len(grid), x0.size), dtype=complex)
    for rows, state in _lb.propagate(pieces, x0[support], grid, tol):
        for i in rows:
            out[i, support] = state
    leak = _leak_accrual(pieces)
    return out, np.array([tol + scale * leak[float(t)] for t in grid])


# -- the flow front-ends -----------------------------------------------------------


def flow_element(sys: FlowGeneratorSystem, u, f, v, g, t_grid,
                 tol: float = 1e-10) -> MatrixElementTrajectory:
    """F_t(U_b) = <u e(f), j_t(U_b) v e(g)> for every window basis label b.

    Advances piece by piece by the action of the matrix exponential
    (``lindblad.propagate``), each cell's generator prepared once for all
    of its pieces, to within ``tol`` of the truncated system.
    The solve runs on the components of the drive's pattern that F_0
    touches (``_flow_support``); F is exactly 0 on every other string.
    The one solve serves every observable on the window:
    ``of_operator(x)`` reads F_t(x) and ``error_of(x)`` its budget.
    """
    problem = (u, f, v, g)
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    drive = _drive(sys, grid, f, g)
    F0 = _initial_vector(sys, u, v, f, g)
    support = _flow_support(drive, F0)
    F, est = _propagate(_flow_pieces(drive, support), F0, support, grid, tol, _scale(u, f, v, g))
    return MatrixElementTrajectory(grid, sys, problem, tol, F, est, support)


def picard_element(sys: FlowGeneratorSystem, x: LocalOperator, u, f, v, g, t_grid,
                   depth: int | None = None, tol: float = 1e-10) -> PicardTrajectory:
    """F_t(x) by Picard sweeps, each iterate integrated exactly.

    On a piece between breakpoints the generator A is constant, so every
    iterate is a polynomial in s - a there, and a sweep integrates it
    exactly: F_0 plus the integral of A times the last iterate shifts its
    coefficients up a degree, each times A and over its new degree, and
    starts it at the new iterate's value at a.  The iterates are the
    truncated system's Picard iterates, with no quadrature error.  The
    iteration tail bound certifies x alone, for single-operator
    families only (others raise ``ValueError``); ``depth=None`` runs to
    ``smallest_certified_depth`` at the last grid time.  Both price the
    drive by ``_dominating(f, g)``.  The estimate is
    tol + scale (tail + l1(x) leak).  The sweeps run on the same strings
    as ``flow_element``'s solve.
    """
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    cx = dense.coefficient_vector(x, sys.index)  # WindowError outside the window
    L = sys.lindbladian
    h = _dominating(f, g)
    if depth is None:
        depth = smallest_certified_depth(x, h, float(grid[-1]), L, tol)
    # The tail bound grows with t0, so quoting it at each grid time is a
    # bound there; at t = 0 it vanishes.
    tail = np.array([picard_tail_bound(x, h, float(t), depth, L) for t in grid])
    drive = _drive(sys, grid, f, g)
    F0 = _initial_vector(sys, u, v, f, g)
    support = _flow_support(drive, F0)
    flow = _flow_pieces(drive, support)
    F0, cx = F0[support], cx[support]
    # Each piece is cut into parts of length ell with ell ||A||_inf <= 1
    # (|mu| + norm_inf bounds it), so the terms of a part's polynomial add
    # up to at most e times its value's scale.
    parts, last = [], {}
    for p in flow:
        cuts = max(1, math.ceil((p.b - p.a) * (abs(p.op.mu) + p.op.norm_inf)))
        parts += [(p.op, (p.b - p.a) / cuts)] * cuts
        last[p.b] = len(parts) - 1
    # coef[q, j]: the iterate's coefficient of (s - s_q)^j on part q, which starts at s_q.
    coef = np.tile(F0, (len(parts), 1, 1))
    at_end = np.tile(F0, (len(parts), 1))
    for sweep in range(1, depth + 1):
        new = np.empty((len(parts), sweep + 1, F0.size), dtype=complex)
        start, increment = F0, 0.0
        for q, (op, ell) in enumerate(parts):
            powers = ell ** np.arange(sweep + 1)
            new[q, 0] = start
            new[q, 1:] = op.apply(coef[q].T).T / np.arange(1, sweep + 1)[:, None]
            start = at_end[q] = powers @ new[q]
            change = new[q].copy()
            change[:-1] -= coef[q]
            increment = max(increment, float((powers @ np.abs(change)).max(initial=0.0)))
        coef = new
        # Sweeps past the numerical fixed point are no-ops; the
        # certificate is still quoted at the full depth.
        if increment < 1e-15 * max(1.0, float(np.abs(at_end).max(initial=0.0))):
            break

    values = np.array([at_end[last[float(t)]] if t > 0 else F0 for t in grid]) @ cx
    # Leakage accrues per basis string exactly as in the ODE path.
    leak = _leak_accrual(flow)
    leak = np.array([leak[float(t)] for t in grid])
    est = tol + _scale(u, f, v, g) * (tail + x.l1() * leak)
    return PicardTrajectory(grid, values, est)


def _dominating(f: TestFunction, g: TestFunction) -> TestFunction:
    """The test function h with |h_k| = max(|f_k|, |g_k|) on every cell, for harmonized f, g.

    It dominates both drives of the F system, whose generator carries
    conj(f_k) on delta_k and g_k on delta_k^dag: every coefficient is at
    most |h_k| in modulus on its cell, so ||h(s)|| bounds ||f(s)|| and
    ||g(s)|| at every s.  The Picard bounds read a drive only through
    gamma(t0) and the sup norm, both increasing in every |h_k(s)|, so the
    certificate priced for h covers the solve driven by f and g.
    """
    keys = sorted(set(f.mode_keys()) | set(g.mode_keys()))
    return TestFunction.build(f.t_max, f.cells, {
        key: [max(abs(a), abs(b)) for a, b in zip(f.mode_values(key), g.mode_values(key))]
        for key in keys}, f.d)


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

    The solve runs on the pairs that G's generator reaches from G_0
    (``_pair_support``): component pairs of the drive's pattern, closed
    under the Ito moves of every noise mode, listed as rectangles.  They
    are found from the strings where F_0 is nonzero, and G_0 is evaluated
    at those pairs alone; no n x n table is built.  There each piece's
    generator A (x) 1 + 1 (x) A + Ito acts through its cell's F
    generator, restricted to each rectangle's rows and columns and
    batched per rectangle shape, and the one Ito sum (``_pair_pieces``);
    G is exactly 0 on every other pair, and ``support`` lists the pairs
    solved on, rectangle by rectangle.  ``dense.MAX_PAIR_DIM`` bounds n^2 (4 sites at
    N = 2).  Its identity row is F of the same (u, f, v, g), stepped by
    the same cell generators; ``homomorphism_defect`` checks that
    against ``flow_element``'s solve.
    """
    problem = (u, f, v, g)
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    n = sys.dim
    if n * n > dense.MAX_PAIR_DIM:
        raise SizeGuardError(f"pair basis dimension {n * n} exceeds guard {dense.MAX_PAIR_DIM}")
    drive = _drive(sys, grid, f, g)
    F0 = _initial_vector(sys, u, v, f, g)
    rects = _pair_support(sys, drive, F0)
    support = _pair_index(rects, n)
    G0 = np.zeros(n * n, dtype=complex)
    G0[support] = _initial_pair_vector(sys, F0, support)
    Gflat, est = _propagate(_pair_pieces(sys, drive, rects), G0, support, grid, tol,
                            _scale(u, f, v, g))
    return PairTrajectory(grid, sys, problem, Gflat.reshape(len(grid), n, n), est, support)


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
    if (ftraj.sys is not gtraj.sys or ftraj.problem != gtraj.problem
            or not np.array_equal(ftraj.grid, gtraj.grid)):
        raise ValueError("the F and G solves must share one system, grid and (u, f, v, g)")
    id_row = gtraj.G[:, gtraj.sys.index[WeylLabel.identity()], :]
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
            traj = solved.get((i, j)) or flow_element(sys, ui, fi, uj, fj, [t], tol=tol)
            at = np.flatnonzero(traj.grid == t)
            if traj.sys is not sys or traj.problem != (ui, fi, uj, fj):
                raise ValueError(f"the solve given for pair {(i, j)} is not its solve on sys")
            if at.size == 0:
                raise ValueError(f"the solve given for pair {(i, j)} does not hold t = {t}")
            solves[(i, j)] = (traj, int(at[0]))
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


def covariance_check(traj: MatrixElementTrajectory, xs, j) -> list[CovarianceReport]:
    """Shift invariance: F(x; u,f,v,g) against the problem translated by -j.

    ``traj`` is a ``flow_element`` solve: its system, (u, f, v, g), grid
    and tol are the problem checked.  The translated problem is solved
    once on the translated window, and each x in ``xs`` gets one report.
    """
    j = tuple(int(c) for c in j)
    neg = tuple(-c for c in j)
    L = traj.sys.lindbladian
    u, f, v, g = traj.problem
    f, g = _harmonize(f, g)
    sites_b = tuple(tuple(s[c] + neg[c] for c in range(L.params.d)) for s in traj.sys.sites)
    traj_b = flow_element(
        build_generator_system(L, sites_b), u.translate(neg), f.shifted(j),
        v.translate(neg), g.shifted(j), traj.grid, tol=traj.tol
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
    window has no leak and the solve is exact up to the stepper's certified
    ``SCAN_TOL`` (and roundoff).  The decay rate is fitted to the samples
    after the drive whose deviation exceeds 10 ``SCAN_TOL``, so no sample
    the fit reads is below the solve's error bound.  u and v enter only through
    F_0 = <u, U_b v> exp<f, g>, read from the one symbolic product v u*
    whatever their supports, and a mode on a site outside the window
    meets no acting member and enters only through exp<f, g>.  Raises
    ``SizeGuardError`` when the window basis exceeds
    ``dense.MAX_WINDOW_DIM`` (x on more than 7 sites at N = 2).
    """
    grid = dense.validate_grid(t_grid)
    f, g = _harmonize(f, g)
    L = _lb.Lindbladian.partial_state(x.params, state)
    sys = build_generator_system(L, x.support() or [(0,) * x.params.d])
    values = flow_element(sys, u, f, v, g, grid, tol=SCAN_TOL).of_operator(x)
    target = _lb.ergodic_state(state, x) * gns_inner(u, v) * exp_inner(f, g)
    dev = np.abs(values - target)
    drive_end = 0.0
    if f.modes or g.modes:
        drive_end = max(f.t_max if f.modes else 0.0, g.t_max if g.modes else 0.0)
    fit_start = drive_end + 0.1 * max(grid[-1] - drive_end, 0.0)
    mask = (grid >= fit_start) & (dev > 10 * SCAN_TOL)
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
