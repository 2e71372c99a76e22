"""Brute-force finite-dimensional realization on a site window.

Everything symbolic in :mod:`uhfflow.algebra` can be realized as a dense
matrix on a finite window of sites: clock/shift words per site, Kronecker
products across the window, operator norms, the windowed generator,
semigroup evolution, Choi matrices, and Kraus decompositions of on-site
states.  This module is the independent oracle the symbolic layer and
the Weyl kernel (:mod:`uhfflow.kernel`) are tested against, so it shares
no arithmetic with them beyond the label definitions and the choice of
window members.

A generator is realized in one place: ``window_action`` turns the window
members into matrices and acts by X -> sum_m m* X m - (1/2){m* m, X} on
stacks of D x D window matrices (D = N^n), and bounds that action's
operator norm.  It is propagated in one place too: ``_taylor_propagate``
steps the action by a truncated Taylor series whose degree and substeps
the bound fixes in advance.  ``hilbert_evolve`` steps one observable and
returns the trajectory as one (T, D^2) array of Weyl coefficients in
``window_basis`` order (``uhfflow evolve`` and the selftest battery
compare ``lindblad.evolve``'s coefficient array with it entrywise), and
``choi_matrix`` steps the stack of D^2 matrix units.  Neither shares
code with the package's stepper, ``lindblad.expm_multiply``, and neither
needs ``scipy.linalg``.  ``_weyl_coefficients`` is the one change to the
Weyl basis, by trace projections.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, LocalOperator, Site, WeylLabel, weyl_mul
from .errors import SizeGuardError, StateError, WindowError

# The one size policy.  ``kernel.WindowKernel`` refuses a window of more
# than MAX_WINDOW_DIM = N^(2n) strings (7 sites at N = 2), which sizes its
# basis, D x D matrices and generator columns; objects indexed by pairs of
# strings (pair-system vectors, Choi entries) are bounded by MAX_PAIR_DIM.
MAX_WINDOW_DIM = 4**7
MAX_PAIR_DIM = 70_000

# Cache of per-string Kronecker matrices behind ``realize`` and
# ``embedded_words``: entries, and the largest window dimension cached (at
# most 256 * 16**2 * 16 B = 1 MiB).  Norms realize the same few strings on
# small supports; the evolve oracle's windows (dimension 27 and up) reuse few.
STRING_MATRIX_CACHE_SIZE = 256
STRING_MATRIX_CACHE_DIM = 16

# Bytes of complex realizations ``operator_norms`` stacks per dimension
# before their batched SVD (one matrix at least).
NORM_STACK_BYTES = 2**24

# Largest norm bound theta of one Taylor substep in ``hilbert_evolve``.
# Its terms grow to about e^theta / sqrt(2 pi theta) times the initial
# matrix before they fall, so at 4 at most one decimal digit is lost to
# cancellation; an uncapped substep over a long interval loses them all.
TAYLOR_THETA_MAX = 4.0


@functools.lru_cache(maxsize=None)
def clock_shift(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift and clock matrices with U V = omega V U; Paulis at N = 2.

    U is the cyclic raising shift (U e_i = e_{i+1 mod N}) and V the clock
    diag(omega**(-j)); this orientation is what makes the product law of
    ``weyl_mul`` come out right, and is validated once per N.
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    params = AlgebraParams(N=N, d=1)
    U = np.zeros((N, N), dtype=complex)
    for i in range(N):
        U[(i + 1) % N, i] = 1.0
    omega = params.root(1)
    V = np.diag([params.root(-j) for j in range(N)])
    if np.linalg.norm(U @ V - omega * V @ U) > 1e-14 * N:
        raise AssertionError("clock/shift orientation broken")

    # The symbolic product law must reproduce the dense one for every pair
    # of single-site words.
    def word(a, b):
        return np.linalg.matrix_power(U, a) @ np.linalg.matrix_power(V, b)

    site = (0,)
    for a1, b1, a2, b2 in itertools.product(range(N), repeat=4):
        g = WeylLabel.from_entries([(site, (a1, b1))], N, 1)
        h = WeylLabel.from_entries([(site, (a2, b2))], N, 1)
        phase, label = weyl_mul(params, g, h)
        if np.linalg.norm(word(a1, b1) @ word(a2, b2)
                          - params.root(phase) * word(*label.exponents(site))) > 1e-12 * N:
            raise AssertionError(f"weyl_mul disagrees with dense oracle at N={N}")
    U.flags.writeable = V.flags.writeable = False  # cached: shared by every caller
    return U, V


@functools.lru_cache(maxsize=None)
def site_word(N: int, alpha: int, beta: int) -> np.ndarray:
    """U^alpha V^beta as a read-only N x N matrix."""
    U, V = clock_shift(N)
    word = np.linalg.matrix_power(U, alpha % N) @ np.linalg.matrix_power(V, beta % N)
    word.flags.writeable = False
    return word


@dataclass(frozen=True)
class SiteWindow:
    """Ordered list of distinct sites; the order fixes tensor factors."""

    params: AlgebraParams
    sites: tuple[Site, ...]

    def __post_init__(self):
        sites = tuple(tuple(int(c) for c in s) for s in self.sites)
        if len(set(sites)) != len(sites):
            raise WindowError(f"window sites must be distinct: {sites}")
        for s in sites:
            if len(s) != self.params.d:
                raise WindowError(f"site {s} does not match lattice dimension {self.params.d}")
        object.__setattr__(self, "sites", sites)

    @property
    def dim(self) -> int:
        return self.params.N ** len(self.sites)

    def site_set(self) -> set[Site]:
        return set(self.sites)


def window(params: AlgebraParams, sites) -> SiteWindow:
    return SiteWindow(params, tuple(tuple(s) for s in sites))


def realize(x: LocalOperator, win: SiteWindow) -> np.ndarray:
    """Kronecker realization of x on the window (identity off-support).

    Each string's Kronecker product of site words is read from
    ``_strings``: a bounded cache of read-only matrices on windows of
    dimension up to ``STRING_MATRIX_CACHE_DIM``; the result is a fresh
    array.  No symbolic product (``weyl_mul``) is used, so this stays an
    independent check of the product law.
    """
    if x.params != win.params:
        raise WindowError("operator and window use different algebra parameters")
    if not set(x.support()) <= win.site_set():
        raise WindowError(f"support {x.support()} not contained in window {win.sites}")
    N = win.params.N
    dim = win.dim
    string = _strings(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for label, coeff in x.items():
        out += coeff * string(N, tuple(label.exponents(site) for site in win.sites))
    return out


def embedded_words(N: int, position: int, size: int) -> np.ndarray:
    """Fresh stack of the N**2 - 1 words U^a V^b at ``position`` of ``size``
    sites (identity elsewhere), each read from ``_strings`` as ``realize`` does."""
    string = _strings(N**size)
    pad = ((0, 0),)
    return np.array([string(N, pad * position + ((a, b),) + pad * (size - position - 1))
                     for a in range(N) for b in range(N) if (a, b) != (0, 0)])


def _strings(dim: int):
    """``_string_matrix``, cached on windows of dimension <= ``STRING_MATRIX_CACHE_DIM``."""
    return _string_matrix if dim <= STRING_MATRIX_CACHE_DIM else _string_matrix.__wrapped__


@functools.lru_cache(maxsize=STRING_MATRIX_CACHE_SIZE)
def _string_matrix(N: int, exponents: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Read-only Kronecker product of the site words U^a V^b, in window order."""
    acc = np.eye(1, dtype=complex)
    for a, b in exponents:
        acc = np.kron(acc, site_word(N, a, b))
    acc.flags.writeable = False
    return acc


def operator_norm(x: LocalOperator) -> float:
    """Largest singular value of the realization on supp(x)."""
    return operator_norms([x])[0]


def operator_norms(xs) -> list[float]:
    """``operator_norm`` of each operator, in order.

    The realizations of one dimension are stacked and take one batched
    SVD once the stack holds ``NORM_STACK_BYTES`` (and at the end), so
    the matrices alive at once stay bounded however many operators come;
    each norm is the one the matrix alone would give, bit for bit.
    """
    norms = [0.0] * len(xs)
    stacks = {}  # dimension -> (positions, matrices)

    def flush(where, mats):
        for i, norm in zip(where, np.linalg.norm(np.array(mats), 2, axis=(1, 2)).tolist()):
            norms[i] = norm
        where.clear()
        mats.clear()

    for i, x in enumerate(xs):
        if x.is_zero():
            continue
        supp = x.support()
        if not supp:
            norms[i] = abs(x.trace())
            continue
        win = SiteWindow(x.params, supp)
        where, mats = stacks.setdefault(win.dim, ([], []))
        where.append(i)
        mats.append(realize(x, win))
        if len(mats) * win.dim**2 * 16 >= NORM_STACK_BYTES:
            flush(where, mats)
    for where, mats in stacks.values():
        if mats:
            flush(where, mats)
    return norms


def window_basis(params: AlgebraParams, sites) -> list[WeylLabel]:
    """All Weyl labels supported in the window, in deterministic order.

    Label i carries at each site the digit a*N + b of i in base N^2, the
    window's first site (as given, not sorted) the most significant
    digit; each label's entries are sorted by site, as every label's are.
    The entry tuples are built over the sites in sorted order, one
    per-site tuple appended at a time, and read out in window order.
    """
    sites = tuple(tuple(int(c) for c in s) for s in sites)
    N, n = params.N, len(sites)
    order = sorted(range(n), key=sites.__getitem__)
    entries = [()]
    for j in order:
        words = [()] + [((sites[j], (a, b)),)
                        for a in range(N) for b in range(N) if (a, b) != (0, 0)]
        entries = [head + word for head in entries for word in words]
    # entries[k] holds the digits of sites order[0], order[1], ... most significant first.
    place = (N * N) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(N ** (2 * n), dtype=np.int64)[:, None] // place) % (N * N)
    return [WeylLabel(entries[k]) for k in (digits[:, order] @ place).tolist()]


def coefficient_vector(x: LocalOperator, basis_index: dict[WeylLabel, int]) -> np.ndarray:
    vec = np.zeros(len(basis_index), dtype=complex)
    for lab, c in x.items():
        try:
            vec[basis_index[lab]] = c
        except KeyError:
            raise WindowError(f"label {lab} outside the window basis") from None
    return vec


def validate_grid(t_grid) -> np.ndarray:
    """The time grid as a float array: nonempty, 1-D, finite, nonnegative and ascending."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(grid)) or grid[0] < 0 or np.any(np.diff(grid) < 0):
        raise ValueError("time grid must be finite, nonnegative and ascending")
    return grid


def _weyl_coefficients(snapshots: np.ndarray, N: int, n: int) -> np.ndarray:
    """Weyl coefficients of (T, D, D) window matrices, in ``window_basis`` order.

    X[i, i'] indexes rows as (i_1..i_n) and columns as (i'_1..i'_n), the
    first site most significant; each site's pair (i'_j, i_j) is projected
    on its N^2 words W_d by one ``tensordot`` with Q[d, i', i], so the
    coefficient of W_d is tr(W_d* X)/N.
    """
    words = np.array([site_word(N, a, b) for a in range(N) for b in range(N)])
    Q = np.ascontiguousarray(words.conj().transpose(0, 2, 1)) / N  # Q[d, i', i]
    T = snapshots.reshape((len(snapshots),) + (N,) * (2 * n))
    for j in range(n):
        # The row axes not yet projected sit at 1 + j.., the column axes after them.
        T = np.moveaxis(np.tensordot(T, Q, axes=([1 + n, 1 + j], [1, 2])), -1, 1 + j)
    return T.reshape(len(snapshots), N ** (2 * n))


def window_action(lindbladian, win: SiteWindow, closure_mode: str):
    """The windowed generator as a map on stacks of D x D window matrices.

    The window members (``lindbladian.window_members``: ``interior`` keeps
    only the Kraus members whose own support lies in the window, a
    genuine windowed Lindbladian; ``clipped`` keeps every member of each
    intersecting translate with its factors clipped to the window) are
    realized as matrices; the returned map
    sends X of shape (..., D, D) to sum_m m* X m - (1/2){K, X} with
    K = sum_m m* m.  Its attribute ``bound`` is
    beta = sum_m ||m||^2 + ||K||, so that ||action(X)|| <= beta ||X|| in
    the operator norm.  Every dense evolution and Choi matrix reads this
    one realization; no symbolic product or label arithmetic is involved.
    """
    D = win.dim
    M = np.array([realize(m, win)
                  for m in lindbladian.window_members(win.sites, closure_mode)]
                 ).reshape(-1, D, D)
    Md = M.conj().transpose(0, 2, 1)
    MdM = Md @ M
    K = MdM.sum(axis=0)

    def action(X: np.ndarray) -> np.ndarray:
        return (Md @ X[..., None, :, :] @ M).sum(axis=-3) - 0.5 * (K @ X + X @ K)

    # Each m* m and K is positive, so its norm is its top eigenvalue.
    action.bound = float(np.linalg.eigvalsh(MdM)[:, -1].sum() + np.linalg.eigvalsh(K)[-1])
    return action


def _taylor_plan(hb: float) -> tuple[int, int]:
    """(s, m): s substeps of degree m for a span whose action is bounded by hb.

    s is the fewest substeps whose scale theta = hb / s is at most
    ``TAYLOR_THETA_MAX``, and m the smallest degree whose a-priori tail
    theta^(m+1)/(m+1)! e^theta (the truncation of e^theta) is at most
    2^-53.  While theta is below the cap a larger s lowers m too little to
    pay for itself, so this plan makes the fewest actions s m.
    """
    s = max(1, math.ceil(hb / TAYLOR_THETA_MAX))
    theta, m = hb / s, 1
    while theta > 0 and (m + 1) * math.log(theta) - math.lgamma(m + 2) + theta > -53 * math.log(2):
        m += 1
    return s, m


def _taylor_propagate(action, X: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^{t A} X at each of the ascending times t >= 0, the last positive.

    [0, T] is cut into s equal substeps dt of degree m (``_taylor_plan`` of
    T ``action.bound``).  A substep's terms (dt A)^k X / k!, k <= m, sum to
    X at its end, and a time tau dt into it is the polynomial
    sum_k tau^k (dt A)^k X / k!, whose tail is smaller still; so the
    actions, s m of them, do not depend on how many grid times there are.
    """
    T = times[-1]
    s, m = _taylor_plan(T * action.bound)
    dt = T / s
    out = np.empty((len(times),) + X.shape, dtype=complex)
    bounds = np.searchsorted(np.minimum((times / dt).astype(int), s - 1), np.arange(s + 1))
    for j in range(s):
        terms = [X]
        for k in range(1, m + 1):
            terms.append(action(terms[-1]) * (dt / k))
        lo, hi = bounds[j], bounds[j + 1]
        out[lo:hi] = np.tensordot((times[lo:hi] / dt - j)[:, None] ** np.arange(m + 1), terms, 1)
        X = sum(terms)
    return out


def hilbert_evolve(lindbladian, win: SiteWindow, closure_mode: str, t_grid,
                   x: LocalOperator) -> np.ndarray:
    """e^{t L} x on the window by the Heisenberg equation on D x D matrices.

    x is realized as a matrix and stepped from 0 to the last grid time by
    ``_taylor_propagate``: a Taylor series of ``window_action`` whose
    degree and substeps its norm bound fixes in advance, so each
    substep's truncation is below unit roundoff, and whose polynomial on
    each substep gives the grid times inside it.  Returns the (T, D^2)
    array of Weyl coefficients of the snapshots (``_weyl_coefficients``),
    row t in ``window_basis(win.params, win.sites)`` order; no label list
    or operator is built.  A grid that ends at 0 needs no solve.  No
    Weyl-basis generator, matrix exponential, shared stepper or symbolic
    product is involved.
    """
    grid = validate_grid(t_grid)
    X = realize(x, win)
    times, where = np.unique(grid, return_inverse=True)
    if times[-1] > 0:
        snapshots = _taylor_propagate(window_action(lindbladian, win, closure_mode), X, times)
    else:
        snapshots = X[None]
    return _weyl_coefficients(snapshots, win.params.N, len(win.sites))[where]


def choi_matrix(lindbladian, win: SiteWindow, closure_mode: str, t: float) -> np.ndarray:
    """Choi matrix sum_ij e^{t L}(E_ij) (x) E_ij on the window, D^2 x D^2.

    The D^2 matrix units E_ij are stepped to t as one stack by
    ``_taylor_propagate`` of ``window_action``, the propagator
    ``hilbert_evolve`` steps one matrix by; at t = 0 they are the identity
    channel's and need no solve.  Raises ``ValueError`` unless t is finite
    and nonnegative (``validate_grid``), and ``SizeGuardError`` when the
    D^4 = N^(4n) entries exceed ``MAX_PAIR_DIM`` (4 sites at N = 2), both
    before anything is realized.
    """
    times = validate_grid([t])
    D = win.dim
    if D**4 > MAX_PAIR_DIM:
        raise SizeGuardError(f"Choi matrix has {D**4} entries, above the guard {MAX_PAIR_DIM}")
    E = np.eye(D * D, dtype=complex).reshape(D * D, D, D)
    if t > 0:
        E = _taylor_propagate(window_action(lindbladian, win, closure_mode), E, times)[0]
    # E[i D + j] = e^{t L}(E_ij), whose entry (a, b) goes to the Choi entry (a D + i, b D + j).
    return E.reshape(D, D, D, D).transpose(2, 0, 3, 1).reshape(D * D, D * D)


@dataclass(frozen=True)
class StateSpec:
    """Density matrix of the on-site state used by partial-state generators."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise StateError(f"density matrix must be square, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise StateError("density matrix has a non-finite entry")
        if np.linalg.norm(rho - rho.conj().T) > 1e-12:
            raise StateError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-12:
            raise StateError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise StateError(f"density matrix trace is {np.trace(rho):.6f}, not 1")
        object.__setattr__(self, "rho", rho)

    @property
    def N(self) -> int:
        return self.rho.shape[0]

    def expect_word(self, alpha: int, beta: int) -> complex:
        """phi(U^alpha V^beta) = Tr(rho U^alpha V^beta)."""
        return complex(np.trace(self.rho @ site_word(self.N, alpha, beta)))


def state_kraus(state: StateSpec) -> list[np.ndarray]:
    """Kraus family with sum K* x K = Tr(rho x) 1 and sum K* K = 1.

    Built as K_{ij} = sqrt(p_i) |v_i><e_j| from the spectral decomposition
    of rho (zero-probability directions dropped); verified on the matrix
    basis before returning.
    """
    N = state.N
    probs, vecs = np.linalg.eigh(state.rho)
    ops = []
    for i in range(N - 1, -1, -1):  # descending probability
        p = probs[i]
        if p < 1e-14:
            continue
        for j in range(N):
            K = np.zeros((N, N), dtype=complex)
            K[:, j] = np.sqrt(p) * vecs[:, i]
            ops.append(K)
    total = sum(K.conj().T @ K for K in ops)
    if np.linalg.norm(total - np.eye(N)) > 1e-12:
        raise StateError("Kraus normalization sum K*K = 1 failed")
    for i in range(N):
        for j in range(N):
            E = np.zeros((N, N), dtype=complex)
            E[i, j] = 1.0
            lhs = sum(K.conj().T @ E @ K for K in ops)
            target = np.trace(state.rho @ E) * np.eye(N)
            if np.linalg.norm(lhs - target) > 1e-12:
                raise StateError("Kraus family does not implement the state")
    return ops


def matrix_to_local(params: AlgebraParams, site, mat: np.ndarray) -> LocalOperator:
    """Expand an N x N matrix over the on-site words at ``site``."""
    N = params.N
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (N, N):
        raise ValueError(f"matrix shape {mat.shape} does not match N={N}")
    coeffs = _weyl_coefficients(mat[None], N, 1)[0]
    terms = {}
    for digit, c in enumerate(coeffs):
        if abs(c) > 1e-15:
            label = WeylLabel.from_entries([(tuple(site), divmod(digit, N))], N, params.d)
            terms[label] = complex(c)
    return LocalOperator(params, terms)
