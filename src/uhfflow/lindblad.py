"""Lindblad generators on the lattice algebra and their semigroups.

Three generator kinds are supported, all assembled from Kraus families of
local operators:

* ``translation``: a base family at the origin summed over all lattice
  translates, L = sum_k tau_k L_0 tau_{-k} (finitely many translates act
  on any local observable);
* ``partial``: the per-site state map, L_k = phi_k - id, with on-site
  Kraus operators derived from the density matrix of phi;
* ``perturbed``: partial plus c times a translation-covariant family.

Besides exact symbolic application this module provides windowed
generators (a window keeps or clips each Kraus member by its own
support), semigroup evolution (the action of the matrix exponential on a
window basis, and the closed form for partial-state kinds), ergodic
states, perturbed-ergodic states (one sparse solve on the window),
decay-rate fitting, and the multi-derivation / expansion / bound harness
used to exercise the iterated-commutator estimates that control
everything else.

Each structure map of a :class:`Lindbladian` has one accessor:
``lind_k`` for L_k, ``derivation(+-1, ...)`` for delta_k and delta_k^dag.
They read two tables the instance fills on first use and keeps for its
lifetime: per translate k, the members with their adjoints (m_k, m_k*)
(``_member_pairs``); and per absolute pair (k, U_b), the string image
L_k(U_b), so that L_k(x) is sum_b x_b L_k(U_b).  Nothing is shared.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from . import dense
from .algebra import (
    AlgebraParams,
    LocalOperator,
    Site,
    WeylLabel,
    c_const,
    commutator,
    theta,
)
from .errors import (
    DivergenceError,
    FitError,
    ParamsMismatchError,
    SizeGuardError,
    WindowError,
)
from .kernel import WindowKernel

ENUM_GUARD = 200_000
WINDOW_PAD_FACTOR = 2  # default_window pads by this many Kraus diameters
# expm_multiply's Taylor stepping: theta_m is the largest h ||A - mu I||_1
# for which m terms meet the unit roundoff TAYLOR_TOL (Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33 (2011) 488-511).  Copied from scipy's
# ``sparse/linalg/_expm_multiply.py``: m <= 30 from table A.3 of Higham &
# Al-Mohy, Acta Numerica 19 (2010) 159-208, the rest from table 3.1 of
# the 2011 paper.  The order of the entries breaks ties in the degree choice.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
TAYLOR_TOL = 2.0**-53


@dataclass(frozen=True)
class KrausFamily:
    """Finite list of local Kraus operators defining a CP map sum a* x a."""

    ops: tuple[LocalOperator, ...]
    unital: bool = False

    def __post_init__(self):
        if not self.ops:
            raise ValueError("Kraus family must contain at least one operator")
        params = self.ops[0].params
        for op in self.ops:
            if op.params != params:
                raise ParamsMismatchError("Kraus operators use different algebra parameters")
        if self.unital:
            total = LocalOperator.zero(params)
            for op in self.ops:
                total = total + op.adjoint() * op
            if total.sup_diff(LocalOperator.identity(params)) > 1e-12:
                raise ValueError("unital flag set but sum a* a != 1")

    @property
    def params(self) -> AlgebraParams:
        return self.ops[0].params


def _site_sub(s: Site, k: Site) -> Site:
    return tuple(a - b for a, b in zip(s, k))


def _member_term(m: LocalOperator, md: LocalOperator, x: LocalOperator) -> LocalOperator:
    """One member's generator term (1/2)([m*, x] m + m* [x, m])."""
    return (commutator(md, x) * m + md * commutator(x, m)) * 0.5


class Lindbladian:
    """Generator bundle: Kraus members, kind, and translation metadata.

    ``lind_k`` reads L_k of any kind, ``derivation`` also delta_k and
    delta_k^dag of a single-operator translation family.  The base members
    and their support are computed once, at construction.  Two tables are
    filled on first use and live as long as the instance: the member table
    (translate k -> the pairs (m_k, m_k*), read through ``_member_pairs``)
    and the string-image table ((k, U_b) -> L_k(U_b), read by ``lind_k``
    and so by ``apply`` and the lemma harness).  Image keys are absolute:
    no entry is derived by translating another.
    """

    def __init__(self, params: AlgebraParams, kind: str,
                 kraus: KrausFamily | None = None,
                 state: "dense.StateSpec | None" = None,
                 c: float = 0.0):
        if kind not in ("translation", "partial", "perturbed"):
            raise ValueError(f"unknown Lindbladian kind {kind!r}")
        self.params = params
        self.kind = kind
        self.kraus = kraus
        self.state = state
        self.c = float(c)
        self._site_kraus: tuple[LocalOperator, ...] = ()
        if kind in ("partial", "perturbed"):
            if state is None:
                raise ValueError(f"{kind} kind needs a StateSpec")
            if state.N != params.N:
                raise ParamsMismatchError("state dimension differs from algebra N")
            origin = params.origin()
            self._site_kraus = tuple(
                dense.matrix_to_local(params, origin, K) for K in dense.state_kraus(state)
            )
        if kind in ("translation", "perturbed"):
            if kraus is None:
                raise ValueError(f"{kind} kind needs a KrausFamily")
            if kraus.params != params:
                raise ParamsMismatchError("Kraus family uses different algebra parameters")
        if kind == "perturbed" and self.c < 0:
            raise ValueError("perturbation weight must be nonnegative")
        members = self._site_kraus
        if kind == "translation":
            members = kraus.ops
        elif kind == "perturbed":
            w = math.sqrt(self.c)
            members += tuple(op * w for op in kraus.ops)
        self._base_members: tuple[LocalOperator, ...] = members
        self._base_support = tuple(sorted({s for op in members for s in op.support()}))
        # translate k -> ((m_k, m_k*), ...), one pair per member (_member_pairs).
        self._members: dict[Site, tuple[tuple[LocalOperator, LocalOperator], ...]] = {}
        # (k, U_b) -> L_k(U_b), keyed by the absolute translate and string (_image).
        self._images: dict[tuple[Site, WeylLabel], LocalOperator] = {}

    # -- constructors --------------------------------------------------

    @staticmethod
    def translation_covariant(kraus: KrausFamily) -> "Lindbladian":
        return Lindbladian(kraus.params, "translation", kraus=kraus)

    @staticmethod
    def single_kraus(r: LocalOperator, unital: bool = False) -> "Lindbladian":
        return Lindbladian.translation_covariant(KrausFamily((r,), unital=unital))

    @staticmethod
    def partial_state(params: AlgebraParams, state) -> "Lindbladian":
        return Lindbladian(params, "partial", state=state)

    @staticmethod
    def perturbed(params: AlgebraParams, state, kraus: KrausFamily, c: float) -> "Lindbladian":
        return Lindbladian(params, "perturbed", kraus=kraus, state=state, c=c)

    # -- structure -------------------------------------------------------

    def base_members(self) -> tuple[LocalOperator, ...]:
        """Kraus members of the site-0 generator, perturbation weight folded in."""
        return self._base_members

    def _member_pairs(self, k) -> tuple[tuple[LocalOperator, LocalOperator], ...]:
        """(m_k, m_k*) for each member at translate k, built on first use.

        The only place a Kraus member is translated; every map below reads
        its members and their adjoints from this table.
        """
        k = tuple(k)
        pairs = self._members.get(k)
        if pairs is None:
            moved = [op.translate(k) for op in self._base_members]
            pairs = self._members[k] = tuple((m, m.adjoint()) for m in moved)
        return pairs

    def single_r(self) -> LocalOperator:
        if self.kind != "translation" or len(self.kraus.ops) != 1:
            raise ValueError("operation requires a single-operator translation family")
        return self.kraus.ops[0]

    def base_support(self) -> tuple[Site, ...]:
        return self._base_support

    def contributing_sites(self, x: LocalOperator) -> list[Site]:
        """Translates k with supp(member_k) meeting supp(x); all others act as 0."""
        xs = x.support()
        ks = {_site_sub(s, b) for s in xs for b in self.base_support()}
        return sorted(ks)

    # -- pointwise maps ----------------------------------------------------

    def _image(self, k: Site, label: WeylLabel) -> LocalOperator:
        """L_k(U_label) by the member formula, computed once per (k, label)."""
        key = (k, label)
        image = self._images.get(key)
        if image is None:
            u = LocalOperator.weyl(self.params, label)
            image = LocalOperator.zero(self.params)
            for m, md in self._member_pairs(k):
                image = image + _member_term(m, md, u)
            self._images[key] = image
        return image

    def lind_k(self, k, x: LocalOperator) -> LocalOperator:
        """L_k(x) = (1/2) sum_m [m_k*, x] m_k + m_k* [x, m_k], as sum_b x_b L_k(U_b).

        L_k is linear, so each string image L_k(U_b) is computed once by
        the member formula and kept in a table keyed by the absolute pair
        (k, U_b), which lives as long as this instance.  No entry is
        derived from another by translation, so comparing L(tau_k x) with
        tau_k L(x) reads two independent sets of entries.
        """
        k = tuple(k)
        out: dict[WeylLabel, complex] = {}
        for label, coeff in x._terms.items():
            for lab, c in self._image(k, label)._terms.items():
                out[lab] = out.get(lab, 0j) + coeff * c
        return LocalOperator._merged(self.params, out)

    def lind_zero_anticommutator_form(self, x: LocalOperator) -> LocalOperator:
        """-(1/2){T(1), x} + T(x); must agree with ``lind_k`` at the origin.

        Computed afresh on every call, not from the string-image table, so
        it stays a cross-check of ``lind_k``.
        """
        t1 = LocalOperator.zero(self.params)
        tx = LocalOperator.zero(self.params)
        for m, md in self._member_pairs(self.params.origin()):
            t1 = t1 + md * m
            tx = tx + md * x * m
        return tx - (t1 * x + x * t1) * 0.5

    def apply(self, x: LocalOperator) -> LocalOperator:
        """lind_total: the full sum over contributing translates."""
        out = LocalOperator.zero(self.params)
        for k in self.contributing_sites(x):
            out = out + self.lind_k(k, x)
        return out

    def derivation(self, eps: int, k, x: LocalOperator) -> LocalOperator:
        """delta_k(x) = [x, r_k] (eps = +1), L_k(x) (0) or delta_k^dag(x) = [r_k*, x] (-1).

        eps = +-1 needs a single-operator translation family, whose member is r.
        """
        if eps == 0:
            return self.lind_k(k, x)
        self.single_r()  # raises unless a single-operator translation family
        (r_k, r_k_dag), = self._member_pairs(k)
        if eps == 1:
            return commutator(x, r_k)
        if eps == -1:
            return commutator(r_k_dag, x)
        raise ValueError(f"eps must be -1, 0 or +1, got {eps}")

    def cocycle_defect(self, x: LocalOperator, y: LocalOperator) -> float:
        """sup-coefficient of L(xy) - x L(y) - L(x) y - sum delta^dag(x) delta(y)."""
        lhs = self.apply(x * y) - x * self.apply(y) - self.apply(x) * y
        corr = LocalOperator.zero(self.params)
        ks = set(self.contributing_sites(x)) | set(self.contributing_sites(y))
        for k in sorted(ks):
            for m, md in self._member_pairs(k):
                corr = corr + commutator(md, x) * commutator(y, m)
        return (lhs - corr).sup_diff(LocalOperator.zero(self.params))

    # -- windowed action ---------------------------------------------------

    def _clip_factors(self, op: LocalOperator, allowed: set[Site]) -> LocalOperator:
        terms: dict[WeylLabel, complex] = {}
        for lab, c in op.items():
            kept = tuple(sorted((s, ab) for s, ab in lab.entries if s in allowed))
            newlab = WeylLabel(kept)
            terms[newlab] = terms.get(newlab, 0j) + c
        return LocalOperator(self.params, terms)

    def window_translates(self, sites) -> list[tuple[tuple[Site, int], LocalOperator, bool]]:
        """Members of every translate meeting the window, in (translate, member) order.

        Each member comes with its mode key (translate k, member id) and a
        flag: True when the member is inside (its own support lies in the
        window), False on the edge.  The flag is per member, not per
        translate, so a 1-site member stays inside next to a 2-site member
        of its translate that sticks out.  Members are unclipped; every
        translate not listed acts as 0 on the window.
        """
        allowed = {tuple(s) for s in sites}
        base_supp = self.base_support()
        out = []
        for k in sorted({_site_sub(s, b) for s in allowed for b in base_supp}):
            out += [((k, i), m, allowed.issuperset(m.support()))
                    for i, (m, _md) in enumerate(self._member_pairs(k))]
        return out

    def window_members(self, sites, closure_mode: str = "interior") -> list[LocalOperator]:
        """Kraus members of the windowed generator, translated and closed.

        ``interior`` keeps every inside member; ``clipped`` keeps the edge
        members too, with factors outside the window replaced by the
        identity.  The matrix assemblers read their members from here;
        ``windowed_apply`` applies the same per-member rule on its own.
        """
        if closure_mode not in ("interior", "clipped"):
            raise ValueError(f"unknown closure mode {closure_mode!r}")
        allowed = {tuple(s) for s in sites}
        return [m if inside else self._clip_factors(m, allowed)
                for _key, m, inside in self.window_translates(sites)
                if inside or closure_mode == "clipped"]

    def windowed_apply(self, x: LocalOperator, sites, closure_mode: str = "interior") -> LocalOperator:
        """Windowed generator action, member by member.

        ``interior`` keeps only the Kraus members whose own support lies
        inside the window.  Each member's term is itself a Lindbladian, so
        their sum is a genuine Lindbladian there and the result never
        leaves the window.  ``clipped`` keeps every member of each
        intersecting translate, with per-site factors outside the window
        replaced by the identity; this approximates the infinite-lattice
        action near the edge while still fixing the identity.
        """
        if closure_mode not in ("interior", "clipped"):
            raise ValueError(f"unknown closure mode {closure_mode!r}")
        allowed = {tuple(s) for s in sites}
        if not set(x.support()) <= allowed:
            raise WindowError(f"support {x.support()} outside window")
        out = LocalOperator.zero(self.params)
        for k in self.contributing_sites(x):
            for m, md in self._member_pairs(k):
                if not allowed.issuperset(m.support()):
                    if closure_mode == "interior":
                        continue
                    m = self._clip_factors(m, allowed)
                    md = m.adjoint()
                out = out + _member_term(m, md, x)
        return out

    def __repr__(self):
        return f"Lindbladian(kind={self.kind!r}, members={len(self.base_members())}, c={self.c})"


# -- the matrix-exponential stepper --------------------------------------------


class StepOperator(NamedTuple):
    """A generator A prepared once for :func:`expm_multiply`, however many steps read it.

    ``mu`` is the shift tr A / n, ``shifted(v)`` is (A - mu I) v as a
    fresh array (:func:`expm_multiply` scales it in place), and ``norm``
    is ||A - mu I||_1 or an upper bound of it; a bound only makes the
    degree choice more conservative.
    """

    mu: complex
    shifted: Callable[[np.ndarray], np.ndarray]
    norm: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, unshifted."""
        return self.shifted(v) + self.mu * v


def step_operator(mat) -> StepOperator:
    """A square sparse matrix as a :class:`StepOperator`: its trace shift and exact 1-norm."""
    n = mat.shape[0]
    mu = complex(mat.trace()) / n
    shifted = (mat - mu * scipy.sparse.identity(n, dtype=complex, format="csr")).tocsr()
    norm = float(abs(shifted).sum(axis=0).max()) if shifted.nnz else 0.0
    return StepOperator(mu, shifted.dot, norm)


def taylor_degree(norm: float) -> tuple[int, int]:
    """(m*, s): Taylor degree and step count for a step of h ||A - mu I||_1 = ``norm``.

    The choice minimising the matvec count m s over ``TAYLOR_THETA`` with
    s = ceil(norm / theta_m).  Al-Mohy & Higham's fragment 3.1 makes it
    from the 1-norm alone whenever their condition (3.13) holds, which at
    m_max = 55 and ell = 2 is norm <= 63.36; above that it is still
    accurate, only possibly more matvecs than their power-norm estimates
    would choose.
    """
    if norm == 0.0:
        return 0, 1
    best_m = best_s = 0
    for m, theta_m in TAYLOR_THETA.items():
        s = math.ceil(norm / theta_m)
        if best_m == 0 or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max(initial=0.0))


def expm_multiply(op: StepOperator, v: np.ndarray, h: float) -> np.ndarray:
    """e^{hA} v for the generator A of ``op``: Al-Mohy & Higham's Algorithm 3.2.

    s steps of e^{h mu / s} times the Taylor polynomial of degree m* in
    (h / s)(A - mu I), each stopped early once two consecutive terms sum
    below ``TAYLOR_TOL`` times the partial sum (max norms), as scipy's
    ``expm_multiply`` stops.  The step length scales the terms; the
    operator is never copied, and ``v`` is copied once, into the sum that
    each term is added to in place.  The sum's max norm is read only
    where the triangle bound (norm of the step's start plus those of its
    terms) lets the stop test pass, so every stop falls where the plain
    test puts it.
    """
    m_star, s = taylor_degree(h * op.norm)
    eta = cmath.exp(h * op.mu / s)
    out = np.array(v, dtype=complex)
    for _ in range(s):
        c1 = bound = _inf_norm(v)
        for j in range(m_star):
            v = op.shifted(v)
            np.multiply(h / (s * (j + 1)), v, out=v)
            c2 = _inf_norm(v)
            out += v
            # bound >= ||out||: the max norm of out is read only where it can stop the sum.
            bound += c2
            if c1 + c2 <= 2 * TAYLOR_TOL * bound and c1 + c2 <= TAYLOR_TOL * _inf_norm(out):
                break
            c1 = c2
        np.multiply(eta, out, out=out)
        v = out
    return out


# -- fixed-grid quadrature -----------------------------------------------------
# scipy.integrate's rules, operation for operation, so each result is bit
# for bit scipy's; importing scipy.integrate would load scipy.optimize as
# well.  Each integrates along the first axis, real or complex samples.


def cumulative_trapezoid(y, t) -> np.ndarray:
    """Trapezoid integrals of samples y at times t from t[0] to each t[i]; the first is 0."""
    y = np.asarray(y)
    parts = np.diff(t) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate((np.zeros(1, parts.dtype), np.cumsum(parts)))


def cumulative_simpson(y, dx: float) -> np.ndarray:
    """Simpson integrals of samples spaced ``dx`` apart from the first to each; the first is 0.

    Cartwright's subinterval formula (J. Math. Sci. Math. Educ. 12 (2017)
    1-9, eq. 10): the parabola through three samples integrated over its
    first panel, forward for the panels that start a pair and backward
    for the others and the last, then summed.  Needs at least 3 samples.
    """
    y = np.asarray(y)
    if len(y) < 3:
        raise ValueError(f"cumulative Simpson needs at least 3 samples, got {len(y)}")
    forward = dx / 3 * (5 * y[:-2] / 4 + 2 * y[1:-1] - y[2:] / 4)
    backward = dx / 3 * (5 * y[2:] / 4 + 2 * y[1:-1] - y[:-2] / 4)
    panels = np.empty(y.shape, forward.dtype)
    panels[0] = 0.0
    panels[1:-1:2] = forward[::2]
    panels[2::2] = backward[::2]
    panels[-1] = backward[-1]
    return np.cumsum(panels, axis=0)


# -- evolution ---------------------------------------------------------------


@dataclass
class EvolutionResult:
    """Heisenberg-picture trajectory of one observable on a time grid.

    ``identity_image`` is ||L_W(1)||_1, the l1 mass of the window matrix's
    identity column: P_t(1) = 1 for every t exactly when it is 0."""

    grid: np.ndarray
    values: list[LocalOperator]
    error_budget: np.ndarray
    identity_image: float
    window_sites: tuple[Site, ...] = ()


def default_window(L: Lindbladian, *xs: LocalOperator) -> tuple[Site, ...]:
    """Bounding box of the supports of ``xs`` padded by WINDOW_PAD_FACTOR x the Kraus diameter."""
    supp = {s for x in xs for s in x.support()}
    if not supp:
        supp = (L.params.origin(),)
    base = L.base_support() or (L.params.origin(),)
    d = L.params.d
    lo = [min(s[c] for s in supp) for c in range(d)]
    hi = [max(s[c] for s in supp) for c in range(d)]
    diam = [max(b[c] for b in base) - min(b[c] for b in base) for c in range(d)]
    pad = [WINDOW_PAD_FACTOR * diam[c] for c in range(d)]
    ranges = [range(lo[c] - pad[c], hi[c] + pad[c] + 1) for c in range(d)]
    return tuple(itertools.product(*ranges))


def generator_matrix(L: Lindbladian, sites, closure_mode: str = "interior"):
    """Windowed generator on the window basis: (matrix, basis, index, edge).

    The Weyl kernel assembles the sparse matrix from the window members:
    a sum of monomial matrices, one per pair of terms of each member.
    ``edge[i]`` is the exact l1 mass ||(L - L_window)(U_i)||_1 that the
    closure drops from basis string U_i.  Only edge members differ
    between L and L_window, so it is the column l1 of their generator
    plus its leak (``interior``, which omits them), or of their generator
    minus that of their clipped copies, plus the same leak (``clipped``,
    whose clipped copies never leave the window).
    """
    kern = WindowKernel(L.params, sites)
    mat, _leak = kern.generator(L.window_members(kern.sites, closure_mode))
    edge_members = [m for _key, m, inside in L.window_translates(kern.sites) if not inside]
    edge_mat, edge = kern.generator(edge_members)
    if closure_mode == "clipped":
        allowed = set(kern.sites)
        edge_mat = edge_mat - kern.generator(
            [L._clip_factors(m, allowed) for m in edge_members])[0]
    edge += np.asarray(abs(edge_mat).sum(axis=0)).ravel()
    return mat, kern.basis, kern.index, edge


def evolve(L: Lindbladian, x: LocalOperator, t_grid, tol: float = 1e-10,
           window=None, closure_mode: str = "interior") -> EvolutionResult:
    """Heisenberg evolution P_t(x) of the windowed generator.

    The window coefficient vector is stepped from t = 0 across the grid by
    the action of the matrix exponential: the window matrix is prepared
    once and :func:`expm_multiply` makes one step per positive increment.
    The partial-state closed form is :func:`partial_semigroup_exact`.

    The error budget is ``tol`` plus the window edge term.  ``tol`` is a
    floor, not a computed solver error (:func:`expm_multiply` runs to the
    unit roundoff and reports no error).  The edge term is Duhamel's:
    P_t x - P^W_t x is the integral over s of P_(t-s) (L - L_W) P^W_s x,
    and the semigroup contracts, so it is bounded by integrating
    sum_b edge_b |c_b(s)| from s = 0 along the computed trajectory
    (:func:`cumulative_trapezoid`), where edge_b is the exact l1 mass
    ||(L - L_W)(U_b)||_1 from :func:`generator_matrix`.
    """
    grid = dense.validate_grid(t_grid)
    sites = tuple(tuple(s) for s in (window if window is not None else default_window(L, x)))
    mat, basis, index, edge_rates = generator_matrix(L, sites, closure_mode)
    x0 = dense.coefficient_vector(x, index)
    values_vec = _evolve_expm(mat, x0, grid)

    values = []
    for vec in values_vec:
        values.append(LocalOperator(L.params, {lab: vec[i] for i, lab in enumerate(basis)}))

    # The edge term accrues from t = 0, where the trajectory starts, also
    # when the grid starts later.
    late = bool(grid[0] > 0)
    times = np.concatenate([[0.0], grid]) if late else grid
    weights = [edge_rates @ np.abs(vec) for vec in [x0] * late + values_vec]
    edge = cumulative_trapezoid(weights, times)[-len(grid):]
    identity_image = float(abs(mat[:, index[WeylLabel.identity()]]).sum())
    return EvolutionResult(grid, values, tol + edge, identity_image, sites)


def _evolve_expm(mat, x0, grid):
    """x0 stepped from t = 0 across the grid: one expm_multiply per positive increment.

    ``mat`` is prepared (shift, shifted matrix, 1-norm) once per call, and
    every step reads that one :class:`StepOperator`.
    """
    op = step_operator(mat)
    values = []
    vec, t_prev = x0, 0.0
    for t in grid:
        if t > t_prev:
            vec = expm_multiply(op, vec, t - t_prev)
            t_prev = t
        values.append(vec)
    return values


# -- partial-state closed forms ----------------------------------------------


def partial_semigroup_exact(state, x: LocalOperator, t: float) -> LocalOperator:
    """Closed form: per site, phi(W) + e^{-t} (W - phi(W)), expanded exactly."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    decay = math.exp(-t)
    out: dict[WeylLabel, complex] = {}
    for lab, coeff in x.items():
        entries = lab.entries
        n = len(entries)
        for mask in range(1 << n):
            c = coeff
            kept = []
            for i, (site, (a, b)) in enumerate(entries):
                if mask >> i & 1:
                    kept.append((site, (a, b)))
                    c *= decay
                else:
                    c *= (1.0 - decay) * state.expect_word(a, b)
            if c != 0j:
                newlab = WeylLabel(tuple(kept))
                out[newlab] = out.get(newlab, 0j) + c
    return LocalOperator(x.params, out)


def ergodic_state(state, x: LocalOperator) -> complex:
    """Phi(x) = sum_g c_g prod_j phi(W_{g_j})."""
    acc = 0j
    for lab, coeff in x.items():
        val = coeff
        for _site, (a, b) in lab.entries:
            val *= state.expect_word(a, b)
        acc += val
    return acc


def perturbed_ergodic_state(state, L: Lindbladian, c: float,
                            x: LocalOperator) -> tuple[complex, float]:
    """Phi^{(c)}(x) = Phi(x) + c * integral over t >= 0 of Phi(L(P_t^{(c)} x)) dt.

    On the interior window of the perturbed generator, with window matrix
    A, the integral is linear algebra: if A has one stationary state,
    the integral over t >= 0 of e^{tA} - Pi is -A^#, where A^# is the
    group inverse of A and Pi the projector onto that state (Meyer, SIAM
    Review 17 (1975) 443-464).  One sparse LU of the bordered matrix
    K = [[A, e_1], [e_1^T, 0]] (e_1 the identity string) gives both the
    stationary state omega, from K^T y = e_(n+1), and z = A^# u for
    u = x - omega(x) 1, from K [z; s] = [u; 0].  Then Phi^{(c)}(x) =
    Phi(x) - c phi_L . z, with phi_L[b] = Phi(L(U_b)); the identity
    component of z drops out, since Phi(L(1)) = 0.

    Returns (value, estimate).  The estimate c ||phi_L||_inf ||A z - u||_1
    prices the solve only, not the window cut.  Raises
    ``DivergenceError`` when K is exactly singular: then the window
    generator has more than one stationary state and P_t^{(c)} x need not
    relax to a multiple of the identity.  A window past
    ``dense.MAX_WINDOW_DIM`` strings raises ``SizeGuardError``.
    """
    if c < 0:
        raise ValueError("perturbation weight must be nonnegative")
    base = ergodic_state(state, x)
    if c == 0:
        return base, 0.0
    if L.kind != "translation":
        raise ValueError("the perturbing generator must be translation-covariant")
    pert = Lindbladian.perturbed(L.params, state, L.kraus, c)
    mat, basis, index, _edge = generator_matrix(pert, default_window(pert, x), "interior")
    # The row reads each string image once, so it builds them in a
    # generator of its own: the caller's image table would keep them all.
    row = Lindbladian.translation_covariant(L.kraus)
    phi_l_vec = np.array([
        ergodic_state(state, row.apply(LocalOperator.weyl(L.params, lab))) for lab in basis
    ])

    # scipy.sparse.linalg loads scipy.linalg; only this branch needs it.
    from scipy.sparse.linalg import splu

    n = len(basis)
    one = index[WeylLabel.identity()]
    e1 = scipy.sparse.csc_matrix(([1.0], ([one], [0])), shape=(n, 1))
    bordered = scipy.sparse.bmat([[mat, e1], [e1.T, None]], format="csc")
    try:
        lu = splu(bordered)
    except RuntimeError as exc:
        raise DivergenceError(
            f"the window generator has more than one stationary state ({exc})"
        ) from None
    end = np.zeros(n + 1, dtype=complex)
    end[-1] = 1.0
    omega = lu.solve(end, trans="T")[:n]
    u = dense.coefficient_vector(x, index)
    u[one] -= omega @ u
    z = lu.solve(np.append(u, 0.0))[:n]
    err = c * np.abs(phi_l_vec).max() * np.abs(mat @ z - u).sum()
    return base - c * (phi_l_vec @ z), float(err)


def decay_rate_fit(ts, values, drop_frac: float = 0.0) -> tuple[float, float]:
    """Least-squares slope of log(value) against t, negated, plus r^2."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.size != values.size or ts.size < 4:
        raise FitError(f"need at least 4 points, got {ts.size}")
    if np.any(values <= 0):
        raise FitError("decay fit requires strictly positive values")
    k = int(len(ts) * drop_frac)
    ts, values = ts[k:], values[k:]
    if ts.size < 4:
        raise FitError("too few points after transient drop")
    y = np.log(values)
    slope, intercept = np.polyfit(ts, y, 1)
    resid = y - (slope * ts + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot < 1e-24:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return -float(slope), r2


# -- multi-derivation harness --------------------------------------------------


@dataclass(frozen=True)
class MultiIndex:
    """Tuple of translates and of map selectors eps in {-1, 0, +1}."""

    kbar: tuple[Site, ...]
    epsbar: tuple[int, ...]

    def __post_init__(self):
        if len(self.kbar) != len(self.epsbar) or not self.kbar:
            raise ValueError("kbar and epsbar must be equal-length and nonempty")
        if any(e not in (-1, 0, 1) for e in self.epsbar):
            raise ValueError("eps components must be in {-1, 0, +1}")


def multi_derivation(L: Lindbladian, x: LocalOperator, m: MultiIndex) -> LocalOperator:
    """delta(kbar, epsbar) = composition applied right-to-left (eps_1 first)."""
    out = x
    for k, eps in zip(m.kbar, m.epsbar):
        out = L.derivation(eps, k, out)
    return out


def _derivation_terms(L: Lindbladian, x: LocalOperator, epsbar) -> list[tuple[tuple[Site, ...], LocalOperator]]:
    """All (kbar, value) with nonzero value, enumerated over contributing sites."""
    stack: list[tuple[tuple[Site, ...], LocalOperator]] = [((), x)]
    for eps in epsbar:
        nxt = []
        for kbar, val in stack:
            for k in L.contributing_sites(val):
                out = L.derivation(eps, k, val)
                if not out.is_zero(1e-14):
                    nxt.append((kbar + (k,), out))
            if len(nxt) > ENUM_GUARD:
                raise SizeGuardError("derivation enumeration exceeded the guard")
        stack = nxt
    return stack


def leibniz_expansion_check(L: Lindbladian, x: LocalOperator, kbar) -> float:
    """Defect of the 2^{-n} sum_P R* delta R expansion of L_{k_n}...L_{k_1}(x)."""
    kbar = tuple(tuple(k) for k in kbar)
    n = len(kbar)
    if n > 4:
        raise SizeGuardError("expansion check limited to n <= 4")
    lhs = x
    for k in kbar:
        lhs = L.lind_k(k, lhs)
    L.single_r()  # raises unless a single-operator translation family
    r_at = [L._member_pairs(k)[0][0] for k in kbar]
    rhs = LocalOperator.zero(L.params)
    for bits in range(1 << n):
        P = [i for i in range(n) if bits >> i & 1]
        Pc = [i for i in range(n) if not bits >> i & 1]
        eps = tuple(-1 if i in P else 1 for i in range(n))
        mid = multi_derivation(L, x, MultiIndex(kbar, eps))
        right = LocalOperator.identity(L.params)
        for i in P:
            right = right * r_at[i]
        left = LocalOperator.identity(L.params)
        for i in Pc:
            left = left * r_at[i]
        rhs = rhs + left.adjoint() * mid * right
    rhs = rhs * (0.5**n)
    return (lhs - rhs).sup_diff(LocalOperator.zero(L.params))


class LemmaBoundReport(NamedTuple):
    lhs: float
    rhs: float
    count: int


def lemma_bound_report(L: Lindbladian, x: LocalOperator, n: int, mode: str,
                       epsbar=None, y: LocalOperator | None = None,
                       eps1=None, eps2=None) -> LemmaBoundReport:
    """Enumerated iterated-derivation norm sums against their stated bounds.

    ``pure``: all eps in {-1, +1}; bound (2 theta_1(r) c_x)^n.
    ``mixed``: zeros allowed; bound ||r||^p (2 theta_1(r) c_x)^n with p
    the number of zero slots.
    ``product``: sum over three tuple families applied to
    delta'(x) * delta''(y); bound 2^n (1+||r||)^{2n+m1+m2}
    (2 theta_1(r) c_{x,y})^{n+m1+m2}.
    """
    if n > 3:
        raise SizeGuardError("bound enumeration limited to n <= 3")
    r = L.single_r()
    th = theta(r, 1)
    rn = dense.operator_norm(r)

    if mode in ("pure", "mixed"):
        if epsbar is None:
            epsbar = (1,) * n
        epsbar = tuple(epsbar)
        if len(epsbar) != n:
            raise ValueError("epsbar length must equal n")
        if mode == "pure" and any(e == 0 for e in epsbar):
            raise ValueError("pure mode requires eps in {-1, +1}")
        terms = _derivation_terms(L, x, epsbar)
        lhs = sum(dense.operator_norm(val) for _k, val in terms)
        cx = c_const(x)
        if mode == "pure":
            rhs = (2.0 * th * cx) ** n
        else:
            p = sum(1 for e in epsbar if e == 0)
            rhs = rn**p * (2.0 * th * cx) ** n
        return LemmaBoundReport(lhs, rhs, len(terms))

    if mode == "product":
        if y is None or eps1 is None or eps2 is None:
            raise ValueError("product mode needs y, eps1 and eps2")
        if epsbar is None:
            epsbar = (1,) * n
        epsbar, eps1, eps2 = tuple(epsbar), tuple(eps1), tuple(eps2)
        m1, m2 = len(eps1), len(eps2)
        lhs = 0.0
        count = 0
        for _k1, dx in _derivation_terms(L, x, eps1):
            for _k2, dy in _derivation_terms(L, y, eps2):
                prod = dx * dy
                if prod.is_zero(1e-14):
                    continue
                for _k, val in _derivation_terms(L, prod, epsbar):
                    lhs += dense.operator_norm(val)
                    count += 1
                    if count > ENUM_GUARD:
                        raise SizeGuardError("product enumeration exceeded the guard")
        cxy = max(c_const(x), c_const(y))
        rhs = 2.0**n * (1.0 + rn) ** (2 * n + m1 + m2) * (2.0 * th * cxy) ** (n + m1 + m2)
        return LemmaBoundReport(lhs, rhs, count)

    raise ValueError(f"unknown lemma mode {mode!r}")
