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
everything else.  The bound reads its order n and zero count p from its
eps tuple, checked before anything is enumerated; the perturbed ergodic
state reads state, Kraus family and c from the generator.

Every Weyl-basis solve, ``evolve`` here and the flow systems of
``fock``, runs on one grid driver: ``propagate`` steps a vector across
pieces of constant generator by the one stepper, ``expm_multiply``,
sharing the caller's ``tol`` by ``split_tolerance``, and yields each
grid time's state for the caller to write where it wants.

Each structure map of a :class:`Lindbladian` has one accessor:
``lind_k`` for L_k, ``derivation(+-1, ...)`` for delta_k and delta_k^dag.
They read two tables the instance fills on first use and keeps for its
lifetime: per translate k, the members with their adjoints (m_k, m_k*)
(``_member_pairs``); and per absolute pair (k, U_b), the string image
L_k(U_b), so that L_k(x) is sum_b x_b L_k(U_b).  Nothing is shared.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
from .sparse import CSR

ENUM_GUARD = 200_000
WINDOW_PAD_FACTOR = 2  # default_window pads by this many Kraus diameters
# Largest h ||A - mu I||_1 of one expm_multiply substep.  A substep's terms
# grow to about e^theta / sqrt(2 pi theta) times its vector before they
# fall, so the cap bounds what cancellation costs.  9.9 is theta_55, the
# largest unit-roundoff entry of Al-Mohy & Higham (SIAM J. Sci. Comput. 33
# (2011) 488-511, table 3.1): no step takes more substeps than their degree
# choice.  The dense oracle keeps its own cap (``dense.TAYLOR_THETA_MAX``),
# since it shares no code with the stepper.
SUBSTEP_NORM_MAX = 9.9
TAYLOR_MAX_TERMS = 100  # terms one substep may sum before expm_multiply gives up
ROUNDOFF = 2.0**-53  # unit roundoff: no Taylor sum is asked to stop below it


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
    def perturbed(state, kraus: KrausFamily, c: float) -> "Lindbladian":
        return Lindbladian(kraus.params, "perturbed", kraus=kraus, state=state, c=c)

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

    ``mu`` is the shift tr A / n and ``shifted(v)`` is (A - mu I) v as a
    fresh array (:func:`expm_multiply` scales it in place).  The three
    numbers are upper bounds, exact or not: ``norm`` of ||A - mu I||_1,
    which sizes the Taylor steps; ``norm_inf`` of ||A - mu I||_inf, which
    bounds the ratio of consecutive Taylor terms; and ``growth`` of the
    logarithmic inf-norm mu_inf(A) = max_i (Re a_ii + sum_{j != i} |a_ij|),
    so that ||e^{tA}||_inf <= e^{t growth}.  A looser bound only costs
    matvecs: every certificate stays true.
    """

    mu: complex
    shifted: Callable[[np.ndarray], np.ndarray]
    norm: float
    norm_inf: float
    growth: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v, unshifted."""
        return self.shifted(v) + self.mu * v


def step_operator(mat) -> StepOperator:
    """A square canonical CSR matrix as a :class:`StepOperator`: its trace shift and exact norms.

    Everything is read from the matrix's CSR arrays (``data``, ``indices``,
    ``indptr``, ``shape``), whose rows hold sorted, distinct columns.
    A - mu I keeps A's pattern, with a diagonal entry put into each row
    that lacks one (in column order), and is built once from its data,
    indices and row pointer; ``shifted`` is its product ``CSR.dot``.  The
    column sums of |A - mu I| (``bincount`` over its entries) give the
    1-norm, its row sums (one segment of the data per row) the inf-norm,
    and the row sums with the diagonal put back as its real part the
    logarithmic inf-norm.  A matrix with no rows has norms 0 and log-norm
    -inf.
    """
    n = mat.shape[0]
    indices, indptr = mat.indices, mat.indptr
    rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    lacking = np.flatnonzero(np.bincount(rows[indices == rows], minlength=n) == 0)
    if lacking.size:
        at = indptr[lacking] + np.bincount(rows[indices < rows], minlength=n)[lacking]
        data = np.insert(mat.data.astype(complex, copy=False), at, 0j)
        indices = np.insert(indices, at, lacking)
        indptr = (indptr + np.searchsorted(lacking, np.arange(n + 1))).astype(indices.dtype)
        rows = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    else:
        data = mat.data.astype(complex)
    on_diag = indices == rows
    mu = complex(data[on_diag].sum()) / n if n else 0j
    data[on_diag] -= mu
    mag = np.abs(data)
    # Every row now holds its diagonal, so no segment is empty.
    row_sums, col_sums = np.add.reduceat(mag, indptr[:-1]), np.bincount(indices, mag, n)
    diag = data[on_diag]
    growth = mu.real + float((row_sums - np.abs(diag) + diag.real).max(initial=-math.inf))
    return StepOperator(mu, CSR(data, indices, indptr, (n, n)).dot,
                        float(col_sums.max(initial=0.0)), float(row_sums.max(initial=0.0)),
                        growth)


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max(initial=0.0))


def expm_multiply(op: StepOperator, v: np.ndarray, h: float, budget: float) -> np.ndarray:
    """e^{hA} v for the generator A of ``op``, to within ``budget`` in the max norm.

    Al-Mohy & Higham's Algorithm 3.2 with a certified stop: s substeps of
    length tau = h / s, each e^{tau mu} times a Taylor sum in tau (A - mu I),
    s the fewest with tau ||A - mu I||_1 at most ``SUBSTEP_NORM_MAX``.  With
    beta = tau ``norm_inf`` and v_j the j-th term of a substep, each later
    term is at most beta / (k + 1) times the one before it, so once
    beta < j + 2 the rest of the sum is at most
    |e^{tau mu}| ||v_j|| (beta / (j + 1)) / (1 - beta / (j + 2)).  A
    substep stops as soon as that meets its share of ``budget``: the
    substeps split it as :func:`split_tolerance` splits a caller's
    ``tol``, since a remainder left by one substep grows by at most
    e^{tau max(growth, 0)} in each later one.  So the truncation error of
    the result is at most ``budget``; roundoff is not part of the bound.
    A share below ``ROUNDOFF`` times the sum's max norm, which a large
    log-norm bound over a long step can ask for, is not pursued: that sum
    stops once its remainder is below unit roundoff of itself, where the
    plain roundoff stop also ends, inside the roundoff the bound leaves
    out.  A zero term ends a sum at once, since every later term is zero
    too.  A sum that reaches ``TAYLOR_MAX_TERMS`` terms first (a NaN term,
    say) raises ``DivergenceError``.

    The step length scales the terms; the operator is never copied, and
    ``v`` is copied once, into the sum that each term is added to in place.
    """
    s = max(1, math.ceil(h * op.norm / SUBSTEP_NORM_MAX))
    tau = h / s
    eta = cmath.exp(tau * op.mu)
    beta = tau * op.norm_inf
    out = np.array(v, dtype=complex)
    for share in split_tolerance(budget, [(tau, op.growth)] * s):
        size = bound = _inf_norm(v)
        for j in range(TAYLOR_MAX_TERMS + 1):
            if size == 0.0:
                break  # a zero term: every later term is zero too
            if beta < j + 2:
                rest = size * beta / (j + 1) / (1 - beta / (j + 2))  # before e^{tau mu}
                # bound >= ||out||: the max norm of out is read only where it can stop the sum.
                if abs(eta) * rest <= share or (
                        rest <= ROUNDOFF * bound and rest <= ROUNDOFF * _inf_norm(out)):
                    break
            if j == TAYLOR_MAX_TERMS:
                raise DivergenceError(
                    f"a Taylor sum missed its share {share:.3g} of the budget after {j} "
                    f"terms (h ||A - mu I||_1 = {h * op.norm:.3g})")
            v = op.shifted(v)
            np.multiply(tau / (j + 1), v, out=v)
            size = _inf_norm(v)
            bound += size
            out += v
        np.multiply(eta, out, out=out)
        v = out
    return out


def split_tolerance(tol: float, steps) -> list[float]:
    """Per-step budgets for :func:`expm_multiply` whose errors add to at most ``tol``.

    ``steps`` lists (h_i, growth_i) in stepping order, growth_i bounding
    the log-norm of step i's generator.  Step i gets
    tol (h_i / T) e^{-sum_{j > i} h_j max(growth_j, 0)}, T the total
    length (steps of total length 0 share tol equally): the later steps
    grow its error by at most the exponential it is divided by, so the
    truncation error at the end of every step is at most tol times the
    fraction of T covered by then.
    """
    total = sum(h for h, _g in steps)
    budgets, later = [], 0.0
    for h, growth in reversed(steps):
        part = h / total if total else 1 / len(steps)
        budgets.append(tol * part * math.exp(-later))
        later += h * max(growth, 0.0)
    return budgets[::-1]


# -- the grid driver -------------------------------------------------------------


class Piece(NamedTuple):
    """The stretch [a, b] of a solve, its prepared generator and its leak rate.

    Pieces of one generator share one :class:`StepOperator`.  ``fock``
    accrues ``leak_rate``, the mass per unit time its window drops, into
    its estimates; ``evolve`` prices its window by its edge term instead.
    """

    a: float
    b: float
    op: StepOperator
    leak_rate: float = 0.0


def propagate(pieces: list[Piece], state: np.ndarray, grid: np.ndarray, tol: float):
    """Step ``state`` from t = 0 across the pieces; yield (rows, state) at 0 and each piece's end.

    The pieces run end to end from 0, and every time of ``grid`` is 0 or
    a piece's end; ``rows`` lists the grid rows at the state's time, none
    for a breakpoint between grid times.  Only the current state is held,
    the initial one included: the caller writes each where it wants it.
    This is the one caller of :func:`expm_multiply`.  The pieces share
    ``tol`` by :func:`split_tolerance`, so every state is within ``tol``
    of the exact solution in the max norm, up to roundoff.
    """
    budgets = split_tolerance(tol, [(p.b - p.a, p.op.growth) for p in pieces])
    rows_at: dict[float, list[int]] = {}
    for i, t in enumerate(grid):
        rows_at.setdefault(float(t), []).append(i)
    yield rows_at.get(0.0, []), state
    for p, budget in zip(pieces, budgets):
        state = expm_multiply(p.op, state, p.b - p.a, budget)
        yield rows_at.get(p.b, []), state


# -- fixed-grid quadrature -----------------------------------------------------
# scipy.integrate's trapezoid rule, operation for operation, so the edge
# budget is bit for bit scipy's; importing scipy.integrate would load
# scipy.optimize as well.


def cumulative_trapezoid(y, t) -> np.ndarray:
    """Trapezoid integrals of samples y at times t from t[0] to each t[i]; the first is 0."""
    y = np.asarray(y)
    parts = np.diff(t) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate((np.zeros(1, parts.dtype), np.cumsum(parts)))


# -- evolution ---------------------------------------------------------------


@dataclass
class EvolutionResult:
    """Heisenberg-picture trajectory of one observable on a time grid.

    ``coefficients[t]`` holds the window coefficients at grid time t, one
    column per string of ``basis`` (the window kernel's label list,
    ``dense.window_basis`` order on ``window_sites``).  ``values``, the
    trajectory as one ``LocalOperator`` per grid time, is built from them
    on first read and kept.  ``identity_image`` is ||L_W(1)||_1, the l1
    mass of the window matrix's identity column: P_t(1) = 1 for every t
    exactly when it is 0."""

    grid: np.ndarray
    coefficients: np.ndarray
    basis: list[WeylLabel]
    params: AlgebraParams
    error_budget: np.ndarray
    identity_image: float
    window_sites: tuple[Site, ...] = ()

    @functools.cached_property
    def values(self) -> list[LocalOperator]:
        return [LocalOperator(self.params, zip(self.basis, row.tolist()))
                for row in self.coefficients]

    def coefficients_of(self, ops) -> np.ndarray:
        """Coefficient rows of operators supported in the window, on ``basis``."""
        index = {lab: i for i, lab in enumerate(self.basis)}
        return np.array([dense.coefficient_vector(op, index) for op in ops])

    def deviation(self, sites, coefficients) -> float:
        """Largest entrywise |difference| from a (T, n) coefficient array on
        the window ``sites``, in ``dense.window_basis`` order; raises
        ``WindowError`` when ``sites`` is not this trajectory's window."""
        if tuple(tuple(s) for s in sites) != self.window_sites:
            raise WindowError(f"window {sites} is not the trajectory's {self.window_sites}")
        return float(np.abs(self.coefficients - coefficients).max())


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
    whose clipped copies never leave the window): one kernel call with the
    copies ``negated``.
    """
    kern = WindowKernel(L.params, sites)
    mat, _leak = kern.generator(L.window_members(kern.sites, closure_mode))
    edge_members = [m for _key, m, inside in L.window_translates(kern.sites) if not inside]
    if closure_mode == "clipped":
        allowed = set(kern.sites)
        edge_mat, edge = kern.generator(
            edge_members, negated=[L._clip_factors(m, allowed) for m in edge_members])
    else:
        edge_mat, edge = kern.generator(edge_members)
    edge += edge_mat.abs_col_sums()
    return mat, kern.basis, kern.index, edge


def evolve(L: Lindbladian, x: LocalOperator, t_grid, tol: float = 1e-10,
           window=None, closure_mode: str = "interior") -> EvolutionResult:
    """Heisenberg evolution P_t(x) of the windowed generator.

    The window coefficient vector is stepped from t = 0 across the grid by
    the action of the matrix exponential: the window matrix is prepared
    once, one piece per positive grid increment shares it, and
    :func:`propagate` writes each grid time's state into its row.  The
    result holds the (T, n) coefficient array and the kernel's basis; no
    operator is built per grid time unless a caller reads ``values``.
    The partial-state closed form is :func:`partial_semigroup_exact`.

    The error budget is ``tol`` plus the window edge term.  ``tol`` is a
    certified bound on the stepper's truncation error, in the max norm of
    the window coefficients, at every grid time (:func:`propagate`);
    roundoff is outside it.  The edge term is Duhamel's:
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
    op = step_operator(mat)
    ends = [0.0, *map(float, grid)]
    pieces = [Piece(a, b, op) for a, b in zip(ends, ends[1:]) if b > a]
    coefficients = np.empty((len(grid), len(basis)), dtype=complex)
    for rows, state in propagate(pieces, x0, grid, tol):
        coefficients[rows] = state

    # The edge term accrues from t = 0, where the trajectory starts, also
    # when the grid starts later.
    late = bool(grid[0] > 0)
    times = np.concatenate([[0.0], grid]) if late else grid
    weights = [edge_rates @ np.abs(vec) for vec in [x0] * late + list(coefficients)]
    edge = cumulative_trapezoid(weights, times)[-len(grid):]
    identity_image = mat.column_abs_sum(index[WeylLabel.identity()])
    return EvolutionResult(grid, coefficients, basis, L.params, tol + edge, identity_image,
                           sites)


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


def perturbed_ergodic_state(Lc: Lindbladian, x: LocalOperator) -> tuple[complex, float]:
    """Phi^{(c)}(x) = Phi(x) + c * integral over t >= 0 of Phi(L(P_t^{(c)} x)) dt.

    ``Lc`` is the generator ``evolve`` steps, partial-state (c = 0) or
    perturbed (a translation kind raises ``ValueError``); state, family L
    and c are read from it.  On its interior window, with window matrix
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
    if Lc.kind == "translation":
        raise ValueError("needs a partial-state or perturbed generator")
    state, c = Lc.state, Lc.c
    base = ergodic_state(state, x)
    if c == 0:
        return base, 0.0
    mat, basis, index, _edge = generator_matrix(Lc, default_window(Lc, x), "interior")
    # The row reads each string image once, so it builds them in a
    # generator of its own: the caller's image table would keep them all.
    row = Lindbladian.translation_covariant(Lc.kraus)
    phi_l_vec = np.array([
        ergodic_state(state, row.apply(LocalOperator.weyl(Lc.params, lab))) for lab in basis
    ])

    # scipy.sparse.linalg loads scipy.linalg; only this branch needs it,
    # and no other code of the package imports scipy.sparse.
    import scipy.sparse
    from scipy.sparse.linalg import splu

    n = len(basis)
    one = index[WeylLabel.identity()]
    e1 = scipy.sparse.csc_matrix(([1.0], ([one], [0])), shape=(n, 1))
    A = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
    bordered = scipy.sparse.bmat([[A, e1], [e1.T, None]], format="csc")
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
    err = c * np.abs(phi_l_vec).max() * np.abs(mat.dot(z) - u).sum()
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


def lemma_bound_report(L: Lindbladian, x: LocalOperator, epsbar) -> LemmaBoundReport:
    """Norm sum of delta(kbar, epsbar) x over kbar against ||r||^p (2 theta_1(r) c_x)^n.

    n = len(epsbar) and p counts its zeros; with no zero the bound is
    (2 theta_1(r) c_x)^n exactly.  Before anything is enumerated, every
    entry of epsbar must be -1, 0 or +1 and epsbar nonempty (else
    ``ValueError``), and an epsbar past 3 raises ``SizeGuardError``.
    """
    epsbar = tuple(epsbar)
    if not epsbar or any(e not in (-1, 0, 1) for e in epsbar):
        raise ValueError(f"eps tuples need entries in {{-1, 0, +1}} and a nonempty "
                         f"epsbar, got {epsbar}")
    if len(epsbar) > 3:
        raise SizeGuardError("bound enumeration limited to n <= 3")
    r = L.single_r()
    th, rn = theta(r, 1), dense.operator_norm(r)
    terms = _derivation_terms(L, x, epsbar)
    # Summed in term order, so lhs is the same float however the norms are batched.
    lhs = sum(dense.operator_norms([val for _k, val in terms]))
    rhs = rn ** epsbar.count(0) * (2.0 * th * c_const(x)) ** len(epsbar)
    return LemmaBoundReport(lhs, rhs, len(terms))
