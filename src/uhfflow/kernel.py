"""Site windows and the matrices of Weyl-string maps on them.

A :class:`WindowKernel` is the window: it owns the window's sites
(checked once by :class:`uhfflow.dense.SiteWindow`: distinct, with d
coordinates each), its basis of the N^(2n) Weyl strings supported on
the n sites and the index of that basis, and every matrix built on it.
The basis is :func:`uhfflow.dense.window_basis` (per site the digit
a*N + b, the first site most significant).  It is also stored as two
integer digit arrays, ``a`` and ``b`` of shape (dim, n): row i is the
string U_i = prod_j U^{a_ij} V^{b_ij}.

Multiplying a basis string by fixed strings on both sides is a phase
times a permutation: per site (U^a V^b)(U^a' V^b') = omega**(-b a')
U^(a+a') V^(b+b'), the symplectic phase rule of the qudit stabilizer
formalism.  So every window matrix built from Kraus members is a sum of
monomial matrices (one nonzero per column) whose phases are integer dot
products of digit arrays.  Strings may reach outside the window; their
outside part commutes with every window string and is carried along as a
separate label, so output labels that leave the window are recorded as
leaked coefficient mass and no larger index space is ever built.

The column l1 mass of a matrix plus its leak is the exact l1 norm of the
map's image of each basis string.  That one quantity prices every window
cut: ``fock`` budgets the leak of its structure maps, and
:func:`uhfflow.lindblad.generator_matrix` takes the mass of the edge
members' generator (minus their clipped copies' for the clipped
closure) as the per-string edge rate of ``evolve``'s error budget.
"""

from __future__ import annotations

import numpy as np

from . import dense
from .algebra import (
    COEFF_TOL,
    AlgebraParams,
    LocalOperator,
    Site,
    WeylLabel,
    weyl_adjoint,
    weyl_mul,
)
from .errors import SizeGuardError
from .sparse import CSR


class WindowKernel:
    """A site window: its sites, Weyl-string basis and index, and the maps built on it.

    Raises ``WindowError`` for repeated sites or sites with the wrong
    number of coordinates, and ``SizeGuardError`` before any basis is built
    for more than ``dense.MAX_WINDOW_DIM`` strings: the one window-size check.
    """

    def __init__(self, params: AlgebraParams, sites):
        self.params = params
        self.sites: tuple[Site, ...] = dense.window(params, sites).sites
        N, n = params.N, len(self.sites)
        self.dim = N ** (2 * n)
        if self.dim > dense.MAX_WINDOW_DIM:
            raise SizeGuardError(f"window has {self.dim} strings, above {dense.MAX_WINDOW_DIM}")
        self.basis: list[WeylLabel] = dense.window_basis(params, self.sites)
        self.index: dict[WeylLabel, int] = {lab: i for i, lab in enumerate(self.basis)}
        self.place = (N * N) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        digits = (np.arange(self.dim, dtype=np.int64)[:, None] // self.place) % (N * N)
        self.a, self.b = np.divmod(digits, N)
        self.roots = np.array([params.root(k) for k in range(N)], dtype=complex)
        self._pos = {site: j for j, site in enumerate(self.sites)}
        self._split: dict[WeylLabel, tuple[np.ndarray, np.ndarray, WeylLabel]] = {}

    # -- strings -------------------------------------------------------

    def split(self, label: WeylLabel) -> tuple[np.ndarray, np.ndarray, WeylLabel]:
        """Window exponent vectors (a, b) of a string and its outside part."""
        if label not in self._split:
            n = len(self.sites)
            a = np.zeros(n, dtype=np.int64)
            b = np.zeros(n, dtype=np.int64)
            outside = []
            for site, (sa, sb) in label.entries:
                j = self._pos.get(site)
                if j is None:
                    outside.append((site, (sa, sb)))
                else:
                    a[j], b[j] = sa, sb
            self._split[label] = (a, b, WeylLabel(tuple(outside)))
        return self._split[label]

    def phase(self, g: WeylLabel, h: WeylLabel) -> np.ndarray:
        """Integer phases p with U_g U_i U_h = omega**p U_{g+i+h}, for every basis i."""
        _ga, gb, g_out = self.split(g)
        ha, _hb, h_out = self.split(h)
        q_out, _ = weyl_mul(self.params, g_out, h_out)
        return -(self.a @ gb) - (self.b @ ha) - int(gb @ ha) + q_out

    def shifted_rows(self, s: WeylLabel) -> np.ndarray:
        """Basis index of the window part of U_i U_s (exponents add), for every basis i."""
        sa, sb, _ = self.split(s)
        N = self.params.N
        return (((self.a + sa) % N * N + (self.b + sb) % N) * self.place).sum(axis=1)

    def products(self, i: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phases and indices of U_i U_k = omega**phase U_rows, for basis index arrays i and k."""
        N = self.params.N
        phase = -(self.b[i] * self.a[k]).sum(axis=-1) % N
        digits = (self.a[i] + self.a[k]) % N * N + (self.b[i] + self.b[k]) % N
        return phase, (digits * self.place).sum(axis=-1)

    def factors(self, k: np.ndarray) -> np.ndarray:
        """Index table j[m, i] of the strings with U_i U_j proportional to U_{k[m]}, every basis i.

        Exponents add under products, so U_j's are k[m]'s less U_i's.
        """
        N = self.params.N
        a = (self.a[k][:, None] - self.a) % N
        b = (self.b[k][:, None] - self.b) % N
        return ((a * N + b) * self.place).sum(axis=-1)

    # -- window matrices ---------------------------------------------------

    def _root(self, p: np.ndarray) -> np.ndarray:
        return self.roots[p % self.params.N]

    def _assemble(self, columns: dict[WeylLabel, np.ndarray]):
        """Matrix and per-column leak from image coefficients keyed by shift.

        ``columns[s][i]`` is the coefficient of U_{i+s} in the image of
        basis string i.  Coefficients below ``COEFF_TOL`` are dropped, as
        the symbolic layer drops them; shifts whose outside part is not
        the identity leave the window and add |coefficient| to the leak.
        """
        rows, cols, vals = [], [], []
        leak = np.zeros(self.dim)
        every = np.arange(self.dim)
        for s, coeff in columns.items():
            keep = np.abs(coeff) >= COEFF_TOL
            if self.split(s)[2].is_identity():
                rows.append(self.shifted_rows(s)[keep])
                cols.append(every[keep])
                vals.append(coeff[keep])
            else:
                leak += np.where(keep, np.abs(coeff), 0.0)
        if vals:
            rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
        return CSR.from_coo(vals, rows, cols, (self.dim, self.dim), dtype=complex), leak

    def bracket(self, op: LocalOperator):
        """Matrix and leak of y -> op y - y op on the window basis."""
        one = WeylLabel.identity()
        columns: dict[WeylLabel, np.ndarray] = {}
        for g, c in op.items():
            image = c * (self._root(self.phase(g, one)) - self._root(self.phase(one, g)))
            columns[g] = columns.get(g, 0) + image
        return self._assemble(columns)

    def generator(self, members):
        """Matrix and leak of x -> sum_m m* x m - (1/2){m* m, x} on the window basis.

        For one term pair (g, h) of a member, m* x m, m* m x and x m* m
        all land on the shift -g + h; their three phases are combined per
        column before any sum over pairs, so a column whose string
        commutes with both terms gets an exact zero.
        """
        one = WeylLabel.identity()
        columns: dict[WeylLabel, np.ndarray] = {}
        for m in members:
            terms = m.items()
            for g, cg in terms:
                adj, g_star = weyl_adjoint(self.params, g)
                for h, ch in terms:
                    q, s = weyl_mul(self.params, g_star, h)
                    sandwich = self._root(self.phase(g_star, h))
                    left = self._root(self.phase(s, one) + q)
                    right = self._root(self.phase(one, s) + q)
                    coeff = cg.conjugate() * ch * self.params.root(adj)
                    columns[s] = columns.get(s, 0) + coeff * (sandwich - 0.5 * (left + right))
        return self._assemble(columns)
