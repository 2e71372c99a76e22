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
U^(a+a') V^(b+b'), the symplectic rule of qudit Weyl strings (Gottesman
1998).  So every window matrix built from Kraus members is a sum of
monomial matrices (one nonzero per column).  Strings may reach outside
the window; their outside part commutes with every window string and is
carried along as a separate label, so output labels that leave the
window are recorded as leaked coefficient mass and no larger index space
is ever built.

Matrices are built one Kraus-term row at a time.  The phases of a term g
against all k terms h of its member, at every basis string, are one
float product of a (k, 2n + 1) table with the stored (2n + 1, dim) digit
table (-a; -b; 1): exact small integers, whose roots are read from one
table R (R[p] = omega**p for every reachable p) with no reduction mod N.
The row a shift sends each string to is an outer sum over sites of
columns of the (N^2, N^2) per-site digit-sum table.  Row blocks are
added into their shifts' coefficients in pair order and released, and
entries are written shift by shift in column order, so every matrix
equals the per-pair sum bit for bit.

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
from .sparse import CSR, index_dtype


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
        # Phases p = x @ (-a; -b; 1) come out of a float product as exact small
        # integers; R[p] = omega**p for -3 n (N-1)^2 <= p < N, negative p from the end.
        self._phase_rows = np.vstack([-self.a.T, -self.b.T, np.ones((1, self.dim))])
        self._R = np.tile(self.roots, 3 * n * (N - 1) ** 2 // N + 1)
        # Per site, the digit of U^a V^b U^a' V^b' at [a N + b, a' N + b'].
        ua, ub = np.divmod(np.arange(N * N), N)
        self._sums = (ua[:, None] + ua) % N * N + (ub[:, None] + ub) % N
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

    def _roots_at(self, x: np.ndarray) -> np.ndarray:
        """omega**p for p = x @ (-a; -b; 1), every basis string: (..., 2n + 1) -> (..., dim)."""
        p = x.reshape(-1, x.shape[-1]) @ self._phase_rows
        return self._R[p.astype(np.intp)].reshape(*x.shape[:-1], self.dim)

    def _shifted(self, t: np.ndarray, dtype) -> np.ndarray:
        """Basis index of the window part of U_i U_s, every i, for the site digits t of s."""
        rows, *columns = (self._sums[:, t] * self.place).astype(dtype).T
        for column in columns:
            rows = (rows[:, None] + column).ravel()
        return rows

    def _assemble(self, columns: dict[WeylLabel, np.ndarray]):
        """Matrix and per-column leak from image coefficients keyed by shift.

        ``columns[s][i]`` is the coefficient of U_{i+s} in the image of
        basis string i.  Coefficients below ``COEFF_TOL`` are dropped, as
        the symbolic layer drops them; shifts whose outside part is not
        the identity leave the window and add |coefficient| to the leak.
        """
        N, dim = self.params.N, self.dim
        leak = np.zeros(dim)
        kept = []
        for s, coeff in columns.items():
            mod = np.abs(coeff)
            keep = mod >= COEFF_TOL
            sa, sb, outside = self.split(s)
            if outside.is_identity():
                kept.append((sa * N + sb, coeff, keep, np.count_nonzero(keep)))
            else:
                leak += np.where(keep, mod, 0.0)
        # COO arrays at their final size and in the CSR's index dtype: no list of
        # pieces is held beside its concatenation, and from_coo casts nothing.
        nnz = sum(count for *_, count in kept)
        idx = index_dtype(max(dim, nnz))
        rows, cols, vals = np.empty(nnz, idx), np.empty(nnz, idx), np.empty(nnz, complex)
        every, start = np.arange(dim, dtype=idx), 0
        for t, coeff, keep, count in kept:
            part = slice(start, start + count)
            rows[part], cols[part] = self._shifted(t, idx)[keep], every[keep]
            vals[part] = coeff[keep]
            start += count
        return CSR.from_coo(vals, rows, cols, (dim, dim)), leak

    def _digits(self, labels) -> np.ndarray:
        """Window exponents (a, b) of k strings, as a (2, k, n) float array."""
        ab = np.array([self.split(g)[:2] for g in labels], dtype=float)
        return ab.reshape(len(labels), 2, len(self.sites)).transpose(1, 0, 2)

    def bracket(self, op: LocalOperator):
        """Matrix and leak of y -> op y - y op on the window basis.

        Row g of its one block is c_g (omega**(-a.g_b) - omega**(-b.g_a)).
        """
        n, terms = len(self.sites), op.items()
        labels = [g for g, _ in terms]
        ga, gb = self._digits(labels)
        x = np.zeros((2, len(terms), 2 * n + 1))
        x[0, :, :n], x[1, :, n:2 * n] = gb, ga
        coeff = np.array([c for _, c in terms], dtype=complex)
        return self._assemble(dict(zip(labels, coeff[:, None] * np.subtract(*self._roots_at(x)))))

    def _add_row(self, columns, g: WeylLabel, cg: complex, terms, ha, hb, combine) -> None:
        """Add (``combine`` = ``np.add``) or subtract (``np.subtract``) the (k, dim)
        image block of the term pairs (g, h), h over ``terms``, by shift.

        Pair (g, h) lands on the shift s with weyl_mul(g*, h) = (q, s); q_out is
        the phase of the product of their outside parts.  At basis string i the
        phases are -a.g*_b - b.h_a - g*_b.h_a + q_out (m* x m), -a.(g*_b + h_b) + q
        (m* m x) and -b.(g*_a + h_a) + q (x m* m).
        """
        params, n = self.params, len(self.sites)
        adj, g_star = weyl_adjoint(params, g)
        ga, gb, g_out = self.split(g_star)
        prods = [weyl_mul(params, g_star, h) for h, _ in terms]
        q_out = np.array([weyl_mul(params, g_out, self.split(h)[2])[0] for h, _ in terms])
        x = np.zeros((3, len(terms), 2 * n + 1))
        x[0, :, :n], x[0, :, n:2 * n], x[0, :, -1] = gb, ha, q_out - ha @ gb
        x[1, :, :n], x[1:, :, -1] = gb + hb, [q for q, _ in prods]
        x[2, :, n:2 * n] = ga + ha
        sandwich, left, right = self._roots_at(x)
        coeff = np.array([cg.conjugate() * ch * params.root(adj) for _, ch in terms])
        for (_q, s), row in zip(prods, coeff[:, None] * (sandwich - 0.5 * (left + right))):
            columns[s] = combine(columns.get(s, 0), row)

    def generator(self, members, negated=()):
        """Matrix and leak of x -> sum_m m* x m - (1/2){m* m, x} on the window basis,
        less the same sum over the ``negated`` members.

        For one term pair (g, h) of a member, m* x m, m* m x and x m* m
        all land on the shift -g + h; their three phases are combined per
        column before any sum over pairs, so a column whose string
        commutes with both terms gets an exact zero.
        """
        columns: dict[WeylLabel, np.ndarray] = {}
        for combine, group in ((np.add, members), (np.subtract, negated)):
            for m in group:
                terms = m.items()
                ha, hb = self._digits([h for h, _ in terms])
                for g, cg in terms:
                    self._add_row(columns, g, cg, terms, ha, hb, combine)
        return self._assemble(columns)
