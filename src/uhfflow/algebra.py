"""Exact symbolic algebra of local lattice observables in the Weyl-string basis.

A local observable is a finite complex combination of unitary strings

    U_g = prod_j  U^{alpha_j} V^{beta_j}        (j over finitely many sites),

where ``U`` and ``V`` are the N-dimensional clock and shift unitaries with
``U V = omega V U`` and ``omega = exp(2 pi i / N)``.  Products, adjoints,
commutators, lattice translations, the normalized trace and the GNS inner
product are all computed exactly at the level of string labels and phases;
no matrices appear here, except in ``seminorm_one``, an operator norm.
The finite-dimensional realization lives in :mod:`uhfflow.dense` and
serves as an independent oracle.

Normal ordering per site is U-powers before V-powers; reordering across a
product contributes the phase ``omega**(-beta * alpha')`` per site.

The identity checks multiply the same few strings over and over, so the
label arithmetic reuses its work: ``WeylLabel`` is interned, so equal
labels are one object and every dict or cache lookup on a label is an
identity hit; ``weyl_mul`` reads a bounded product table keyed on
(N, g, h); ``AlgebraParams.root`` reads a table of the N-th roots of unity
per N.  Operations whose term dicts are already merged (sums, products,
adjoints, translates) only drop coefficients below ``COEFF_TOL``.
``commutator`` reads both orders of each term pair in one pass and skips
the pairs whose strings commute.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ParamsMismatchError

# Coefficients below this magnitude are dropped during canonicalization so
# that float dust cannot blow up supports.
COEFF_TOL = 1e-15

# Entries of the product table behind ``weyl_mul``; the identity checks
# see a few thousand distinct products.
PRODUCT_TABLE_SIZE = 1 << 16

Site = tuple[int, ...]


@dataclass(frozen=True)
class AlgebraParams:
    """On-site dimension ``N`` and lattice dimension ``d``; immutable."""

    N: int
    d: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"on-site dimension must be >= 2, got {self.N}")
        if self.d < 1:
            raise ValueError(f"lattice dimension must be >= 1, got {self.d}")
        w = self.omega
        if abs(w**self.N - 1.0) > 1e-14:
            raise ValueError("omega**N != 1")
        for k in range(1, self.N):
            if abs(w**k - 1.0) <= 1e-14:
                raise ValueError("omega is not a primitive root")

    @property
    def omega(self) -> complex:
        return cmath.exp(2j * math.pi / self.N)

    def root(self, k: int) -> complex:
        """omega**k, read from the table of the reduced exponent."""
        return _roots(self.N)[k % self.N]

    def origin(self) -> Site:
        return (0,) * self.d


@functools.lru_cache(maxsize=None)
def _roots(N: int) -> tuple[complex, ...]:
    """omega**k for k = 0 .. N-1.

    Quarter turns are exact so that N = 2 and N = 4 phase arithmetic stays
    free of float dust.
    """
    return tuple((1 + 0j, 1j, -1 + 0j, -1j)[(4 * k // N) % 4] if (4 * k) % N == 0
                 else cmath.exp(2j * math.pi * k / N) for k in range(N))


def _check_site(site, d: int) -> Site:
    site = tuple(int(c) for c in site)
    if len(site) != d:
        raise ValueError(f"site {site} does not have {d} coordinates")
    return site


# entries -> the one WeylLabel carrying them.
_LABELS: dict[tuple, "WeylLabel"] = {}


class WeylLabel:
    """Finitely supported exponent map site -> (alpha, beta) labeling U_g.

    ``entries`` is sorted by site and never contains an exponent pair
    (0, 0); the empty tuple labels the identity.  Immutable and interned:
    ``WeylLabel(entries)`` returns the one label built from equal entries,
    so equality and hash are by identity.  The intern table
    (``_LABELS``) lives as long as the process and is never cleared, since
    two equal labels held as two objects would compare unequal.
    """

    __slots__ = ("entries",)

    def __new__(cls, entries: tuple[tuple[Site, tuple[int, int]], ...]):
        label = _LABELS.get(entries)
        if label is None:
            label = object.__new__(cls)
            object.__setattr__(label, "entries", entries)
            label = _LABELS.setdefault(entries, label)
        return label

    def __setattr__(self, name, value):
        raise AttributeError("WeylLabel is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the intern table.
        return (WeylLabel, (self.entries,))

    def __repr__(self):
        return f"WeylLabel(entries={self.entries!r})"

    @staticmethod
    def identity() -> "WeylLabel":
        return WeylLabel(())

    @staticmethod
    def single(site: Iterable[int], alpha: int, beta: int, N: int, d: int) -> "WeylLabel":
        return WeylLabel.from_entries([(tuple(site), (alpha, beta))], N, d)

    @staticmethod
    def from_entries(items, N: int, d: int) -> "WeylLabel":
        """Build a canonical label: exponents reduced mod N, (0,0) dropped."""
        ent: dict[Site, tuple[int, int]] = {}
        for site, (a, b) in dict(items).items():
            site = _check_site(site, d)
            a, b = int(a) % N, int(b) % N
            if (a, b) != (0, 0):
                ent[site] = (a, b)
        return WeylLabel(tuple(sorted(ent.items())))

    @property
    def support(self) -> tuple[Site, ...]:
        return tuple(site for site, _ in self.entries)

    @property
    def weight(self) -> int:
        """|g| = number of supported sites."""
        return len(self.entries)

    def is_identity(self) -> bool:
        return not self.entries

    def exponents(self, site: Site) -> tuple[int, int]:
        for s, ab in self.entries:
            if s == site:
                return ab
        return (0, 0)

    def translated(self, k: Site) -> "WeylLabel":
        moved = tuple(
            (tuple(c + dk for c, dk in zip(site, k)), ab) for site, ab in self.entries
        )
        return WeylLabel(tuple(sorted(moved)))

    def to_text(self) -> str:
        """Space-separated ``site:alpha,beta`` entries; empty for the identity."""
        return " ".join(
            ",".join(str(v) for v in site) + f":{a},{b}" for site, (a, b) in self.entries
        )


def weyl_mul(params: AlgebraParams, g: WeylLabel, h: WeylLabel) -> tuple[int, WeylLabel]:
    """Exact product law: U_g U_h = omega**phase * U_label.

    Per site, (U^a V^b)(U^a' V^b') = omega**(-b a') U^(a+a') V^(b+b');
    phases multiply across sites, exponents add mod N.  Read from a table
    of ``PRODUCT_TABLE_SIZE`` recent products.
    """
    return _product(params.N, g, h)


@functools.lru_cache(maxsize=PRODUCT_TABLE_SIZE)
def _product(N: int, g: WeylLabel, h: WeylLabel) -> tuple[int, WeylLabel]:
    phase = 0
    ent = dict(g.entries)
    for site, (a2, b2) in h.entries:
        a1, b1 = ent.get(site, (0, 0))
        phase -= b1 * a2
        a, b = (a1 + a2) % N, (b1 + b2) % N
        if (a, b) == (0, 0):
            ent.pop(site, None)
        else:
            ent[site] = (a, b)
    return phase % N, WeylLabel(tuple(sorted(ent.items())))


def weyl_adjoint(params: AlgebraParams, g: WeylLabel) -> tuple[int, WeylLabel]:
    """Adjoint law: U_g* = omega**phase * U_label with negated exponents."""
    N = params.N
    phase = 0
    ent = []
    for site, (a, b) in g.entries:
        phase -= a * b
        ent.append((site, ((-a) % N, (-b) % N)))
    return phase % N, WeylLabel(tuple(sorted(ent)))


class LocalOperator:
    """Finite complex-weighted sum of Weyl strings; immutable once built.

    Terms are canonicalized on construction: equal labels merged, entries
    with |coefficient| < ``COEFF_TOL`` dropped, iteration order fixed by
    the lexicographic order on label entries.
    """

    __slots__ = ("params", "_terms")

    def __init__(self, params: AlgebraParams, terms: Mapping[WeylLabel, complex] | Iterable = ()):
        merged: dict[WeylLabel, complex] = {}
        items = terms.items() if isinstance(terms, dict) or isinstance(terms, Mapping) else terms
        for label, coeff in items:
            c = merged.get(label, 0j) + complex(coeff)
            if c == 0j:
                merged.pop(label, None)
            else:
                merged[label] = c
        clean = {lab: c for lab, c in merged.items() if abs(c) >= COEFF_TOL}
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_terms", clean)

    @staticmethod
    def _merged(params: AlgebraParams, terms: dict[WeylLabel, complex]) -> "LocalOperator":
        """What ``LocalOperator(params, terms)`` builds, dropping only
        |c| < ``COEFF_TOL``.  The caller ensures what the public merge
        would otherwise do: ``terms`` is a dict of complex coefficients, and
        none has a -0.0 part (the merge adds each one to 0j)."""
        out = object.__new__(LocalOperator)
        object.__setattr__(out, "params", params)
        object.__setattr__(out, "_terms", {lab: c for lab, c in terms.items()
                                           if abs(c) >= COEFF_TOL})
        return out

    def __setattr__(self, name, value):
        raise AttributeError("LocalOperator is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(params: AlgebraParams) -> "LocalOperator":
        return LocalOperator(params)

    @staticmethod
    def identity(params: AlgebraParams) -> "LocalOperator":
        return LocalOperator(params, {WeylLabel.identity(): 1.0 + 0j})

    @staticmethod
    def weyl(params: AlgebraParams, label: WeylLabel, coeff: complex = 1.0) -> "LocalOperator":
        return LocalOperator(params, {label: coeff})

    @staticmethod
    def site_word(params: AlgebraParams, site, alpha: int, beta: int,
                  coeff: complex = 1.0) -> "LocalOperator":
        """coeff * U^alpha V^beta at one site."""
        label = WeylLabel.single(site, alpha, beta, params.N, params.d)
        return LocalOperator(params, {label: coeff})

    # -- ring structure ------------------------------------------------

    def _require_same_params(self, other: "LocalOperator"):
        if self.params is not other.params and self.params != other.params:
            raise ParamsMismatchError(
                f"operands live on different algebras: {self.params} vs {other.params}"
            )

    def __add__(self, other):
        if isinstance(other, LocalOperator):
            self._require_same_params(other)
            out = dict(self._terms)
            for lab, c in other._terms.items():
                out[lab] = out.get(lab, 0j) + c
            return LocalOperator._merged(self.params, out)
        return NotImplemented

    def __sub__(self, other):
        # a - c equals a + (0j - c) bit for bit when a has no -0.0 part.
        if isinstance(other, LocalOperator):
            self._require_same_params(other)
            out = dict(self._terms)
            for lab, c in other._terms.items():
                out[lab] = out.get(lab, 0j) - c
            return LocalOperator._merged(self.params, out)
        return NotImplemented

    def __neg__(self):
        # 0j - c, not -c: a +0.0 part stays +0.0, as the public merge leaves it.
        return LocalOperator._merged(self.params, {lab: 0j - c for lab, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, LocalOperator):
            self._require_same_params(other)
            params = self.params
            roots = _roots(params.N)
            out: dict[WeylLabel, complex] = {}
            for g, cg in self._terms.items():
                for h, ch in other._terms.items():
                    phase, label = weyl_mul(params, g, h)
                    c = cg * ch * roots[phase]
                    out[label] = out.get(label, 0j) + c
            return LocalOperator._merged(params, out)
        if isinstance(other, (int, float, complex)):
            return LocalOperator(
                self.params, {lab: c * other for lab, c in self._terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    # -- *-algebra operations -------------------------------------------

    def adjoint(self) -> "LocalOperator":
        roots = _roots(self.params.N)
        out: dict[WeylLabel, complex] = {}
        for g, c in self._terms.items():
            phase, label = weyl_adjoint(self.params, g)
            out[label] = out.get(label, 0j) + c.conjugate() * roots[phase]
        return LocalOperator._merged(self.params, out)

    def translate(self, k) -> "LocalOperator":
        k = _check_site(k, self.params.d)
        return LocalOperator._merged(
            self.params, {lab.translated(k): c for lab, c in self._terms.items()}
        )

    def trace(self) -> complex:
        """Normalized trace: the coefficient of the identity string."""
        return self._terms.get(WeylLabel.identity(), 0j)

    # -- inspection ------------------------------------------------------

    def items(self) -> list[tuple[WeylLabel, complex]]:
        """Terms in the deterministic (site, alpha, beta) order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].entries)

    def coeff(self, label: WeylLabel) -> complex:
        return self._terms.get(label, 0j)

    def num_terms(self) -> int:
        return len(self._terms)

    def support(self) -> tuple[Site, ...]:
        sites: set[Site] = set()
        for lab in self._terms:
            sites.update(lab.support)
        return tuple(sorted(sites))

    @property
    def site_count(self) -> int:
        """|x| = cardinality of the support."""
        return len(self.support())

    def l1(self) -> float:
        return sum(abs(c) for c in self._terms.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self._terms.values())

    def sup_diff(self, other: "LocalOperator") -> float:
        """Largest coefficient magnitude of self - other."""
        self._require_same_params(other)
        labels = {**self._terms, **other._terms}
        if not labels:
            return 0.0
        return max(abs(self.coeff(lab) - other.coeff(lab)) for lab in labels)

    def __repr__(self):
        n = len(self._terms)
        return f"LocalOperator(N={self.params.N}, d={self.params.d}, {n} terms)"

    # -- text serialization ----------------------------------------------
    # One line per term:  "re im ; site:alpha,beta site:alpha,beta ..."
    # An empty site list denotes the identity string.

    def to_text(self) -> str:
        lines = []
        for lab, c in self.items():
            lines.append(f"{c.real:.17g} {c.imag:.17g} ; {lab.to_text()}".rstrip())
        return "\n".join(lines)

    @staticmethod
    def from_text(params: AlgebraParams, text: str) -> "LocalOperator":
        terms = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(";")
            parts = head.split()
            if len(parts) != 2:
                raise ValueError(f"term {line!r}: expected 're im ; sites'")
            coeff = complex(float(parts[0]), float(parts[1]))
            entries = []
            for tok in tail.split():
                site_txt, _, ab_txt = tok.partition(":")
                site = tuple(int(v) for v in site_txt.split(","))
                a_txt, _, b_txt = ab_txt.partition(",")
                entries.append((site, (int(a_txt), int(b_txt))))
            label = WeylLabel.from_entries(entries, params.N, params.d)
            terms.append((label, coeff))
        return LocalOperator(params, terms)


# -- GNS space ------------------------------------------------------------
# Vectors in L^2(A, tr) are represented by the LocalOperator they come from;
# the Weyl strings are an orthonormal basis for the GNS inner product.

GnsVector = LocalOperator


def commutator(x: LocalOperator, y: LocalOperator) -> LocalOperator:
    """[x, y] = x y - y x in one pass over the term pairs.

    U_g U_h = omega**p U_l and U_h U_g = omega**q U_l, so a pair adds
    c_g c_h (omega**p - omega**q) to l, and nothing when p == q (the
    strings commute).  Both orders go through ``weyl_mul``.
    """
    x._require_same_params(y)
    params = x.params
    roots = _roots(params.N)
    out: dict[WeylLabel, complex] = {}
    for g, cg in x._terms.items():
        for h, ch in y._terms.items():
            p, label = weyl_mul(params, g, h)
            q, _ = weyl_mul(params, h, g)
            if p != q:
                out[label] = out.get(label, 0j) + cg * ch * (roots[p] - roots[q])
    return LocalOperator._merged(params, out)


def gns_inner(u: GnsVector, v: GnsVector) -> complex:
    """<u, v> = tr(u* v) = sum_g conj(c^u_g) c^v_g."""
    u._require_same_params(v)
    small, big = (u, v) if u.num_terms() <= v.num_terms() else (v, u)
    acc = 0j
    for lab, c in small._terms.items():
        other = big.coeff(lab)
        if u is small:
            acc += c.conjugate() * other
        else:
            acc += other.conjugate() * c
    return acc


def gns_norm(u: GnsVector) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in u._terms.values()))


def theta(x: LocalOperator, n: int) -> float:
    """sum_g |c_g| |g|**n over the terms of x."""
    if n < 1:
        raise ValueError("theta order must be >= 1")
    return sum(abs(c) * lab.weight**n for lab, c in x._terms.items())


def c_const(x: LocalOperator) -> float:
    """|x| * (1 + sum_g |c_g|), the growth constant attached to x."""
    if not x._terms:
        return 0.0
    return x.site_count * (1.0 + x.l1())


def seminorm_one(x: LocalOperator) -> float:
    """Commutator seminorm: sum over sites j and exponent pairs of ||[W, x]||.

    W = (U^a V^b)^{(j)} runs over (a, b) != (0, 0).  Only j in supp(x)
    can contribute; the identity has seminorm zero.  x is realized once on
    supp(x), which holds supp([W, x]), and ||A (x) 1|| = ||A||; the N**2 - 1
    commutators at one site are normed as one stack, whose words
    ``dense.embedded_words`` reads from the string cache behind ``realize``.
    """
    from . import dense  # local import: norms need the dense realization

    supp = x.support()
    if not supp:
        return 0.0
    X = dense.realize(x, dense.SiteWindow(x.params, supp))
    total = 0.0
    for i in range(len(supp)):
        W = dense.embedded_words(x.params.N, i, len(supp))
        norms = np.linalg.norm(W @ X - X @ W, 2, axis=(1, 2))
        total = sum(norms.tolist(), total)
    return total


def random_label(params: AlgebraParams, rng, sites, max_weight: int = 2) -> WeylLabel:
    """Random nonidentity label supported on ``sites`` (testing helper)."""
    sites = [tuple(s) for s in sites]
    weight = int(rng.integers(1, min(max_weight, len(sites)) + 1))
    chosen = rng.choice(len(sites), size=weight, replace=False)
    entries = []
    for idx in chosen:
        while True:
            a = int(rng.integers(0, params.N))
            b = int(rng.integers(0, params.N))
            if (a, b) != (0, 0):
                break
        entries.append((sites[idx], (a, b)))
    return WeylLabel.from_entries(entries, params.N, params.d)


def random_local(params: AlgebraParams, rng, sites, n_terms: int = 3,
                 max_weight: int = 2, include_identity: bool = False) -> LocalOperator:
    """Random local operator with unit-scale complex coefficients."""
    terms: dict[WeylLabel, complex] = {}
    for _ in range(n_terms):
        lab = random_label(params, rng, sites, max_weight)
        terms[lab] = terms.get(lab, 0j) + complex(rng.normal(), rng.normal())
    if include_identity:
        terms[WeylLabel.identity()] = complex(rng.normal(), rng.normal())
    return LocalOperator(params, terms)
