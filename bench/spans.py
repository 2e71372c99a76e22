"""Span tracer that times uhfflow layers from outside the package.

``Tracer.install`` replaces selected module and class attributes of the
loaded ``uhfflow`` modules with timing wrappers; ``uninstall`` puts the
originals back.  A function imported by name into another module (for
example ``weyl_mul`` into ``dense`` and ``fock``, ``load_config`` into
``cli``) is replaced in every module that holds it, so calls are caught
whichever binding they go through.

Three kinds of target:

* ``SPAN``: one record per call (name, start, end, parent, job id, plus
  values read from the arguments and the return value).  For functions
  called a bounded number of times per job.
* ``LIGHT``: per-job aggregate (calls, inclusive time, self time) with no
  per-call record.  For leaf functions called millions of times, whose
  records would not fit in memory.
* ``COUNT``: per-job call count only; their time stays in the caller.

Every timed call adds its duration to its parent's child time, so the
self time of a span (duration minus time covered by timed children) and
the self times of a job sum exactly to the job's root span.  Targets
missing from the program (a refactor removed them) are skipped; their
metrics then read zero.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

SPAN, LIGHT, COUNT = "span", "light", "count"

# (name, module, attribute path, kind).  Names are "<layer>.<function>".
TARGETS = (
    ("algebra.mul", "algebra", "LocalOperator.__mul__", LIGHT),
    ("algebra.weyl_mul", "algebra", "weyl_mul", COUNT),
    ("config.load_config", "config", "load_config", SPAN),
    ("lindblad.evolve", "lindblad", "evolve", SPAN),
    ("lindblad.generator_matrix", "lindblad", "generator_matrix", SPAN),
    ("lindblad.truncation_rates", "lindblad", "Lindbladian.truncation_rates", SPAN),
    ("lindblad.lemma_bound_report", "lindblad", "lemma_bound_report", SPAN),
    ("lindblad.leibniz_expansion_check", "lindblad", "leibniz_expansion_check", SPAN),
    ("lindblad.partial_semigroup_exact", "lindblad", "partial_semigroup_exact", SPAN),
    ("lindblad.perturbed_ergodic_state", "lindblad", "perturbed_ergodic_state", SPAN),
    ("lindblad.decay_rate_fit", "lindblad", "decay_rate_fit", SPAN),
    ("dense.superoperator", "dense", "superoperator", SPAN),
    ("dense.expm_evolve", "dense", "expm_evolve", SPAN),
    ("dense.operator_norm", "dense", "operator_norm", LIGHT),
    ("fock.build_generator_system", "fock", "build_generator_system", SPAN),
    ("fock.flow_element", "fock", "flow_element", SPAN),
    ("fock.pair_element", "fock", "pair_element", SPAN),
    ("fock.expm_multiply", "fock", "expm_multiply", SPAN),
    ("fock.homomorphism_defect", "fock", "homomorphism_defect", SPAN),
    ("fock.covariance_check", "fock", "covariance_check", SPAN),
    ("fock.contraction_check", "fock", "contraction_check", SPAN),
    ("selftest.run_all", "selftest", "run_all", SPAN),
)

PACKAGE = "uhfflow"
ROOT = "cli"  # name of the per-job root span


def _generator_key(L):
    """Content key of a Lindbladian: kind, weight, Kraus terms, state."""
    ops = getattr(getattr(L, "kraus", None), "ops", ())
    rho = getattr(getattr(L, "state", None), "rho", None)
    return (getattr(L, "kind", None), getattr(L, "c", None),
            tuple(tuple(op.items()) for op in ops),
            None if rho is None else rho.tobytes())


def _sites_key(sites):
    return tuple(tuple(int(c) for c in s) for s in sites)


def _observe_generator_matrix(a, result):
    mat, basis = result[0], result[1]
    return {"basis_dim": len(basis), "nnz": int(mat.nnz),
            "key": (_generator_key(a["L"]), _sites_key(a["sites"]), a["closure_mode"])}


def _observe_superoperator(a, result):
    return {"basis_dim": len(result.basis),
            "key": (_generator_key(a["lindbladian"]), _sites_key(a["win"].sites),
                    a["closure_mode"])}


def _observe_generator_system(a, result):
    return {"basis_dim": len(result.basis), "noise_modes": len(result.noise),
            "key": (_generator_key(a["L"]), _sites_key(a["window_sites"]), None)}


def _observe_pair_element(a, result):
    return {"pair_dim": int(result.G.shape[1] * result.G.shape[2])}


# Values read from arguments and return values of selected spans.
OBSERVERS = {
    "lindblad.generator_matrix": _observe_generator_matrix,
    "dense.superoperator": _observe_superoperator,
    "fock.build_generator_system": _observe_generator_system,
    "fock.pair_element": _observe_pair_element,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child", "attrs", "index")

    def __init__(self, name, parent, job, index):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.job = job
        self.child = 0.0
        self.attrs = None
        self.index = index

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def as_list(self):
        attrs = None if self.attrs is None else {
            k: v for k, v in self.attrs.items() if k != "key"}
        return [self.name, self.start, self.end, self.parent, self.job, self.child, attrs]


class Tracer:
    """Holds spans and aggregates in memory; install/uninstall the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.light: dict[tuple[int, str], list] = {}  # (job, name) -> [calls, total, self]
        self.counts: dict[tuple[int, str], int] = {}  # (job, name) -> calls
        self.missing: list[str] = []
        # Open calls, innermost last: [child time, Span or None] per call.
        self._stack: list[list] = []
        self._job = -1
        self._cells: dict[str, list] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = self._modules()
        for name, module, path, kind in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, kind, original)
            if owner_path:  # class attribute
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @staticmethod
    def targets() -> dict[tuple[str, str], object]:
        """Current value of every target attribute, for identity checks."""
        out = {}
        for _name, module, path, _kind in TARGETS:
            obj = sys.modules.get(f"{PACKAGE}.{module}")
            for part in path.split("."):
                obj = getattr(obj, part, None)
            out[(module, path)] = obj
        return out

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, kind, fn):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        if kind == COUNT:
            def counted(*args, **kwargs):
                tracer._cells[name][0] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == LIGHT:
            def light(*args, **kwargs):
                frame = [0.0, None]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dt
                    cell = tracer._cells[name]
                    cell[0] += 1
                    cell[1] += dt
                    cell[2] += dt - frame[0]
            return light

        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        def span(*args, **kwargs):
            sp = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    sp.attrs = observe(bound.arguments, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    sp.attrs = None
            return result
        return span

    def _open(self, name) -> Span:
        parent = next((f[1].index for f in reversed(self._stack) if f[1] is not None), -1)
        sp = Span(name, parent, self._job, len(self.spans))
        self.spans.append(sp)
        self._stack.append([0.0, sp])
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span):
        sp.end = time.perf_counter()
        sp.child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += sp.duration

    @contextmanager
    def job(self, job_id: int):
        """Root span around one CLI job; starts the job's aggregates."""
        self._job = job_id
        self._cells = {
            name: self.light.setdefault((job_id, name), [0, 0.0, 0.0]) if kind == LIGHT else [0]
            for name, _module, _path, kind in TARGETS if kind != SPAN
        }
        sp = self._open(ROOT)
        try:
            yield sp
        finally:
            self._close(sp)
            for name, _module, _path, kind in TARGETS:
                if kind == COUNT:
                    self.counts[(job_id, name)] = self._cells[name][0]
            self._job = -1

    # -- reading ---------------------------------------------------------------

    def job_spans(self, job_id: int) -> list[Span]:
        return [sp for sp in self.spans if sp.job == job_id]

    def dump(self, path, extra=None):
        payload = {
            "fields": ["name", "start", "end", "parent", "job", "child_s", "attrs"],
            "spans": [sp.as_list() for sp in self.spans],
            "light": [[job, name, *vals] for (job, name), vals in sorted(self.light.items())],
            "counts": [[job, name, n] for (job, name), n in sorted(self.counts.items())],
            "missing": self.missing,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
