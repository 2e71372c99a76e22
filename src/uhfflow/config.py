"""Experiment configuration: flat key-value sections, no expressions.

Operators appear in the text format of the algebra layer (one term per
line or terms joined by ``|``); sites are comma-joined integer tuples;
noise modes are ``site/member`` keys with per-cell complex values.  All
referenced data is schema-validated before any computation starts, and
every diagnostic carries its section and field.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import dense, fock, lindblad
from .algebra import AlgebraParams, LocalOperator, Site
from .errors import ConfigError


def _parse_site(text: str, d: int, where) -> Site:
    try:
        site = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad site {text!r}", **where) from None
    if len(site) != d:
        raise ConfigError(f"site {text!r} needs {d} coordinates", **where)
    return site


def _parse_operator(params: AlgebraParams, text: str, where) -> LocalOperator:
    try:
        return LocalOperator.from_text(params, text.replace("|", "\n"))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad operator: {exc}", **where) from None


def _parse_floats(text: str, where) -> list[float]:
    try:
        return [float(v) for v in text.split()]
    except ValueError:
        raise ConfigError(f"expected floats, got {text!r}", **where) from None


def _parse_complex_row(text: str, where) -> list[complex]:
    vals = _parse_floats(text, where)
    if len(vals) % 2:
        raise ConfigError("complex entries come as 're im' pairs", **where)
    return [complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]


def _parse_rho(text: str, N: int, where) -> dense.StateSpec:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    if len(rows) != N:
        raise ConfigError(f"rho needs {N} rows separated by ';'", **where)
    mat = []
    for row in rows:
        entries = _parse_complex_row(row, where)
        if len(entries) != N:
            raise ConfigError(f"rho row needs {N} complex entries", **where)
        mat.append(entries)
    try:
        return dense.StateSpec(np.array(mat))
    except Exception as exc:
        raise ConfigError(f"invalid density matrix: {exc}", **where) from None


def _parse_grid(text: str, where) -> np.ndarray:
    parts = text.split()
    if parts and parts[0] == "linspace":
        if len(parts) != 4:
            raise ConfigError("linspace takes: start stop num", **where)
        try:
            return np.linspace(float(parts[1]), float(parts[2]), int(parts[3]))
        except ValueError:
            raise ConfigError(f"bad linspace spec {text!r}", **where) from None
    return np.array(_parse_floats(text, where))


def _parse_testfunction(section: dict, d: int, sec_name: str) -> fock.TestFunction:
    where = {"section": sec_name, "field": "grid"}
    if "grid" not in section:
        raise ConfigError("missing grid = t_max cells", **where)
    grid_vals = section["grid"].split()
    if len(grid_vals) != 2:
        raise ConfigError("grid takes: t_max cells", **where)
    try:
        t_max, cells = float(grid_vals[0]), int(grid_vals[1])
    except ValueError:
        raise ConfigError(f"bad grid {section['grid']!r}", **where) from None
    modes = {}
    where = {"section": sec_name, "field": "modes"}
    for raw in section.get("modes", "").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        key_txt = head.strip()
        site_txt, _, member_txt = key_txt.partition("/")
        site = _parse_site(site_txt.strip(), d, where)
        member = int(member_txt) if member_txt else 0
        cells_txt = [c for c in (chunk.strip() for chunk in tail.split(",")) if c]
        vals = []
        for chunk in cells_txt:
            pair = _parse_floats(chunk, where)
            if len(pair) != 2:
                raise ConfigError(f"cell value {chunk!r} must be 're im'", **where)
            vals.append(complex(pair[0], pair[1]))
        if len(vals) != cells:
            raise ConfigError(
                f"mode {key_txt!r} has {len(vals)} cells, grid declares {cells}", **where
            )
        modes[(site, member)] = vals
    return fock.TestFunction.build(t_max, cells, modes, d)


@dataclass
class ExperimentConfig:
    """Validated experiment inputs plus raw command-specific options."""

    params: AlgebraParams
    generator: lindblad.Lindbladian
    kraus: lindblad.KrausFamily | None
    state: dense.StateSpec | None
    observables: dict[str, LocalOperator]
    u: LocalOperator
    v: LocalOperator
    f: fock.TestFunction
    g: fock.TestFunction
    t_grid: np.ndarray
    window: tuple[Site, ...] | None
    method: str
    closure: str
    tol: float
    seed: int
    run: dict = field(default_factory=dict)
    digest: str = ""


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            text = fh.read()
        parser.read_string(text)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {exc}")
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]

    if "algebra" not in parser:
        raise ConfigError("missing section", section="algebra")
    alg = parser["algebra"]
    try:
        params = AlgebraParams(N=int(alg.get("n", "")), d=int(alg.get("d", "")))
    except ValueError as exc:
        raise ConfigError(f"bad algebra parameters: {exc}", section="algebra") from None

    if "generator" not in parser:
        raise ConfigError("missing section", section="generator")
    gen = parser["generator"]
    kind = gen.get("kind", "").strip()
    state = None
    kraus = None
    c = 0.0
    if "rho" in gen:
        state = _parse_rho(gen["rho"], params.N, {"section": "generator", "field": "rho"})
    if "kraus" in gen:
        ops = []
        for line in gen["kraus"].splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            ops.append(_parse_operator(params, line, {"section": "generator", "field": "kraus"}))
        if not ops:
            raise ConfigError("kraus given but empty", section="generator", field="kraus")
        unital = gen.get("unital", "false").strip().lower() in ("1", "true", "yes")
        try:
            kraus = lindblad.KrausFamily(tuple(ops), unital=unital)
        except ValueError as exc:
            raise ConfigError(str(exc), section="generator", field="kraus") from None
    if "c" in gen:
        try:
            c = float(gen["c"])
        except ValueError:
            raise ConfigError("bad perturbation weight", section="generator", field="c") from None

    try:
        if kind == "translation_covariant":
            if kraus is None:
                raise ConfigError("translation_covariant needs kraus", section="generator")
            generator = lindblad.Lindbladian.translation_covariant(kraus)
        elif kind == "partial_state":
            if state is None:
                raise ConfigError("partial_state needs rho", section="generator")
            generator = lindblad.Lindbladian.partial_state(params, state)
        elif kind == "perturbed":
            if state is None or kraus is None:
                raise ConfigError("perturbed needs rho and kraus", section="generator")
            generator = lindblad.Lindbladian.perturbed(params, state, kraus, c)
        else:
            raise ConfigError(
                f"kind must be translation_covariant | partial_state | perturbed, got {kind!r}",
                section="generator", field="kind",
            )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"cannot build generator: {exc}", section="generator") from None

    observables = {}
    if "observables" in parser:
        for name, text_op in parser["observables"].items():
            observables[name] = _parse_operator(
                params, text_op, {"section": "observables", "field": name}
            )

    one = LocalOperator.identity(params)
    u = v = one
    if "vectors" in parser:
        vec = parser["vectors"]
        if "u" in vec:
            u = _parse_operator(params, vec["u"], {"section": "vectors", "field": "u"})
        if "v" in vec:
            v = _parse_operator(params, vec["v"], {"section": "vectors", "field": "v"})

    f = fock.TestFunction.zero(d=params.d)
    g = fock.TestFunction.zero(d=params.d)
    if "modes.f" in parser:
        f = _parse_testfunction(dict(parser["modes.f"]), params.d, "modes.f")
    if "modes.g" in parser:
        g = _parse_testfunction(dict(parser["modes.g"]), params.d, "modes.g")

    run = dict(parser["run"]) if "run" in parser else {}
    where = {"section": "run", "field": "t_grid"}
    t_grid = _parse_grid(run.get("t_grid", "0 1"), where)
    try:
        t_grid = dense.validate_grid(t_grid)
    except ValueError as exc:
        raise ConfigError(str(exc), **where) from None
    window = None
    if "window" in run:
        where = {"section": "run", "field": "window"}
        window = tuple(_parse_site(tok, params.d, where) for tok in run["window"].split())
        if len(set(window)) != len(window):
            raise ConfigError("window sites must be distinct", **where)
    method = run.get("method", "ode").strip()
    closure = run.get("closure", "interior").strip()
    if closure not in ("interior", "clipped"):
        raise ConfigError(f"closure must be interior|clipped, got {closure!r}",
                          section="run", field="closure")
    try:
        tol = float(run.get("tol", "1e-9"))
        seed = int(run.get("seed", "20240817"))
    except ValueError as exc:
        raise ConfigError(f"bad run option: {exc}", section="run") from None

    for op in observables.values():
        for site in op.support():
            if len(site) != params.d:
                raise ConfigError("observable site dimension mismatch", section="observables")

    return ExperimentConfig(
        params=params, generator=generator, kraus=kraus, state=state,
        observables=observables, u=u, v=v, f=f, g=g, t_grid=t_grid,
        window=window, method=method, closure=closure, tol=tol, seed=seed,
        run=run, digest=digest,
    )
