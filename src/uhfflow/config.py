"""Experiment configuration: flat key-value sections, no expressions.

``load_config`` owns the schema below.  It parses every key into a typed
field of :class:`ExperimentConfig` and checks it before any computation;
each diagnostic is a ``ConfigError`` naming its section and field.  An
unknown section or key is an error too, so a misspelt option cannot turn
a check off.  An operator is ``re im ; site:alpha,beta ...`` terms joined
by ``|`` or one per line; a site is d comma-joined integers.

``check_command`` then checks what a command needs: each command that
reads a config at least one observable, ``ergodicity`` rho, and ``lemma``
a single-operator translation family.

Schema (key: type; default):

[algebra], required
    n: int >= 2, the on-site dimension N; d: int >= 1; both required
[generator], required
    kind: translation_covariant (needs kraus) | partial_state (needs rho)
          | perturbed (needs both); required
    rho: N rows of N complex ``re im`` pairs, joined by ``;``
    kraus: operators, one per line
    unital: bool, asserts sum a* a = 1; false
    c: float >= 0, the weight of perturbed; 0
[observables]: ``name = operator``, any number; a name is word
    characters, ``.`` and ``-``, starting with a word character
[vectors]: u, v: operators; the identity
[modes.f], [modes.g]; absent: the zero test function
    grid: ``t_max cells``, float > 0 and int >= 1; required; equal in
          both sections when both have modes
    modes: lines ``site/member: re im, re im, ...``, one value per cell;
           member (default 0) indexes the generator's Kraus members
[run]
    t_grid: ascending floats >= 0, or ``linspace start stop num``; 0 1
    window: distinct sites holding every observable's support, with at most
            dense.MAX_WINDOW_DIM strings (else exit 3); the command's default window
    method: ode, the only propagator (kept for configs that name it); ode
    closure: interior | clipped; interior
    tol: float > 0; 1e-9
    seed: int >= 0; 20240817
    c_values: floats >= 0 (ergodicity); 0
    instances: int >= 1, n_max: int in 1..3 (lemma); 25, 2
    pairs: ``x,y`` pairs of observable names (flow); none
    shift: a site, contraction_t: float >= 0 (flow); none
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from . import dense, fock, lindblad
from .algebra import AlgebraParams, LocalOperator, Site
from .errors import ConfigError

# Keys of each section; None admits any key.
_SCHEMA = {
    "algebra": ("n", "d"),
    "generator": ("kind", "rho", "kraus", "unital", "c"),
    "observables": None,
    "vectors": ("u", "v"),
    "modes.f": ("grid", "modes"),
    "modes.g": ("grid", "modes"),
    "run": ("t_grid", "window", "method", "closure", "tol", "seed", "c_values",
            "instances", "n_max", "pairs", "shift", "contraction_t"),
}
_KINDS = ("translation_covariant", "partial_state", "perturbed")
_CLOSURES = ("interior", "clipped")
_NAME = re.compile(r"\w[\w.-]*")


def _at(section: str, field: str) -> dict[str, str]:
    """Where a diagnostic points: keyword arguments of ``ConfigError``."""
    return {"section": section, "field": field}


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


def _parse_number(text: str, where, cast=float, low=0, high=math.inf, positive=False):
    """One finite number in [low, high], nonzero if ``positive``."""
    try:
        val = cast(text)
    except ValueError:
        raise ConfigError(f"expected one {cast.__name__}, got {text!r}", **where) from None
    if not (low <= val <= high and abs(val) != math.inf) or (positive and val == 0):
        bounds = "> 0" if positive else f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise ConfigError(f"must be {bounds}, got {val}", **where)
    return val


def _parse_floats(text: str, where) -> list[float]:
    try:
        return [float(v) for v in text.split()]
    except ValueError:
        raise ConfigError(f"expected floats, got {text!r}", **where) from None


def _parse_bool(text: str, where) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    return states[_parse_choice(text.lower(), tuple(states), where)]


def _parse_choice(text: str, choices, where) -> str:
    val = text.strip()
    if val not in choices:
        raise ConfigError(f"must be {' | '.join(choices)}, got {val!r}", **where)
    return val


def _parse_complex_row(text: str, where) -> list[complex]:
    vals = _parse_floats(text, where)
    if len(vals) % 2:
        raise ConfigError("complex entries come as 're im' pairs", **where)
    return [complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]


def _parse_rho(text: str, N: int, where) -> dense.StateSpec:
    rows = [_parse_complex_row(row, where) for row in text.split(";") if row.strip()]
    if len(rows) != N or any(len(row) != N for row in rows):
        raise ConfigError(f"rho needs {N} rows of {N} complex entries, joined by ';'", **where)
    try:
        return dense.StateSpec(np.array(rows))
    except Exception as exc:
        raise ConfigError(f"invalid density matrix: {exc}", **where) from None


def _parse_grid(text: str, where) -> np.ndarray:
    parts = text.split()
    if parts and parts[0] == "linspace":
        if len(parts) != 4:
            raise ConfigError("linspace takes: start stop num", **where)
        try:
            grid = np.linspace(float(parts[1]), float(parts[2]), int(parts[3]))
        except ValueError:
            raise ConfigError(f"bad linspace spec {text!r}", **where) from None
    else:
        grid = np.array(_parse_floats(text, where))
    try:
        return dense.validate_grid(grid)
    except ValueError as exc:
        raise ConfigError(str(exc), **where) from None


def _parse_testfunction(section: dict, d: int, members: int, sec_name: str) -> fock.TestFunction:
    where = _at(sec_name, "grid")
    grid_vals = section.get("grid", "").split()
    if len(grid_vals) != 2:
        raise ConfigError("needs grid = t_max cells", **where)
    t_max = _parse_number(grid_vals[0], where, positive=True)
    cells = _parse_number(grid_vals[1], where, int, 1)
    modes = {}
    where = _at(sec_name, "modes")
    for raw in section.get("modes", "").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        key_txt = head.strip()
        site_txt, _, member_txt = key_txt.partition("/")
        site = _parse_site(site_txt.strip(), d, where)
        member = _parse_number(member_txt, where, int) if member_txt else 0
        if member >= members:
            raise ConfigError(f"mode {key_txt!r}: the generator has no Kraus member {member} "
                              f"(it has {members})", **where)
        vals = [_parse_complex_row(chunk, where) for chunk in tail.split(",") if chunk.strip()]
        if any(len(val) != 1 for val in vals):
            raise ConfigError(f"mode {key_txt!r}: each cell value is one 're im' pair", **where)
        if len(vals) != cells:
            raise ConfigError(
                f"mode {key_txt!r} has {len(vals)} cells, grid declares {cells}", **where
            )
        modes[(site, member)] = [row[0] for row in vals]
    return fock.TestFunction.build(t_max, cells, modes, d)


@dataclass
class ExperimentConfig:
    """Every option of one experiment, parsed and checked."""

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
    closure: str
    tol: float
    seed: int
    c_values: tuple[float, ...]
    instances: int
    n_max: int
    pairs: tuple[tuple[str, str], ...]
    shift: Site | None
    contraction_t: float | None
    digest: str


def _sections(parser: configparser.ConfigParser) -> dict[str, dict[str, str]]:
    """Each section's raw keys, every section and key checked against the schema."""
    sections = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section (known: {', '.join(_SCHEMA)})", section=name)
        sections[name] = raw = dict(parser[name])
        known = _SCHEMA[name]
        for key in raw:
            if known is not None and key not in known:
                raise ConfigError(f"unknown key (known: {', '.join(known)})",
                                  section=name, field=key)
    for name in ("algebra", "generator"):
        if name not in sections:
            raise ConfigError("missing section", section=name)
    return sections


def _build_generator(params: AlgebraParams, gen: dict[str, str]):
    """(generator, Kraus family or None, state or None) from ``[generator]``."""
    at = functools.partial(_at, "generator")
    state = _parse_rho(gen["rho"], params.N, at("rho")) if "rho" in gen else None
    unital = _parse_bool(gen.get("unital", "false"), at("unital"))
    kraus = None
    if "kraus" in gen:
        ops = [_parse_operator(params, line, at("kraus"))
               for line in (raw.strip() for raw in gen["kraus"].splitlines())
               if line and not line.startswith("#")]
        if not ops:
            raise ConfigError("kraus given but empty", **at("kraus"))
        try:
            kraus = lindblad.KrausFamily(tuple(ops), unital=unital)
        except ValueError as exc:
            raise ConfigError(str(exc), **at("kraus")) from None
    c = _parse_number(gen.get("c", "0"), at("c"))
    kind = _parse_choice(gen.get("kind", ""), _KINDS, at("kind"))
    needs = {"translation_covariant": ("kraus",), "partial_state": ("rho",),
             "perturbed": ("rho", "kraus")}[kind]
    for key in needs:
        if key not in gen:
            raise ConfigError(f"{kind} needs {' and '.join(needs)}", **at(key))
    try:
        if kind == "translation_covariant":
            generator = lindblad.Lindbladian.translation_covariant(kraus)
        elif kind == "partial_state":
            generator = lindblad.Lindbladian.partial_state(params, state)
        else:
            generator = lindblad.Lindbladian.perturbed(params, state, kraus, c)
    except Exception as exc:
        raise ConfigError(f"cannot build generator: {exc}", section="generator") from None
    return generator, kraus, state


def _run_options(run: dict[str, str], d: int, observables) -> dict:
    """The ``[run]`` fields of :class:`ExperimentConfig`, defaults filled in."""
    at = functools.partial(_at, "run")
    window = None
    if "window" in run:
        window = tuple(_parse_site(tok, d, at("window")) for tok in run["window"].split())
        if not window:
            raise ConfigError("window needs at least one site", **at("window"))
        if len(set(window)) != len(window):
            raise ConfigError("window sites must be distinct", **at("window"))
        for name, x in observables.items():
            if not set(x.support()) <= set(window):
                raise ConfigError(f"misses observable {name!r}'s support", **at("window"))
    pairs = tuple(tuple(spec.split(",")) for spec in run.get("pairs", "").split())
    if any(len(pair) != 2 or not set(pair) <= observables.keys() for pair in pairs):
        raise ConfigError(f"each pair must name two observables: {run['pairs']!r}", **at("pairs"))
    _parse_choice(run.get("method", "ode"), ("ode",), at("method"))
    return dict(
        t_grid=_parse_grid(run.get("t_grid", "0 1"), at("t_grid")),
        window=window,
        closure=_parse_choice(run.get("closure", "interior"), _CLOSURES, at("closure")),
        tol=_parse_number(run.get("tol", "1e-9"), at("tol"), positive=True),
        seed=_parse_number(run.get("seed", "20240817"), at("seed"), int),
        c_values=tuple(_parse_number(c, at("c_values")) for c in run.get("c_values", "0").split()),
        instances=_parse_number(run.get("instances", "25"), at("instances"), int, 1),
        n_max=_parse_number(run.get("n_max", "2"), at("n_max"), int, 1, 3),
        pairs=pairs,
        shift=_parse_site(run["shift"].strip(), d, at("shift")) if "shift" in run else None,
        contraction_t=(_parse_number(run["contraction_t"], at("contraction_t"))
                       if "contraction_t" in run else None),
    )


def check_command(cfg: ExperimentConfig, command: str):
    """Raise ``ConfigError`` unless ``cfg`` has what ``command`` needs:
    one (section, field, holds, diagnostic) row per need, in order."""
    single = "lemma suites need a single-operator translation family"
    needs = {
        "ergodicity": [("generator", "rho", cfg.state is not None,
                        "ergodicity needs a partial-state rho")],
        "lemma": [("generator", "kind", cfg.generator.kind == "translation", single),
                  ("generator", "kraus", cfg.kraus is not None and len(cfg.kraus.ops) == 1,
                   single)],
    }.get(command, [])
    needs.append(("observables", None, bool(cfg.observables),
                  f"{command} needs at least one observable"))
    for section, field, holds, message in needs:
        if not holds:
            raise ConfigError(message, section=section, field=field)


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
    sections = _sections(parser)

    alg = sections["algebra"]
    N = _parse_number(alg.get("n", ""), _at("algebra", "n"), int, 2)
    d = _parse_number(alg.get("d", ""), _at("algebra", "d"), int, 1)
    try:
        params = AlgebraParams(N=N, d=d)
    except ValueError as exc:
        raise ConfigError(f"bad algebra parameters: {exc}", section="algebra") from None
    generator, kraus, state = _build_generator(params, sections["generator"])

    observables = {}
    for name, text_op in sections.get("observables", {}).items():
        if not _NAME.fullmatch(name):
            raise ConfigError("a name is word characters, '.' or '-'", **_at("observables", name))
        observables[name] = _parse_operator(params, text_op, _at("observables", name))

    vec = sections.get("vectors", {})
    u, v = (_parse_operator(params, vec[key], _at("vectors", key)) if key in vec
            else LocalOperator.identity(params) for key in ("u", "v"))
    members = len(generator.base_members())
    f, g = (_parse_testfunction(sections[name], d, members, name) if name in sections
            else fock.TestFunction.zero(d=d) for name in ("modes.f", "modes.g"))
    if f.modes and g.modes and (f.t_max, f.cells) != (g.t_max, g.cells):
        raise ConfigError(f"must equal [modes.f] grid ({f.t_max:g} {f.cells}): f and g share "
                          "the step grid", **_at("modes.g", "grid"))

    return ExperimentConfig(
        params=params, generator=generator, kraus=kraus, state=state,
        observables=observables, u=u, v=v, f=f, g=g,
        **_run_options(sections.get("run", {}), d, observables),
        digest=hashlib.sha256(text.encode()).hexdigest()[:16],
    )
