"""The config layer: defaults, the typed value of every key, and schema errors."""

import hashlib

import numpy as np
import pytest

from uhfflow import fock
from uhfflow.algebra import AlgebraParams, LocalOperator
from uhfflow.config import load_config
from uhfflow.errors import ConfigError

MINIMAL = """\
[algebra]
n = 2
d = 1
[generator]
kind = translation_covariant
kraus = 1 0 ; 0:1,0
"""

# Every key of every section set to a value other than its default.
FULL = """\
[algebra]
n = 2
d = 1
[generator]
kind = perturbed
rho = 0.7 0 0.1 0 ; 0.1 0 0.3 0
kraus = 1 0 ; 0:1,0
unital = true
c = 0.25
[observables]
x = 1 0 ; 0:1,0
y = 0.5 -1 ; 0:0,1 1:1,1
[vectors]
u = 1 0 ; 0:0,1
v = 0 1 ; 1:1,0
[modes.f]
grid = 1 2
modes =
    0/0: 0.5 0, 0.25 0
[modes.g]
grid = 1.0 2
modes =
    1/4: 0 1, 0 -1
[run]
t_grid = linspace 0 2 5
window = 0 1 2
method = ode
closure = clipped
tol = 1e-7
seed = 5
c_values = 0 0.5 1
instances = 7
n_max = 3
pairs = x,y y,y
shift = -1
contraction_t = 0.75
"""


def _terms(op):
    return dict(op.items())


def _load(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return load_config(path)


def test_defaults(tmp_path):
    cfg = _load(tmp_path, MINIMAL)
    params = AlgebraParams(2, 1)
    one = LocalOperator.identity(params)
    sx = LocalOperator.site_word(params, (0,), 1, 0)
    assert cfg.params == params
    assert cfg.generator.kind == "translation"
    assert [_terms(op) for op in cfg.kraus.ops] == [_terms(sx)] and not cfg.kraus.unital
    assert cfg.state is None
    assert cfg.observables == {}
    assert _terms(cfg.u) == _terms(one) and _terms(cfg.v) == _terms(one)
    assert cfg.f == fock.TestFunction.zero() and cfg.g == fock.TestFunction.zero()
    assert np.array_equal(cfg.t_grid, [0.0, 1.0])
    assert cfg.window is None
    assert (cfg.closure, cfg.tol, cfg.seed) == ("interior", 1e-9, 20240817)
    assert cfg.c_values == (0.0,)
    assert (cfg.instances, cfg.n_max) == (25, 2)
    assert cfg.pairs == ()
    assert cfg.shift is None and cfg.contraction_t is None
    assert cfg.digest == hashlib.sha256(MINIMAL.encode()).hexdigest()[:16]


def test_every_key_typed(tmp_path):
    cfg = _load(tmp_path, FULL)
    params = AlgebraParams(2, 1)
    sx = LocalOperator.site_word(params, (0,), 1, 0)
    sz = LocalOperator.site_word(params, (0,), 0, 1)
    assert cfg.generator.kind == "perturbed" and cfg.generator.c == 0.25
    assert cfg.kraus.unital
    assert np.array_equal(cfg.state.rho, [[0.7, 0.1], [0.1, 0.3]])
    assert {name: _terms(op) for name, op in cfg.observables.items()} == {
        "x": _terms(sx),
        "y": _terms(LocalOperator.from_text(params, "0.5 -1 ; 0:0,1 1:1,1")),
    }
    assert _terms(cfg.u) == _terms(sz) and _terms(cfg.v) == _terms(sx.translate((1,)) * 1j)
    assert cfg.f == fock.TestFunction.build(1.0, 2, {((0,), 0): [0.5, 0.25]})
    # The perturbed generator's members are the state's four on-site Kraus
    # operators followed by the perturbation's, so member 4 is the last.
    assert len(cfg.generator.base_members()) == 5
    assert cfg.g == fock.TestFunction.build(1.0, 2, {((1,), 4): [1j, -1j]})
    assert np.array_equal(cfg.t_grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert cfg.window == ((0,), (1,), (2,))
    assert (cfg.closure, cfg.tol, cfg.seed) == ("clipped", 1e-7, 5)
    assert cfg.c_values == (0.0, 0.5, 1.0)
    assert (cfg.instances, cfg.n_max) == (7, 3)
    assert cfg.pairs == (("x", "y"), ("y", "y"))
    assert cfg.shift == (-1,) and cfg.contraction_t == 0.75


def test_exact_method_on_partial_state(tmp_path):
    # The closed form is a cross-check of evolve, not a method: a
    # partial-state config naming it is refused like any other kind.
    # Without the perturbation only the state's four members remain.
    text = FULL.replace("kind = perturbed", "kind = partial_state").replace(
        "method = ode", "method = exact").replace("1/4: 0 1", "1/3: 0 1")
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, text)
    assert (info.value.section, info.value.field) == ("run", "method")
    assert "must be ode, got 'exact'" in str(info.value)
    cfg = _load(tmp_path, text.replace("method = exact", "method = ode"))
    assert cfg.generator.kind == "partial"


def test_site_coordinates_follow_d(tmp_path):
    text = MINIMAL.replace("d = 1", "d = 2").replace("0:1,0", "0,0:1,0")
    cfg = _load(tmp_path, text + "[run]\nwindow = 0,0 0,1\nshift = 1,-1\n")
    assert cfg.window == ((0, 0), (0, 1)) and cfg.shift == (1, -1)
    assert cfg.f == fock.TestFunction.zero(d=2)


# (section, field, text with the error) for each malformed option.
ERRORS = {
    "unknown_section": ("runs", None, MINIMAL + "[runs]\ntol = 1\n"),
    "missing_algebra": ("algebra", None, MINIMAL.replace("[algebra]\nn = 2\nd = 1\n", "")),
    "missing_generator": ("generator", None, "[algebra]\nn = 2\nd = 1\n"),
    "algebra_key": ("algebra", "dim", MINIMAL.replace("d = 1", "d = 1\ndim = 2")),
    "n": ("algebra", "n", MINIMAL.replace("n = 2", "n = 1")),
    "d": ("algebra", "d", MINIMAL.replace("d = 1", "d = x")),
    "kind": ("generator", "kind", MINIMAL.replace("translation_covariant", "translation")),
    "needs_kraus": ("generator", "kraus", MINIMAL.replace("kraus = 1 0 ; 0:1,0", "")),
    "needs_rho": ("generator", "rho", MINIMAL.replace("translation_covariant", "perturbed")),
    "kraus": ("generator", "kraus", MINIMAL.replace("0:1,0", "0:1")),
    "unital": ("generator", "unital", MINIMAL + "unital = maybe\n"),
    "not_unital": ("generator", "kraus", MINIMAL.replace("1 0 ; 0:1,0", "2 0 ; 0:1,0")
                   + "unital = yes\n"),
    "kraus_inf": ("generator", "kraus", MINIMAL.replace("kraus = 1 0", "kraus = inf 0")),
    "rho_nan": ("generator", "rho", FULL.replace("rho = 0.7 0 0.1 0 ; 0.1 0",
                                                 "rho = 0.7 0 nan 0 ; nan 0")),
    "c": ("generator", "c", FULL.replace("c = 0.25", "c = -0.25")),
    "generator_key": ("generator", "weight", MINIMAL + "weight = 1\n"),
    "observable": ("observables", "x", MINIMAL + "[observables]\nx = 1 0 ; 0,0:1,0\n"),
    "observable_nan": ("observables", "x",
                       MINIMAL + "[observables]\nx = nan 0 ; 0:0,1 | 1 0 ; 0:1,0\n"),
    "observable_name": ("observables", "a/b", MINIMAL + "[observables]\na/b = 1 0 ; 0:1,0\n"),
    "vector": ("vectors", "u", FULL.replace("u = 1 0 ; 0:0,1", "u = one")),
    "vector_inf": ("vectors", "v", FULL.replace("v = 0 1", "v = 0 -inf")),
    "vectors_key": ("vectors", "w", FULL.replace("[vectors]\n", "[vectors]\nw = 1 0 ;\n")),
    "mode_grid": ("modes.g", "grid", FULL.replace("grid = 1.0 2", "grid = 0 2")),
    "mode_cells": ("modes.g", "grid", FULL.replace("grid = 1.0 2", "grid = 1 0")),
    "mode_grid_shared": ("modes.g", "grid", FULL.replace("grid = 1.0 2", "grid = 2 2")),
    "mode_member": ("modes.g", "modes", FULL.replace("1/4: 0 1", "1/5: 0 1")),
    "mode_member_text": ("modes.g", "modes", FULL.replace("1/4: 0 1", "1/b: 0 1")),
    "mode_cell_nan": ("modes.f", "modes", FULL.replace("0/0: 0.5 0", "0/0: nan 0")),
    "mode_site": ("modes.f", "modes", FULL.replace("0/0: 0.5 0", "0,0/0: 0.5 0")),
    "t_grid": ("run", "t_grid", FULL.replace("linspace 0 2 5", "0 nan")),
    "window": ("run", "window", FULL.replace("window = 0 1 2", "window = 0 1 1")),
    "window_empty": ("run", "window", FULL.replace("window = 0 1 2", "window =")),
    "window_support": ("run", "window", FULL.replace("window = 0 1 2", "window = 0 2")),
    "method": ("run", "method", FULL.replace("method = ode", "method = rk45")),
    "method_exact": ("run", "method", FULL.replace("method = ode", "method = exact")),
    "method_series": ("run", "method", FULL.replace("method = ode", "method = series")),
    "closure": ("run", "closure", FULL.replace("closure = clipped", "closure = open")),
    "tol": ("run", "tol", FULL.replace("tol = 1e-7", "tol = -1e-7")),
    "tol_zero": ("run", "tol", FULL.replace("tol = 1e-7", "tol = 0")),
    "seed": ("run", "seed", FULL.replace("seed = 5", "seed = -5")),
    "c_values": ("run", "c_values", FULL.replace("c_values = 0 0.5 1", "c_values = 0 x")),
    "c_values_negative": ("run", "c_values", FULL.replace("c_values = 0 0.5 1", "c_values = -1")),
    "instances": ("run", "instances", FULL.replace("instances = 7", "instances = 0")),
    "n_max": ("run", "n_max", FULL.replace("n_max = 3", "n_max = 4")),
    "pairs": ("run", "pairs", FULL.replace("pairs = x,y y,y", "pairs = x,y y")),
    "pairs_unknown": ("run", "pairs", FULL.replace("pairs = x,y y,y", "pairs = x,z")),
    "shift": ("run", "shift", FULL.replace("shift = -1", "shift = 1,1")),
    "contraction_t": ("run", "contraction_t", FULL.replace("contraction_t = 0.75",
                                                           "contraction_t = soon")),
    "run_key": ("run", "contraction_time", FULL.replace("contraction_t =", "contraction_time =")),
}


@pytest.mark.parametrize("case", ERRORS)
def test_malformed_option(tmp_path, case):
    section, field, text = ERRORS[case]
    with pytest.raises(ConfigError) as info:
        _load(tmp_path, text)
    assert (info.value.section, info.value.field) == (section, field)
    where = f"[{section}]" + (f" {field}" if field else "")
    assert str(info.value).startswith(where + ": ")


def test_unreadable_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")


def test_syntax_error(tmp_path):
    with pytest.raises(ConfigError, match="syntax error"):
        _load(tmp_path, "n = 2\n")
