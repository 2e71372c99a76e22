"""Source hygiene: every name a ``uhfflow`` module imports or a function
takes as a parameter is used there.

No linter ships with the project, so these tests parse each module of
``src/uhfflow`` (except the re-exporting ``__init__``) with :mod:`ast`.
A name bound by ``from m import name`` is used when it appears as a name
anywhere in the module; a quoted annotation does not count (the modules
use ``from __future__ import annotations``, so none needs quotes).
``import a.b`` binds ``a``, so it is used only when an attribute chain
starting with ``a.b`` appears; this tells ``import scipy.linalg`` from
``import scipy.sparse`` in a module that uses only one of them.  A
parameter is used when its name is read anywhere in the function body;
dunder methods, whose signatures a protocol fixes, are exempt.  A private
module-level name (``_name`` bound by ``def``, ``class`` or assignment) is
used when some module of the package, ``__init__`` included, names it
(as a name, an attribute or an import) outside its own definition.
Every module-level import comes before the module's first ``def`` or
``class``.  ``dense`` realizes a generator's window members in one
function, so every dense oracle reads the same realization.  ``lindblad``
translates Kraus members in one function, the one that fills the
per-translate member table, so every map reads the same members.  Only
``WindowKernel.__init__`` reads ``MAX_WINDOW_DIM``, so one check bounds
every window, and only the two pair-indexed builders read ``MAX_PAIR_DIM``;
the guards they replaced are gone.  Only ``dense._string_matrix`` takes
Kronecker products of site words, so one cache holds every Kronecker
string; the separate word-stack cache is gone.  ``Lindbladian`` hands
out each structure map through one accessor, so the overlapping methods
it had (and ``LocalOperator.__truediv__``) stay gone: no class defines
them again and no module or test reads them.  ``cli.py`` constructs no
``ConfigError``: what each command needs of a config is checked in
``config``, before any command body runs.  No module
imports or names scipy's ``expm_multiply``: every matrix exponential is
stepped by the package's one stepper, ``lindblad.expm_multiply``.  Every
attribute the benchmark's span tracer times
(``bench/spans.py`` ``TARGETS``) exists in the package, so a rename
cannot silently zero a per-layer metric.  In a fresh interpreter,
``import uhfflow.cli`` loads no ``scipy.integrate``, ``scipy.linalg`` or
``scipy.optimize``, and the ``flow``, ``lemma`` and ``ergodicity``
commands load none of them either; ``perturbed_ergodic_state`` loads
``scipy.sparse.linalg`` (which loads ``scipy.linalg``) only for c > 0.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "uhfflow"
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SOURCE.glob("*.py"))


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source: str) -> list[str]:
    """Imported names (``import a.b`` as ``a.b``) that ``source`` never uses."""
    tree = ast.parse(source)
    names, chains = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is not None:
                chains.add(chain)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if bound not in names:
                    unused.append(bound)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    if alias.asname not in names:
                        unused.append(alias.asname)
                elif not any(c == alias.name or c.startswith(alias.name + ".")
                             for c in chains | names):
                    unused.append(alias.name)
    return unused


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for every parameter its function body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unused += [f"{node.name}.{name}" for name in params if name not in read]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import scipy.linalg\nimport scipy.sparse\nimport numpy as np\n"
        "from typing import Sequence, Iterable\n"
        "def f(x: Sequence[int]):\n    return scipy.sparse.eye(2)\n"
    )
    assert unused_imports(source) == ["scipy.linalg", "np", "Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_scanner_sees_unused_parameters():
    source = (
        "def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
        "class K:\n"
        "    def __exit__(self, *exc):\n        return None\n"
        "    def m(self, x):\n        def inner():\n            return x\n"
        "        return inner\n"
    )
    assert unused_parameters(source) == ["f.b", "f.c", "f.args", "m.self"]


def _private_definitions(tree):
    """(name, node) for each module-level ``_name`` a def, class or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _mentions(node, name: str) -> bool:
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname)))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for every private module-level name no module names elsewhere."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(id(n) not in inside and _mentions(n, name)
                       for other in trees.values() for n in ast.walk(other)):
                unused.append(f"{module}.{name}")
    return unused


def test_no_unreferenced_private_names():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced_private_names(sources) == []


def test_scanner_sees_unreferenced_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
            "def _loop(n):\n    return _loop(n - 1) if n else _LIMIT\n"
            "class _Kept:\n    pass\n"
            "def _imported():\n    return 1\n"
            "def public():\n    return _Kept()\n"
        ),
        "b": "from .a import _imported\nimport a\nx = a._SPARE\n",
    }
    assert unreferenced_private_names(sources) == ["a._loop"]


def late_imports(source: str) -> list[str]:
    """Module-level imports placed after the module's first ``def`` or ``class``."""
    late, defined = [], False
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = True
        elif defined and isinstance(node, (ast.Import, ast.ImportFrom)):
            late.append(ast.unparse(node))
    return late


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_precede_definitions(path):
    assert late_imports(path.read_text()) == []


def test_scanner_sees_late_imports():
    source = (
        "import os\nX = 1\nfrom math import pi\n"
        "def f():\n    import sys\n    return sys\n"
        "from . import dense\nclass K:\n    pass\nimport re\n"
    )
    assert late_imports(source) == ["from . import dense", "import re"]


# Traced names the package no longer has; their metrics read 0 until the
# benchmark drops them.  ``Lindbladian.truncation_rates`` was removed;
# ``dense.superoperator`` and ``dense.expm_evolve`` were the second dense
# oracle, replaced by ``choi_matrix`` and ``hilbert_evolve`` reading the
# one ``window_action``.
DEAD_TARGETS = {"lindblad.truncation_rates", "dense.superoperator", "dense.expm_evolve"}


def span_targets(source: str) -> list[tuple[str, str, str]]:
    """(name, module, attribute path) of each entry of ``TARGETS`` in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [tuple(e.value for e in entry.elts[:3]) for entry in node.value.elts]
    raise AssertionError("no TARGETS assignment")


def missing_targets(targets) -> list[str]:
    """Names of the targets whose module attribute path does not resolve."""
    missing = []
    for name, module, path in targets:
        obj = importlib.import_module(f"uhfflow.{module}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    return missing


def test_traced_targets_resolve():
    targets = span_targets(SPANS.read_text())
    assert len(targets) > 10
    assert [name for name in missing_targets(targets) if name not in DEAD_TARGETS] == []


def test_scanner_sees_missing_targets():
    source = (
        "SPAN = 'span'\n"
        "TARGETS = (\n"
        "    ('lindblad.evolve', 'lindblad', 'evolve', SPAN),\n"
        "    ('lindblad.gone', 'lindblad', 'no_such_function', SPAN),\n"
        "    ('algebra.mul', 'algebra', 'LocalOperator.__mul__', SPAN),\n"
        "    ('algebra.gone', 'algebra', 'LocalOperator.no_such_method', SPAN),\n"
        ")\n"
    )
    assert missing_targets(span_targets(source)) == ["lindblad.gone", "algebra.gone"]


def functions_calling(source: str, attribute: str) -> list[str]:
    """Innermost functions (methods included) that call ``<x>.attribute``, in source order."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == attribute and owner not in found):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_dense_realizes_window_members_once():
    assert functions_calling((SOURCE / "dense.py").read_text(), "window_members") \
        == ["window_action"]


def test_members_are_translated_in_one_place():
    assert functions_calling((SOURCE / "lindblad.py").read_text(), "translate") \
        == ["_member_pairs"]


def test_scanner_sees_a_second_member_translation():
    planted = (SOURCE / "lindblad.py").read_text() + (
        "\n\ndef sneaky(L, k):\n    return L.single_r().translate(k).adjoint()\n")
    assert functions_calling(planted, "translate") == ["_member_pairs", "sneaky"]


def functions_calling_all(source: str, names) -> list[str]:
    """Innermost functions that call every one of ``names``, as ``f(...)`` or
    ``<x>.f(...)``, in order of their first call."""
    calls: dict[str | None, set[str]] = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(owner, set()).add(called)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return [owner for owner, called in calls.items() if set(names) <= called]


def test_one_kronecker_word_cache():
    found = {path.stem: functions_calling_all(path.read_text(), ("kron", "site_word"))
             for path in PACKAGE}
    assert {module: fns for module, fns in found.items() if fns} == {"dense": ["_string_matrix"]}
    assert [name for name in ("_word_stack", "WORD_STACK_CACHE_")
            if any(name in path.read_text() for path in PACKAGE)] == []


def test_scanner_sees_a_second_kronecker_product_of_site_words():
    planted = (SOURCE / "algebra.py").read_text() + (
        "\n\ndef sneaky(N):\n    W = dense.site_word(N, 1, 0)\n"
        "    return np.kron(np.eye(N), W)\n")
    assert functions_calling_all(planted, ("kron", "site_word")) == ["sneaky"]


# Methods removed when each structure map got one accessor.
REMOVED = {"Lindbladian": ("delta", "delta_list", "delta_dag_list", "members_at", "lind_zero"),
           "LocalOperator": ("__truediv__",)}


def revived_names(source: str, removed) -> list[str]:
    """``Class.name`` for each removed method ``source`` defines again, then
    ``.name`` for each removed name it reads as an attribute."""
    tree = ast.parse(source)
    found = [f"{node.name}.{item.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) and node.name in removed
             for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name in removed[node.name]]
    names = {name for group in removed.values() for name in group}
    return found + sorted({f".{node.attr}" for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute) and node.attr in names})


def test_removed_accessors_stay_gone():
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    revived = {path.name: revived_names(path.read_text(), REMOVED) for path in PACKAGE + tests}
    assert {name: found for name, found in revived.items() if found} == {}


def test_scanner_sees_a_revived_accessor():
    planted = (SOURCE / "lindblad.py").read_text().replace(
        "    def lind_k(self, k, x: LocalOperator) -> LocalOperator:",
        "    def lind_zero(self, x):\n        return self.lind_k(self.params.origin(), x)\n\n"
        "    def lind_k(self, k, x: LocalOperator) -> LocalOperator:")
    planted += "\n\ndef sneaky(L, x):\n    return L.members_at((0,)) + [L.delta((0,), x)]\n"
    assert revived_names(planted, REMOVED) == ["Lindbladian.lind_zero", ".delta", ".members_at"]


def test_cli_constructs_no_config_error():
    assert functions_calling_all((SOURCE / "cli.py").read_text(), ("ConfigError",)) == []


def test_scanner_sees_a_config_error_in_a_command_body():
    planted = (SOURCE / "cli.py").read_text().replace(
        "    obs = sorted(cfg.observables.items())\n",
        "    obs = sorted(cfg.observables.items())\n    if not obs:\n"
        "        raise ConfigError('lemma needs at least one observable')\n")
    assert functions_calling_all(planted, ("ConfigError",)) == ["cmd_lemma"]


def readers(sources: dict[str, str], name: str) -> list[str]:
    """``module:Qualified.function`` of each read of ``name`` as a name or attribute."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            if isinstance(node.ctx, ast.Load) and f"{module}:{owner}" not in found:
                found.append(f"{module}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return found


def test_one_size_policy():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert readers(sources, "MAX_WINDOW_DIM") == ["kernel:WindowKernel.__init__"]
    assert readers(sources, "MAX_PAIR_DIM") == ["dense:choi_matrix", "fock:pair_element"]
    assert [name for name in ("SUPEROP_DIM_GUARD", "DEFAULT_MAX_DIM")
            if any(name in text for text in sources.values())] == []


def test_scanner_sees_a_second_window_size_check():
    planted = {
        "kernel": (SOURCE / "kernel.py").read_text(),
        "lindblad": (SOURCE / "lindblad.py").read_text()
        + "\n\ndef sneaky(n):\n    return 4 ** n <= dense.MAX_WINDOW_DIM\n",
        "extra": "from .dense import MAX_WINDOW_DIM\nLIMIT = MAX_WINDOW_DIM\n"
                 "class K:\n    def f(self):\n        return MAX_WINDOW_DIM\n",
    }
    assert readers(planted, "MAX_WINDOW_DIM") == [
        "kernel:WindowKernel.__init__", "lindblad:sneaky", "extra:", "extra:K.f"]


def test_scanner_sees_calls():
    source = (
        "def a(L):\n    return [L.window_members(k) for k in (1, 2)]\n"
        "def b(L):\n    def inner():\n        return L.window_members(2)\n    return inner\n"
        "def c(L):\n    return L.window_members\n"
        "class K:\n    def m(self, L):\n        return L.window_members(3)\n"
    )
    assert functions_calling(source, "window_members") == ["a", "inner", "m"]


def scipy_stepper_uses(source: str) -> list[str]:
    """Each import of scipy's ``expm_multiply`` and each ``<scipy module>.expm_multiply``."""
    tree = ast.parse(source)
    found, scipy_names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy":
                    scipy_names.add(alias.asname or "scipy")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            if any(alias.name == "expm_multiply" for alias in node.names):
                found.append(ast.unparse(node))
            scipy_names.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "expm_multiply":
            chain = _dotted(node)
            if chain is not None and chain.split(".")[0] in scipy_names:
                found.append(chain)
    return found


def test_one_matrix_exponential_stepper():
    uses = {path.name: scipy_stepper_uses(path.read_text()) for path in PACKAGE}
    assert {name: found for name, found in uses.items() if found} == {}


def test_scanner_sees_scipy_stepper():
    source = (
        "import scipy.sparse.linalg\nimport scipy.sparse.linalg as sla\n"
        "from scipy.sparse import linalg\n"
        "from scipy.sparse.linalg import expm_multiply as em\n"
        "from .lindblad import expm_multiply\nfrom . import lindblad as lb\n"
        "def f(A, v, op):\n"
        "    a = scipy.sparse.linalg.expm_multiply(A, v) + em(A, v)\n"
        "    b = sla.expm_multiply(A, v) + linalg.expm_multiply(A, v)\n"
        "    return a + b + expm_multiply(op, v, 1.0) + lb.expm_multiply(op, v, 1.0)\n"
    )
    assert sorted(scipy_stepper_uses(source)) == [
        "from scipy.sparse.linalg import expm_multiply as em", "linalg.expm_multiply",
        "scipy.sparse.linalg.expm_multiply", "sla.expm_multiply"]


# Modules only the dense oracle and selftest compute with: ``flow``,
# ``lemma`` and ``ergodicity`` never load them (scipy.integrate imports
# scipy.optimize).
HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize")

# In a fresh interpreter: the heavy modules loaded after ``import
# uhfflow.cli`` and after each command run through ``uhfflow.cli.main``.
FOOTPRINT_PROBE = """\
import json, sys
heavy, runs, out = json.loads(sys.argv[1])
from uhfflow.cli import main
loaded = {"import": [m for m in heavy if m in sys.modules]}
for command, config in runs:
    try:
        main([command, "--config", config, "--out", out])
    except SystemExit:
        pass
    loaded[command] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def import_footprint(tmp_path_factory):
    from test_cli import ERGODICITY, FLOW, LEMMA_FAIL

    work = tmp_path_factory.mktemp("footprint")
    configs = {"flow": FLOW, "lemma": LEMMA_FAIL.replace("instances = 20", "instances = 6"),
               "ergodicity": ERGODICITY}
    runs = []
    for command, config in configs.items():
        path = work / f"{command}.ini"
        path.write_text(config)
        runs.append((command, str(path)))
    return json.loads(run_fresh(FOOTPRINT_PROBE, json.dumps([HEAVY, runs, str(work / "out")])))


def run_fresh(probe: str, *argv: str) -> str:
    """The last line ``probe`` prints, run in a fresh interpreter on the package source."""
    pythonpath = os.pathsep.join(filter(None, [str(SOURCE.parent),
                                               os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True,
        timeout=300, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_integrator_or_dense_linalg(import_footprint):
    assert import_footprint["import"] == []


@pytest.mark.parametrize("command", ["flow", "lemma", "ergodicity"])
def test_commands_load_no_integrator_or_dense_linalg(import_footprint, command):
    assert import_footprint[command] == []


# Whether ``scipy.sparse.linalg`` is loaded after a c = 0 and then a c > 0
# call of ``perturbed_ergodic_state`` (only the sparse solve needs it).
SOLVE_PROBE = """\
import json, sys
import numpy as np
from uhfflow import dense, lindblad
from uhfflow.algebra import AlgebraParams, LocalOperator
sx = LocalOperator.site_word(AlgebraParams(2, 1), (0,), 1, 0)
L = lindblad.Lindbladian.single_kraus(sx)
state = dense.StateSpec(np.diag([0.7, 0.3]))
loaded = []
for c in (0.0, 0.5):
    lindblad.perturbed_ergodic_state(state, L, c, sx)
    loaded.append("scipy.sparse.linalg" in sys.modules)
print(json.dumps(loaded))
"""


def test_perturbed_state_loads_sparse_linalg_only_for_positive_c():
    assert json.loads(run_fresh(SOLVE_PROBE)) == [False, True]
