"""Every name a gkval module or test imports is used by that module, every
private top-level name and private method a gkval module defines is used by
that module, every public top-level name is used somewhere, and every class
field, annotated or a public ``__slots__`` entry, is read as an attribute
somewhere.  No gkval module reads a private attribute of an object other
than ``self`` or ``cls`` unless it defines that name itself.

``__init__.py`` re-exports the public API and is skipped, as are
``__future__`` imports.  Only the standard ``ast`` module is used.

Last, start-up and dependencies: the CLI must import neither dataclasses
nor inspect, must load the oracles only for the ``verify-*`` commands, and
must not load mpmath for a non-archimedean command.  Gamma is evaluated
with the standard library, so ``verify-all`` and ``verify-arch`` must pass
under ``python -S``, where no site-packages directory, and so no
third-party module, is reachable; ``import gkval.cli`` must not load
``cmath``, which only Gamma needs, nor ``typing``, as the annotations take
their names from ``collections.abc``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import README_SPEC

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gkval"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
# where a public name may be used: the package, its tests and the benchmark
USERS = sorted(
    p for d in (ROOT / "src", ROOT / "tests", ROOT / "perfbench") for p in d.rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def definitions(source: str) -> list[str]:
    """Top-level functions, classes and constants of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_methods(source: str) -> list[str]:
    """Methods of top-level classes named with a leading underscore, other
    than dunders."""
    return [item.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name.startswith("_")
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def uses(source: str) -> set[str]:
    """Names a module reads: bare names, attributes, and the dotted parts of
    string constants (the benchmark wraps functions named by string).
    Definitions and imports are not uses."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def fields(source: str) -> list[str]:
    """Class.field for every annotated field of a top-level class and every
    public name in its ``__slots__``; private slots such as a cached hash
    are not fields."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                out.append(f"{node.name}.{item.target.id}")
            elif (isinstance(item, ast.Assign)
                  and [getattr(t, "id", None) for t in item.targets] == ["__slots__"]):
                out += [f"{node.name}.{name}" for name in ast.literal_eval(item.value)
                        if not name.startswith("_")]
    return out


def attribute_reads(source: str) -> set[str]:
    """Attribute names a module reads; stores and string mentions are not reads."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_attributes(source: str) -> set[str]:
    """Private names a module defines: methods, ``__slots__`` entries,
    ``self._x =`` and ``cls._x =`` assignments, and module-level names."""
    out = {n for n in definitions(source) if is_private(n)} | set(private_methods(source))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__slots__"]):
            out.update(ast.literal_eval(node.value))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) in ("self", "cls")):
            out.add(node.attr)
    return {n for n in out if is_private(n)}


def foreign_private_reads(source: str) -> list[str]:
    """``obj._x`` on anything but ``self`` or ``cls``, where the module
    defines no ``_x`` itself: a reach into another module's internals."""
    own = private_attributes(source)
    return [f"{ast.unparse(n.value)}.{n.attr} (line {n.lineno})"
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and is_private(n.attr) and n.attr not in own
            and getattr(n.value, "id", None) not in ("self", "cls")]


def test_checker_flags_only_unused_names():
    source = "import os\nimport os.path as osp\nfrom x import a, b as c\nprint(a, osp)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_dead_name_checker_sees_definitions_and_uses():
    source = ("from x import y\nA = 1\n_B = 2\nC: int = 3\n"
              "def f():\n    return m.g(A)\nclass K:\n    pass\nL = ['h.k']\n")
    assert definitions(source) == ["A", "_B", "C", "f", "K", "L"]
    assert uses(source) == {"int", "A", "g", "m", "h", "k"}
    methods = ("class K:\n    def __init__(self):\n        self._b()\n"
               "    def _a(self):\n        pass\n    def _b(self):\n        pass\n"
               "    def c(self):\n        def _d():\n            pass\n"
               "def _e():\n    pass\n")
    assert private_methods(methods) == ["_a", "_b"]
    assert "_b" in uses(methods) and "_a" not in uses(methods)


def test_field_checker_sees_fields_and_reads():
    source = ("class K:\n    a: int\n    b: str = ''\n    c = 1\n    def f(self):\n"
              "        self.d = self.a\n        return 'b'\n")
    assert fields(source) == ["K.a", "K.b"]
    assert attribute_reads(source) == {"a"}
    slotted = ("class S:\n    __slots__ = ('x', 'y', '_hash')\n    z = 1\n"
               "class T:\n    __slots__ = ('w',)\n")
    assert fields(slotted) == ["S.x", "S.y", "T.w"]


def test_layering_checker_sees_foreign_private_reads():
    source = ("_A = 1\nclass K:\n    __slots__ = ('_s', 'x')\n    def __init__(self):\n"
              "        self._t = 1\n    def _m(self):\n        return self._u\n"
              "    @classmethod\n    def c(cls):\n        cls._v = 2\n"
              "def f(k, m):\n    return k._s, k._t, k._m(), k._v, m._A, k.__dict__, m._w, k._u\n")
    assert private_attributes(source) == {"_A", "_s", "_t", "_m", "_v"}
    assert foreign_private_reads(source) == ["m._w (line 12)", "k._u (line 12)"]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_dead_public_names():
    used = set().union(*(uses(p.read_text(encoding="utf-8")) for p in USERS))
    dead = [f"{path.name}: {name}" for path in MODULES
            for name in definitions(path.read_text(encoding="utf-8"))
            if not name.startswith("_") and name not in used]
    assert dead == []


def test_no_dead_fields():
    """A field that nothing reads is a value held for no one."""
    read = set().union(*(attribute_reads(p.read_text(encoding="utf-8")) for p in USERS))
    dead = [f"{path.name}: {field}" for path in MODULES
            for field in fields(path.read_text(encoding="utf-8"))
            if field.partition(".")[2] not in read]
    assert dead == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    """A private helper or method's only users are in its own module, so a
    helper whose last caller is deleted must go with it."""
    source = path.read_text(encoding="utf-8")
    used = uses(source)
    private = [n for n in definitions(source) if n.startswith("_")] + private_methods(source)
    assert [n for n in private if n not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_attributes(path):
    """A private attribute belongs to the module that defines it; another
    module that needs it needs a public name."""
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter, where nothing is imported yet."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_mpmath_loads_only_for_archimedean_checks():
    run_fresh(
        "import contextlib, io, sys\n"
        "import gkval.cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert gkval.cli.main(['verify-local', '--q', '2', '--s-grid', '1']) == 0\n"
        "assert 'mpmath' not in sys.modules\n"
    )


def test_start_up_loads_no_dataclasses_and_oracles_on_first_use(tmp_path):
    """Start-up compiles every module it imports, as no bytecode is cached
    where PYTHONDONTWRITEBYTECODE is set: the CLI imports neither
    dataclasses nor inspect, and only the verify-* commands load the
    oracles and their suites."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(README_SPEC))
    run_fresh(
        "import contextlib, io, sys\n"
        "import gkval.cli\n"
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert gkval.cli.main(['constant-term', '--input', {str(spec)!r}]) == 0\n"
        "assert 'gkval.oracles' not in sys.modules and 'gkval.checks' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert gkval.cli.main(['verify-local', '--q', '2', '--s-grid', '1']) == 0\n"
        "assert 'gkval.oracles' in sys.modules and 'gkval.checks' in sys.modules\n"
    )


def test_verify_commands_need_only_the_standard_library():
    """``python -S`` with only the source on the path: mpmath, like every
    third-party module, is out of reach, and the verify commands still pass."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}

    def run(*args):
        return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                              text=True, env=env)

    probe = run("-c", "import importlib.util, sys\n"
                      "assert importlib.util.find_spec('mpmath') is None\n"
                      "import gkval.cli\n"
                      "assert 'cmath' not in sys.modules\n"
                      "assert 'typing' not in sys.modules\n")
    assert probe.returncode == 0, probe.stderr
    every = run("-m", "gkval.cli", "verify-all", "--output-format", "json")
    assert every.returncode == 0, every.stderr
    report = json.loads(every.stdout)
    assert (report["pass"], report["total"], report["failed"]) == (True, 99, 0)
    arch = run("-m", "gkval.cli", "verify-arch")
    assert arch.returncode == 0, arch.stderr
