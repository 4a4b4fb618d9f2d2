"""Source hygiene: no module of the package imports a name it never uses,
reads a private name of another package module, imports a package module
inside a function, defines a public name that neither the package nor
the benchmark reads, caches a function other than best_constant, or takes
numpy's exp outside the phase block arith_core.unit_phases."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "expsumlab"
PERFBENCH = ROOT / "perfbench"


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a bare name
    (an attribute access such as np.log reads the name np)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom .errors import A, B\n"
              "def f(x: A) -> float:\n    return np.log(x)\n")
    assert unused_imports(source) == ["B (line 4)", "math (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list:
    """Underscore-prefixed names of other package modules that source reads:
    imported from a relative module (from .arith_core import _x), or read
    as an attribute of a module imported from the package (from . import
    arith_core, then arith_core._x)."""
    tree = ast.parse(source)
    modules = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.append(f"{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reads.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(reads)


def test_scan_sees_private_reads():
    source = ("from . import arith_core\nfrom . import floor_mangoldt as fm\n"
              "from .floor_mangoldt import _PIECE, QUOTIENT_GUARD\n"
              "def _own(x):\n    return arith_core._tree_reduce(x) + fm._PIECE\n"
              "y = arith_core.chunked_tree_sum, arith_core.__name__, _own(0)\n")
    assert private_reads(source) == ["_PIECE (line 3)", "arith_core._tree_reduce (line 5)",
                                     "fm._PIECE (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text()) == []


def local_package_imports(source: str) -> list:
    """Imports of a package module (relative, or absolute from expsumlab)
    made inside a function body, where they hide a dependency from the
    module header."""
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["."]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n == "." or n.split(".")[0] == "expsumlab" for n in names):
                found.add(f"{fn.name} (line {node.lineno})")
    return sorted(found)


def test_scan_sees_local_package_imports():
    source = ("import math\nfrom .errors import CapacityError\n"
              "def f():\n    from .arith_core import sieve_primes\n    import json\n"
              "    def g():\n        import expsumlab.reports\n    return g\n"
              "def h():\n    from expsumlab import suites\n    from fractions import Fraction\n")
    assert local_package_imports(source) == ["f (line 4)", "f (line 7)", "g (line 7)",
                                             "h (line 10)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_local_package_imports(path):
    assert local_package_imports(path.read_text()) == []


def package_imports(source: str) -> set:
    """The package modules that source imports: relative imports (from .x
    import y, from . import x) and absolute ones from expsumlab."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (".".join(filter(None, ("expsumlab", node.module))) if node.level
                      else node.module or "")
            names = ([f"expsumlab.{alias.name}" for alias in node.names]
                     if module == "expsumlab" else [module])
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("expsumlab."))
    return found


def test_scan_sees_package_imports():
    source = ("import numpy as np\nimport expsumlab.reports\nfrom . import suites as s\n"
              "from .errors import check_phase\nfrom expsumlab import arith_core\n"
              "from expsumlab.seeding import DetRand\n")
    assert package_imports(source) == {"reports", "suites", "errors", "arith_core",
                                       "seeding"}


# floor_mangoldt is the floor-sum layer: the phase guard the kernels share
# lives in errors, so only the front ends import it
FLOOR_SUM_IMPORTERS = {"suites", "cli_harness"}


def test_floor_sum_imported_only_by_front_ends():
    importers = {p.stem for p in SRC.glob("*.py")
                 if "floor_mangoldt" in package_imports(p.read_text())}
    assert importers <= FLOOR_SUM_IMPORTERS


# Public names that no package module and no benchmark file reads, kept on
# purpose; every other such name is dead code.
UNREACHED_KEPT = {
    "floor_mangoldt.r_delta": "the R_delta window sum, kept for the proof ledger",
    "suites.measure_baselines": "regenerates data/baselines.json",
}


def unreached_names(defining: dict, readers: list) -> list:
    """Public top-level functions and classes of the defining sources (a map
    from module name to text) that no reader source reads as a bare name, as
    an attribute, or by a from-import."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, source in defining.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in read):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_scan_sees_unreached_names():
    core = ("def used(x):\n    return helper(x)\n"
            "def helper(x):\n    return x\n"
            "class Dead:\n    def used(self):\n        pass\n"
            "def _private():\n    pass\n")
    user = "from .core import used\nimport core\ny = core.helper\n"
    assert unreached_names({"core": core}, [core, user]) == ["core.Dead"]
    assert unreached_names({"core": core}, [core]) == ["core.Dead", "core.used"]


def test_no_unreached_public_names():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))]
    assert unreached_names(package, list(package.values()) + bench) == sorted(UNREACHED_KEPT)


# Dataclass fields that no package module, benchmark file or test reads,
# kept on purpose; every other such field is state nothing looks at.
UNREAD_FIELDS_KEPT: dict = {}
TESTS = ROOT / "tests"


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def unread_fields(defining: dict, readers: list) -> list:
    """Class-level fields of the dataclasses in the defining sources (a map
    from module name to text) that no reader source reads as an attribute;
    an assignment to the attribute is not a read."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    found = []
    for module, source in defining.items():
        for cls in ast.parse(source).body:
            if not (isinstance(cls, ast.ClassDef)
                    and any(_is_dataclass_decorator(d) for d in cls.decorator_list)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in read):
                    found.append(f"{module}.{cls.name}.{node.target.id}")
    return sorted(found)


def test_scan_sees_unread_fields():
    core = ("from dataclasses import dataclass\nimport dataclasses\n"
            "@dataclass(frozen=True)\nclass Fit:\n    slope: float\n    intercept: float\n"
            "    LIMIT = 3\n"
            "@dataclasses.dataclass\nclass Row:\n    lhs: float\n    note: str = ''\n"
            "class Plain:\n    unread: int\n"
            "def fit():\n    return Fit(slope=1.0, intercept=0.0)\n")
    user = "r = Row(1.0)\nr.note = 'set, never read'\ny = fit().slope + r.lhs\n"
    assert unread_fields({"core": core}, [core, user]) == ["core.Fit.intercept",
                                                           "core.Row.note"]


def test_no_unread_dataclass_fields():
    package = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))]
    others += [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unread_fields(package, list(package.values()) + others) == sorted(UNREAD_FIELDS_KEPT)


CACHING_DECORATORS = {"lru_cache", "cache", "cached_property"}


def cached_functions(source: str) -> list:
    """Functions and methods, at any depth, that a caching decorator wraps,
    bare or called, as a bare name or as an attribute of functools."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
                if name in CACHING_DECORATORS:
                    found.append(node.name)
    return sorted(found)


def test_scan_sees_cached_functions():
    source = ("import functools\nfrom functools import cache, cached_property, lru_cache\n"
              "@lru_cache(maxsize=4)\ndef a():\n    pass\n"
              "@functools.cache\ndef b():\n    pass\n"
              "class C:\n    @cached_property\n    def c(self):\n        pass\n"
              "    @property\n    def d(self):\n        pass\n"
              "def e():\n    @functools.lru_cache(maxsize=1)\n    def f():\n        pass\n"
              "    return f\n")
    assert cached_functions(source) == ["a", "b", "c", "f"]


def test_only_best_constant_is_cached():
    # a cache stays only where it pays: best_constant's spares each fit a
    # 10^8 sieve
    found = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in cached_functions(p.read_text())]
    assert found == ["floor_mangoldt.best_constant"]


def numpy_exp_sites(source: str) -> list:
    """(function, line) of every read of numpy's exp: np.exp or numpy.exp,
    called or not, and a from-import of it; function is the innermost
    enclosing def, "<module>" at top level."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (isinstance(node, ast.Attribute) and node.attr == "exp"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
              or isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "exp" for alias in node.names)):
            found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_sees_numpy_exp_sites():
    source = ("import cmath\nimport numpy as np\nfrom numpy import exp, log\n"
              "def f(t):\n    def g(u):\n        return np.exp(u)\n"
              "    return g(t) + cmath.exp(t) + np.expm1(t)\n"
              "h = list(map(np.exp, [0.0]))\n"
              "class C:\n    def m(self, z):\n        return np.exp(z, out=z)\n")
    assert numpy_exp_sites(source) == [("<module>", 3), ("g", 6), ("<module>", 8),
                                       ("m", 11)]


def test_numpy_exp_only_in_the_phase_block():
    # one rule turns a float phase into e(theta): reduce mod 1 in place,
    # then exp; a second numpy exp would be a second rule
    stray = [f"{p.name}:{line} in {fn}" for p in sorted(SRC.glob("*.py"))
             for fn, line in numpy_exp_sites(p.read_text())
             if (p.stem, fn) != ("arith_core", "unit_phases")]
    assert stray == []
